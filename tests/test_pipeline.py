"""One analysis pipeline: the equilibria are the improvement graph's sinks,
and every suite row is read from analysis_report.

analysis_report is checked against the oracle's report built from the
definitions, enumerate_pne against the per-profile is_pne filter, and a
suite run with some checks against the all-checks run of the same config.
"""

from itertools import combinations

import pytest
from hypothesis import example, given, settings, strategies as st

import rankgames as rg
from oracle import fresh, naive_graph, naive_report
from rankgames.analysis import profile_index
from rankgames.harness import CHECKS

POWER2 = rg.Mediator.scoring(rg.ScoreFunction.power(2.0))
MEDIATORS = (
    rg.PRP,
    rg.RAND,
    rg.Mediator.scoring(rg.ScoreFunction.identity()),
    POWER2,
    rg.Mediator.scoring(rg.ScoreFunction.exponential(3.0)),
)


def _is_pne_filter(game, margin):
    return [a for a in rg.iter_profiles(game.n, game.m) if rg.is_pne(game, a, margin)]


@given(
    st.integers(0, 10**6),
    st.integers(1, 3),
    st.integers(1, 3),
    st.sampled_from(MEDIATORS),
    st.sampled_from((rg.EXPOSURE, rg.ACTION)),
    st.booleans(),
    st.sampled_from((0.0, 1e-12)),
)
def test_enumerate_pne_is_the_is_pne_filter(seed, n, m, mediator, scheme, tie_rich, margin):
    game = rg.generate_random_game(
        seed, n, m, generic_Q=not tie_rich, sorted_D=not tie_rich,
        denominator_bound=4 if tie_rich else 1000, mediator=mediator, scheme=scheme,
    )
    assert rg.enumerate_pne(game, margin=margin) == _is_pne_filter(game, margin)


@st.composite
def small_games(draw):
    tie_rich = draw(st.booleans())
    return rg.generate_random_game(
        draw(st.integers(0, 10**6)), draw(st.integers(1, 3)), draw(st.integers(1, 3)),
        generic_Q=not tie_rich, sorted_D=not tie_rich, denominator_bound=4 if tie_rich else 1000,
        mediator=draw(st.sampled_from(MEDIATORS)),
        scheme=draw(st.sampled_from((rg.EXPOSURE, rg.ACTION))),
    )


@settings(max_examples=200)
@given(small_games(), st.sampled_from((0.0, 1e-12, 1e-3)))
# random games this small rarely cycle: two cyclic games, 4x3
@example(rg.build_exposure_cycle_game(rg.ScoreFunction.identity()).game, 0.0)
@example(rg.generate_random_game(30, 4, 3, mediator=POWER2), 0.0)
def test_analysis_report_matches_naive_report(game, margin):
    got = rg.analysis_report(game, margin=margin)
    want = naive_report(fresh(game), margin)
    if not want["fip"]:
        # a closed walk of graph edges, as short as a cycle can be, from the
        # lowest-index node that lies on a shortest cycle
        cycle, shortest = got.pop("cycle"), want.pop("cycle")
        adj = naive_graph(fresh(game), margin)
        at = [profile_index(a, game.m) for a in cycle]
        assert all(v in adj[u] for u, v in zip(at, at[1:]))
        assert (len(cycle), cycle[0], cycle[-1]) == (len(shortest), shortest[0], shortest[0])
    assert got == want


@pytest.mark.parametrize("margin", [0.0, 1e-12])
def test_enumerate_pne_follows_the_margin(margin):
    # an identity-scoring game whose float utilities tie up to rounding, so
    # the margin changes which profiles are equilibria
    game = rg.make_game(
        ("1/2", "1/2"), (("4/5", "1"), ("3/5", "0"), ("0", "3/4")),
        rg.Mediator.scoring(rg.ScoreFunction.identity()),
    )
    assert rg.enumerate_pne(game, margin=margin) == _is_pne_filter(game, margin)
    assert rg.enumerate_pne(game, margin=margin) == [
        tuple(a) for a in rg.analysis_report(game, margin=margin)["pne"]
    ]


# ---------- suite rows ----------

# the row and aggregate keys each check writes; the rest are always written
ROW_KEYS = {
    "fip": "fip", "max_path_len": "fip", "pne_count": "pne",
    "potential_exists": "potential",
    "dynamics_converged": "dynamics", "steps_to_converge": "dynamics",
}
AGGREGATE_KEYS = {
    "fip_rate": "fip", "cycle_witnesses": "fip",
    "potential_failure_rate": "potential",
    "mean_steps_to_converge": "dynamics", "max_steps_to_converge": "dynamics",
}

SUITES = {
    "prp": {"seed": 3, "games": 8, "n_range": (2, 3), "m_range": (2, 3)},
    "prp_action_tie": {"seed": 5, "games": 8, "n_range": (3, 3), "m_range": (2, 3),
                       "scheme": rg.ACTION, "generic_Q": False, "sorted_D": False,
                       "denominator_bound": 4},
    # its third game has an improvement cycle
    "power2_cyclic": {"seed": 34, "games": 5, "n_range": (3, 4), "m_range": (2, 3),
                      "mediator": POWER2},
}


def _restricted(items, owner, checks):
    return [(k, v) for k, v in items if k not in owner or owner[k] in checks]


@pytest.mark.parametrize("name", SUITES)
def test_each_check_subset_reads_the_all_checks_row(name):
    full = rg.run_experiment_suite(rg.ExperimentConfig(**SUITES[name]))
    if name == "power2_cyclic":
        assert [row["fip"] for row in full.rows].count(False) == 1
    for size in range(1, len(CHECKS) + 1):
        for checks in combinations(CHECKS, size):
            report = rg.run_experiment_suite(
                rg.ExperimentConfig(**SUITES[name], checks=frozenset(checks)))
            assert [list(row.items()) for row in report.rows] == [
                _restricted(row.items(), ROW_KEYS, checks) for row in full.rows
            ]
            assert list(report.aggregate.items()) == _restricted(
                full.aggregate.items(), AGGREGATE_KEYS, checks)
