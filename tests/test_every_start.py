"""The suite's dynamics check: every start's run read off the improvement graph.

The walk over the graph's out-lists must give the same (converged, worst)
as one run_dynamics call per start and scheduler, the per-start oracle, on
acyclic and cyclic games and at any step budget.
"""

import pytest
from hypothesis import example, given, settings, strategies as st

import rankgames as rg
from rankgames import harness
from rankgames.analysis import _converge_on_graph

from oracle import converge_per_start

POWER2 = rg.Mediator.scoring(rg.ScoreFunction.power(2.0))
MEDIATORS = (
    rg.PRP,
    rg.RAND,
    rg.Mediator.scoring(rg.ScoreFunction.identity()),
    POWER2,
    rg.Mediator.scoring(rg.ScoreFunction.exponential(3.0)),
)


def _game(seed, n, m, mediator, scheme, tie_rich):
    return rg.generate_random_game(
        seed, n, m, generic_Q=not tie_rich, sorted_D=not tie_rich,
        denominator_bound=4 if tie_rich else 1000, mediator=mediator, scheme=scheme,
    )


def _walk(game, max_steps=None):
    graph = rg.improvement_graph(game)
    fip = rg.has_fip(game)[0]
    return _converge_on_graph(graph, fip, max_steps or rg.default_max_steps(game))


def _assert_same(got, want):
    """converged always; the step count only when every run converged."""
    assert got[0] is want[0]
    if want[0]:
        assert got[1] == want[1]


@st.composite
def small_games(draw):
    return _game(
        draw(st.integers(0, 10**6)),
        draw(st.integers(1, 3)),
        draw(st.integers(1, 3)),
        draw(st.sampled_from(MEDIATORS)),
        draw(st.sampled_from((rg.EXPOSURE, rg.ACTION))),
        draw(st.booleans()),
    )


@settings(max_examples=400)
@given(small_games(), st.sampled_from((None, 1, 2, 3)))
# a 3x3 prp game whose longest run takes 4 steps, so budget 3 fails it
@example(_game(2, 3, 3, rg.PRP, rg.EXPOSURE, False), 3)
def test_pass_matches_per_start_runs(game, max_steps):
    _assert_same(_walk(game, max_steps), converge_per_start(game, max_steps))


@pytest.mark.parametrize("mediator", MEDIATORS, ids=lambda med: med.kind + (f"-{med.f.kind}" if med.f else ""))
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_pass_matches_per_start_runs_4x3(mediator, seed):
    game = _game(seed, 4, 3, mediator, (rg.EXPOSURE, rg.ACTION)[seed % 2], seed == 1)
    assert rg.has_fip(game)[0]
    want = converge_per_start(game)
    assert want[0]
    assert _walk(game) == want
    # one step short of the longest run
    _assert_same(_walk(game, want[1] - 1), converge_per_start(game, want[1] - 1))


# ---------- the suite ----------

def _suite_row(monkeypatch, game, checks):
    monkeypatch.setattr(harness, "generate_random_game", lambda *args, **kwargs: game)
    cfg = rg.ExperimentConfig(seed=0, games=1, n_range=(game.n, game.n),
                              m_range=(game.m, game.m), checks=frozenset(checks))
    return rg.run_experiment_suite(cfg).rows[0]


CYCLIC_GAMES = {
    "thm3": lambda: rg.build_exposure_cycle_game(rg.ScoreFunction.identity()).game,
    "thm4": lambda: rg.build_action_cycle_game(rg.ScoreFunction.power(8.0), 2.0).game,
    "thm5": lambda: rg.build_band_cycle_game(rg.ScoreFunction.identity(), 1.0, 1.0).game,
    "power2": lambda: rg.generate_random_game(30, 4, 3, mediator=POWER2),
}


@pytest.mark.parametrize("checks", [{"dynamics"}, {"fip", "dynamics"}])
@pytest.mark.parametrize("name", CYCLIC_GAMES)
def test_cyclic_games_run_each_start(name, checks, monkeypatch):
    game = CYCLIC_GAMES[name]()
    assert not rg.has_fip(game)[0]
    converged, worst = converge_per_start(game)
    row = _suite_row(monkeypatch, game, checks)
    assert row["dynamics_converged"] is converged
    assert row.get("steps_to_converge") == (worst if converged else None)
    assert row.get("fip", False) is False
    for max_steps in (1, 2, 3):
        _assert_same(_walk(game, max_steps), converge_per_start(game, max_steps))


SUITE_CONFIGS = {
    "prp_generic": {"n_range": (2, 3), "m_range": (2, 3)},
    "prp_action_tie": {"n_range": (3, 3), "m_range": (2, 2), "scheme": rg.ACTION,
                       "generic_Q": False, "sorted_D": False, "denominator_bound": 4},
    "rand": {"n_range": (2, 3), "m_range": (2, 3), "mediator": rg.RAND},
    "power2": {"n_range": (3, 3), "m_range": (3, 3), "mediator": POWER2},
}


@pytest.mark.parametrize("name", SUITE_CONFIGS)
def test_dynamics_only_suite_matches_per_start_runs(name):
    cfg = rg.ExperimentConfig(seed=7, games=12, checks=frozenset({"dynamics"}),
                              **SUITE_CONFIGS[name])
    report = rg.run_experiment_suite(cfg)
    steps = []
    for row in report.rows:
        game = rg.generate_random_game(
            row["seed"], row["n"], row["m"], generic_Q=cfg.generic_Q, sorted_D=cfg.sorted_D,
            denominator_bound=cfg.denominator_bound, mediator=cfg.mediator, scheme=cfg.scheme)
        converged, worst = converge_per_start(game)
        assert row["dynamics_converged"] is converged
        assert row.get("steps_to_converge") == (worst if converged else None)
        steps += [worst] if converged else []
    assert report.aggregate["max_steps_to_converge"] == max(steps)
    assert report.aggregate["mean_steps_to_converge"] == sum(steps) / len(steps)
    assert all("steps_to_converge" in row for row in report.rows)
