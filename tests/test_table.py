"""The per-game utility table and the analyses that read it.

improvement_graph and exact_potential_check read every utility from one
table per game, by profile index. The oracles here are the direct
constructions: a graph built from utility() and replace_topic, and the scan
that evaluates potential_residual on every 2x2 subgame.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import rankgames as rg
from rankgames.errors import ValidationError
from rankgames.model import profile_index

MEDIATORS = (
    rg.PRP,
    rg.RAND,
    rg.Mediator.scoring(rg.ScoreFunction.identity()),
    rg.Mediator.scoring(rg.ScoreFunction.power(2.0)),
    rg.Mediator.scoring(rg.ScoreFunction.exponential(3.0)),
)


@st.composite
def games(draw):
    tie_rich = draw(st.booleans())
    return rg.generate_random_game(
        draw(st.integers(0, 10**6)),
        draw(st.integers(1, 4)),
        draw(st.integers(1, 4)),
        generic_Q=not tie_rich,
        sorted_D=False,
        denominator_bound=draw(st.integers(1, 4)) if tie_rich else 60,
        mediator=draw(st.sampled_from(MEDIATORS)),
        scheme=draw(st.sampled_from((rg.EXPOSURE, rg.ACTION))),
    )


def fresh(game):
    """An equal game with empty caches."""
    return rg.make_game(game.demand, game.quality, game.mediator, game.scheme)


def naive_graph(game, margin):
    adj = []
    for a in rg.iter_profiles(game.n, game.m):
        out = []
        for j in range(1, game.n + 1):
            for t in range(1, game.m + 1):
                if t == a[j - 1]:
                    continue
                b = rg.replace_topic(a, j, t)
                if rg.improves(rg.utility(game, a, j), rg.utility(game, b, j), margin):
                    out.append(profile_index(b, game.m))
        adj.append(sorted(out))
    return adj


def naive_potential_check(game, tol=1e-9):
    """The scan over potential_residual, subgame by subgame."""
    n, m = game.n, game.m
    exact = game.mediator.kind != "scoring"
    worst = Fraction(0) if exact else 0.0
    witness = None
    others_profiles = list(rg.iter_profiles(max(n - 2, 0), m)) or [()]
    for i in range(1, n):
        for j in range(i + 1, n + 1):
            rest_idx = [r for r in range(1, n + 1) if r not in (i, j)]
            for rest in others_profiles:
                base = [1] * n
                for r, t in zip(rest_idx, rest):
                    base[r - 1] = t
                base = tuple(base)
                for s1 in range(1, m):
                    for s2 in range(s1 + 1, m + 1):
                        for t1 in range(1, m):
                            for t2 in range(t1 + 1, m + 1):
                                res = rg.potential_residual(game, i, j, (s1, s2), (t1, t2), base)
                                if abs(res) > worst:
                                    worst = abs(res)
                                    witness = rg.PotentialWitness((i, j), (s1, s2), (t1, t2), base)
    has = worst == 0 if exact else worst <= tol
    return rg.PotentialReport(has, worst, witness)


@settings(max_examples=60)
@given(games())
def test_graph_matches_naive_graph(game):
    for margin in (0.0, 1e-12):
        assert rg.improvement_graph(game, margin=margin).adj == naive_graph(fresh(game), margin)


def test_graph_margin_on_float_ties():
    # author 1 earns 2/7 at both (1, 1, 2) and (2, 1, 2), but the floats
    # differ in the last bit: only a nonzero margin drops that edge
    game = rg.make_game(("1/2", "1/2"), (("4/5", "1"), ("3/5", "0"), ("0", "3/4")),
                        rg.Mediator.scoring(rg.ScoreFunction.identity()))
    graphs = [rg.improvement_graph(game, margin=margin).adj for margin in (0.0, 1e-12)]
    assert graphs[0] != graphs[1]
    assert graphs == [naive_graph(fresh(game), margin) for margin in (0.0, 1e-12)]


@settings(max_examples=60)
@given(games())
def test_potential_check_matches_residual_scan(game):
    # the oracle runs first, so its potential_residual calls see no table
    want = naive_potential_check(game)
    got = rg.exact_potential_check(game)
    assert got.has_exact_potential == want.has_exact_potential
    assert type(got.worst_residual) is type(want.worst_residual)
    assert got.worst_residual == want.worst_residual
    assert got.witness == want.witness


@given(games())
def test_utility_vector_unchanged_by_the_table(game):
    profiles = list(rg.iter_profiles(game.n, game.m))
    before = [rg.utility_vector(game, a) for a in profiles]
    rg.improvement_graph(game)
    after = [rg.utility_vector(game, a) for a in profiles]
    assert after == before
    assert [tuple(map(type, v)) for v in after] == [tuple(map(type, v)) for v in before]


def test_suite_pne_count_matches_enumeration():
    cfg = rg.ExperimentConfig(games=12, seed=3, n_range=(2, 3), m_range=(2, 3),
                              checks=frozenset({"pne"}), generic_Q=False,
                              denominator_bound=3)
    for row in rg.run_experiment_suite(cfg).rows:
        game = rg.generate_random_game(row["seed"], row["n"], row["m"], generic_Q=False,
                                       denominator_bound=3)
        assert row["pne_count"] == len(rg.enumerate_pne(game))


# ---------- profile validation ----------

BAD_PROFILES = [(0, 2), (1, 4), (1,), (1, 2, 3), (True, 2)]


def _calls(game, a):
    return (
        lambda: rg.utility(game, a, 1),
        lambda: rg.utility_vector(game, a),
        lambda: rg.better_responses(game, a, 1),
        lambda: rg.best_responses(game, a, 1),
        lambda: rg.is_pne(game, a),
    )


@pytest.mark.parametrize("with_table", [False, True])
@pytest.mark.parametrize("a", BAD_PROFILES)
def test_bad_profiles_are_rejected(a, with_table):
    # topic 0, topic m + 1, too short, too long, a bool topic
    game = rg.example_game()
    if with_table:
        rg.improvement_graph(game)
        assert "table" in game._cache
    for call in _calls(game, a):
        with pytest.raises(ValidationError):
            call()


def test_bad_author_is_rejected():
    game = rg.example_game()
    for j in (0, 3):
        for call in (rg.utility, rg.better_responses, rg.best_responses):
            with pytest.raises(ValidationError):
                call(game, (1, 2), j)
