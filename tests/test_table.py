"""The per-game utility columns and the analyses that read them.

improvement_graph and exact_potential_check read every utility from one
column store per game, by profile index. The oracles here are the direct
constructions: a graph built from utility() and replace_topic, and the scan
that evaluates every 2x2 subgame's residual from utility_vector.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import rankgames as rg
from rankgames import analysis
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


def separability_residual(game, i, j, topics_i, topics_j, base):
    """With X = u_i - u_j: (X[s2][t1] - X[s1][t1]) - (X[s2][t2] - X[s1][t2]),
    the order in which the scan evaluates float residuals."""
    def x(s, t):
        vec = rg.utility_vector(game, rg.replace_topic(rg.replace_topic(base, i, s), j, t))
        return vec[i - 1] - vec[j - 1]

    (s1, s2), (t1, t2) = topics_i, topics_j
    return (x(s2, t1) - x(s1, t1)) - (x(s2, t2) - x(s1, t2))


def naive_residuals(game):
    """|residual| and its subgame, subgame by subgame in scan order: under
    prp/rand potential_residual's, under scoring separability_residual's."""
    residual = separability_residual if game.mediator.kind == "scoring" else rg.potential_residual
    n, m = game.n, game.m
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
                                res = residual(game, i, j, (s1, s2), (t1, t2), base)
                                yield abs(res), rg.PotentialWitness((i, j), (s1, s2), (t1, t2), base)


def naive_potential_check(game, tol=1e-9, residuals=None):
    """The scan over naive_residuals, subgame by subgame."""
    exact = game.mediator.kind != "scoring"
    worst = Fraction(0) if exact else 0.0
    witness = None
    for res, subgame in residuals or naive_residuals(game):
        if res > worst:
            worst, witness = res, subgame
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
# on this game's floats, X[s2][t1] - X[s1][t1] - X[s2][t2] + X[s1][t2]
# equals the worst residual at no t-pair of the witness's s-pair: the t-pair
# must come from the w values of the scan's own order
@example(rg.generate_random_game(1, 3, 3, mediator=MEDIATORS[3]))
def test_potential_check_matches_residual_scan(game):
    assert_potential_check_matches(game)


def assert_potential_check_matches(game, residuals=None):
    # the oracle runs on an equal game, so its utility_vector calls share no
    # cache with the scan
    want = naive_potential_check(fresh(game), residuals=residuals)
    got = rg.exact_potential_check(game)
    assert got == want
    assert type(got.worst_residual) is type(want.worst_residual)
    if got.witness is not None and game.mediator.kind == "scoring":
        # potential_residual sums the same utilities in another order
        w = got.witness
        at = abs(rg.potential_residual(fresh(game), *w.authors, w.topics_i, w.topics_j, w.base))
        assert math.isclose(at, got.worst_residual, rel_tol=1e-12, abs_tol=1e-14)


# tie-rich games where several subgames attain the worst residual: the
# witness must be the first of them in scan order (author pair, rest, then
# kind of subgame). In most of them the first by kind comes later in that
# order; in the t-pairs case several t-pairs tie at one rest.
POWER2 = rg.Mediator.scoring(rg.ScoreFunction.power(2.0))
TIED_WORST = [
    ("prp exposure 3^5", 13, 5, 3, rg.PRP, rg.EXPOSURE),
    ("prp action 4^5", 11, 5, 4, rg.PRP, rg.ACTION),
    ("prp action 4^5, t-pairs", 2, 5, 4, rg.PRP, rg.ACTION),
    ("rand action 3^5", 14, 5, 3, rg.RAND, rg.ACTION),
    ("power(2) 3^4", 16, 4, 3, POWER2, rg.EXPOSURE),
    # the witness at a rest other than the first
    ("prp action 3^4, later rest", 6, 4, 3, rg.PRP, rg.ACTION),
    ("power(2) 3^4, later rest", 33, 4, 3, POWER2, rg.EXPOSURE),
    ("power(2) 3^7", 2, 7, 3, POWER2, rg.EXPOSURE),
]


@pytest.mark.parametrize("seed, n, m, mediator, scheme",
                         [case[1:] for case in TIED_WORST], ids=[case[0] for case in TIED_WORST])
def test_potential_witness_is_the_first_worst_subgame(seed, n, m, mediator, scheme):
    game = rg.generate_random_game(seed, n, m, generic_Q=False, denominator_bound=2,
                                   sorted_D=False, mediator=mediator, scheme=scheme)
    residuals = list(naive_residuals(fresh(game)))
    worst = max(r for r, _ in residuals)
    assert sum(r == worst for r, _ in residuals) > 1
    assert_potential_check_matches(game, residuals)


@pytest.mark.parametrize("seed, n, m, mediator, scheme",
                         [case[1:] for case in TIED_WORST[:-1]], ids=[case[0] for case in TIED_WORST[:-1]])
def test_potential_witness_across_chunks(seed, n, m, mediator, scheme, monkeypatch):
    # vectors of 1, 7, 30 and 500 entries: chunks that split one pair's rests,
    # and chunks of several pairs, where the witness order crosses chunks
    game = rg.generate_random_game(seed, n, m, generic_Q=False, denominator_bound=2,
                                   sorted_D=False, mediator=mediator, scheme=scheme)
    residuals = list(naive_residuals(fresh(game)))
    for chunk in (1, 7, 30, 500):
        monkeypatch.setattr(analysis, "_CHUNK", chunk)
        assert_potential_check_matches(fresh(game), residuals)


def test_exact_graph_at_a_positive_margin():
    # author 1's two topics differ by a relative 1e-13: an edge at margin 0,
    # none at 1e-12
    game = rg.make_game(("1/2", "1/2"), (("1", "9999999999999/10000000000000"), ("1/2", "1/2")),
                        rg.PRP, rg.ACTION)
    graphs = [rg.improvement_graph(game, margin=margin).adj for margin in (0.0, 1e-12)]
    assert graphs[0] != graphs[1]
    assert graphs == [naive_graph(fresh(game), margin) for margin in (0.0, 1e-12)]


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
    # topic 0, topic m + 1, too short, too long, a bool topic; with_table:
    # after the graph has built the column store
    game = rg.example_game()
    if with_table:
        rg.improvement_graph(game)
        assert "columns" in game._cache
    for call in _calls(game, a):
        with pytest.raises(ValidationError):
            call()


def test_bad_author_is_rejected():
    game = rg.example_game()
    for j in (0, 3):
        for call in (rg.utility, rg.better_responses, rg.best_responses):
            with pytest.raises(ValidationError):
                call(game, (1, 2), j)
