"""The per-game writer-set table and the analyses that read it.

improvement_graph reads every utility from per-author columns expanded from
the game's writer-set table, and exact_potential_check reads the table
itself. The oracles in tests/oracle.py are the direct constructions: a
graph built from utility() and replace_topic, and the scan that evaluates
every 2x2 subgame's residual from utility_vector.
"""

import math

import pytest
from hypothesis import example, given, settings, strategies as st

import rankgames as rg
from oracle import fresh, naive_graph, naive_potential_check, naive_residuals, rosenthal_potential
from rankgames.errors import ValidationError

POWER2 = rg.Mediator.scoring(rg.ScoreFunction.power(2.0))
MEDIATORS = (
    rg.PRP,
    rg.RAND,
    rg.Mediator.scoring(rg.ScoreFunction.constant()),
    rg.Mediator.scoring(rg.ScoreFunction.identity()),
    POWER2,
    rg.Mediator.scoring(rg.ScoreFunction.exp_minus_one()),
    rg.Mediator.scoring(rg.ScoreFunction.exponential(3.0)),
)


@st.composite
def games(draw, n=st.integers(1, 4), m=st.integers(1, 4), bound=st.integers(1, 4)):
    tie_rich = draw(st.booleans())
    return rg.generate_random_game(
        draw(st.integers(0, 10**6)),
        draw(n),
        draw(m),
        generic_Q=not tie_rich,
        sorted_D=False,
        denominator_bound=draw(bound) if tie_rich else 60,
        mediator=draw(st.sampled_from(MEDIATORS)),
        scheme=draw(st.sampled_from((rg.EXPOSURE, rg.ACTION))),
    )


@settings(max_examples=60)
@given(games())
# margin 1e-3 drops two of this game's edges
@example(rg.generate_random_game(23, 3, 3, sorted_D=False, denominator_bound=60,
                                 mediator=rg.RAND, scheme=rg.ACTION))
def test_graph_matches_naive_graph(game):
    # 1e-3 drops real edges, not only float noise
    for margin in (0.0, 1e-12, 1e-3):
        assert rg.improvement_graph(game, margin=margin).adj == naive_graph(fresh(game), margin)


def test_graph_margin_on_float_ties():
    # author 1 earns 2/7 at both (1, 1, 2) and (2, 1, 2), summed as 4/5 over
    # 4/5 + 3/5 on topic 1 and as 1 over 1 + 3/4 on topic 2: both round to
    # one float, so margin 0 already keeps the two equilibria
    game = rg.make_game(("1/2", "1/2"), (("4/5", "1"), ("3/5", "0"), ("0", "3/4")),
                        rg.Mediator.scoring(rg.ScoreFunction.identity()))
    graphs = [rg.improvement_graph(game, margin=margin).adj for margin in (0.0, 1e-12)]
    assert graphs[0] == graphs[1]
    assert graphs == [naive_graph(fresh(game), margin) for margin in (0.0, 1e-12)]
    assert rg.enumerate_pne(game) == [(1, 1, 2), (2, 1, 2)]
    assert rg.utility(game, (1, 1, 2), 1) == rg.utility(game, (2, 1, 2), 1) == 0.2857142857142857


@settings(max_examples=60)
@given(games())
# on this game's floats, the four-term sum at the witness misses the worst
# residual in the last bit: the oracle must evaluate the scan's e terms
@example(rg.generate_random_game(8, 3, 3, mediator=POWER2))
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


@settings(max_examples=80)
@given(games(n=st.integers(2, 5), m=st.integers(2, 4), bound=st.just(2)))
# the worst residual is a sum e(s1, W1) + e(s2, W2) over disjoint writer sets
# that no sum over overlapping ones reaches, the largest sum in the first two
# games and the smallest in the third: few random games tell the two apart
@example(rg.generate_random_game(8, 3, 3, sorted_D=False, mediator=POWER2, scheme=rg.ACTION))
@example(rg.generate_random_game(0, 4, 4, generic_Q=False, sorted_D=False, denominator_bound=2,
                                 mediator=POWER2, scheme=rg.ACTION))
@example(rg.generate_random_game(2, 4, 3, generic_Q=False, sorted_D=False, denominator_bound=2,
                                 mediator=POWER2, scheme=rg.ACTION))
def test_potential_check_matches_oracle(game):
    # every game has a 2x2 subgame; m = 2 and m >= 3 take different branches
    assert_potential_check_matches(game)


def test_potential_scan_reads_the_writer_set_table():
    game = rg.generate_random_game(3, 4, 3, mediator=POWER2)
    rg.exact_potential_check(game)
    assert "writer_sets" in game._cache and "columns" not in game._cache
    game = fresh(game)
    rg.improvement_graph(game)
    table = game._cache["writer_sets"]
    rg.exact_potential_check(game)
    assert game._cache["writer_sets"] is table


# tie-rich games where several subgames attain the worst residual: the
# witness must be the first of them in scan order (author pair, rest,
# s-pair, t-pair); in the t-pairs case several t-pairs tie at one rest.
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


# tie-rich games whose first worst subgame lies past the first author pair
# and at a rest other than the first, while other pairs attain it too: the
# witness comes from the first pair that attains the worst, and from the
# scan of that pair's rests, for both branches of the scan (m = 2, m >= 3)
LATER_WORST = [
    ("prp exposure 2^5", 9, 5, 2, rg.PRP, rg.EXPOSURE),
    ("rand action 2^5", 1, 5, 2, rg.RAND, rg.ACTION),
    ("power(2) exposure 2^4", 1, 4, 2, POWER2, rg.EXPOSURE),
    ("prp action 3^4", 16, 4, 3, rg.PRP, rg.ACTION),
    ("rand action 3^4", 3, 4, 3, rg.RAND, rg.ACTION),
    ("prp exposure 4^4", 5, 4, 4, rg.PRP, rg.EXPOSURE),
    ("power(2) exposure 4^4", 1, 4, 4, POWER2, rg.EXPOSURE),
]


@pytest.mark.parametrize("seed, n, m, mediator, scheme",
                         [case[1:] for case in LATER_WORST], ids=[case[0] for case in LATER_WORST])
def test_potential_witness_in_a_later_pair_and_rest(seed, n, m, mediator, scheme):
    game = rg.generate_random_game(seed, n, m, generic_Q=False, denominator_bound=2,
                                   sorted_D=False, mediator=mediator, scheme=scheme)
    residuals = list(naive_residuals(fresh(game)))
    worst = max(r for r, _ in residuals)
    tied = [subgame for r, subgame in residuals if r == worst]
    first = tied[0]
    assert first.authors != (1, 2) and len({w.authors for w in tied}) > 1
    assert any(t != 1 for k, t in enumerate(first.base, 1) if k not in first.authors)
    assert_potential_check_matches(game, residuals)


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
                              generic_Q=False, denominator_bound=3)
    for row in rg.run_experiment_suite(cfg).rows:
        game = rg.generate_random_game(row["seed"], row["n"], row["m"], generic_Q=False,
                                       denominator_bound=3)
        assert row["pne_count"] == len(rg.enumerate_pne(game))


# ---------- Rosenthal's potential ----------

@settings(max_examples=30)
@given(st.integers(0, 10**6), st.integers(1, 4), st.integers(1, 4), st.booleans())
@example(5, 6, 6, False)  # 700k edges
@example(5, 5, 5, True)
def test_rand_exposure_graph_follows_rosenthals_potential(seed, n, m, tie_rich):
    game = rg.generate_random_game(seed, n, m, generic_Q=not tie_rich, sorted_D=not tie_rich,
                                   denominator_bound=4 if tie_rich else 60, mediator=rg.RAND)
    adj = rg.improvement_graph(game).adj
    profiles = list(rg.iter_profiles(n, m))
    # Phi and the utilities as ints over one denominator, a multiple of
    # theirs; Phi depends only on each topic's writer count
    scale = game.demand_den * math.lcm(*range(1, n + 1))

    def as_int(x):
        assert scale % x.denominator == 0
        return x.numerator * (scale // x.denominator)
    by_count = {}
    phi = []
    for a in profiles:
        count = tuple(map(a.count, range(1, m + 1)))
        if count not in by_count:
            by_count[count] = as_int(rosenthal_potential(game, a))
        phi.append(by_count[count])
    us = [tuple(map(as_int, rg.utility_vector(game, a))) for a in profiles]
    weight = [m ** (n - 1 - j) for j in range(n)]
    for x, a in enumerate(profiles):
        # the single-author moves from a that raise Phi are its out-edges ...
        moves = [(j, x + (t - s) * w) for j, (s, w) in enumerate(zip(a, weight))
                 for t in range(1, m + 1) if t != s]
        rising = [(j, y) for j, y in moves if phi[y] > phi[x]]
        assert sorted(y for _, y in rising) == adj[x]
        # ... and each raises it by the mover's gain
        assert all(phi[y] - phi[x] == us[y][j] - us[x][j] for j, y in rising)
    assert rg.exact_potential_check(game).worst_residual == 0


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
    # after the graph has built the writer-set table
    game = rg.example_game()
    if with_table:
        rg.improvement_graph(game)
        assert "writer_sets" in game._cache
    for call in _calls(game, a):
        with pytest.raises(ValidationError):
            call()


def test_bad_author_is_rejected():
    game = rg.example_game()
    for j in (0, 3):
        for call in (rg.utility, rg.better_responses, rg.best_responses):
            with pytest.raises(ValidationError):
                call(game, (1, 2), j)
