"""Differential tests of the deviation kernel against the direct definitions.

The naive evaluator reads oracle.rank_probabilities at the deviated
profile; the kernel must give the same value, Fraction or float, compared
with ==.
"""

from hypothesis import given, strategies as st

import rankgames as rg
from rankgames.model import profile_state

import oracle

MEDIATORS = (
    rg.PRP,
    rg.RAND,
    rg.Mediator.scoring(rg.ScoreFunction.identity()),
    rg.Mediator.scoring(rg.ScoreFunction.power(2.0)),
    rg.Mediator.scoring(rg.ScoreFunction.exp_minus_one()),
    rg.Mediator.scoring(rg.ScoreFunction.exponential(3.0)),
)


def naive_utility(game, a, j):
    k = a[j - 1]
    u = game.demand[k - 1] * oracle.rank_probabilities(game, k, a)[j]
    if game.scheme == rg.ACTION:
        u = u * game.quality[j - 1][k - 1]
    return u


def assert_kernel_matches(game, a):
    state = profile_state(game, a)
    for j in range(1, game.n + 1):
        for t in range(1, game.m + 1):
            want = naive_utility(game, rg.replace_topic(a, j, t), j)
            got = state.utility(j, t)
            assert type(got) is type(want)
            assert got == want, (a, j, t)


@st.composite
def games_and_profiles(draw):
    n = draw(st.integers(1, 5))
    m = draw(st.integers(1, 4))
    tie_rich = draw(st.booleans())
    game = rg.generate_random_game(
        draw(st.integers(0, 10**6)),
        n,
        m,
        generic_Q=not tie_rich,
        sorted_D=False,
        denominator_bound=draw(st.integers(1, 4)) if tie_rich else 60,
        mediator=draw(st.sampled_from(MEDIATORS)),
        scheme=draw(st.sampled_from((rg.EXPOSURE, rg.ACTION))),
    )
    a = tuple(draw(st.lists(st.integers(1, m), min_size=n, max_size=n)))
    return game, a


@given(games_and_profiles())
def test_kernel_matches_rank_probabilities(game_and_profile):
    # every (j, t), so t = a_j and targets nobody writes on are included
    assert_kernel_matches(*game_and_profile)


def test_kernel_matches_on_every_profile_of_a_tie_rich_game():
    # ties at the top, quality-0 writers (zero score sums) and empty topics
    quality = (("1/2", "0", "1"), ("1/2", "0", "0"), ("1/4", "0", "1"))
    for med in MEDIATORS:
        for scheme in (rg.EXPOSURE, rg.ACTION):
            game = rg.make_game(("1/2", "1/3", "1/6"), quality, med, scheme)
            for a in rg.iter_profiles(game.n, game.m):
                assert_kernel_matches(game, a)


# ---------- responses against brute force via utility() ----------

def brute_better(game, a, j):
    u0 = rg.utility(game, a, j)
    out = {}
    for t in range(1, game.m + 1):
        u1 = rg.utility(game, rg.replace_topic(a, j, t), j)
        if t != a[j - 1] and u1 > u0:
            out[t] = u1
    return out


def brute_best(game, a, j):
    us = {t: rg.utility(game, rg.replace_topic(a, j, t), j) for t in range(1, game.m + 1)}
    return {t for t, u in us.items() if u == max(us.values())}


@given(games_and_profiles())
def test_responses_match_brute_force(game_and_profile):
    game, a = game_and_profile
    for j in range(1, game.n + 1):
        assert rg.better_responses(game, a, j) == brute_better(game, a, j)
        assert rg.best_responses(game, a, j) == brute_best(game, a, j)
    assert rg.is_pne(game, a) == all(not brute_better(game, a, j) for j in range(1, game.n + 1))


# ---------- the exact comparison ----------

_FLOATS = st.floats(allow_nan=False, allow_infinity=False)


@given(st.one_of(st.tuples(st.fractions(), st.fractions()), st.tuples(_FLOATS, _FLOATS)))
def test_improves_at_zero_margin_is_the_difference_test(pair):
    u0, u1 = pair
    assert rg.improves(u0, u1, 0.0) == (u1 - u0 > 0)
