"""Differential tests of the deviation kernel and the dynamics against the
direct definitions.

The naive evaluator, oracle.utility, reads oracle.rank_probabilities at the
deviated profile, in Fractions. The kernel's utility, handed out through
kernel.value, must give the same value: that Fraction under prp and rand,
where the kernel's own int must be it times the game's scale, and under
scoring the float of it, bit for bit.
"""

import time
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

import rankgames as rg
from rankgames.model import _EXACT_POWER_MAX, profile_state

import oracle

MEDIATORS = (
    rg.PRP,
    rg.RAND,
    rg.Mediator.scoring(rg.ScoreFunction.identity()),
    rg.Mediator.scoring(rg.ScoreFunction.power(2.0)),
    rg.Mediator.scoring(rg.ScoreFunction.exp_minus_one()),
    rg.Mediator.scoring(rg.ScoreFunction.exponential(3.0)),
    rg.Mediator.scoring(rg.ScoreFunction.constant()),
    rg.Mediator.scoring(rg.ScoreFunction.power(2.5)),
)


def assert_kernel_matches(game, a):
    state = profile_state(game, a)
    scale = state.kernel.scale
    for j in range(1, game.n + 1):
        for t in range(1, game.m + 1):
            want = oracle.utility(game, rg.replace_topic(a, j, t), j)
            u = state.utility(j, t)
            got = state.kernel.value(u)
            assert type(got) is type(want)
            assert got == want, (a, j, t)
            if game.mediator.kind == "scoring":
                assert got.hex() == want.hex(), (a, j, t)
            else:
                # the int the dynamics compare is the utility times S, exactly
                assert type(u) is int and u == want * scale, (a, j, t)


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


# ---------- a moved state against a fresh one ----------

def assert_moves_match_fresh_states(game, a, moves):
    state = profile_state(game, a)
    for j, t in moves:
        if t == state.a[j - 1]:
            continue
        state.move(j, t)
        a = rg.replace_topic(a, j, t)
        assert state.a == a
        fresh = profile_state(game, a)
        for k in range(1, game.n + 1):
            for u in range(1, game.m + 1):
                got, want = state.utility(k, u), fresh.utility(k, u)
                assert type(got) is type(want) and got == want, (a, k, u)


@given(games_and_profiles(), st.data())
def test_a_moved_state_matches_a_fresh_one(game_and_profile, data):
    game, a = game_and_profile
    moves = data.draw(st.lists(
        st.tuples(st.integers(1, game.n), st.integers(1, game.m)), max_size=12))
    assert_moves_match_fresh_states(game, a, moves)


def test_a_lone_top_writer_leaving_rescans_its_topic():
    # author 1 alone tops topic 1; after she leaves, authors 2 and 3 tie at
    # the top, then author 2 leaves and author 3 tops it alone, then no one
    quality = (("1", "1/2"), ("1/2", "1/2"), ("1/2", "1/4"), ("1/4", "1"))
    for med in (rg.PRP, rg.RAND, MEDIATORS[3]):
        for scheme in (rg.EXPOSURE, rg.ACTION):
            game = rg.make_game(("1/2", "1/2"), quality, med, scheme)
            assert_moves_match_fresh_states(
                game, (1, 1, 1, 1), [(1, 2), (4, 2), (2, 2), (3, 2), (1, 1), (1, 2)])


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


# ---------- dynamics against the oracle ----------

EXACT = (rg.PRP, rg.RAND)


@st.composite
def games_and_runs(draw, mediators=EXACT, max_n=4):
    n = draw(st.integers(1, max_n))
    m = draw(st.integers(1, 4))
    tie_rich = draw(st.booleans())
    game = rg.generate_random_game(
        draw(st.integers(0, 10**6)),
        n,
        m,
        generic_Q=not tie_rich,
        sorted_D=False,
        denominator_bound=draw(st.integers(1, 4)) if tie_rich else 60,
        mediator=draw(st.sampled_from(mediators)),
        scheme=draw(st.sampled_from((rg.EXPOSURE, rg.ACTION))),
    )
    init = tuple(draw(st.lists(st.integers(1, m), min_size=n, max_size=n)))
    sched = draw(st.one_of(
        st.permutations(range(1, n + 1)).map(lambda p: rg.RoundRobin(tuple(p))),
        st.just(rg.RoundRobin()),
        st.just(rg.FirstDeviator()),
        st.integers(0, 2**16).map(rg.RandomOrder),
    ))
    return game, init, sched, draw(st.sampled_from((rg.BETTER, rg.BEST)))


@settings(max_examples=60, deadline=None)
@given(games_and_runs(), st.sampled_from((0.0, 1e-3)))
def test_dynamics_match_the_fraction_oracle(run, margin):
    game, init, sched, response = run
    got = rg.run_dynamics(game, init, sched, 30, response, margin)
    assert got == oracle.dynamics(game, init, sched, 30, response, margin)
    for s in got.trajectory.steps:
        assert type(s.utility_before) is type(s.utility_after) is F
    for a in got.trajectory.walk():
        assert rg.is_pne(game, a, margin) == all(
            not oracle.moves(game, a, j, rg.BETTER, margin) for j in range(1, game.n + 1))
        for j in range(1, game.n + 1):
            better = rg.better_responses(game, a, j, margin)
            assert better == {t: u1 for t, _, u1 in oracle.moves(game, a, j, rg.BETTER, margin)}
            assert all(type(u) is F for u in better.values())


@settings(max_examples=60, deadline=None)
@given(games_and_runs(MEDIATORS[2:], max_n=6), st.sampled_from((0.0, 1e-3)))
def test_dynamics_match_the_float_oracle_under_scoring(run, margin):
    # floats compared with ==: the run's utilities are the floats of the
    # oracle's exact Fractions, bit for bit, however far the state has moved
    game, init, sched, response = run
    got = rg.run_dynamics(game, init, sched, 30, response, margin)
    assert got == oracle.dynamics(game, init, sched, 30, response, margin)
    for s in got.trajectory.steps:
        assert type(s.utility_before) is type(s.utility_after) is float


# ---------- the random scheduler against the oracle ----------

@st.composite
def random_runs(draw):
    n, m = draw(st.integers(1, 10)), draw(st.integers(1, 4))
    tie_rich = draw(st.booleans())
    game = rg.generate_random_game(
        draw(st.integers(0, 10**6)), n, m,
        generic_Q=not tie_rich,
        sorted_D=False,
        denominator_bound=draw(st.integers(1, 4)) if tie_rich else 60,
        mediator=draw(st.sampled_from(MEDIATORS)),
        scheme=draw(st.sampled_from((rg.EXPOSURE, rg.ACTION))),
    )
    # a crowded start, every author on one topic, or a random one
    init = draw(st.one_of(
        st.integers(1, m).map(lambda k: (k,) * n),
        st.lists(st.integers(1, m), min_size=n, max_size=n).map(tuple),
    ))
    sched = rg.RandomOrder(draw(st.integers(0, 2**16)))
    return game, init, sched, draw(st.sampled_from((rg.BETTER, rg.BEST)))


def assert_random_run_matches(game, init, sched, response, margin, max_steps=20):
    got = rg.run_dynamics(game, init, sched, max_steps, response, margin)
    want = oracle.dynamics(game, init, sched, max_steps, response, margin)
    assert type(got) is type(want)
    assert got == want
    kind = float if game.mediator.kind == "scoring" else F
    for s in got.trajectory.steps:
        assert type(s.utility_before) is type(s.utility_after) is kind


@settings(max_examples=200, deadline=None)
@given(random_runs(), st.sampled_from((0.0, 1e-3)))
def test_random_scheduler_matches_the_oracle(run, margin):
    assert_random_run_matches(*run, margin)


def test_random_scheduler_skips_deviations_equal_to_the_current_utility():
    # both authors tie on topic 1 at utility 1/5; the empty topic 2 gives
    # 1/5 too, no gain, and only topic 3 (2/5) improves
    game = rg.make_game(("2/5", "1/5", "2/5"), (("1", "1", "1"), ("1", "1", "1")))
    for seed in range(6):
        for response in (rg.BETTER, rg.BEST):
            out = rg.run_dynamics(game, (1, 1), rg.RandomOrder(seed), 12, response)
            assert out.trajectory.steps[0].to_topic == 3
            assert_random_run_matches(game, (1, 1), rg.RandomOrder(seed), response, 0.0)


@pytest.mark.parametrize("sched", [rg.RandomOrder(0), rg.RoundRobin(), rg.FirstDeviator()],
                         ids=["random", "round-robin", "first-deviator"])
@pytest.mark.parametrize("response", [rg.BETTER, rg.BEST])
def test_a_gain_within_the_margin_is_no_move(sched, response):
    # alone on topic 1 the author has 1000/2001, and topic 2 gives 1001/2001:
    # a relative gain of 1/1001, below the margin 1e-3
    game = rg.make_game(("1000/2001", "1001/2001"), (("1", "1"),))
    for margin, steps in ((0.0, 1), (1e-3, 0)):
        got = rg.run_dynamics(game, (1,), sched, 12, response, margin)
        assert got.steps_taken == steps
        assert got == oracle.dynamics(game, (1,), sched, 12, response, margin)


# ---------- the exact comparison ----------

_FLOATS = st.floats(allow_nan=False, allow_infinity=False)


@given(st.one_of(st.tuples(st.fractions(), st.fractions()), st.tuples(_FLOATS, _FLOATS)))
def test_improves_at_zero_margin_is_the_difference_test(pair):
    u0, u1 = pair
    assert rg.improves(u0, u1, 0.0) == (u1 - u0 > 0)


# ---------- scoring floats ----------

def assert_floats_are_float_of_fraction(game):
    # every utility at every profile, deviations included, is float() of
    # the exact Fraction, compared as hex
    for a in rg.iter_profiles(game.n, game.m):
        state = profile_state(game, a)
        for j in range(1, game.n + 1):
            for t in range(1, game.m + 1):
                want = oracle.utility(game, rg.replace_topic(a, j, t), j)
                assert state.utility(j, t).hex() == want.hex(), (a, j, t)


BIG = st.one_of(st.integers(1, 1000), st.integers(2**53, 2**80))


@st.composite
def big_rational_games(draw):
    n, m = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    weights = draw(st.lists(st.one_of(st.just(0), BIG), min_size=m, max_size=m).filter(any))
    quality = [
        [F(draw(st.integers(0, den)), den) for den in draw(st.lists(BIG, min_size=m, max_size=m))]
        for _ in range(n)
    ]
    scheme = draw(st.sampled_from((rg.EXPOSURE, rg.ACTION)))
    mediator = draw(st.sampled_from(MEDIATORS[2:]))
    return rg.make_game([F(w, sum(weights)) for w in weights], quality, mediator, scheme)


@given(big_rational_games())
def test_scoring_floats_are_float_of_fraction(game):
    assert_floats_are_float_of_fraction(game)


@pytest.mark.parametrize("build", [
    lambda: rg.build_exposure_cycle_game(rg.ScoreFunction.identity()),
    lambda: rg.build_action_cycle_game(rg.ScoreFunction.power(8.0), 2.0),
    lambda: rg.build_band_cycle_game(rg.ScoreFunction.identity(), 1.0, 1.0),
])
def test_construction_floats_are_float_of_fraction(build):
    assert_floats_are_float_of_fraction(build().game)


# ---------- the exponent bound ----------

@pytest.mark.parametrize("p", [float(_EXACT_POWER_MAX), float(_EXACT_POWER_MAX + 1), 1e300],
                         ids=["at-the-bound", "above-the-bound", "1e300"])
def test_power_scores_are_exact_up_to_the_exponent_bound(p):
    # on topic 1 the floats 1e-6**p and 5e-7**p underflow to 0 at every p
    # here, so float scores split it evenly; exact ones give author 1 2**p : 1
    game = rg.make_game(("1/2", "1/2"), (("1/1000000", "1"), ("1/2000000", "1/2")),
                        rg.Mediator.scoring(rg.ScoreFunction.power(p)))
    start = time.perf_counter()
    report = rg.analysis_report(game)
    assert time.perf_counter() - start < 1.0
    assert report == oracle.naive_report(oracle.fresh(game))
    assert_floats_are_float_of_fraction(game)
    u = rg.utility(game, (1, 1), 2)
    assert u == (1 / (2 * (2**_EXACT_POWER_MAX + 1)) if p == _EXACT_POWER_MAX else 0.25)
