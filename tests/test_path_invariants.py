"""path_invariant_report, read from kernel states, against a pointwise oracle.

The oracle recomputes every row and check from the direct definitions
(tests/oracle.py's top_quality and top_count, utility_vector) on the
replayed profiles.
"""

from fractions import Fraction as F

from hypothesis import given, strategies as st

import rankgames as rg
from rankgames.analysis import PathInvariantReport, PathStatistics, StepCheck

from oracle import top_count, top_quality


def oracle(game, t):
    profiles = t.profiles()
    topics = range(1, game.m + 1)
    b_rows = tuple(tuple(top_quality(game, k, a) for k in topics) for a in profiles)
    h_rows = tuple(tuple(top_count(game, k, a) for k in topics) for a in profiles)
    min_h = tuple(min(row[k] for row in h_rows) for k in range(game.m))
    max_b = tuple(max(row[k] for row in b_rows) for k in range(game.m))
    checks = []
    for r, s in enumerate(t.steps):
        k = s.to_topic
        q = game.quality[s.mover - 1][k - 1]
        b_before = b_rows[r][k - 1]
        if q > b_before:
            bound = "n/a"
        else:
            cap = game.demand[k - 1] / (min_h[k - 1] + 1)
            if game.scheme == rg.ACTION:
                cap = cap * max_b[k - 1]
            u_after = rg.utility_vector(game, profiles[r + 1])[s.mover - 1]
            bound = "pass" if u_after <= cap else "fail"
        checks.append(StepCheck(s.index, q >= b_before, bound))
    return PathInvariantReport(PathStatistics(b_rows, h_rows, min_h, max_b), tuple(checks))


def _types(x):
    if isinstance(x, tuple):
        return tuple(map(_types, x))
    return type(x)


def assert_same_report(game, t):
    got, want = rg.path_invariant_report(game, t), oracle(game, t)
    assert got == want
    for field in ("top_quality_rows", "top_count_rows", "min_top_count", "max_top_quality"):
        assert _types(getattr(got.statistics, field)) == _types(getattr(want.statistics, field))
    fields = ("index", "mover_quality_at_top", "bound")
    assert [tuple(type(getattr(c, f)) for f in fields) for c in got.checks] == [
        tuple(type(getattr(c, f)) for f in fields) for c in want.checks
    ]


@st.composite
def prp_runs(draw):
    n, m = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    tie_rich = draw(st.booleans())
    game = rg.generate_random_game(
        draw(st.integers(0, 10**6)), n, m,
        generic_Q=not tie_rich, sorted_D=not tie_rich,
        # bounds 1 and 2 make quality 0 common
        denominator_bound=draw(st.sampled_from((1, 2, 4))) if tie_rich else 1000,
        scheme=draw(st.sampled_from((rg.EXPOSURE, rg.ACTION))),
    )
    # crowded starts leave topics empty
    init = tuple(draw(st.lists(st.integers(1, m), min_size=n, max_size=n)))
    sched = draw(st.sampled_from((
        rg.RoundRobin(),
        rg.RoundRobin(tuple(range(n, 0, -1))),
        rg.FirstDeviator(),
        rg.RandomOrder(draw(st.integers(0, 100))),
    )))
    response = draw(st.sampled_from(("better", "best")))
    return game, rg.run_dynamics(game, init, sched, response=response).trajectory


@given(prp_runs())
def test_report_matches_the_pointwise_oracle(run):
    assert_same_report(*run)


def test_quality_zero_mover_onto_an_empty_topic():
    # author 2 has quality 0 everywhere; at (1, 1) she is not on top, and
    # alone on the empty topic 2 she is ranked first. Her quality equals the
    # empty topic's top quality 0, so the bound is checked, not skipped.
    game = rg.make_game(("1/2", "1/2"), (("1", "1"), ("0", "0")))
    t = rg.run_dynamics(game, (1, 1), rg.FirstDeviator()).trajectory
    assert [(s.mover, s.to_topic) for s in t.steps] == [(2, 2)]
    rep = rg.path_invariant_report(game, t)
    assert rep.checks == (StepCheck(1, True, "pass"),)
    assert rep.statistics.top_quality_rows == ((F(1), F(0)), (F(1), F(0)))
    assert rep.statistics.top_count_rows == ((1, 0), (1, 1))
    assert_same_report(game, t)


def test_empty_topics_read_as_quality_and_count_zero():
    game = rg.make_game(("1/3", "1/3", "1/3"), (("1/2", "1/4", "0"), ("1/4", "1/2", "0")))
    t = rg.Trajectory((1, 1), (), (1, 1))
    stats = rg.path_invariant_report(game, t).statistics
    assert stats.top_quality_rows == ((F(1, 2), F(0), F(0)),)
    assert stats.top_count_rows == ((1, 0, 0),)
    assert stats.max_top_quality == (F(1, 2), F(0), F(0))
    assert_same_report(game, t)


def test_post_step_utility_equal_to_the_cap_passes():
    # author 2 joins author 1 at quality 2/3 on topic 2: 1/6 -> 2/9, and the
    # cap D_2/(min top count 1 + 1) * max top quality 2/3 is 2/9 too
    game = rg.make_game(("1/3", "2/3"), (("1/10", "2/3"), ("1/2", "2/3")), scheme=rg.ACTION)
    t = rg.Trajectory((2, 1), (rg.Step(1, 2, 1, 2, F(1, 6), F(2, 9)),), (2, 2))
    rep = rg.path_invariant_report(game, t)
    assert rep.checks == (StepCheck(1, True, "pass"),)
    assert rep.statistics.min_top_count == (0, 1)
    assert rep.statistics.max_top_quality == (F(1, 2), F(2, 3))
    assert_same_report(game, t)
