from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

import rankgames as rg
from rankgames.analysis import _is_acyclic, _replay
from rankgames.dynamics import Step, Trajectory
from rankgames.errors import (
    BudgetExceededError,
    CyclicGraphError,
    PreconditionError,
    TrajectoryError,
    ValidationError,
)


# ---------- improvement graph ----------

def test_improvement_graph_indexing(exposure_example):
    graph = rg.improvement_graph(exposure_example)
    assert graph.n_nodes == 9
    for idx in range(graph.n_nodes):
        assert graph.index_of(graph.profile_of(idx)) == idx


def test_improvement_graph_edges_are_single_author_improvements(exposure_example):
    g = exposure_example
    graph = rg.improvement_graph(g)
    for idx in range(graph.n_nodes):
        a = graph.profile_of(idx)
        for jdx in graph.adj[idx]:
            b = graph.profile_of(jdx)
            diffs = [j for j in range(g.n) if a[j] != b[j]]
            assert len(diffs) == 1
            j = diffs[0] + 1
            assert rg.improves(rg.utility(g, a, j), rg.utility(g, b, j))


def test_budget_guard():
    g = rg.generate_random_game(0, 3, 3, denominator_bound=50)
    with pytest.raises(BudgetExceededError):
        rg.improvement_graph(g, budget=10)
    with pytest.raises(BudgetExceededError):
        rg.enumerate_pne(g, budget=10)
    with pytest.raises(BudgetExceededError):
        rg.exact_potential_check(g, budget=10)


# ---------- fip / pne / paths ----------

def test_example_game_has_fip(exposure_example):
    fip, witness = rg.has_fip(exposure_example)
    assert fip and witness is None


def test_cycling_game_lacks_fip():
    game = rg.build_exposure_cycle_game(rg.ScoreFunction.identity()).game
    fip, witness = rg.has_fip(game)
    assert not fip
    assert witness[0] == witness[-1]
    ok, _ = rg.verify_improvement_cycle(game, witness)
    assert ok


def test_enumerate_pne_canonical_order(exposure_example, action_example):
    assert rg.enumerate_pne(exposure_example) == [(2, 1)]
    assert rg.enumerate_pne(action_example) == [(3, 1)]


def test_enumerate_pne_matches_is_pne(exposure_example):
    pnes = set(rg.enumerate_pne(exposure_example))
    for a in rg.iter_profiles(2, 3):
        assert (a in pnes) == rg.is_pne(exposure_example, a)


def test_longest_path(exposure_example):
    graph = rg.improvement_graph(exposure_example)
    assert rg.longest_improvement_path(graph) == 6


def test_longest_path_rejects_cyclic_graph():
    game = rg.build_exposure_cycle_game(rg.ScoreFunction.identity()).game
    graph = rg.improvement_graph(game)
    assert not _is_acyclic(graph.adj)
    with pytest.raises(CyclicGraphError):
        rg.longest_improvement_path(graph)


def test_shortest_cycle_none_when_acyclic(exposure_example):
    assert rg.shortest_cycle(rg.improvement_graph(exposure_example)) is None


# ---------- potential ----------

def test_residual_at_named_witness(residual_game, residual_game_action):
    r = rg.potential_residual(residual_game, 1, 2, (1, 2), (1, 2), (1, 1, 2))
    assert r == F(3, 4)
    r = rg.potential_residual(residual_game_action, 1, 2, (1, 2), (1, 2), (1, 1, 2))
    assert r == F(1, 4)


def test_residual_is_zero_for_matching_potential_game():
    # single author: utility is its own potential
    g = rg.make_game(("3/5", "2/5"), (("1/2", "1/4"),), rg.PRP)
    rep = rg.exact_potential_check(g)
    assert rep.has_exact_potential
    assert rep.worst_residual == 0


def test_exact_potential_check_reports_worst(residual_game, residual_game_action):
    rep = rg.exact_potential_check(residual_game)
    assert not rep.has_exact_potential
    assert rep.worst_residual == F(1)
    assert rep.witness.base == (1, 1, 1)
    rep = rg.exact_potential_check(residual_game_action)
    assert not rep.has_exact_potential
    assert rep.worst_residual == F(7, 20)


@pytest.mark.parametrize("delta, exists", [(F(1, 10**8), False), (F(1, 10**10), True)])
def test_scoring_potential_verdict_has_an_absolute_tolerance_of_1e_9(delta, exists):
    # with every quality 1/2, identity scoring splits each topic as rand does,
    # and rand/exposure has an exact potential; raising one quality by delta
    # makes the worst residual about delta / 2
    game = rg.make_game(("1/2", "1/2"), ((F(1, 2) + delta, F(1, 2)), (F(1, 2), F(1, 2))),
                        rg.Mediator.scoring(rg.ScoreFunction.identity()))
    rep = rg.exact_potential_check(game)
    assert abs(rep.worst_residual - float(delta) / 2) < 1e-3 * float(delta)
    assert rep.has_exact_potential is exists


def test_residual_needs_distinct_authors(residual_game):
    with pytest.raises(PreconditionError):
        rg.potential_residual(residual_game, 2, 2, (1, 2), (1, 2), (1, 1, 1))


# ---------- path invariants ----------

def test_path_invariants_clean_run(exposure_example):
    out = rg.run_dynamics(exposure_example, (2, 2), rg.FirstDeviator())
    rep = rg.path_invariant_report(exposure_example, out.trajectory)
    assert rep.failures == 0
    assert len(rep.checks) == 3
    assert all(c.mover_quality_at_top for c in rep.checks)


def test_path_invariants_require_prp():
    game = rg.build_exposure_cycle_game(rg.ScoreFunction.identity()).game
    out = rg.run_dynamics(game, (1, 1, 1, 2), rg.RoundRobin())
    with pytest.raises(PreconditionError):
        rg.path_invariant_report(game, out.trajectory)


def test_replay_rejects_wrong_topic(exposure_example):
    bad = Trajectory((2, 2), (Step(1, 1, 1, 3, F(0), F(1, 5)),), (3, 2))
    with pytest.raises(TrajectoryError):
        _replay(exposure_example, bad)


@pytest.mark.parametrize("bad", [
    Trajectory((2.0, 2), (Step(1, 2, 2, 1, F(3, 20), F(1, 4)),), (2.0, 1)),
    Trajectory((2, 2), (Step(1, 1, 2, 1.0, F(0), F(1, 5)),), (1.0, 2)),
    Trajectory((2, 2), (Step(1, 1.0, 2, 1, F(0), F(1, 5)),), (1, 2)),
])
def test_replay_rejects_non_integer_topics_and_movers(exposure_example, bad):
    with pytest.raises(TrajectoryError):
        _replay(exposure_example, bad)


def test_replay_rejects_non_improving_step(exposure_example):
    # 2 -> 3 loses utility for author 1 at the equilibrium (2,1)
    bad = Trajectory((2, 1), (Step(1, 1, 2, 3, F(3, 10), F(1, 5)),), (3, 1))
    with pytest.raises(TrajectoryError):
        _replay(exposure_example, bad)


def test_replay_rejects_wrong_recorded_utilities(exposure_example):
    bad = Trajectory((2, 2), (Step(1, 2, 2, 1, F(3, 20), F(1, 4)),), (2, 1))
    with pytest.raises(TrajectoryError):
        _replay(exposure_example, bad)


@pytest.mark.parametrize("first, second, message", [
    (Step(1, 2, 2, 1, F(3, 20), F(1, 4)), Step(2, 5, 1, 2, F(0), F(1)),
     "step 1: recorded utilities do not match"),
    (Step(1, 1, 1, 3, F(0), F(1, 5)), Step(2, 2, 2, 9, F(0), F(1)),
     "step 1: from_topic does not match"),
])
def test_replay_reports_the_first_bad_step(exposure_example, first, second, message):
    # step 2 is invalid too, but step 1 is checked in full before it
    bad = Trajectory((2, 2), (first, second), (1, 1))
    with pytest.raises(TrajectoryError, match=message):
        _replay(exposure_example, bad)


# ---------- reduction ----------

def test_reduction_requires_rand_exposure(exposure_example):
    with pytest.raises(PreconditionError):
        rg.rand_to_prp_reduction(exposure_example)
    g = rg.make_game(("1/1",), (("1/2",),), rg.RAND, rg.ACTION)
    with pytest.raises(PreconditionError):
        rg.rand_to_prp_reduction(g)


@given(st.integers(min_value=0, max_value=10**6))
def test_reduction_preserves_utilities(seed):
    g = rg.generate_random_game(
        seed, 2, 3, denominator_bound=10, generic_Q=False, sorted_D=False,
        mediator=rg.RAND,
    )
    reduced = rg.rand_to_prp_reduction(g)
    assert reduced.mediator == rg.PRP
    assert all(q == 1 for row in reduced.quality for q in row)
    for a in rg.iter_profiles(g.n, g.m):
        assert rg.utility_vector(g, a) == rg.utility_vector(reduced, a)


# ---------- report ----------

def test_analysis_report_acyclic(exposure_example):
    rep = rg.analysis_report(exposure_example)
    assert rep["fip"] is True
    assert rep["longest_path"] == 6
    assert "cycle" not in rep
    assert rep["pne"] == [[2, 1]]
    assert rep["potential"]["exists"] is False
    assert rep["potential"]["residual"] == "1/2"


def test_analysis_report_cyclic():
    game = rg.build_exposure_cycle_game(rg.ScoreFunction.identity()).game
    rep = rg.analysis_report(game)
    assert rep["fip"] is False
    assert "longest_path" not in rep
    cyc = rep["cycle"]
    assert cyc[0] == cyc[-1]
    ok, _ = rg.verify_improvement_cycle(game, [tuple(p) for p in cyc])
    assert ok


@given(
    st.integers(min_value=0, max_value=10**6),
    st.sampled_from((rg.PRP, rg.RAND, rg.Mediator.scoring(rg.ScoreFunction.power(2.0)))),
    st.sampled_from((0.0, 1e-12)),
)
def test_analysis_report_pne_are_the_graph_sinks(seed, mediator, margin):
    g = rg.generate_random_game(seed, 3, 2, denominator_bound=4, generic_Q=False,
                                sorted_D=False, mediator=mediator)
    rep = rg.analysis_report(g, margin=margin)
    assert rep["pne"] == [list(a) for a in rg.enumerate_pne(g, margin=margin)]


BAD_TOLERANCES = [float("nan"), float("inf"), -1.0, -1e-12]


@pytest.mark.parametrize("x", BAD_TOLERANCES)
def test_bad_margins_and_tolerances_are_rejected(exposure_example, x):
    g = exposure_example
    cycle = [(1, 1), (2, 1), (1, 1)]
    calls = (
        lambda: rg.improvement_graph(g, margin=x),
        lambda: rg.run_dynamics(g, (2, 2), rg.RoundRobin(), margin=x),
        lambda: rg.better_responses(g, (2, 2), 1, margin=x),
        lambda: rg.is_pne(g, (2, 2), margin=x),
        lambda: rg.verify_improvement_cycle(g, cycle, margin=x),
    )
    for call in calls:
        with pytest.raises(ValidationError):
            call()
