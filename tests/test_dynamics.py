import json
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

import rankgames as rg
from rankgames.dynamics import Step, step_to_dict
from rankgames.errors import ValidationError


# ---------- responses ----------

def test_better_responses_exposure(exposure_example):
    assert rg.better_responses(exposure_example, (2, 2), 2) == {1: F(1, 2), 3: F(1, 5)}


def test_better_responses_action(action_example):
    assert rg.better_responses(action_example, (2, 1), 1) == {3: F(4, 25)}


def test_better_responses_empty_at_equilibrium(exposure_example):
    assert rg.better_responses(exposure_example, (2, 1), 1) == {}
    assert rg.better_responses(exposure_example, (2, 1), 2) == {}


def test_best_responses(exposure_example, action_example):
    assert rg.best_responses(exposure_example, (2, 2), 2) == {1}
    assert rg.best_responses(action_example, (1, 1), 1) == {3}


def test_best_responses_include_current_when_tied():
    g = rg.make_game(("1/2", "1/2"), (("1/2", "1/2"),), rg.PRP)
    assert rg.best_responses(g, (1,), 1) == {1, 2}


def test_is_pne(exposure_example):
    assert rg.is_pne(exposure_example, (2, 1))
    assert not rg.is_pne(exposure_example, (2, 2))


# ---------- trajectories ----------

def test_step_rejects_null_move():
    with pytest.raises(ValidationError):
        Step(1, 1, 2, 2, F(0), F(1, 2))


def test_trajectory_profiles_replay(exposure_example):
    out = rg.run_dynamics(exposure_example, (2, 2), rg.FirstDeviator())
    assert out.trajectory.profiles() == [(2, 2), (1, 2), (1, 1), (2, 1)]


# ---------- schedulers ----------

def test_first_deviator_path(exposure_example):
    out = rg.run_dynamics(exposure_example, (2, 2), rg.FirstDeviator())
    assert isinstance(out, rg.ConvergedPNE)
    assert out.profile == (2, 1)
    assert out.steps_taken == 3


def test_round_robin_respects_order(exposure_example):
    out = rg.run_dynamics(exposure_example, (2, 2), rg.RoundRobin((2, 1)))
    assert isinstance(out, rg.ConvergedPNE)
    assert out.trajectory.steps[0].mover == 2


def test_round_robin_rejects_bad_order(exposure_example):
    with pytest.raises(ValidationError):
        rg.run_dynamics(exposure_example, (2, 2), rg.RoundRobin((1, 1)))


def test_start_at_equilibrium_takes_no_steps(exposure_example):
    out = rg.run_dynamics(exposure_example, (2, 1), rg.RoundRobin())
    assert isinstance(out, rg.ConvergedPNE)
    assert out.steps_taken == 0
    assert out.profile == (2, 1)


def test_random_scheduler_is_seed_deterministic(exposure_example):
    runs = [
        rg.run_dynamics(exposure_example, (2, 2), rg.RandomOrder(seed=11))
        for _ in range(2)
    ]
    assert runs[0] == runs[1]


def test_random_scheduler_seed_changes_runs(exposure_example):
    outs = {
        rg.run_dynamics(exposure_example, (2, 2), rg.RandomOrder(seed=s)).trajectory.steps
        for s in range(8)
    }
    assert len(outs) > 1


def test_unknown_scheduler_rejected(exposure_example):
    with pytest.raises(ValidationError):
        rg.run_dynamics(exposure_example, (2, 2), object())


def test_invalid_init_rejected(exposure_example):
    with pytest.raises(ValidationError):
        rg.run_dynamics(exposure_example, (0, 2), rg.RoundRobin())
    with pytest.raises(ValidationError):
        rg.run_dynamics(exposure_example, (1, 1, 1), rg.RoundRobin())


# ---------- outcomes ----------

def test_repeat_detected_on_cycling_game():
    game = rg.build_exposure_cycle_game(rg.ScoreFunction.identity()).game
    out = rg.run_dynamics(game, (1, 1, 1, 2), rg.RoundRobin((2, 3, 4, 1)))
    assert isinstance(out, rg.RepeatDetected)
    profiles = out.trajectory.profiles()
    assert profiles[out.repeated_profile_index] == profiles[-1]


def test_budget_exhaustion():
    game = rg.build_exposure_cycle_game(rg.ScoreFunction.identity()).game
    out = rg.run_dynamics(game, (1, 1, 1, 2), rg.RoundRobin((2, 3, 4, 1)), max_steps=2)
    assert isinstance(out, rg.BudgetExhausted)
    assert len(out.trajectory.steps) == 2


def test_max_steps_validation(exposure_example):
    # len(steps) never equals a budget of 1.5, and a bool is no step count
    for max_steps in (0, -1, 1.5, 2.0, True, "3"):
        with pytest.raises(ValidationError):
            rg.run_dynamics(exposure_example, (2, 2), rg.FirstDeviator(), max_steps=max_steps)


def test_default_max_steps(exposure_example):
    # m^n profiles, n deviators, m targets
    assert rg.default_max_steps(exposure_example) == 9 * 2 * 3


def test_default_max_steps_capped_at_budget():
    g = rg.make_game(["1/10"] * 10, [["1/2"] * 10] * 100)
    assert rg.default_max_steps(g) == 10**6 == rg.DEFAULT_BUDGET


def test_best_response_converges(exposure_example):
    out = rg.run_dynamics(exposure_example, (2, 2), rg.RoundRobin(), response=rg.BEST)
    assert isinstance(out, rg.ConvergedPNE)
    assert out.profile == (2, 1)


def test_unknown_response_mode_rejected(exposure_example):
    with pytest.raises(ValidationError):
        rg.run_dynamics(exposure_example, (2, 2), rg.RoundRobin(), response="nash")


# ---------- serialization ----------

def test_step_to_dict_field_names():
    s = Step(4, 2, 1, 3, F(0), F(1, 2))
    assert step_to_dict(s) == {
        "r": 4, "player": 2, "from": 1, "to": 3,
        "u_before": "0/1", "u_after": "1/2",
    }


def test_trajectory_jsonl(exposure_example):
    out = rg.run_dynamics(exposure_example, (2, 2), rg.FirstDeviator())
    lines = rg.trajectory_to_jsonl(out.trajectory).splitlines()
    assert len(lines) == 3
    first = json.loads(lines[0])
    assert first == {"r": 1, "player": 1, "from": 2, "to": 1,
                     "u_before": "3/20", "u_after": "1/2"}


# ---------- properties ----------

@given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=0, max_value=2))
def test_deterministic_runs_converge_and_end_at_pne(seed, which):
    g = rg.generate_random_game(seed, 2, 2, denominator_bound=9, generic_Q=False, sorted_D=False)
    sched = (rg.RoundRobin(), rg.RoundRobin((2, 1)), rg.FirstDeviator())[which]
    for init in rg.iter_profiles(2, 2):
        out = rg.run_dynamics(g, init, sched)
        assert isinstance(out, rg.ConvergedPNE)
        assert rg.is_pne(g, out.profile)
        assert len(out.trajectory.profiles()) == out.steps_taken + 1


@given(st.integers(min_value=0, max_value=10**6))
def test_every_step_strictly_improves(seed):
    g = rg.generate_random_game(seed, 3, 2, denominator_bound=7, generic_Q=False, sorted_D=False)
    out = rg.run_dynamics(g, (1,) * 3, rg.FirstDeviator())
    profiles = out.trajectory.profiles()
    for step, before, after in zip(out.trajectory.steps, profiles, profiles[1:]):
        assert before[step.mover - 1] == step.from_topic
        assert after[step.mover - 1] == step.to_topic
        assert step.utility_after > step.utility_before
