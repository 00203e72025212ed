import json
import time
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

import rankgames as rg
from rankgames.errors import PreconditionError, ValidationError
from rankgames.harness import config_from_dict, format_example_tables


# ---------- worked example ----------

def test_example_game_data(exposure_example):
    assert exposure_example.n == 2
    assert exposure_example.m == 3
    assert exposure_example.demand == (F(1, 2), F(3, 10), F(1, 5))
    assert exposure_example.quality[0] == (F(1, 10), F(2, 5), F(4, 5))
    assert exposure_example.quality[1] == (F(9, 10), F(2, 5), F(1, 5))
    assert exposure_example.mediator == rg.PRP


def test_example_tables_exposure_cells():
    exposure, _ = rg.example_tables()
    assert exposure == [
        [(F(0), F(1, 2)), (F(1, 2), F(3, 10)), (F(1, 2), F(1, 5))],
        [(F(3, 10), F(1, 2)), (F(3, 20), F(3, 20)), (F(3, 10), F(1, 5))],
        [(F(1, 5), F(1, 2)), (F(1, 5), F(3, 10)), (F(1, 5), F(0))],
    ]


def test_example_tables_action_cells():
    _, action = rg.example_tables()
    assert action == [
        [(F(0), F(9, 20)), (F(1, 20), F(3, 25)), (F(1, 20), F(1, 25))],
        [(F(3, 25), F(9, 20)), (F(3, 50), F(3, 50)), (F(3, 25), F(1, 25))],
        [(F(4, 25), F(9, 20)), (F(4, 25), F(3, 25)), (F(4, 25), F(0))],
    ]


def test_format_example_tables_mentions_both_schemes():
    text = format_example_tables()
    assert "exposure" in text and "action" in text
    assert "0.15,0.15" in text
    assert "0.06,0.06" in text


# ---------- random games ----------

def test_generate_random_game_is_seed_deterministic():
    a = rg.generate_random_game(42, 3, 3)
    b = rg.generate_random_game(42, 3, 3)
    assert a == b
    assert a != rg.generate_random_game(43, 3, 3)


def test_generic_flag_gives_distinct_qualities():
    g = rg.generate_random_game(7, 3, 3, generic_Q=True)
    entries = [q for row in g.quality for q in row]
    assert len(set(entries)) == len(entries)


def test_sorted_flag_gives_strictly_decreasing_demand():
    g = rg.generate_random_game(7, 2, 4, sorted_D=True)
    assert all(a > b for a, b in zip(g.demand, g.demand[1:]))


def test_small_denominator_produces_ties():
    tied = 0
    for seed in range(20):
        g = rg.generate_random_game(seed, 3, 2, generic_Q=False, sorted_D=False,
                                    denominator_bound=3)
        entries = [q for row in g.quality for q in row]
        tied += len(set(entries)) < len(entries)
    assert tied > 10


def test_generator_parameter_validation():
    with pytest.raises(ValidationError):
        rg.generate_random_game(0, 0, 2)
    with pytest.raises(ValidationError):
        rg.generate_random_game(0, 3, 3, generic_Q=True, denominator_bound=5)


@given(st.integers(min_value=0, max_value=10**9))
def test_generated_games_always_validate(seed):
    g = rg.generate_random_game(seed, 2, 2, denominator_bound=8, generic_Q=False, sorted_D=False)
    assert sum(g.demand) == 1
    assert all(0 <= q <= 1 for row in g.quality for q in row)


# ---------- greedy assignment ----------

def test_greedy_small_example():
    g = rg.make_game(("3/5", "2/5"), (("0.9", "0.2"), ("0.8", "0.7")), rg.PRP)
    assert rg.greedy_assignment_pne(g) == (1, 2)


def test_greedy_precondition_checks(exposure_example):
    with pytest.raises(PreconditionError):
        rg.greedy_assignment_pne(exposure_example)  # not square
    flat = rg.make_game(("1/2", "1/2"), (("0.9", "0.2"), ("0.8", "0.7")), rg.PRP)
    with pytest.raises(PreconditionError):
        rg.greedy_assignment_pne(flat)  # demand not strictly decreasing
    tied = rg.make_game(("3/5", "2/5"), (("0.9", "0.2"), ("0.9", "0.7")), rg.PRP)
    with pytest.raises(PreconditionError):
        rg.greedy_assignment_pne(tied)  # quality not generic
    action = rg.make_game(("3/5", "2/5"), (("0.9", "0.2"), ("0.8", "0.7")),
                          rg.PRP, rg.ACTION)
    with pytest.raises(PreconditionError):
        rg.greedy_assignment_pne(action)
    randg = rg.make_game(("3/5", "2/5"), (("0.9", "0.2"), ("0.8", "0.7")), rg.RAND)
    with pytest.raises(PreconditionError):
        rg.greedy_assignment_pne(randg)


# ---------- experiment suite ----------

def test_config_round_trip_and_defaults():
    cfg = config_from_dict({"seed": 1, "games": 3, "n_range": [2, 2], "m_range": [2, 3]})
    assert cfg.mediator == rg.PRP
    assert cfg.scheme == rg.EXPOSURE
    assert cfg.budget == rg.DEFAULT_BUDGET


def test_config_validation():
    with pytest.raises(ValidationError):
        config_from_dict({"seed": 1, "games": 3, "n_range": [2, 1], "m_range": [2, 2]})
    with pytest.raises(ValidationError):
        config_from_dict({"seed": 1, "games": 3, "n_range": [2, 30],
                          "m_range": [2, 10], "budget": 1000})
    # the budget check does not build 3^(10^7) first
    start = time.perf_counter()
    with pytest.raises(ValidationError, match="ranges exceed the enumeration budget"):
        config_from_dict({"seed": 1, "games": 0, "n_range": [1, 10**7], "m_range": [3, 3]})
    assert time.perf_counter() - start < 1.0
    with pytest.raises(ValidationError, match="budget must be an int"):
        rg.ExperimentConfig(seed=1, games=0, n_range=(2, 2), m_range=(2, 2), budget=1e6)
    with pytest.raises(ValidationError):
        config_from_dict({"games": 3, "n_range": [2, 2], "m_range": [2, 2]})
    with pytest.raises(ValidationError):
        config_from_dict({"seed": 1, "games": 3, "n_range": [2, 2],
                          "m_range": [2, 2], "checks": ["fip", "entropy"]})
    with pytest.raises(ValidationError):
        config_from_dict({"seed": "abc", "games": 3, "n_range": [2, 2], "m_range": [2, 2]})
    with pytest.raises(ValidationError):
        config_from_dict({"seed": 1, "games": float("inf"), "n_range": [2, 2], "m_range": [2, 2]})
    # only JSON integers (no booleans) and JSON booleans are read
    good = {"seed": 1, "games": 3, "n_range": [2, 3], "m_range": [2, 3]}
    for change in (
        {"games": 2.9}, {"games": True}, {"seed": True}, {"seed": 1.0}, {"seed": "1"},
        {"n_range": [2.5, 3]}, {"m_range": [2, 3.0]}, {"n_range": [True, 2]}, {"n_range": 2},
        {"budget": 1e6}, {"denominator_bound": False},
        {"generic_Q": "false"}, {"sorted_D": 0}, {"generic_Q": None},
    ):
        with pytest.raises(ValidationError, match="^bad experiment config"):
            config_from_dict({**good, **change})


def test_budget_check_is_the_power_test():
    for m in (1, 2, 3, 7):
        for n in (1, 2, 5, 9, 10, 11, 40):
            for budget in (-1, 0, 1, 2, 3**9, 2**10 - 1, 2**10, 7**9, 10**6):
                try:
                    rg.ExperimentConfig(seed=0, games=0, n_range=(1, n), m_range=(1, m),
                                        budget=budget)
                except ValidationError:
                    raised = True
                else:
                    raised = False
                assert raised == (m**n > budget), (m, n, budget)


def test_suite_runs_and_is_deterministic(tmp_path):
    cfg = rg.ExperimentConfig(seed=5, games=6, n_range=(2, 3), m_range=(2, 3))
    r1 = rg.run_experiment_suite(cfg)
    r2 = rg.run_experiment_suite(cfg, out_dir=tmp_path)
    assert r1.rows == r2.rows
    assert r1.aggregate == r2.aggregate
    assert (tmp_path / "report.csv").read_text() == r1.to_csv()
    parsed = json.loads((tmp_path / "report.json").read_text())
    assert parsed["aggregate"] == json.loads(json.dumps(r1.aggregate))


def test_suite_prp_games_all_have_fip():
    cfg = rg.ExperimentConfig(seed=9, games=8, n_range=(2, 3), m_range=(2, 3))
    report = rg.run_experiment_suite(cfg)
    assert report.aggregate["fip_rate"] == 1.0
    assert all(row["fip"] for row in report.rows)
    assert all(row["dynamics_converged"] for row in report.rows)


def test_suite_csv_has_fixed_columns():
    cfg = rg.ExperimentConfig(seed=2, games=2, n_range=(2, 2), m_range=(2, 2))
    report = rg.run_experiment_suite(cfg)
    header = report.to_csv().splitlines()[0]
    assert header == "seed,n,m,mediator,scheme,fip,pne_count,max_path_len,potential_exists,steps_to_converge"


def test_suite_subset_of_checks():
    cfg = rg.ExperimentConfig(seed=3, games=2, n_range=(2, 2), m_range=(2, 2),
                              checks=frozenset({"pne"}))
    report = rg.run_experiment_suite(cfg)
    for row in report.rows:
        assert "pne_count" in row
        assert "fip" not in row
    assert "fip_rate" not in report.aggregate


def test_suite_generic_games_rarely_admit_exact_potentials():
    cfg = rg.ExperimentConfig(seed=11, games=10, n_range=(2, 2), m_range=(2, 3),
                              checks=frozenset({"potential"}))
    report = rg.run_experiment_suite(cfg)
    assert report.aggregate["potential_failure_rate"] >= 0.8
