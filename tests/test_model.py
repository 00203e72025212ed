import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

import rankgames as rg
from rankgames.analysis import profile_at, profile_index
from rankgames.errors import ValidationError
from rankgames.model import (
    as_rational,
    format_number,
    format_rational,
    mediator_from_dict,
    mediator_to_dict,
)

import oracle


# ---------- rationals ----------

def test_as_rational_accepts_fraction_int_float_str():
    assert as_rational(F(2, 4)) == F(1, 2)
    assert as_rational(3) == F(3)
    assert as_rational(0.1) == F(1, 10)
    assert as_rational("1/3") == F(1, 3)
    assert as_rational("0.25") == F(1, 4)


def test_as_rational_float_uses_decimal_repr():
    # repr-based conversion, not the binary expansion
    assert as_rational(0.3) == F(3, 10)


def test_as_rational_rejects_bool_and_junk():
    with pytest.raises(ValidationError):
        as_rational(True)
    with pytest.raises(ValidationError):
        as_rational("one half")
    with pytest.raises(ValidationError):
        as_rational(None)


def test_format_rational_always_shows_denominator():
    assert format_rational(F(1, 2)) == "1/2"
    assert format_rational(F(3)) == "3/1"
    assert format_rational(F(0)) == "0/1"


def test_format_number_by_type():
    assert format_number(F(1, 3)) == "1/3"
    assert format_number(0.25) == "0.25"
    assert format_number(7) == "7"


# ---------- improves ----------

def test_improves_strict_without_margin():
    assert rg.improves(F(1, 3), F(1, 2))
    assert not rg.improves(F(1, 2), F(1, 2))
    assert not rg.improves(F(1, 2), F(1, 3))


def test_improves_relative_margin():
    assert not rg.improves(1.0, 1.0 + 1e-13, 1e-9)
    assert rg.improves(1.0, 1.01, 1e-3)


@given(
    st.fractions(min_value=0, max_value=1),
    st.fractions(min_value=0, max_value=1),
)
def test_improves_antisymmetric(a, b):
    assert not (rg.improves(a, b) and rg.improves(b, a))


# ---------- score functions ----------

def test_score_function_kinds():
    assert rg.ScoreFunction.identity()(0.3) == 0.3
    assert rg.ScoreFunction.constant()(0.0) == 1.0
    assert rg.ScoreFunction.power(2.0)(0.5) == 0.25
    assert rg.ScoreFunction.exponential(1.0)(0.0) == 1.0
    assert rg.ScoreFunction.exp_minus_one()(0.0) == 0.0
    assert math.isclose(rg.ScoreFunction.exp_minus_one()(1.0), math.e - 1)


# the per-call definitions of each kind that ScoreFunction.column replaced
PER_CALL = {
    "constant": lambda x, p: 1.0,
    "identity": lambda x, p: float(x),
    "power": lambda x, p: float(x) ** p,
    "exponential": lambda x, p: math.exp(p * float(x)),
    "exp_minus_one": lambda x, p: math.expm1(float(x)),
}
SCORES = [rg.ScoreFunction.constant(), rg.ScoreFunction.identity(),
          *map(rg.ScoreFunction.power, (1e-3, 0.5, 2.0, 8.0, 300.0)),
          *map(rg.ScoreFunction.exponential, (0.0, 3.0, 700.0)), rg.ScoreFunction.exp_minus_one()]


@pytest.mark.parametrize("f", SCORES, ids=lambda f: f"{f.kind}-{f.param}")
def test_score_column_is_bit_identical_to_the_per_call_definition(f):
    rng = random.Random(f"{f.kind}-{f.param}")
    xs = [0.0, 1.0, 5e-324, 1e-300, 0.5, *(i / 1000 for i in range(1001)),
          *(rng.random() for _ in range(2000)), F(1, 3), 1]
    want = [float.hex(PER_CALL[f.kind](x, f.param)) for x in xs]
    assert list(map(float.hex, f.column(xs))) == want
    assert [float.hex(f(x)) for x in xs] == want
    assert f.column([]) == []


def test_exp_minus_one_keeps_small_scores_apart():
    # e**x - 1 computed as exp(x) - 1.0 cancels to 0.0 below about 1e-16, and
    # a topic whose scores are all 0.0 is split evenly
    game = rg.make_game(("1",), ((F(1, 10**17),), (F(2, 10**17),)),
                        rg.Mediator.scoring(rg.ScoreFunction.exp_minus_one()))
    u1, u2 = rg.utility_vector(game, (1, 1))
    # in the ratio 1:2, not 1:1
    assert math.isclose(u1, 1 / 3) and math.isclose(u2, 2 / 3)


def test_score_function_param_validation():
    with pytest.raises(ValidationError):
        rg.ScoreFunction("power", -1.0)
    with pytest.raises(ValidationError):
        rg.ScoreFunction("identity", 2.0)
    with pytest.raises(ValidationError):
        rg.ScoreFunction("sigmoid")


@pytest.mark.parametrize("make,param", [
    (rg.ScoreFunction.exponential, math.nan),
    (rg.ScoreFunction.exponential, math.inf),
    (rg.ScoreFunction.power, math.nan),
    (rg.ScoreFunction.power, math.inf),
])
def test_score_function_rejects_non_finite_param(make, param):
    with pytest.raises(ValidationError):
        make(param)
    with pytest.raises(ValidationError):
        rg.ScoreFunction(make.__name__, param)


def test_is_non_decreasing():
    assert oracle.is_non_decreasing(rg.ScoreFunction.identity())
    assert oracle.is_non_decreasing(rg.ScoreFunction.constant())
    assert oracle.is_non_decreasing(rg.ScoreFunction.exponential(3.0))


# ---------- game construction ----------

def test_make_game_validates_demand_sum():
    with pytest.raises(ValidationError):
        rg.make_game(("1/2", "1/3"), (("1/2", "1/2"),))


def test_make_game_validates_quality_range():
    with pytest.raises(ValidationError):
        rg.make_game(("1/2", "1/2"), (("1/2", "3/2"),))


def test_make_game_validates_shapes():
    with pytest.raises(ValidationError):
        rg.make_game(("1/2", "1/2"), (("1/2",),))


def test_profile_index_round_trip():
    for a in rg.iter_profiles(3, 2):
        assert profile_at(profile_index(a, 2), 3, 2) == a


def test_replace_topic():
    assert rg.replace_topic((1, 2, 3), 2, 1) == (1, 1, 3)


# ---------- mediators and utilities ----------

def test_writers_and_tops(exposure_example):
    g = exposure_example
    assert oracle.writers(g, 1, (1, 1)) == [1, 2]
    assert oracle.writers(g, 2, (1, 1)) == []
    assert oracle.top_quality(g, 1, (1, 1)) == F(9, 10)
    assert oracle.top_count(g, 1, (1, 1)) == 1
    assert oracle.top_quality(g, 2, (1, 1)) == F(0)
    assert oracle.top_count(g, 2, (1, 1)) == 0


def test_topic_tables_match_pointwise(exposure_example):
    # the per-topic tables of a step-free trajectory are its one profile's
    g = exposure_example
    for a in rg.iter_profiles(g.n, g.m):
        stats = rg.path_invariant_report(g, rg.Trajectory(a, (), a)).statistics
        (B,), (H,) = stats.top_quality_rows, stats.top_count_rows
        for k in range(1, g.m + 1):
            assert B[k - 1] == oracle.top_quality(g, k, a)
            assert H[k - 1] == oracle.top_count(g, k, a)


def test_prp_splits_ties():
    g = rg.make_game(("1/1",), (("1/2",), ("1/2",), ("1/4",)), rg.PRP)
    probs = oracle.rank_probabilities(g, 1, (1, 1, 1))
    assert probs == {1: F(1, 2), 2: F(1, 2), 3: F(0)}


def test_rand_is_uniform_over_writers():
    g = rg.make_game(("1/1",), (("1/2",), ("9/10",), ("1/4",)), rg.RAND)
    probs = oracle.rank_probabilities(g, 1, (1, 1, 1))
    assert probs == {1: F(1, 3), 2: F(1, 3), 3: F(1, 3)}


def test_scoring_proportional_to_score():
    g = rg.make_game(
        ("1/1",), (("1/2",), ("1/4",)), rg.Mediator.scoring(rg.ScoreFunction.identity())
    )
    probs = oracle.rank_probabilities(g, 1, (1, 1))
    assert math.isclose(probs[1], 2 / 3)
    assert math.isclose(probs[2], 1 / 3)


def test_scoring_zero_scores_fall_back_to_uniform():
    g = rg.make_game(
        ("1/1",), (("0/1",), ("0/1",)), rg.Mediator.scoring(rg.ScoreFunction.identity())
    )
    probs = oracle.rank_probabilities(g, 1, (1, 1))
    assert probs == {1: 0.5, 2: 0.5}


def test_empty_topic_has_no_probabilities(exposure_example):
    assert oracle.rank_probabilities(exposure_example, 2, (1, 1)) == {}


def test_exposure_utility_is_demand_times_rank(exposure_example):
    g = exposure_example
    assert rg.utility(g, (1, 1), 1) == F(0)
    assert rg.utility(g, (1, 1), 2) == F(1, 2)


def test_action_utility_scales_by_quality(action_example):
    g = action_example
    assert rg.utility(g, (1, 1), 2) == F(1, 2) * F(9, 10)


def test_utility_vector_consistent(exposure_example):
    g = exposure_example
    for a in rg.iter_profiles(g.n, g.m):
        vec = rg.utility_vector(g, a)
        assert vec == tuple(rg.utility(g, a, j) for j in (1, 2))


@given(st.integers(min_value=0, max_value=10**6))
def test_random_game_utilities_bounded(seed):
    g = rg.generate_random_game(seed, 2, 3, denominator_bound=20, generic_Q=False, sorted_D=False)
    assert sum(g.demand) == 1
    for a in rg.iter_profiles(g.n, g.m):
        vec = rg.utility_vector(g, a)
        assert all(0 <= u <= 1 for u in vec)
        # exposure mass on a topic never exceeds its demand
        assert sum(vec) <= 1


@given(st.integers(min_value=0, max_value=10**6))
def test_rank_probabilities_sum_to_one_on_inhabited_topics(seed):
    g = rg.generate_random_game(seed, 3, 2, denominator_bound=5, generic_Q=False, sorted_D=False)
    for a in rg.iter_profiles(g.n, g.m):
        for k in range(1, g.m + 1):
            probs = oracle.rank_probabilities(g, k, a)
            if oracle.writers(g, k, a):
                assert sum(probs.values()) == 1
            else:
                assert probs == {}


# ---------- serialization ----------

def test_game_round_trip(exposure_example):
    d = rg.game_to_dict(exposure_example)
    assert d["D"] == ["1/2", "3/10", "1/5"]
    assert rg.game_from_dict(d) == exposure_example


def test_game_from_dict_checks_declared_shape(exposure_example):
    d = rg.game_to_dict(exposure_example)
    d["n"] = 5
    with pytest.raises(ValidationError):
        rg.game_from_dict(d)


def test_game_from_dict_accepts_numbers(exposure_example):
    d = rg.game_to_dict(exposure_example)
    d["D"] = [0.5, 0.3, 0.2]
    assert rg.game_from_dict(d) == exposure_example


def test_mediator_round_trip():
    for med in (
        rg.PRP,
        rg.RAND,
        rg.Mediator.scoring(rg.ScoreFunction.power(8.0)),
        rg.Mediator.scoring(rg.ScoreFunction.exp_minus_one()),
    ):
        assert mediator_from_dict(mediator_to_dict(med)) == med


def test_scoring_game_round_trip():
    g = rg.make_game(
        ("1/2", "1/2"),
        (("0.3", "0.4"), ("0.5", "0.7")),
        rg.Mediator.scoring(rg.ScoreFunction.exponential(2.0)),
        rg.ACTION,
    )
    assert rg.game_from_dict(rg.game_to_dict(g)) == g
