import math
from fractions import Fraction as F

import pytest

import rankgames as rg
from rankgames import counterexamples
from rankgames.errors import PreconditionError, SearchError, ValidationError


# ---------- cycle verification ----------

def test_closed_cycle_shape():
    cyc = rg.closed_cycle()
    assert len(cyc) == 7
    assert cyc[0] == cyc[-1]
    assert tuple(cyc[:-1]) == rg.CYCLE
    movers = []
    for a, b in zip(cyc, cyc[1:]):
        diffs = [j for j in range(4) if a[j] != b[j]]
        assert len(diffs) == 1
        movers.append(diffs[0] + 1)
    assert movers == [2, 3, 4, 2, 3, 4]


def test_verify_rejects_open_walk(exposure_example):
    with pytest.raises(ValidationError):
        rg.verify_improvement_cycle(exposure_example, [(1, 1), (2, 1)])


@pytest.mark.parametrize("profiles", [
    [("a", 1), ("a", 1)],
    [(1, 4), (1, 4)],
    [(1, True), (1, True)],
    [(1, 1, 1), (1, 1, 1)],
])
def test_verify_rejects_profiles_that_do_not_fit(exposure_example, profiles):
    with pytest.raises(ValidationError):
        rg.verify_improvement_cycle(exposure_example, profiles)


def test_verify_rejects_multi_author_step(exposure_example):
    with pytest.raises(ValidationError):
        rg.verify_improvement_cycle(exposure_example, [(1, 1), (2, 2), (1, 1)])


def test_verify_flags_non_improving_step(exposure_example):
    # (2,1) is a PNE, so leaving it cannot improve
    ok, steps = rg.verify_improvement_cycle(
        exposure_example, [(2, 1), (3, 1), (2, 1)]
    )
    assert not ok
    assert any(s.ok is False for s in steps)


def test_verify_flags_stationary_pair(exposure_example):
    ok, steps = rg.verify_improvement_cycle(
        exposure_example, [(2, 2), (2, 2), (2, 2)]
    )
    assert not ok


CYCLE_GAMES = {
    "thm3": lambda: (rg.build_exposure_cycle_game(rg.ScoreFunction.identity()).game,
                     rg.closed_cycle()),
    "thm4": lambda: (rg.build_action_cycle_game(rg.ScoreFunction.power(8.0), 2.0).game,
                     rg.closed_cycle()),
    "thm5": lambda: (rg.build_band_cycle_game(rg.ScoreFunction.identity(), 1.0, 1.0).game,
                     rg.closed_cycle()),
    # exact utilities, and steps that do not improve
    "prp": lambda: (rg.example_game(rg.ACTION), [(1, 1), (2, 1), (2, 2), (1, 2), (1, 1)]),
}


@pytest.mark.parametrize("margin", [0.0, 1e-12, 1e-3])
@pytest.mark.parametrize("name", CYCLE_GAMES)
def test_cycle_steps_match_the_utility_vector_formula(name, margin):
    # each step as the two profiles' utility vectors and improves decide it
    game, profiles = CYCLE_GAMES[name]()
    want = []
    for a, b in zip(profiles, profiles[1:]):
        j = next(k for k in range(1, game.n + 1) if a[k - 1] != b[k - 1])
        u0, u1 = rg.utility_vector(game, a)[j - 1], rg.utility_vector(game, b)[j - 1]
        want.append(counterexamples.CycleStep(j, u1 - u0, rg.improves(u0, u1, margin)))
    ok, steps = rg.verify_improvement_cycle(game, profiles, margin)
    # repr tells apart any two floats, -0.0 and 0.0 included
    assert list(map(repr, steps)) == list(map(repr, want))
    assert ok is all(s.ok for s in want)


# ---------- exposure construction ----------

def test_exposure_triple_identity():
    x1, x2, x3, c1, c2 = rg.find_exposure_triple(rg.ScoreFunction.identity())
    assert x1 == 1.0
    assert x2 == 0.5
    assert abs(x3 - 0.1) < 1e-6
    assert c1 == 2.0
    assert abs(c2 - 5.0) < 1e-6


def test_exposure_triple_needs_growth():
    with pytest.raises(PreconditionError):
        rg.find_exposure_triple(rg.ScoreFunction.constant())


def test_exposure_triple_search_is_bounded(monkeypatch):
    # every grid point fails c1 > 1; level 9 holds points 256 to 511
    monkeypatch.setattr(counterexamples, "_MAX_EVALS", 300)
    with pytest.raises(SearchError, match="in 300 score evaluations; the grid scan reached level 9 of 40"):
        rg.find_exposure_triple(rg.ScoreFunction.power(1e-300))


def test_exposure_epsilon_identity():
    assert rg.solve_exposure_epsilon(2.0, 5.0) == F(1, 64)


def test_exposure_bundle_identity():
    bundle = rg.build_exposure_cycle_game(rg.ScoreFunction.identity())
    game = bundle.game
    assert game.scheme == rg.EXPOSURE
    assert game.mediator.kind == "scoring"
    assert game.demand == (F(64, 125), F(31, 125), F(30, 125))
    assert bundle.params["epsilon"] == F(1, 64)
    ok, steps = rg.verify_improvement_cycle(game, bundle.cycle)
    assert ok
    assert all(s.gain > 0 for s in steps)


def test_exposure_bundle_exponential():
    bundle = rg.build_exposure_cycle_game(rg.ScoreFunction.exponential(1.0))
    assert bundle.params["x2"] == 0.875
    ok, _ = rg.verify_improvement_cycle(bundle.game, bundle.cycle)
    assert ok


# ---------- action construction ----------

def test_action_triple_power8():
    _, x2, x3, c1, c2 = rg.find_action_triple(rg.ScoreFunction.power(8.0), 2.0)
    assert abs(c1 - 19 / 6) < 1e-9
    assert abs(c2 - 20 / 3) < 1e-9
    assert abs(x2 - (6 / 19) ** 0.125) < 1e-9
    assert abs(x3 - (3 / 20) ** 0.125) < 1e-9


def test_action_premise_rejection():
    with pytest.raises(PreconditionError):
        rg.build_action_cycle_game(rg.ScoreFunction.identity(), 2.0)


def test_action_alpha_validation():
    with pytest.raises(ValidationError):
        rg.build_action_cycle_game(rg.ScoreFunction.power(8.0), 1.0)


def test_action_epsilon_power8():
    assert rg.solve_action_epsilon(19 / 6, 20 / 3, 2.0) == F(1, 192)


def test_action_bundle_power8():
    bundle = rg.build_action_cycle_game(rg.ScoreFunction.power(8.0), 2.0)
    game = bundle.game
    assert game.scheme == rg.ACTION
    assert game.demand == (F(192, 335), F(191, 670), F(19, 134))
    assert sum(game.demand) == 1
    ok, steps = rg.verify_improvement_cycle(game, bundle.cycle)
    assert ok
    assert all(s.gain > 0 for s in steps)
    fip, _ = rg.has_fip(game)
    assert not fip


# ---------- band construction ----------

def test_band_quality_pair_identity():
    params = rg.build_band_cycle_game(rg.ScoreFunction.identity(), 1.0, 1.0).params
    assert abs(params["x2"] - 1 / 5) < 1e-9
    assert abs(params["x3"] - 1 / 11) < 1e-9


def test_band_epsilon_identity():
    assert rg.solve_band_epsilon(F(1)) == F(1, 1024)


def test_band_bundle_identity():
    bundle = rg.build_band_cycle_game(rg.ScoreFunction.identity(), 1.0, 1.0)
    game = bundle.game
    assert game.scheme == rg.ACTION
    assert game.demand[2] == F(5, 47)
    assert sum(game.demand) == 1
    ok, steps = rg.verify_improvement_cycle(game, bundle.cycle)
    assert ok
    assert all(s.gain > 0 for s in steps)


def test_band_bundle_non_unit_ratio():
    # identity sits strictly inside the band [x/2, 2x]
    bundle = rg.build_band_cycle_game(rg.ScoreFunction.identity(), 0.5, 2.0)
    assert bundle.params["z"] == 4.0
    ok, _ = rg.verify_improvement_cycle(bundle.game, bundle.cycle)
    assert ok


def test_band_rejects_function_outside_band():
    with pytest.raises(PreconditionError):
        rg.build_band_cycle_game(rg.ScoreFunction.power(2.0), 1.0, 1.0)


def test_band_parameter_validation():
    with pytest.raises(ValidationError):
        rg.build_band_cycle_game(rg.ScoreFunction.identity(), 2.0, 1.0)
    with pytest.raises(ValidationError):
        rg.build_band_cycle_game(rg.ScoreFunction.identity(), 0.0, 1.0)


# ---------- bundle serialization ----------

def test_bundle_to_dict_round_trips_game():
    bundle = rg.build_exposure_cycle_game(rg.ScoreFunction.identity())
    doc = rg.bundle_to_dict(bundle)
    assert rg.game_from_dict(doc["game"]) == bundle.game
    assert doc["cycle"] == [list(p) for p in rg.closed_cycle()]
    assert isinstance(doc["params"]["epsilon"], float)
    assert math.isclose(doc["params"]["epsilon"], 1 / 64)
