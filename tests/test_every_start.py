"""The suite's dynamics check: steps-to-converge from every start in one pass.

On an acyclic improvement graph the pass must give the same (converged,
worst) as one run_dynamics call per start and scheduler; on a cyclic graph
the suite must run each start on its own.
"""

import pytest
from hypothesis import assume, given, strategies as st

import rankgames as rg
from rankgames import harness
from rankgames.dynamics import _converge_from_every_start
from rankgames.harness import _converge_per_start

POWER2 = rg.Mediator.scoring(rg.ScoreFunction.power(2.0))
MEDIATORS = (
    rg.PRP,
    rg.RAND,
    rg.Mediator.scoring(rg.ScoreFunction.identity()),
    POWER2,
    rg.Mediator.scoring(rg.ScoreFunction.exponential(3.0)),
)


def _game(seed, n, m, mediator, scheme, tie_rich):
    return rg.generate_random_game(
        seed, n, m, generic_Q=not tie_rich, sorted_D=not tie_rich,
        denominator_bound=4 if tie_rich else 1000, mediator=mediator, scheme=scheme,
    )


@st.composite
def small_games(draw):
    return _game(
        draw(st.integers(0, 10**6)),
        draw(st.integers(1, 3)),
        draw(st.integers(1, 3)),
        draw(st.sampled_from(MEDIATORS)),
        draw(st.sampled_from((rg.EXPOSURE, rg.ACTION))),
        draw(st.booleans()),
    )


@given(small_games())
def test_pass_matches_per_start_runs(game):
    assume(rg.has_fip(game)[0])
    assert _converge_from_every_start(game) == _converge_per_start(game)


@pytest.mark.parametrize("mediator", MEDIATORS, ids=lambda med: med.kind + (f"-{med.f.kind}" if med.f else ""))
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_pass_matches_per_start_runs_4x3(mediator, seed):
    game = _game(seed, 4, 3, mediator, (rg.EXPOSURE, rg.ACTION)[seed % 2], seed == 1)
    assert rg.has_fip(game)[0]
    assert _converge_from_every_start(game) == _converge_per_start(game)


# ---------- the suite ----------

def _suite_row(monkeypatch, game, checks):
    monkeypatch.setattr(harness, "generate_random_game", lambda *args, **kwargs: game)
    cfg = rg.ExperimentConfig(seed=0, games=1, n_range=(game.n, game.n),
                              m_range=(game.m, game.m), checks=frozenset(checks))
    return rg.run_experiment_suite(cfg).rows[0]


CYCLIC_GAMES = {
    "thm3": lambda: rg.build_exposure_cycle_game(rg.ScoreFunction.identity()).game,
    "thm4": lambda: rg.build_action_cycle_game(rg.ScoreFunction.power(8.0), 2.0).game,
    "thm5": lambda: rg.build_band_cycle_game(rg.ScoreFunction.identity(), 1.0, 1.0).game,
    "power2": lambda: rg.generate_random_game(30, 4, 3, mediator=POWER2),
}


@pytest.mark.parametrize("checks", [{"dynamics"}, {"fip", "dynamics"}])
@pytest.mark.parametrize("name", CYCLIC_GAMES)
def test_cyclic_games_run_each_start(name, checks, monkeypatch):
    game = CYCLIC_GAMES[name]()
    assert not rg.has_fip(game)[0]

    def pass_on_cyclic_graph(game):
        raise AssertionError("the one-pass check ran on a cyclic game")

    monkeypatch.setattr(harness, "_converge_from_every_start", pass_on_cyclic_graph)
    row = _suite_row(monkeypatch, game, checks)
    converged, worst = _converge_per_start(game)
    assert row["dynamics_converged"] is converged
    assert row.get("steps_to_converge") == (worst if converged else None)
    assert row.get("fip", False) is False


SUITE_CONFIGS = {
    "prp_generic": {"n_range": (2, 3), "m_range": (2, 3)},
    "prp_action_tie": {"n_range": (3, 3), "m_range": (2, 2), "scheme": rg.ACTION,
                       "generic_Q": False, "sorted_D": False, "denominator_bound": 4},
    "rand": {"n_range": (2, 3), "m_range": (2, 3), "mediator": rg.RAND},
    "power2": {"n_range": (3, 3), "m_range": (3, 3), "mediator": POWER2},
}


@pytest.mark.parametrize("name", SUITE_CONFIGS)
def test_dynamics_only_suite_matches_per_start_runs(name, monkeypatch):
    cfg = rg.ExperimentConfig(seed=7, games=12, checks=frozenset({"dynamics"}),
                              **SUITE_CONFIGS[name])
    report = rg.run_experiment_suite(cfg)
    monkeypatch.setattr(harness, "_converge_from_every_start", _converge_per_start)
    expected = rg.run_experiment_suite(cfg)
    assert report.rows == expected.rows
    assert report.aggregate == expected.aggregate
    assert report.to_json() == expected.to_json()
    assert all("steps_to_converge" in row for row in report.rows)
