"""The public records' contract: names, fields, defaults, keyword
construction, ==, hash, repr and immutability."""

import copy
import pickle
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

import rankgames as rg
from rankgames.analysis import PathStatistics, StepCheck
from rankgames.counterexamples import CycleStep

GAME = rg.make_game(("1/2", "1/2"), ((1, "1/2"), ("1/3", 0)))
GAME_REPR = (
    "Game(demand_den=2, demand_num=(1, 1), quality_den=(3, 2), quality_num=((3, 1), (1, 0)), "
    "mediator=Mediator(kind='prp', f=None), scheme='exposure')"
)
TRAJ = rg.Trajectory((1, 1), (), (1, 1))
TRAJ_REPR = "Trajectory(initial=(1, 1), steps=(), terminal=(1, 1))"
CONFIG = rg.ExperimentConfig(0, 1, (1, 2), (1, 2), budget=1000)
CONFIG_REPR = (
    "ExperimentConfig(seed=0, games=1, n_range=(1, 2), m_range=(1, 2), "
    "mediator=Mediator(kind='prp', f=None), scheme='exposure', budget=1000, "
    "generic_Q=True, sorted_D=True, denominator_bound=1000)"
)
STATS = PathStatistics(((F(1, 2),),), ((1,),), (1,), (F(1, 2),))
STATS_REPR = (
    "PathStatistics(top_quality_rows=((Fraction(1, 2),),), top_count_rows=((1,),), "
    "min_top_count=(1,), max_top_quality=(Fraction(1, 2),))"
)

# (class, positional values, field names, defaults, repr, hashable, frozen)
RECORDS = [
    (rg.ScoreFunction, ("identity", None), ("kind", "param"), {"param": None},
     "ScoreFunction(kind='identity', param=None)", True, True),
    (rg.Mediator, ("prp", None), ("kind", "f"), {"f": None},
     "Mediator(kind='prp', f=None)", True, True),
    (rg.Game, (2, (1, 1), (3, 2), ((3, 1), (1, 0)), rg.PRP, "exposure"),
     ("demand_den", "demand_num", "quality_den", "quality_num", "mediator", "scheme"), {},
     GAME_REPR, True, True),
    (rg.Step, (1, 2, 1, 3, F(1, 4), F(1, 2)),
     ("index", "mover", "from_topic", "to_topic", "utility_before", "utility_after"), {},
     "Step(index=1, mover=2, from_topic=1, to_topic=3, utility_before=Fraction(1, 4), "
     "utility_after=Fraction(1, 2))", True, True),
    (rg.Trajectory, ((1, 1), (), (1, 1)), ("initial", "steps", "terminal"), {},
     TRAJ_REPR, True, True),
    (rg.RoundRobin, ((2, 1),), ("order",), {"order": None},
     "RoundRobin(order=(2, 1))", True, True),
    (rg.FirstDeviator, (), (), {}, "FirstDeviator()", True, True),
    (rg.RandomOrder, (7,), ("seed",), {"seed": 0}, "RandomOrder(seed=7)", True, True),
    (rg.ConvergedPNE, ((1, 1), 0, TRAJ, True),
     ("profile", "steps_taken", "trajectory", "repeat_seen"), {"repeat_seen": False},
     f"ConvergedPNE(profile=(1, 1), steps_taken=0, trajectory={TRAJ_REPR}, repeat_seen=True)",
     True, True),
    (rg.RepeatDetected, (TRAJ, 0), ("trajectory", "repeated_profile_index"), {},
     f"RepeatDetected(trajectory={TRAJ_REPR}, repeated_profile_index=0)", True, True),
    (rg.BudgetExhausted, (TRAJ, True), ("trajectory", "repeat_seen"), {"repeat_seen": False},
     f"BudgetExhausted(trajectory={TRAJ_REPR}, repeat_seen=True)", True, True),
    (rg.ImprovementGraph, (GAME, 4, [[1], [], [], [2]], 0.5), ("game", "n_nodes", "adj", "margin"),
     {"margin": 0.0},
     f"ImprovementGraph(game={GAME_REPR}, n_nodes=4, adj=[[1], [], [], [2]], margin=0.5)",
     False, False),
    (rg.PotentialWitness, ((1, 2), (1, 2), (2, 1), (1, 1)),
     ("authors", "topics_i", "topics_j", "base"), {},
     "PotentialWitness(authors=(1, 2), topics_i=(1, 2), topics_j=(2, 1), base=(1, 1))",
     True, True),
    (rg.PotentialReport, (False, F(1, 3), None), ("has_exact_potential", "worst_residual", "witness"),
     {}, "PotentialReport(has_exact_potential=False, worst_residual=Fraction(1, 3), witness=None)",
     True, True),
    (PathStatistics, (((F(1, 2),),), ((1,),), (1,), (F(1, 2),)),
     ("top_quality_rows", "top_count_rows", "min_top_count", "max_top_quality"), {},
     STATS_REPR, True, True),
    (StepCheck, (1, True, "pass"), ("index", "mover_quality_at_top", "bound"), {},
     "StepCheck(index=1, mover_quality_at_top=True, bound='pass')", True, True),
    (rg.PathInvariantReport, (STATS, (StepCheck(1, True, "n/a"),)), ("statistics", "checks"), {},
     f"PathInvariantReport(statistics={STATS_REPR}, "
     "checks=(StepCheck(index=1, mover_quality_at_top=True, bound='n/a'),))", True, True),
    (CycleStep, (2, 0.25, True), ("mover", "gain", "ok"), {},
     "CycleStep(mover=2, gain=0.25, ok=True)", True, True),
    (rg.CounterexampleBundle, (GAME, ((1, 1), (1, 1)), {"eps": F(1, 2)}), ("game", "cycle", "params"),
     {}, f"CounterexampleBundle(game={GAME_REPR}, cycle=((1, 1), (1, 1)), "
     "params={'eps': Fraction(1, 2)})", False, True),
    (rg.ExperimentConfig, (0, 1, (1, 2), (1, 2), rg.PRP, "exposure", 1000),
     ("seed", "games", "n_range", "m_range", "mediator", "scheme", "budget",
      "generic_Q", "sorted_D", "denominator_bound"),
     {"mediator": rg.PRP, "scheme": "exposure", "budget": rg.DEFAULT_BUDGET,
      "generic_Q": True, "sorted_D": True, "denominator_bound": 1000},
     CONFIG_REPR, True, True),
    (rg.ExperimentReport, (CONFIG, [{"game": 0}], {"games": 1}), ("config", "rows", "aggregate"),
     {"rows": [], "aggregate": {}},
     f"ExperimentReport(config={CONFIG_REPR}, rows=[{{'game': 0}}], aggregate={{'games': 1}})",
     False, False),
]


@pytest.mark.parametrize(
    "cls, values, fields, defaults, text, hashable, frozen",
    RECORDS,
    ids=[r[0].__name__ for r in RECORDS],
)
def test_record_contract(cls, values, fields, defaults, text, hashable, frozen):
    x = cls(*values)
    # the fields, in order: the public names a class pattern binds positionally
    assert tuple(f for f in cls.__match_args__ if not f.startswith("_")) == fields
    assert tuple(getattr(x, f) for f in fields) == values[: len(fields)] + tuple(
        defaults[f] for f in fields[len(values):]
    )
    assert cls(**dict(zip(fields, values))) == x
    required = [v for f, v in zip(fields, values) if f not in defaults]
    bare = cls(*required)
    for f, want in defaults.items():
        assert getattr(bare, f) == want
        if isinstance(want, (list, dict)):
            # a fresh container per instance
            assert getattr(bare, f) is not getattr(cls(*required), f)

    # Python's own argument binding: no unknown keyword, missing or extra argument
    with pytest.raises(TypeError):
        cls(*values, unknown=1)
    if required:
        with pytest.raises(TypeError):
            cls(*required[:-1])
    with pytest.raises(TypeError):
        cls(*values, *(defaults[f] for f in fields[len(values):]), None)

    assert repr(x) == text
    assert x == cls(*values)
    assert not (x != cls(*values))
    assert x != values
    assert copy.copy(x) == x
    assert pickle.loads(pickle.dumps(x)) == x

    if hashable:
        assert hash(x) == hash(cls(*values)) == hash(tuple(getattr(x, f) for f in fields))
    else:
        with pytest.raises(TypeError):
            hash(x)

    if fields:
        if frozen:
            with pytest.raises(AttributeError):
                setattr(x, fields[0], values[0])
            with pytest.raises(AttributeError):
                delattr(x, fields[0])
        else:
            setattr(x, fields[-1], defaults[fields[-1]])
            assert getattr(x, fields[-1]) == defaults[fields[-1]]
    if frozen:
        with pytest.raises(AttributeError):
            x.extra = 1


def test_records_of_different_types_never_compare_equal():
    # equal field values, different types
    pairs = [
        (rg.RepeatDetected(TRAJ, 0), rg.BudgetExhausted(TRAJ, False)),
        (StepCheck(1, True, "pass"), CycleStep(1, True, "pass")),
        (rg.RoundRobin(None), rg.RandomOrder(None)),
        (rg.PotentialReport(True, 0, None), CycleStep(True, 0, None)),
    ]
    for x, y in pairs:
        assert x != y and y != x
        assert not x == y
    assert rg.ConvergedPNE((1, 1), 0, TRAJ) != rg.BudgetExhausted(TRAJ)
    assert rg.FirstDeviator() != rg.RoundRobin() and rg.FirstDeviator() == rg.FirstDeviator()


def test_game_cache_is_not_part_of_its_value():
    g = rg.make_game(("1/2", "1/2"), ((1, "1/2"), ("1/3", 0)))
    rg.utility_vector(g, (1, 2))
    assert g._cache
    assert g == GAME and hash(g) == hash(GAME) and repr(g) == GAME_REPR
    assert (g.n, g.m, g.demand, g.quality) == (2, 2, (F(1, 2), F(1, 2)), ((1, F(1, 2)), (F(1, 3), 0)))


def test_cli_import_leaves_dataclasses_out():
    # a fresh interpreter without site, so only the package's own imports count
    src = str(Path(__file__).resolve().parent.parent / "src")
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import rankgames.cli; "
        "print(sorted({'dataclasses', 'inspect', 'ast'} & set(sys.modules)))"
    )
    out = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
