"""Reference instances, random game generation, and experiment suites.

Holds the worked 2-author, 3-topic example with its two payoff tables, a
seeded generator of random games with exact rational data, the greedy
topic-assignment equilibrium for square generic exposure games, and a
deterministic batch runner that writes CSV and JSON reports.
"""

from __future__ import annotations

import csv
import io
import json
import random
import sys
from pathlib import Path

from .errors import BudgetExceededError, PreconditionError, ValidationError
from .model import (
    DEFAULT_BUDGET,
    EXPOSURE,
    SCHEMES,
    Game,
    Mediator,
    PRP,
    Profile,
    make_game,
    mediator_from_dict,
    mediator_to_dict,
    utility_vector,
    _Record,
    _set,
)
from .dynamics import default_max_steps
from .analysis import _analysis, _converge_on_graph


# ---------- the worked example ----------

def example_game(scheme: str = EXPOSURE) -> Game:
    """Two authors, three topics, top-rank mediator; the running example."""
    demand = ("0.5", "0.3", "0.2")
    quality = (("0.1", "0.4", "0.8"), ("0.9", "0.4", "0.2"))
    return make_game(demand, quality, PRP, scheme)


def example_tables():
    """Both 3x3 payoff tables, rows = author 1's topic, columns = author 2's.

    Returns (exposure, action); each cell is the exact (u1, u2) pair.
    """
    tables = []
    for scheme in SCHEMES:
        game = example_game(scheme)
        tables.append(
            [
                [tuple(utility_vector(game, (r, c))) for c in range(1, 4)]
                for r in range(1, 4)
            ]
        )
    return tables[0], tables[1]


def format_example_tables() -> str:
    """Human-readable rendering of both tables, cells as decimal pairs."""
    exposure, action = example_tables()
    out = io.StringIO()
    for name, table in (("exposure", exposure), ("action", action)):
        print(f"{name} scheme (rows: author 1's topic, columns: author 2's topic)", file=out)
        cells = [
            [f"{float(u1):g},{float(u2):g}" for (u1, u2) in row] for row in table
        ]
        width = max(len(c) for row in cells for c in row)
        header = "      " + "  ".join(f"t{c}".center(width) for c in range(1, 4))
        print(header, file=out)
        for r, row in enumerate(cells, start=1):
            print(f"  t{r}  " + "  ".join(c.center(width) for c in row), file=out)
        print(file=out)
    return out.getvalue().rstrip("\n") + "\n"


# ---------- random games ----------

def generate_random_game(
    seed: int,
    n: int,
    m: int,
    *,
    generic_Q: bool = True,
    sorted_D: bool = True,
    denominator_bound: int = 1000,
    mediator: Mediator = PRP,
    scheme: str = EXPOSURE,
) -> Game:
    """Seeded random game with exact rational data.

    Quality entries are uniform rationals k/denominator_bound in [0, 1],
    drawn pairwise distinct when generic_Q (a small bound with generic_Q
    off makes ties common). Demand weights are normalized positive
    rationals; sorted_D draws them pairwise distinct and sorts them
    non-increasing, so the demand is strictly decreasing.
    """
    _check_generator_args(n, m, generic_Q, sorted_D, denominator_bound)
    rng = random.Random(seed)
    d = denominator_bound

    if generic_Q:
        numerators = rng.sample(range(d + 1), n * m)
    else:
        numerators = [rng.randint(0, d) for _ in range(n * m)]

    if sorted_D:
        weights = sorted(rng.sample(range(1, d + 1), m), reverse=True)
    else:
        weights = [rng.randint(1, d) for _ in range(m)]

    # numerators[i * m + k] / d is author i+1's quality on topic k+1
    # positional, as the generic record constructor binds keywords one by one
    return Game(sum(weights), weights, (d,) * m, [numerators[k::m] for k in range(m)],
                mediator, scheme)


def _check_generator_args(n, m, generic_Q, sorted_D, denominator_bound):
    if n < 1 or m < 1:
        raise ValidationError("need at least one author and one topic")
    if not 1 <= denominator_bound < sys.maxsize:  # random.sample takes len(range(bound))
        raise ValidationError(f"denominator_bound must be positive and below {sys.maxsize}")
    if generic_Q and n * m > denominator_bound + 1:
        raise ValidationError("denominator_bound too small for distinct quality entries")
    if sorted_D and m > denominator_bound:
        raise ValidationError("denominator_bound too small for distinct demand weights")


# ---------- greedy assignment ----------

def greedy_assignment_pne(game: Game) -> Profile:
    """Assign each topic, in order, to the best unassigned author.

    Requires a square (n = m) exposure game under the top-rank mediator with
    strictly decreasing demand and a generic (all-distinct) quality matrix;
    there the result is the game's unique pure Nash equilibrium.
    """
    if game.mediator.kind != "prp":
        raise PreconditionError("greedy assignment needs the top-rank (prp) mediator")
    if game.scheme != EXPOSURE:
        raise PreconditionError("greedy assignment needs the exposure scheme")
    if game.n != game.m:
        raise PreconditionError("greedy assignment needs as many topics as authors")
    if any(a <= b for a, b in zip(game.demand, game.demand[1:])):
        raise PreconditionError("greedy assignment needs strictly decreasing demand")
    entries = [q for row in game.quality for q in row]
    if len(set(entries)) != len(entries):
        raise PreconditionError("greedy assignment needs a generic quality matrix")
    unassigned = set(range(1, game.n + 1))
    choice = {}
    for k in range(1, game.m + 1):
        j = max(unassigned, key=lambda j: game.quality[j - 1][k - 1])
        choice[j] = k
        unassigned.remove(j)
    return tuple(choice[j] for j in range(1, game.n + 1))


# ---------- experiment suite ----------

_CSV_COLUMNS = (
    "seed",
    "n",
    "m",
    "mediator",
    "scheme",
    "fip",
    "pne_count",
    "max_path_len",
    "potential_exists",
    "steps_to_converge",
)

CHECKS = ("fip", "pne", "potential", "dynamics")


class ExperimentConfig(_Record):
    """Deterministic description of a batch run."""

    __match_args__ = __slots__ = (
        "seed", "games", "n_range", "m_range", "mediator", "scheme", "budget",
        "generic_Q", "sorted_D", "denominator_bound",
    )

    def __init__(self, seed: int, games: int, n_range: tuple[int, int], m_range: tuple[int, int],
                 mediator: Mediator = PRP, scheme: str = EXPOSURE, budget: int = DEFAULT_BUDGET,
                 generic_Q: bool = True, sorted_D: bool = True, denominator_bound: int = 1000):
        if games < 0:
            raise ValidationError("games must be nonnegative")
        if games > DEFAULT_BUDGET:
            raise ValidationError(f"games must be at most {DEFAULT_BUDGET}, got {games}")
        for name, (lo, hi) in (("n_range", n_range), ("m_range", m_range)):
            if not 1 <= lo <= hi:
                raise ValidationError(f"{name} must satisfy 1 <= lo <= hi")
        # as the game and its generator check them, at the smallest game,
        # so that 0 games reject them too
        if scheme not in SCHEMES:
            raise ValidationError(f"unknown utility scheme {scheme!r}")
        _check_generator_args(n_range[0], m_range[0], generic_Q, sorted_D, denominator_bound)
        if not isinstance(budget, int):
            raise ValidationError(f"budget must be an int, got {budget!r}")
        # for m >= 2, m^n exceeds the budget once n exceeds its bit length,
        # so a larger n is not raised to its power
        if m_range[1] ** min(n_range[1], budget.bit_length() + 1) > budget:
            raise ValidationError("ranges exceed the enumeration budget")
        _set(self, "seed", seed)
        _set(self, "games", games)
        _set(self, "n_range", n_range)
        _set(self, "m_range", m_range)
        _set(self, "mediator", mediator)
        _set(self, "scheme", scheme)
        _set(self, "budget", budget)
        _set(self, "generic_Q", generic_Q)
        _set(self, "sorted_D", sorted_D)
        _set(self, "denominator_bound", denominator_bound)


def config_from_dict(d) -> ExperimentConfig:
    if not isinstance(d, dict):
        raise ValidationError("config must be a JSON object")

    def typed(kind, key, *default):
        # only JSON integers or booleans: no bool is read as an int, nor 2.9 or "false"
        value = d.get(key, *default) if default else d[key]
        is_range = key.endswith("_range")
        if is_range and not (type(value) is list and len(value) == 2):
            raise TypeError(f"{key} takes a list of two JSON ints, got {value!r}")
        for x in value if is_range else (value,):
            if type(x) is not kind:
                raise TypeError(f"{key} takes JSON {kind.__name__} values only, got {value!r}")
        return value

    try:
        return ExperimentConfig(
            seed=typed(int, "seed"),
            games=typed(int, "games"),
            n_range=tuple(typed(int, "n_range")),
            m_range=tuple(typed(int, "m_range")),
            mediator=mediator_from_dict(d.get("mediator", {"kind": "prp"})),
            scheme=d.get("scheme", EXPOSURE),
            budget=typed(int, "budget", DEFAULT_BUDGET),
            generic_Q=typed(bool, "generic_Q", True),
            sorted_D=typed(bool, "sorted_D", True),
            denominator_bound=typed(int, "denominator_bound", 1000),
        )
    except (KeyError, IndexError, TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"bad experiment config: {exc!r}") from exc


class ExperimentReport(_Record):
    """Per-game rows plus aggregate statistics; bit-identical per config.
    Mutable, so unhashable."""

    __match_args__ = __slots__ = ("config", "rows", "aggregate")
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None
    config: ExperimentConfig
    rows: list[dict]
    aggregate: dict

    def __init__(self, config, rows=None, aggregate=None):
        # a fresh list and dict per report, where none are given
        self.config = config
        self.rows = [] if rows is None else rows
        self.aggregate = {} if aggregate is None else aggregate

    def to_csv(self) -> str:
        out = io.StringIO()
        writer = csv.DictWriter(out, fieldnames=_CSV_COLUMNS, extrasaction="ignore", lineterminator="\n")
        writer.writeheader()
        for row in self.rows:
            writer.writerow({k: row.get(k, "") for k in _CSV_COLUMNS})
        return out.getvalue()

    def to_json(self) -> str:
        doc = {
            "config": {
                "seed": self.config.seed,
                "games": self.config.games,
                "n_range": list(self.config.n_range),
                "m_range": list(self.config.m_range),
                "mediator": mediator_to_dict(self.config.mediator),
                "scheme": self.config.scheme,
                "checks": sorted(CHECKS),
                "budget": self.config.budget,
                "generic_Q": self.config.generic_Q,
                "sorted_D": self.config.sorted_D,
                "denominator_bound": self.config.denominator_bound,
                "note": "game distribution is an artifact choice",
            },
            "rows": self.rows,
            "aggregate": self.aggregate,
        }
        return json.dumps(doc, indent=2, sort_keys=False) + "\n"


def run_experiment_suite(config: ExperimentConfig, out_dir=None) -> ExperimentReport:
    """Run every check of CHECKS over seeded random games.

    Every game gets one full analysis, analysis_report's, which fills every
    column of its row. The dynamics check reads every start's
    round-robin and first-deviator run off that analysis's improvement
    graph (analysis._converge_on_graph): it builds no kernel state and
    calls no run_dynamics.
    Per-game budget overruns are recorded in the row, not raised.
    When out_dir is given, writes report.csv and report.json there.
    """
    rng = random.Random(config.seed)
    report = ExperimentReport(config)
    cycles = []
    for _ in range(config.games):
        game_seed = rng.randrange(2**63)
        n = rng.randint(*config.n_range)
        m = rng.randint(*config.m_range)
        game = generate_random_game(
            game_seed,
            n,
            m,
            generic_Q=config.generic_Q,
            sorted_D=config.sorted_D,
            denominator_bound=config.denominator_bound,
            mediator=config.mediator,
            scheme=config.scheme,
        )
        row = {"seed": game_seed, "n": n, "m": m,
               "mediator": config.mediator.kind, "scheme": config.scheme}
        try:
            # every check reads the one full analysis and its graph
            analysis, graph = _analysis(game, config.budget)
            acyclic = row["fip"] = analysis["fip"]
            if acyclic:
                row["max_path_len"] = analysis["longest_path"]
            else:
                cycles.append(analysis["cycle"])
            row["pne_count"] = len(analysis["pne"])
            row["potential_exists"] = analysis["potential"]["exists"]
            converged, worst = _converge_on_graph(graph, acyclic, default_max_steps(game))
            row["dynamics_converged"] = converged
            if converged:
                row["steps_to_converge"] = worst
        except BudgetExceededError:
            row["error"] = "budget"
        report.rows.append(row)

    def column(key):
        return [row[key] for row in report.rows if key in row]

    fips = column("fip")
    steps_all = column("steps_to_converge")
    potentials = column("potential_exists")
    agg = {"games": config.games, "budget_errors": len(column("error"))}
    if fips:
        agg["fip_rate"] = sum(fips) / len(fips)
    if steps_all:
        agg["mean_steps_to_converge"] = sum(steps_all) / len(steps_all)
        agg["max_steps_to_converge"] = max(steps_all)
    if potentials:
        agg["potential_failure_rate"] = sum(1 for p in potentials if not p) / len(potentials)
    if cycles:
        agg["cycle_witnesses"] = cycles
    report.aggregate = agg

    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / "report.csv").write_text(report.to_csv())
        (out / "report.json").write_text(report.to_json())
    return report
