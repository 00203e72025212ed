"""The benchmark's three workloads: inputs, jobs and output checks.

Every input is generated from the run's seed with ``generate_random_game``
(or built by the ``counterexample`` command) and serialised as game JSON into
the ``files`` dict that each set-up fills and the caller writes out, then
handed to the program through the in-process CLI, ``rankgames.cli.main``.
A job is one CLI call or one audited game; jobs run one at a time in one
process with no threads (a closed loop with a single client).

analyze  -- exhaustive analysis of mid-size games. Each profile's utility is
            reused n*(m-1) times and the exact-potential scan dominates, so
            analysis and memoised model calls do the work; no dynamics run.
            The cyclic scoring game is the only input where the SCC and
            shortest-cycle search do real work.
simulate -- dynamics on large games (n=100, m=10; n=40 for the schedulers
            that rescan every author each step). Profiles are almost never
            revisited, so memoisation buys nothing and per-step evaluation
            in dynamics does the work. Every job starts crowded and has a
            step budget, so its work does not depend on how fast the seed's
            game converges.
sweep    -- 1400 tiny games (n, m <= 3) through the suite and the
            acceptance convergence audit. Per-call overhead dominates; the
            only workload that uses the harness, path invariants and report
            files.

Checks. Exact-regime outputs (prp and rand mediators) are compared byte for
byte with digests recorded at the commit that introduced the benchmark,
where a digest for the seed exists; float-regime (scoring) outputs are
checked by invariants that a change of tolerance policy keeps. Both regimes
also get the invariant checks that are cheap to run.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

# Generator seeds of 7x3 power(2)/exposure scoring games with a robust
# improvement cycle; see find_cyclic_seeds.py.
CYCLIC_SCORING_SEEDS = (
    3874773259, 3134603515, 432508404, 1864753826, 1118805955, 2437440079,
    2523796087, 1246955724, 2820330615, 3965891272, 1935153793, 3407305306,
    353789296, 2923108076, 114661864, 1680231637, 1116347426, 2904264544,
    3185037723, 3244782399, 2124216399, 2788573788, 3752314605, 1490581366,
    2924858879, 2749385531, 3085931548, 176965319, 1410985724, 1475972382,
    1831955274, 1296664028,
)

# ROADMAP item 4: under identity scoring, author 1 gets exactly 2/7 at both
# (1,1,2) and (2,1,2), but floats round the two differently, so the default
# margin drops the true equilibrium (2,1,2). The check stays in the analyze
# workload and counts as a failed job until the defect is fixed.
IDENTITY_DEFECT = {
    "D": ["1/2", "1/2"],
    "Q": [["4/5", "1"], ["3/5", "0"], ["0", "3/4"]],
    "mediator": {"kind": "scoring", "f": {"kind": "identity"}},
    "utility": "exposure",
}
KNOWN_DEFECTS = {"roadmap4_identity_pne_complete"}

# Every simulate job starts crowded (all authors on one seeded topic) and
# stops at a step budget. From a crowded start nearly every visit is a move,
# so the time per step, not the number of idle visits (which varies fivefold
# between seeds from a random start), sets the job's time.
SIM_ROUND_ROBIN_STEPS = 15  # n=100 round-robin jobs
SIM_RESCAN_STEPS = 10  # n=40 first-deviator and random jobs
# n=100 games per kind and response. Jobs on prp games take about twice as
# long as jobs on rand and scoring games; with fewer of the fast kind the
# median job falls inside the prp_exposure group instead of on the edge
# between two groups, where it jumped between them from seed to seed.
SIM_GAMES = {"prp_exposure": 4, "prp_action_tie": 4, "rand_exposure": 3, "scoring_power2": 3}


def rankgames():
    """The package as currently imported (set-up re-imports it)."""
    import rankgames as rg

    return rg


def format_number(x) -> str:
    from rankgames.model import format_number

    return format_number(x)


# ---------- jobs ----------

@dataclass
class Result:
    rc: int
    out: str
    err: str = ""
    value: object = None  # the return value of a non-CLI job


@dataclass
class Job:
    """One unit of timed work plus its untimed output checks.

    ``check`` returns a list of (check name, message) problems, empty when
    every check passed. ``digest`` returns the exact-regime output bytes to
    compare against the recorded digest, or None for float-regime outputs.
    """

    name: str
    run: Callable[[], Result]
    check: Callable[[Result], list]
    games: int = 1
    digest: Callable[[Result], bytes | None] = lambda r: None
    profiles: Callable[[Result], int] = lambda r: 0  # profiles enumerated
    steps: Callable[[Result], int] = lambda r: 0  # improvement steps taken


def cli(argv: list[str]) -> Callable[[], Result]:
    def run() -> Result:
        from rankgames.cli import main  # looked up per call: the tracer swaps it

        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                rc = main(argv)
            except SystemExit as exc:  # argparse rejects bad arguments this way
                rc = exc.code if isinstance(exc.code, int) else 2
        return Result(rc, out.getvalue(), err.getvalue())

    return run


def short_digest(data: bytes) -> str:
    """Short SHA-256 digest; 64 bits are plenty to notice changed output."""
    return hashlib.sha256(data).hexdigest()[:16]


def game_json(game) -> str:
    return json.dumps(rankgames().game_to_dict(game)) + "\n"


def write_game(path: Path, game) -> Path:
    path.write_text(game_json(game))
    return path


def load_game(path: Path):
    return rankgames().game_from_dict(json.loads(path.read_text()))


def exact(game) -> bool:
    return game.mediator.kind != "scoring"


def margin_for(game) -> float:
    """Margin for checking a reported improvement or equilibrium."""
    from rankgames.counterexamples import VERIFY_MARGIN

    return 0.0 if exact(game) else VERIFY_MARGIN


def rc_problem(res: Result, allowed=(0,)) -> list:
    if res.rc not in allowed:
        return [("exit_code", f"exit {res.rc}: {res.err.strip()[:200]}")]
    return []


def profile_str(p) -> str:
    return ",".join(str(t) for t in p)


# ---------- analyze ----------

def analyze_checks(path: Path, expect_fip: bool | None, defect: bool = False):
    """Checks on one `rankgames analyze` report."""

    def check(res: Result) -> list:
        rg = rankgames()
        problems = rc_problem(res)
        if problems:
            return problems
        try:
            report = json.loads(res.out)
            fip, pne, pot = report["fip"], report["pne"], report["potential"]
        except (ValueError, KeyError, TypeError) as exc:
            return [("report_format", repr(exc))]
        game = load_game(path)
        margin = margin_for(game)
        if expect_fip is not None and fip != expect_fip:
            problems.append(("fip_expected", f"fip={fip}, expected {expect_fip}"))
        if fip:
            if not isinstance(report.get("longest_path"), int):
                problems.append(("longest_path", "acyclic report lacks an integer longest_path"))
        else:
            cycle = report.get("cycle")
            try:
                ok, _ = rg.verify_improvement_cycle(game, cycle, margin=margin)
            except (rg.ValidationError, TypeError) as exc:
                ok = False
                problems.append(("cycle_verifies", repr(exc)))
            if not ok:
                problems.append(("cycle_verifies", f"reported cycle {cycle} does not verify"))
        for p in pne:
            if not rg.is_pne(game, p, margin=margin):
                problems.append(("pne_verifies", f"{p} is not an equilibrium"))
        w = pot.get("witness")
        # under scoring, float noise gives a witness even when a potential exists
        if (w is None) != pot["exists"] and (exact(game) or w is None):
            problems.append(("potential_witness", "witness and potential verdict disagree"))
        if w is not None:
            res_w = abs(rg.potential_residual(
                game, *w["authors"], w["topics_i"], w["topics_j"], w["base"]))
            if exact(game):
                good = format_number(res_w) == pot["residual"]
            else:
                good = abs(res_w - float(pot["residual"])) <= 1e-9 * max(1.0, res_w)
            if not good:
                problems.append(("potential_residual", f"witness residual {res_w} != {pot['residual']}"))
        if defect:
            want = rg.enumerate_pne(game, margin=1e-12)
            missing = [list(a) for a in want if list(a) not in pne]
            if missing:
                problems.append(("roadmap4_identity_pne_complete",
                                 f"missing equilibria {missing} found at margin 1e-12"))
        return problems

    return check


def counterexample_checks(game_path: Path):
    """Checks on a `rankgames counterexample` bundle; writes its game for the
    analyze job that follows."""

    def check(res: Result) -> list:
        rg = rankgames()
        problems = rc_problem(res)
        if problems:
            return problems
        try:
            bundle = json.loads(res.out)
            game = rg.game_from_dict(bundle["game"])
            cycle = bundle["cycle"]
        except (ValueError, KeyError, TypeError, rg.ValidationError) as exc:
            return [("bundle_format", repr(exc))]
        if [tuple(p) for p in cycle] != list(rg.closed_cycle()):
            problems.append(("bundle_cycle", "bundle cycle is not the shared 6-step cycle"))
        ok, _ = rg.verify_improvement_cycle(game, cycle)
        if not ok:
            problems.append(("cycle_verifies", "bundle cycle does not verify in its game"))
        write_game(game_path, game)
        return problems

    return check


def setup_analyze(work: Path, seed: int, files: dict):
    rg = rankgames()
    rng = random.Random(seed)
    scoring = rg.Mediator.scoring(rg.ScoreFunction.power(2.0))
    games = {
        "prp_exposure_4^5": rg.generate_random_game(rng.randrange(2**32), 5, 4),
        "prp_action_tie_4^5": rg.generate_random_game(
            rng.randrange(2**32), 5, 4, generic_Q=False, denominator_bound=4,
            scheme=rg.ACTION),
        "rand_exposure_3^6": rg.generate_random_game(
            rng.randrange(2**32), 6, 3, mediator=rg.RAND),
        "scoring_power2_cyclic_3^7": rg.generate_random_game(
            CYCLIC_SCORING_SEEDS[rng.randrange(len(CYCLIC_SCORING_SEEDS))], 7, 3,
            mediator=scoring),
    }
    jobs = []
    for name, game in games.items():
        path = work / f"{name}.json"
        files[path] = game_json(game)
        jobs.append(Job(
            f"analyze:{name}", cli(["analyze", str(path)]),
            analyze_checks(path, expect_fip=exact(game)),
            profiles=lambda r, k=game.m**game.n: k,
            digest=(lambda r: r.out.encode()) if exact(game) else (lambda r: None),
        ))
    constructions = {
        "thm3_identity": ["thm3"],
        "thm4_power8": ["thm4", "--f", "power", "--param", "8", "--alpha", "2"],
        "thm5_identity": ["thm5", "--alpha", "1", "--beta", "1"],
    }
    for name, argv in constructions.items():
        path = work / f"{name}.json"
        jobs.append(Job(f"counterexample:{name}", cli(["counterexample", *argv]),
                        counterexample_checks(path), games=0))
        jobs.append(Job(f"analyze:{name}", cli(["analyze", str(path)]),
                        analyze_checks(path, expect_fip=False), profiles=lambda r: 3**4))
    path = work / "identity_defect.json"
    files[path] = json.dumps(IDENTITY_DEFECT) + "\n"
    jobs.append(Job("analyze:identity_defect", cli(["analyze", str(path)]),
                    analyze_checks(path, expect_fip=None, defect=True), profiles=lambda r: 2**3))
    sizes = {name: {"n": g.n, "m": g.m, "profiles": g.m**g.n} for name, g in games.items()}
    sizes["counterexamples"] = {"n": 4, "m": 3, "profiles": 81, "count": 3}
    sizes["identity_defect"] = {"n": 3, "m": 2, "profiles": 8}
    derived = [work / f"{name}.json" for name in constructions]
    return jobs, sizes, derived


# ---------- simulate ----------

def simulate_checks(path: Path, max_steps: int, deterministic: bool):
    """Replays the streamed steps and checks the outcome line."""

    def check(res: Result) -> list:
        rg = rankgames()
        problems = rc_problem(res, allowed=(0, 3))
        if problems:
            return problems
        game = load_game(path)
        lines = res.out.splitlines()
        try:
            steps = [json.loads(x) for x in lines[:-1]]
            tail = json.loads(lines[-1])
            init = tuple(int(t) for t in json.loads(path.with_suffix(".init").read_text()))
        except (ValueError, IndexError) as exc:
            return [("output_format", repr(exc))]
        a = init
        visited = [a]
        for r, s in enumerate(steps, start=1):
            j, t = s["player"], s["to"]
            if s["r"] != r or a[j - 1] != s["from"] or not 1 <= t <= game.m or t == s["from"]:
                return [("step_replays", f"step {r} does not fit the profile {a}")]
            b = rg.replace_topic(a, j, t)
            u0 = rg.utility_vector(game, a)[j - 1]
            u1 = rg.utility_vector(game, b)[j - 1]
            if exact(game):
                good = (format_number(u0), format_number(u1)) == (s["u_before"], s["u_after"])
            else:
                good = all(abs(float(x) - y) <= 1e-9 * max(1.0, abs(y))
                           for x, y in ((s["u_before"], u0), (s["u_after"], u1)))
            if not good or not u1 > u0:
                return [("step_utilities", f"step {r} utilities do not match the game")]
            a = b
            visited.append(a)
        outcome = tail.get("outcome")
        if outcome == "converged":
            if res.rc != 0 or tail.get("steps") != len(steps) or tuple(tail.get("profile", ())) != a:
                problems.append(("converged_tail", "tail does not match the replayed run"))
            elif not rg.is_pne(game, a, margin=margin_for(game)):
                problems.append(("converged_pne", f"run ended on a non-equilibrium {profile_str(a)}"))
        elif outcome == "budget_exhausted":
            if res.rc != 3 or len(steps) != max_steps:
                problems.append(("budget_tail", "budget outcome without a spent budget"))
        elif outcome == "cycle":
            k = tail.get("repeated_profile_index")
            if res.rc != 0 or not deterministic or not isinstance(k, int) or visited[k] != a:
                problems.append(("cycle_tail", "reported repeat does not replay"))
        else:
            problems.append(("output_format", f"unknown outcome {outcome!r}"))
        return problems

    return check


def setup_simulate(work: Path, seed: int, files: dict):
    rg = rankgames()
    rng = random.Random(seed)
    scoring = rg.Mediator.scoring(rg.ScoreFunction.power(2.0))

    make = {
        "prp_exposure": lambda n, m: rg.generate_random_game(rng.randrange(2**32), n, m),
        "prp_action_tie": lambda n, m: rg.generate_random_game(
            rng.randrange(2**32), n, m, generic_Q=False, denominator_bound=10,
            scheme=rg.ACTION),
        "rand_exposure": lambda n, m: rg.generate_random_game(
            rng.randrange(2**32), n, m, mediator=rg.RAND),
        "scoring_power2": lambda n, m: rg.generate_random_game(
            rng.randrange(2**32), n, m, mediator=scoring),
    }
    # one game per job, so that jobs sample the seed's game distribution independently
    plans = []  # (game name, game, scheduler argv, max steps)
    for name, count in SIM_GAMES.items():
        for _ in range(count):
            for response in ("better", "best"):
                plans.append((f"{name}_100x10", make[name](100, 10),
                              ["--scheduler", "round-robin", "--response", response],
                              SIM_ROUND_ROBIN_STEPS))
    for name in ("prp_exposure", "scoring_power2"):
        plans.append((f"{name}_40x10", make[name](40, 10), ["--scheduler", "first-deviator"],
                      SIM_RESCAN_STEPS))
        plans.append((f"{name}_40x10", make[name](40, 10),
                      ["--scheduler", "random", "--seed", str(rng.randrange(2**16))],
                      SIM_RESCAN_STEPS))
    jobs = []
    sizes = {}
    for i, (name, game, sched, max_steps) in enumerate(plans):
        path = work / f"{i:02d}_{name}.json"
        files[path] = game_json(game)
        init = [rng.randint(1, game.m)] * game.n
        files[path.with_suffix(".init")] = json.dumps(init) + "\n"
        label = "_".join(x for x in sched if not x.startswith("-") and not x.isdigit())
        jobs.append(Job(
            f"simulate:{i:02d}:{name}:{label}",
            cli(["simulate", str(path), "--init", profile_str(init),
                 "--max-steps", str(max_steps), *sched]),
            simulate_checks(path, max_steps, "random" not in sched),
            digest=(lambda r: r.out.encode()) if exact(game) else (lambda r: None),
            steps=lambda r: max(r.out.count("\n") - 1, 0),
        ))
        sizes[name] = {"n": game.n, "m": game.m}
    sizes["step_budgets"] = {"round_robin_100x10": SIM_ROUND_ROBIN_STEPS,
                             "rescan_40x10": SIM_RESCAN_STEPS}
    return jobs, sizes, []


# ---------- sweep ----------

# Each suite and audit size is fixed: a 3x3 game costs 16 times a 2x2 one, so
# drawing sizes at random made the work per pass vary with the seed.
SUITES = {
    "prp_exposure_generic": {"games": 400, "n_range": [2, 2], "m_range": [3, 3]},
    "prp_action_tie": {"games": 400, "n_range": [3, 3], "m_range": [2, 2],
                       "scheme": "action", "generic_Q": False, "sorted_D": False,
                       "denominator_bound": 4},
    "scoring_power2": {"games": 200, "n_range": [3, 3], "m_range": [3, 3],
                       "mediator": {"kind": "scoring", "f": {"kind": "power", "param": 2.0}}},
}
AUDIT_GAMES = 400  # enough that job_p50_s and job_tail_s fall inside a size group of 100
AUDIT_SIZES = ((2, 2), (2, 3), (3, 2), (3, 3))  # (n, m), in turn


def suite_checks(config_path: Path, out_dir: Path):
    def check(res: Result) -> list:
        rg = rankgames()
        from rankgames.harness import config_from_dict

        problems = rc_problem(res)
        if problems:
            return problems
        config = config_from_dict(json.loads(config_path.read_text()))
        try:
            summary = json.loads(res.out)
            doc = json.loads((out_dir / "report.json").read_text())
            csv_lines = (out_dir / "report.csv").read_text().splitlines()
        except (OSError, ValueError) as exc:
            return [("report_format", repr(exc))]
        rows = doc["rows"]
        if summary.get("games") != config.games or len(rows) != config.games \
                or len(csv_lines) != config.games + 1:
            problems.append(("report_rows", "row count differs from the configured games"))
        if doc["aggregate"].get("budget_errors") != 0:
            problems.append(("report_budget", "games hit the enumeration budget"))
        if config.mediator.kind == "prp":
            if not all(r.get("fip") is True and r.get("dynamics_converged") is True for r in rows):
                problems.append(("prp_converges", "a top-rank game lacks FIP or failed to converge"))
        cyclic = [r for r in rows if r.get("fip") is False]
        witnesses = doc["aggregate"].get("cycle_witnesses", [])
        if len(cyclic) != len(witnesses):
            problems.append(("cycle_witnesses", "one witness per cyclic game expected"))
        for row, cycle in zip(cyclic, witnesses):
            game = rg.generate_random_game(
                row["seed"], row["n"], row["m"], generic_Q=config.generic_Q,
                sorted_D=config.sorted_D, denominator_bound=config.denominator_bound,
                mediator=config.mediator, scheme=config.scheme)
            ok, _ = rg.verify_improvement_cycle(game, cycle, margin=margin_for(game))
            if not ok:
                problems.append(("cycle_verifies", f"witness of game {row['seed']} does not verify"))
        return problems

    return check


def suite_digest(out_dir: Path, config_path: Path):
    def digest(res: Result) -> bytes | None:
        if json.loads(config_path.read_text()).get("mediator", {}).get("kind", "prp") == "scoring":
            return None
        return (out_dir / "report.csv").read_bytes() + (out_dir / "report.json").read_bytes()

    return digest


def audit(path: Path) -> Callable[[], Result]:
    """The acceptance convergence audit of one top-rank game."""

    def run() -> Result:
        rg = rankgames()
        game = load_game(path)
        fip, _ = rg.has_fip(game)
        runs = steps = checks = failures = 0
        converged = True
        for init in rg.iter_profiles(game.n, game.m):
            for sched in (rg.RoundRobin(), rg.FirstDeviator()):
                out = rg.run_dynamics(game, init, sched)
                runs += 1
                if not isinstance(out, rg.ConvergedPNE):
                    converged = False
                    continue
                steps += out.steps_taken
                report = rg.path_invariant_report(game, out.trajectory)
                checks += len(report.checks)
                failures += report.failures
        value = {"fip": fip, "converged": converged, "runs": runs, "steps": steps,
                 "invariant_checks": checks, "invariant_failures": failures}
        return Result(0, "", value=value)

    return run


def audit_check(res: Result) -> list:
    v = res.value
    problems = []
    if not v["fip"]:
        problems.append(("prp_fip", "a top-rank game has an improvement cycle"))
    if not v["converged"]:
        problems.append(("prp_converges", "a top-rank dynamics run did not converge"))
    if v["invariant_failures"]:
        problems.append(("path_invariants", f"{v['invariant_failures']} invariant failures"))
    return problems


def setup_sweep(work: Path, seed: int, files: dict):
    rg = rankgames()
    rng = random.Random(seed)
    jobs = []
    sizes = {}
    for name, spec in SUITES.items():
        config = {"seed": rng.randrange(2**32), **spec}
        config_path = work / f"suite_{name}.json"
        files[config_path] = json.dumps(config) + "\n"
        out_dir = work / f"suite_{name}"
        lo_n, hi_n = spec["n_range"]
        lo_m, hi_m = spec["m_range"]
        jobs.append(Job(
            f"suite:{name}", cli(["suite", str(config_path), "-o", str(out_dir)]),
            suite_checks(config_path, out_dir), games=spec["games"],
            digest=suite_digest(out_dir, config_path),
            profiles=lambda r, d=out_dir: suite_profiles(d),
        ))
        sizes[f"suite_{name}"] = {"games": spec["games"], "n_range": [lo_n, hi_n],
                                  "m_range": [lo_m, hi_m]}
    for i in range(AUDIT_GAMES):
        # every size meets every mix of tie-rich/generic and exposure/action
        n, m = AUDIT_SIZES[i % len(AUDIT_SIZES)]
        tie_rich = (i // 4) % 2 == 1
        game = rg.generate_random_game(
            rng.randrange(2**32), n, m, generic_Q=not tie_rich, sorted_D=False,
            denominator_bound=4 if tie_rich else 1000,
            scheme=rg.ACTION if (i // 8) % 2 else rg.EXPOSURE)
        path = work / f"audit_{i:03d}.json"
        files[path] = game_json(game)
        jobs.append(Job(f"audit:{i:03d}", audit(path), audit_check,
                        profiles=lambda r, k=m**n: k,
                        steps=lambda r: r.value["steps"]))
    sizes["audit"] = {"games": AUDIT_GAMES, "sizes_n_m": [list(x) for x in AUDIT_SIZES]}
    derived = [work / f"suite_{name}" for name in SUITES]
    return jobs, sizes, derived


def suite_profiles(out_dir: Path) -> int:
    rows = json.loads((out_dir / "report.json").read_text())["rows"]
    return sum(r["m"] ** r["n"] for r in rows)


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable  # (work dir, seed, files) -> (jobs, sizes, derived paths); fills files
    throughput: str  # the printed work metric: profiles, steps or games per second


WORKLOADS = {
    "analyze": Workload("analyze", setup_analyze, "profiles"),
    "simulate": Workload("simulate", setup_simulate, "steps"),
    "sweep": Workload("sweep", setup_sweep, "games"),
}
