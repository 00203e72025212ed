"""rankgames benchmark entry point.

    python3 perfbench/run.py --workload {analyze,simulate,sweep} --seed N \
        --seconds S --trace {0,1} [--record]

Run from the root of a source checkout; the package is imported from
``src/``. Set-up (import plus generating and serialising the inputs; the
files are written after its clock stops) runs several times and reports its
median. Then whole passes over the workload's jobs repeat while another pass
still fits in ``--seconds`` (at least one pass); every job's output is
checked after it is timed, and each job's time is its median over the
passes.

Times are host-speed corrected (see HostClock): on a shared host the CPU's
speed drifts by a third or more within a second, so a short fixed loop is
timed before, during and after every job and the job's time is scaled to
the speed at which that loop takes PROBE_NOMINAL_S. Raw times are printed on
``#`` lines beside the corrected ones.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` runs one
untraced and one traced pass and prints the per-layer metrics (see
tracing.py) together with ``trace.overhead_ratio``. ``--record`` stores the
exact-regime output digests of the seed in digests.json.

Lines before the last describe the run for a reader; the last line is the
JSON result.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import shutil
import signal
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DIGESTS = HERE / "digests.json"
SETUP_REPEATS = 15

PROBE_ITERS = 200
PROBE_NOMINAL_S = 0.0006  # the probe's typical time on a 2-core x86-64 VM, Python 3.11
PROBE_EVERY_S = 0.015


def reference_loop():
    """Fixed pure-Python work of the kinds the package does: tuple keys,
    dict updates and Fraction arithmetic."""
    counts = {}
    total = Fraction(0)
    for i in range(PROBE_ITERS):
        key = (i % 7, i % 11, i % 13)
        counts[key] = counts.get(key, 0) + 1
        total += Fraction(i % 17, 1 + i % 19)
    return total


class HostClock:
    """Times work in seconds at a nominal host speed.

    On a 2-core shared VM the same fixed loop took anywhere from 0.26 to
    0.41 s, switching speed within a second, and CPU time moved with wall
    time; there are no hardware counters to count instructions instead. Wall
    time alone therefore measured the host as much as the program. While a
    call runs, a timer interrupts it every PROBE_EVERY_S and times a short
    fixed loop (the probe), also once just before and once just after. The
    call's wall time, less the probes', is multiplied by the mean probe speed
    (PROBE_NOMINAL_S / probe time). A change that makes the program faster
    lowers the corrected time by the same factor; a change in host speed
    moves the probes with it and cancels out.
    """

    def __init__(self):
        self.speeds: list[float] = []  # one per probe
        self.probe_total = 0.0  # seconds spent in probes so far
        self._inside = 0.0  # probe time spent inside the timed call

    def now(self) -> float:
        """A wall clock that stands still while a probe runs."""
        return time.perf_counter() - self.probe_total

    def _probe(self) -> float:
        t0 = time.perf_counter()
        reference_loop()
        dt = time.perf_counter() - t0
        self.speeds.append(PROBE_NOMINAL_S / dt)
        self.probe_total += dt
        return dt

    def _on_timer(self, signum, frame):
        self._inside += self._probe()

    def time(self, fn):
        """Call fn(); return (raw seconds, corrected seconds, its result)."""
        first = len(self.speeds)
        self._probe()
        self._inside = 0.0
        previous = signal.signal(signal.SIGALRM, self._on_timer)
        t0 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        try:
            result = fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            t1 = time.perf_counter()
            signal.signal(signal.SIGALRM, previous)
        raw = t1 - t0 - self._inside
        self._probe()
        return raw, raw * statistics.fmean(self.speeds[first:]), result


def forget_rankgames():
    """Drop the imported package, so that the next import runs as in a new
    process."""
    for name in [m for m in sys.modules if m == "rankgames" or m.startswith("rankgames.")]:
        del sys.modules[name]


def set_up(workload, work: Path, seed: int, clock: HostClock, tracer=None):
    """One set-up: import, then generate and serialise the inputs, then write
    them to files. Returns its raw and corrected seconds, the jobs, the input
    sizes and the paths that jobs derive.

    The file writes are not timed: on the VM the benchmark was built on, the
    same 200 small writes took anywhere from 20 to 160 ms, which the
    host-speed correction cannot account for and no program change affects.
    """
    import workloads as wl

    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    forget_rankgames()
    # collect the dropped modules and the previous set-up's inputs now, so
    # that this set-up's time does not include freeing them
    gc.collect()
    files: dict[Path, str] = {}

    def run():
        import rankgames.cli  # noqa: F401
        with tracer.installed("setup") if tracer else nullcontext():
            return workload.setup(work, seed, files)

    raw, corrected, (jobs, sizes, derived) = clock.time(run)
    for path, text in files.items():
        path.write_text(text)
    if not wl.rankgames().__file__.startswith(str(SRC)):
        raise RuntimeError(f"rankgames was not imported from {SRC}")
    return raw, corrected, jobs, sizes, derived


class Pass:
    """Timings and check results of one pass over the jobs."""

    def __init__(self):
        self.wall = 0.0  # host-speed corrected
        self.raw_wall = 0.0
        self.job_times: list[float] = []  # host-speed corrected, in job order
        self.games = self.profiles = self.steps = 0
        self.failures: list[tuple[str, list]] = []
        self.digests: dict[str, str] = {}  # job name -> digest of exact-regime output


def run_pass(jobs, derived, clock: HostClock, tracer=None) -> Pass:
    import workloads as wl

    for path in derived:
        if path.is_dir():
            shutil.rmtree(path)
        elif path.exists():
            path.unlink()
    p = Pass()
    for job in jobs:
        # start every job from a clean heap, so that a collection of the
        # previous job's garbage does not land in this job's time
        gc.collect()

        def run():
            try:
                return job.run()
            except Exception:  # a crash fails its job, like an exit with a traceback
                return wl.Result(1, "", traceback.format_exc())

        with tracer.installed(job.name) if tracer else nullcontext():
            raw, dt, res = clock.time(run)
        if tracer:
            tracer.counts["cli.output_bytes"] += len(res.out.encode())
        p.wall += dt
        p.raw_wall += raw
        p.job_times.append(dt)
        try:
            problems = job.check(res)
        except Exception as exc:  # a malformed output must fail its job, not the run
            problems = [("check_error", f"{type(exc).__name__}: {exc}")]
        if problems:
            p.failures.append((job.name, problems))
            continue
        p.games += job.games
        p.profiles += job.profiles(res)
        p.steps += job.steps(res)
        data = job.digest(res)
        if data is not None:
            p.digests[job.name] = wl.short_digest(data)
    return p


def compare_digests(workload: str, seed: int, passes: list[Pass]):
    """Add a failure for each output whose digest differs from the recorded
    one. Returns (compared, unrecorded) counts."""
    recorded = {}
    if DIGESTS.exists():
        recorded = json.loads(DIGESTS.read_text()).get(workload, {}).get(str(seed), {})
    compared = unrecorded = 0
    for p in passes:
        for name, digest in p.digests.items():
            want = recorded.get(name)
            if want is None:
                unrecorded += 1
            else:
                compared += 1
                if want != digest:
                    p.failures.append((name, [("digest", "exact output differs from the recorded bytes")]))
    return compared, unrecorded


def record_digests(workload: str, seed: int, p: Pass):
    doc = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    doc.setdefault(workload, {})[str(seed)] = dict(sorted(p.digests.items()))
    doc[workload] = dict(sorted(doc[workload].items(), key=lambda kv: int(kv[0])))
    DIGESTS.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


def tail_percentile(samples: list[float]):
    """The highest of p90/p99/p99.9 with at least ten samples beyond it, or
    the maximum when there are too few samples for p90."""
    xs = sorted(samples)
    n = len(xs)
    label, value = f"max of {n}", xs[-1]
    for q, name in ((0.9, "p90"), (0.99, "p99"), (0.999, "p99.9")):
        beyond = int(n * (1 - q) + 1e-9)
        if beyond >= 10:
            label, value = f"{name} of {n}", xs[n - 1 - beyond]
    return label, value


def say(text: str):
    print(f"# {text}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="store this seed's exact-regime output digests")
    args = parser.parse_args(argv)

    if not (SRC / "rankgames" / "__init__.py").is_file():
        print(f"error: no rankgames sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import workloads as wl
    from tracing import Tracer

    if args.workload not in wl.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(wl.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = wl.WORKLOADS[args.workload]
    work = HERE / "work" / workload.name

    clock = HostClock()
    setup_times, raw_setup_times = [], []
    for _ in range(1 if args.trace or args.record else SETUP_REPEATS):
        raw, dt, jobs, sizes, derived = set_up(workload, work, args.seed, clock)
        raw_setup_times.append(raw)
        setup_times.append(dt)
    why = {w["name"]: w["why"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]}
    say(f"workload {workload.name}, seed {args.seed}: {why.get(workload.name, '')}")
    say(f"inputs: {json.dumps(sizes)}")
    say(f"{len(jobs)} jobs per pass, one at a time in one process")

    tracer = None
    passes: list[Pass] = []
    if args.trace:
        tracer = Tracer(now=clock.now)
        _, _, jobs, sizes, derived = set_up(workload, work, args.seed, clock, tracer)
        passes.append(run_pass(jobs, derived, clock))
        passes.append(run_pass(jobs, derived, clock, tracer))
    else:
        t_start = time.perf_counter()
        while True:
            t_pass = time.perf_counter()
            passes.append(run_pass(jobs, derived, clock))
            if args.record:
                break
            now = time.perf_counter()
            if now - t_start + (now - t_pass) > args.seconds:
                break
    compared, unrecorded = compare_digests(workload.name, args.seed, passes)
    if args.record:
        record_digests(workload.name, args.seed, passes[0])
        say(f"recorded {len(passes[0].digests)} digests for seed {args.seed}")

    attempted = sum(len(p.job_times) for p in passes)
    failures = [f for p in passes for f in p.failures]
    unexpected = [(name, probs) for name, probs in failures
                  if not {check for check, _ in probs} <= wl.KNOWN_DEFECTS]
    for name, probs in failures:
        known = " (known defect)" if (name, probs) not in unexpected else ""
        for check, msg in probs:
            say(f"FAILED {name} [{check}]{known}: {msg}")
    say(f"failed_ratio = {len(failures)}/{attempted} = {len(failures) / attempted:.4f} "
        f"(failed jobs / attempted jobs)")
    say(f"digests: {compared} outputs compared byte for byte, {unrecorded} without a "
        f"recorded digest for this seed")

    metrics: dict[str, tuple] = {}
    if args.trace:
        untraced, traced = passes
        metrics = tracer.metrics()
        metrics["cli.output_bytes"] = (tracer.counts["cli.output_bytes"], "B")
        metrics["trace.overhead_ratio"] = (traced.wall / untraced.wall, "ratio")
        say(f"trace.overhead_ratio base: traced wall {traced.wall:.4f} s / "
            f"untraced wall {untraced.wall:.4f} s (host-speed corrected)")
        tracer.write_spans(work / "spans.jsonl")
        say(f"{len(tracer.spans)} spans written to {(work / 'spans.jsonl').relative_to(ROOT)}")
        for name in tracer.absent:
            say(f"{name}: absent (no such boundary in the package)")
        for (name, parent), (calls, own) in sorted(tracer.hot.items(), key=lambda kv: -kv[1][1]):
            say(f"hot {name} under {parent or 'the job'}: {calls} calls, {own:.4f} s self")
    else:
        # Each job's time is its median over the passes: the corrected times
        # still carry the error of speed changes inside a stretch of work,
        # and the median drops those samples instead of averaging them in.
        job_times = [statistics.median(ts) for ts in zip(*(p.job_times for p in passes))]
        wall = sum(job_times)
        tail_label, tail = tail_percentile(job_times)
        p = passes[0]
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "wall_s": (wall, "s"),
            "games_per_s": (p.games / wall, "1/s"),
            "job_p50_s": (statistics.median(job_times), "s"),
            "job_tail_s": (tail, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        say(f"setup_s: median of {len(setup_times)} set-ups; job times: median of "
            f"{len(passes)} passes; wall_s: sum of job times; job_p50_s: p50 of "
            f"{len(job_times)} jobs; job_tail_s: {tail_label} jobs")
        say(f"pass walls: {', '.join(f'{q.wall:.4f}' for q in passes)} s corrected; "
            f"{', '.join(f'{q.raw_wall:.4f}' for q in passes)} s raw")
        say(f"raw setup_s: median {statistics.median(raw_setup_times):.6g} s")
        q = statistics.quantiles(clock.speeds, n=10)
        say(f"host speed: {len(clock.speeds)} probes; p10 {q[0]:.3f}x, p50 {q[4]:.3f}x, "
            f"p90 {q[8]:.3f}x nominal")
        for job, t in zip(jobs, job_times):
            if not job.name.startswith("audit:"):
                say(f"job {job.name}: {t:.4f} s")
        say(f"per pass: {p.games} games, {p.profiles} profiles enumerated, "
            f"{p.steps} improvement steps")
        for key in ("profiles", "steps", "games"):
            mark = "  <- this workload's throughput" if key == workload.throughput else ""
            say(f"{key}_per_s = {getattr(p, key) / wall:.6g} 1/s{mark}")
    for name, (value, unit) in metrics.items():
        say(f"{name} = {value:.6g} {unit}" if isinstance(value, float) else f"{name} = {value} {unit}")

    result = {
        "correct": not unexpected,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
