"""Per-layer tracing for the benchmark, from outside the package.

The tracer swaps wrappers in for public functions of the ``rankgames``
modules while a job runs and puts the originals back afterwards; no file
under ``src/`` changes. Modules bind each other's functions by name
(``from .model import utility_vector``), so a wrapper replaces the name in
every ``rankgames.*`` module that holds the original, not only in the module
that defines it.

Two kinds of boundary:

* coarse boundaries record a full span (name, start, end, parent span, job);
* hot boundaries, called up to millions of times per job, record only a
  call count and aggregated self time under their parent span's name.

Self time is a span's duration minus the time of its child spans, coarse
and hot alike. Durations are raw wall seconds read from the clock the tracer
is given, which leaves out the benchmark's own host-speed probes.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from math import comb
from pathlib import PosixPath

# (module, function) pairs; the metric prefix is "<module>.<function>".
COARSE = (
    ("cli", "main"),
    ("model", "game_from_dict"),
    ("dynamics", "run_dynamics"),
    ("analysis", "analysis_report"),
    ("analysis", "improvement_graph"),
    ("analysis", "_is_acyclic"),
    ("analysis", "longest_improvement_path"),
    ("analysis", "shortest_cycle"),
    ("analysis", "enumerate_pne"),
    ("analysis", "exact_potential_check"),
    ("analysis", "path_invariant_report"),
    ("counterexamples", "build_exposure_cycle_game"),
    ("counterexamples", "build_action_cycle_game"),
    ("counterexamples", "build_band_cycle_game"),
    ("counterexamples", "verify_improvement_cycle"),
    ("harness", "run_experiment_suite"),
    ("harness", "generate_random_game"),
)
HOT = (
    ("model", "utility_vector"),
    ("model", "improves"),
    ("dynamics", "better_responses"),
    ("dynamics", "best_responses"),
    ("dynamics", "is_pne"),
)
# report serialization and file writes inside the suite, timed as one span name
REPORT_WRITE = "harness.report_write"


class Tracer:
    """Spans, hot-call aggregates and counters for one traced run."""

    def __init__(self, now=time.perf_counter):
        self.now = now
        self.spans: list[tuple] = []  # (id, name, start, end, parent, job, self_s)
        self.hot = defaultdict(lambda: [0, 0.0])  # (name, parent name) -> [calls, self_s]
        self.counts = defaultdict(int)
        self.absent: list[str] = []
        self.job = None
        # frames: [span id, span name, child seconds]; the root frame has id None
        self._stack = [[None, None, 0.0]]
        self._next_id = 0
        self._profiles: dict[int, tuple] = {}  # id(game) -> (game, set of profiles)

    # ---------- recording ----------

    def _coarse(self, name, fn, post=None):
        spans, stack, perf = self.spans, self._stack, self.now

        def wrapper(*args, **kwargs):
            self._next_id += 1
            frame = [self._next_id, name, 0.0]
            parent = stack[-1][0]
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                stack[-1][2] += t1 - t0
                spans.append((frame[0], name, t0, t1, parent, self.job, t1 - t0 - frame[2]))
            if post is not None:
                post(args, kwargs, result)
            return result

        return wrapper

    def _hot(self, name, fn, post=None):
        hot, stack, perf = self.hot, self._stack, self.now

        def wrapper(*args, **kwargs):
            # a hot frame carries the name of the coarse span it runs under
            frame = [None, stack[-1][1], 0.0]
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                stack.pop()
                parent = stack[-1]
                parent[2] += dt
                agg = hot[(name, parent[1])]
                agg[0] += 1
                agg[1] += dt - frame[2]
            if post is not None:
                post(args, kwargs, result)
            return result

        return wrapper

    # ---------- counters computed at boundaries ----------

    def _post_utility_vector(self, args, kwargs, result):
        game, a = args[0], args[1]
        entry = self._profiles.get(id(game))
        if entry is None:
            entry = self._profiles[id(game)] = (game, set())
        entry[1].add(tuple(a))

    def _post_better_responses(self, args, kwargs, result):
        if result:
            self.counts["dynamics.better_responses.hits"] += 1

    def _post_run_dynamics(self, args, kwargs, result):
        self.counts["dynamics.steps"] += len(result.trajectory.steps)

    def _post_improvement_graph(self, args, kwargs, result):
        game = args[0]
        self.counts["analysis.graph.profiles"] += result.n_nodes
        self.counts["analysis.graph.edges"] += sum(len(out) for out in result.adj)
        self.counts["analysis.graph.candidates"] += result.n_nodes * game.n * (game.m - 1)

    def _post_exact_potential_check(self, args, kwargs, result):
        n, m = args[0].n, args[0].m
        self.counts["analysis.potential.subgames"] += (
            comb(n, 2) * m ** max(n - 2, 0) * comb(m, 2) ** 2
        )

    def _end_job(self):
        self.counts["model.utility_vector.distinct"] += sum(
            len(profiles) for _, profiles in self._profiles.values()
        )
        self._profiles.clear()

    # ---------- installation ----------

    @contextmanager
    def installed(self, job):
        """Wrap every listed boundary for the duration of one job."""
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "rankgames" or name.startswith("rankgames."))]
        posts = {
            "model.utility_vector": self._post_utility_vector,
            "dynamics.better_responses": self._post_better_responses,
            "dynamics.run_dynamics": self._post_run_dynamics,
            "analysis.improvement_graph": self._post_improvement_graph,
            "analysis.exact_potential_check": self._post_exact_potential_check,
        }
        restore = []
        absent = []
        for kind, pairs in ((self._coarse, COARSE), (self._hot, HOT)):
            for mod_name, fn_name in pairs:
                name = f"{mod_name}.{fn_name}"
                home = sys.modules.get(f"rankgames.{mod_name}")
                original = getattr(home, fn_name, None)
                if original is None:
                    absent.append(name)
                    continue
                wrapper = kind(name, original, posts.get(name))
                for mod in modules:
                    if getattr(mod, fn_name, None) is original:
                        restore.append((mod, fn_name, original))
                        setattr(mod, fn_name, wrapper)
        harness = sys.modules.get("rankgames.harness")
        report_cls = getattr(harness, "ExperimentReport", None)
        if report_cls is not None:
            for meth in ("to_csv", "to_json"):
                original = getattr(report_cls, meth, None)
                if original is not None:
                    restore.append((report_cls, meth, original))
                    setattr(report_cls, meth, self._coarse(REPORT_WRITE, original))
        if harness is not None and getattr(harness, "Path", None) is not None:
            restore.append((harness, "Path", harness.Path))
            harness.Path = self._traced_path_class()
        self.absent = sorted(set(self.absent) | set(absent))
        self.job = job
        try:
            yield self
        finally:
            for owner, attr, original in reversed(restore):
                setattr(owner, attr, original)
            self._end_job()
            self.job = None

    def _traced_path_class(self):
        tracer = self

        class TracedPath(PosixPath):
            def write_text(self, data, *args, **kwargs):
                tracer.counts["harness.report_bytes"] += len(data.encode())
                return write(self, data, *args, **kwargs)

        write = tracer._coarse(REPORT_WRITE, PosixPath.write_text)
        return TracedPath

    def write_spans(self, path) -> None:
        """One JSON object per coarse span, in the order the spans ended."""
        keys = ("id", "name", "start", "end", "parent", "job", "self_s")
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")

    # ---------- metrics ----------

    def metrics(self) -> dict:
        """Per-layer figures: {name: (value, unit)}; absent boundaries omitted."""
        calls = defaultdict(int)
        self_s = defaultdict(float)
        total_s = defaultdict(float)
        for _, name, t0, t1, _, _, own in self.spans:
            calls[name] += 1
            self_s[name] += own
            total_s[name] += t1 - t0
        for (name, _), (n, own) in self.hot.items():
            calls[name] += n
            self_s[name] += own

        out = {}

        def put(name, value, unit):
            out[name] = (value, unit)

        for mod_name, fn_name in COARSE + HOT:
            name = f"{mod_name}.{fn_name}"
            if name in self.absent:
                continue
            put(f"{name}.calls", calls[name], "count")
            put(f"{name}.self_s", self_s[name], "s")

        def ratio(num, den):
            return num / den if den else 0.0

        c = self.counts
        if "model.utility_vector" not in self.absent:
            distinct = c["model.utility_vector.distinct"]
            put("model.utility_vector.distinct", distinct, "count")
            put("model.utility_vector.reuse", ratio(calls["model.utility_vector"], distinct), "ratio")
        if "dynamics.run_dynamics" not in self.absent:
            put("dynamics.steps", c["dynamics.steps"], "count")
            put("dynamics.step_s", ratio(total_s["dynamics.run_dynamics"], c["dynamics.steps"]), "s")
        if "dynamics.better_responses" not in self.absent:
            hits = c["dynamics.better_responses.hits"]
            put("dynamics.better_responses.hits", hits, "count")
            put("dynamics.better_responses.hit_ratio",
                ratio(hits, calls["dynamics.better_responses"]), "ratio")
        if "analysis.improvement_graph" not in self.absent:
            for key in ("profiles", "edges", "candidates"):
                put(f"analysis.graph.{key}", c[f"analysis.graph.{key}"], "count")
            put("analysis.graph.edge_ratio",
                ratio(c["analysis.graph.edges"], c["analysis.graph.candidates"]), "ratio")
        if "analysis.exact_potential_check" not in self.absent:
            put("analysis.potential.subgames", c["analysis.potential.subgames"], "count")
        put("harness.report_write_s", self_s[REPORT_WRITE], "s")
        put("harness.report_bytes", c["harness.report_bytes"], "B")
        put("trace.spans", len(self.spans), "count")
        return out
