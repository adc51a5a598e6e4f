"""Span tracing around the calls into each layer of the program.

The layers are the package modules ``oracle``, ``mahler``, ``quotient``,
``transducer``, ``geometry``, ``formats`` and ``cli``.  :meth:`Tracer.install`
wraps every public module-level function of those modules and rebinds each
module-level name that refers to one, so names that ``cli`` and
``geometry`` import directly (and ``cli``'s dispatch table) reach the
wrappers too.  A few methods on the hot path are wrapped on their class.

Spans hold a name, start, end, parent span and job id; they stay in memory
and are written out by :meth:`Tracer.write`.  Per-point and per-word calls
(the ``LEAVES``) are aggregated as a call count plus summed time instead of
one span each.  A layer's self time is the time inside its calls minus the
part covered by calls into other wrapped functions.  Oracle evaluation is
charged by ``FunctionOracle.source``: series oracles to ``mahler``,
transducer oracles to ``transducer``, built-in maps to ``oracle``.  The
``padics`` module has no public call on a hot path (``PadicInt``
construction is charged to ``mahler``), and ``subjects`` only builds inputs.

Counts and times are reported per pass over the workload's job population,
so they measure the work of one population and not how many passes fit in
the run.  Wrapping costs time on every call, most of all on the hot leaves,
so :class:`Sampler` gives a second, untraced split of the job time by layer.
"""

from __future__ import annotations

import inspect
import json
import signal
import time
from collections import Counter
from pathlib import Path

LAYERS = ("oracle", "mahler", "quotient", "transducer", "geometry", "formats", "cli")
SOURCE_LAYER = {"mahler-series": "mahler", "transducer": "transducer", "built-in": "oracle"}
LEAVES = frozenset({
    "oracle.FunctionOracle.value",
    "transducer.run_sync",
    "transducer.run_async",
    "transducer.word_of",
    "transducer.word_value",
    "geometry.mirror_fraction",
})
FAMILY_QUERIES = frozenset({"geometry.family_points", "transducer.family_transitivity"})
MAHLER_EVAL = ("oracle.FunctionOracle.value[mahler-series]", "oracle.FunctionOracle.values[mahler-series]",
               "mahler.eval_series", "mahler.series_oracle")
MAHLER_CHECKS = ("mahler.check_delay_conditions", "mahler.check_measure_preserving_conditions",
                 "mahler.check_ergodicity_conditions")

# name -> (unit, better); the order is the order of the printed report.
# Units ending in /pass are totals over one pass, divided out per pass.
PER_LAYER = {
    "oracle.points": ("count/pass", "lower"),
    "oracle.useful_ratio": ("ratio", "higher"),
    "oracle.self_s": ("s/pass", "lower"),
    "mahler.eval_s": ("s/pass", "lower"),
    "mahler.eval_ns_per_point_term": ("ns", "lower"),
    "mahler.extract_s": ("s/pass", "lower"),
    "mahler.extract_terms": ("count/pass", "lower"),
    "mahler.check_s": ("s/pass", "lower"),
    "quotient.self_s": ("s/pass", "lower"),
    "quotient.table_entries": ("count/pass", "lower"),
    "quotient.budget_peak": ("ratio", "lower"),
    "transducer.eval_s": ("s/pass", "lower"),
    "transducer.runs": ("count/pass", "lower"),
    "transducer.letters": ("count/pass", "lower"),
    "transducer.family_s": ("s/pass", "lower"),
    "transducer.states": ("count/pass", "lower"),
    "geometry.self_s": ("s/pass", "lower"),
    "geometry.points_generated": ("count/pass", "lower"),
    "geometry.dedup_ratio": ("ratio", "higher"),
    "geometry.cells": ("count/pass", "higher"),
    "geometry.union_s": ("s/pass", "lower"),
    "geometry.cover_s": ("s/pass", "lower"),
    "geometry.render_s": ("s/pass", "lower"),
    "formats.parse_s": ("s/pass", "lower"),
    "formats.serialize_s": ("s/pass", "lower"),
    "cli.self_s": ("s/pass", "lower"),
    "cli.report_bytes": ("bytes/pass", "lower"),
    "trace.overhead": ("ratio", "lower"),
}


class _Frame:
    __slots__ = ("id", "parent", "name", "layer", "start", "child_ns", "runs_at_entry")

    def __init__(self, span_id, parent, name, layer, runs):
        self.id, self.parent, self.name, self.layer = span_id, parent, name, layer
        self.child_ns = 0
        self.runs_at_entry = runs


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []  # (id, parent id, job id, name, start ns, end ns)
        self.stack: list[_Frame] = []
        self.self_ns: Counter = Counter()  # by span or leaf name
        self.layer_ns: Counter = Counter()
        self.leaf_calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.budget_peak = 0.0
        self.family_ns = 0
        self.job: int | None = None
        self._next_id = 0
        self._in_leaf = False
        self._family_open = 0
        self._support: dict[int, int] = {}  # id(series oracle) -> support
        self._needed: dict[int, list] = {}  # id(oracle) -> [largest range, residues past it]
        self._undo: list = []

    # -- jobs -------------------------------------------------------------

    def begin_job(self, job_id: int) -> None:
        self._fold_needed()
        self.job = job_id

    def add_report_bytes(self, size: int) -> None:
        self.counts["cli.report_bytes"] += size

    def _fold_needed(self) -> None:
        for top, extra in self._needed.values():
            self.counts["oracle.needed"] += top + sum(1 for x in extra if x >= top)
        self._needed.clear()
        self._support.clear()

    # -- accounting -------------------------------------------------------

    def _charge(self, name: str, layer: str, ns: int) -> None:
        self.self_ns[name] += ns
        self.layer_ns[layer] += ns
        if layer == "transducer" and self._family_open:
            self.family_ns += ns

    def _leaf(self, fn, label, before=None):
        tracer = self

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            if tracer._in_leaf:
                return fn(*args, **kwargs)
            tracer._in_leaf = True
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                ns = time.perf_counter_ns() - start
                tracer._in_leaf = False
                name, layer = label(args)
                tracer._charge(name, layer, ns)
                tracer.leaf_calls[name] += 1
                if tracer.stack:
                    tracer.stack[-1].child_ns += ns

        return wrapper

    def _span(self, fn, label, after=None):
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer._in_leaf:
                return fn(*args, **kwargs)
            name, layer = label(args)
            stack = tracer.stack
            parent = stack[-1].id if stack else None
            frame = _Frame(tracer._next_id, parent, name, layer, tracer.counts["transducer.runs"])
            tracer._next_id += 1
            family = name in FAMILY_QUERIES
            tracer._family_open += family
            stack.append(frame)
            frame.start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                ns = end - frame.start
                tracer._charge(name, layer, ns - frame.child_ns)
                tracer._family_open -= family
                if stack:
                    stack[-1].child_ns += ns
                tracer.spans.append((frame.id, parent, tracer.job, name, frame.start, end))
            if after is not None:
                after(args, kwargs, result, frame)
            return result

        return wrapper

    # -- counters observed at layer boundaries ------------------------------

    def _outer_geometry(self) -> bool:
        return not self.stack or self.stack[-1].layer != "geometry"

    def _observers(self, prog) -> dict:
        default_budget = prog.quotient.DEFAULT_BUDGET
        counts = self.counts

        def points(oracle, count, residue=None):
            counts["oracle.points"] += count
            if oracle.source == "mahler-series":
                counts["mahler.point_terms"] += count * self._support.get(id(oracle), 0)
            top, extra = self._needed.setdefault(id(oracle), [0, set()])
            if residue is None:
                self._needed[id(oracle)][0] = max(top, count)
            else:
                extra.add(residue)

        def values(args, kwargs, result, frame):
            points(args[0], args[2])

        def value(args):
            oracle, x, m = args
            inside_values = self.stack and self.stack[-1].name.startswith("oracle.FunctionOracle.values")
            if not self._in_leaf and not inside_values:
                points(oracle, 1, x % oracle.p ** (m + oracle.delay))

        def series_oracle(args, kwargs, result, frame):
            self._support[id(result)] = args[0].support

        def table(size, args, kwargs):
            budget = args[2] if len(args) > 2 else kwargs.get("budget", default_budget)
            counts["quotient.table_entries"] += size
            self.budget_peak = max(self.budget_peak, size / budget)

        def run(args):
            counts["transducer.runs"] += 1
            counts["transducer.letters"] += len(args[1])

        def kept(result):
            if self._outer_geometry():
                counts["geometry.points_kept"] += len(result.points)

        def image_points(args, kwargs, result, frame):
            f, k = args[0], args[1]
            counts["geometry.points_generated"] += f.p ** (f.delay + k)
            kept(result)

        def family_points(args, kwargs, result, frame):
            counts["geometry.points_generated"] += counts["transducer.runs"] - frame.runs_at_entry
            kept(result)

        return {
            "oracle.FunctionOracle.values": values,
            "oracle.FunctionOracle.value": value,
            "mahler.series_oracle": series_oracle,
            "mahler.coeffs_from_oracle": lambda a, k, r, f: counts.update({"mahler.extract_terms": a[1]}),
            "quotient.reduce_map": lambda a, k, r, f: table(len(r.table), a, k),
            "quotient.endomap": lambda a, k, r, f: table(len(r), a, k),
            "transducer.run_sync": run,
            "transducer.run_async": run,
            "transducer.reachable_states": lambda a, k, r, f: counts.update({"transducer.states": len(r)}),
            "geometry.image_points": image_points,
            "geometry.accumulate_image": lambda a, k, r, f: kept(r),
            "geometry.family_points": family_points,
            "geometry.cover_fraction": lambda a, k, r, f: counts.update({"geometry.cells": r.occupied}),
        }

    # -- installation -------------------------------------------------------

    def _wrap(self, fn, name, layer, observers, by_source=False):
        if by_source:
            label = lambda args: (f"{name}[{args[0].source}]", SOURCE_LAYER.get(args[0].source, "oracle"))  # noqa: E731
        else:
            label = lambda args, fixed=(name, layer): fixed  # noqa: E731
        if name in LEAVES:
            return self._leaf(fn, label, observers.get(name))
        return self._span(fn, label, observers.get(name))

    def install(self, prog) -> None:
        """Wrap the layer boundaries of ``prog`` (see :func:`run.load_program`)."""
        observers = self._observers(prog)
        wrapped = {}
        for layer in LAYERS:
            module = getattr(prog, layer)
            names = getattr(module, "__all__", None) or [n for n in vars(module) if not n.startswith("_")]
            for attr in names:
                fn = getattr(module, attr)
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    wrapped[fn] = self._wrap(fn, f"{layer}.{attr}", layer, observers)
        for module in prog.modules:
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._undo.append((setattr, module, attr, obj))
                    setattr(module, attr, wrapped[obj])
                elif isinstance(obj, dict):
                    for key, value in list(obj.items()):
                        if inspect.isfunction(value) and value in wrapped:
                            self._undo.append((dict.__setitem__, obj, key, value))
                            obj[key] = wrapped[value]
        methods = (
            (prog.oracle.FunctionOracle, "value", "oracle", None),
            (prog.oracle.FunctionOracle, "values", "oracle", None),
            (prog.geometry.PointSet2D, "union", "geometry", staticmethod),
            (prog.mahler.MahlerSeries, "from_ints", "mahler", classmethod),
        )
        for cls, attr, layer, kind in methods:
            original = vars(cls)[attr]
            fn = original.__func__ if kind else original
            name = f"{layer}.{cls.__name__}.{attr}"
            wrapper = self._wrap(fn, name, layer, observers, by_source=cls is prog.oracle.FunctionOracle)
            self._undo.append((setattr, cls, attr, original))
            setattr(cls, attr, kind(wrapper) if kind else wrapper)

    def uninstall(self) -> None:
        self._fold_needed()
        for restore, target, key, original in reversed(self._undo):
            restore(target, key, original)
        self._undo.clear()

    # -- results ------------------------------------------------------------

    def metrics(self, scale: float, overhead: float, passes: int) -> dict[str, float]:
        """Per-layer metrics per pass; times are multiplied by ``scale``."""
        s = lambda *names: sum(self.self_ns[n] for n in names) * scale / 1e9 / passes  # noqa: E731
        layer_s = lambda layer: self.layer_ns[layer] * scale / 1e9 / passes  # noqa: E731
        c = Counter({name: count / passes for name, count in self.counts.items()})
        eval_s = s(*MAHLER_EVAL)
        values = {
            "oracle.points": c["oracle.points"],
            "oracle.useful_ratio": _ratio(c["oracle.needed"], c["oracle.points"]),
            "oracle.self_s": layer_s("oracle"),
            "mahler.eval_s": eval_s,
            "mahler.eval_ns_per_point_term": _ratio(eval_s * 1e9, c["mahler.point_terms"]),
            "mahler.extract_s": s("mahler.coeffs_from_oracle"),
            "mahler.extract_terms": c["mahler.extract_terms"],
            "mahler.check_s": s(*MAHLER_CHECKS),
            "quotient.self_s": layer_s("quotient"),
            "quotient.table_entries": c["quotient.table_entries"],
            "quotient.budget_peak": self.budget_peak,
            "transducer.eval_s": layer_s("transducer"),
            "transducer.runs": c["transducer.runs"],
            "transducer.letters": c["transducer.letters"],
            "transducer.family_s": self.family_ns * scale / 1e9 / passes,
            "transducer.states": c["transducer.states"],
            "geometry.self_s": layer_s("geometry"),
            "geometry.points_generated": c["geometry.points_generated"],
            "geometry.dedup_ratio": _ratio(c["geometry.points_kept"], c["geometry.points_generated"]),
            "geometry.cells": c["geometry.cells"],
            "geometry.union_s": s("geometry.PointSet2D.union"),
            "geometry.cover_s": s("geometry.cover_fraction"),
            "geometry.render_s": s("geometry.render_pgm"),
            "formats.parse_s": s("formats.parse_series", "formats.parse_transducer"),
            "formats.serialize_s": s("formats.serialize_series"),
            "cli.self_s": layer_s("cli"),
            "cli.report_bytes": c["cli.report_bytes"],
            "trace.overhead": overhead,
        }
        return values

    def layer_shares(self, busy_traced_ns: float) -> dict[str, float]:
        """Each layer's self time as a share of the traced jobs' time."""
        return {layer: self.layer_ns[layer] / busy_traced_ns for layer in LAYERS}

    def write(self, path: Path) -> None:
        """Spans one JSON object a line, then one line of leaf aggregates."""
        with path.open("w") as out:
            for span_id, parent, job, name, start, end in self.spans:
                out.write(json.dumps({"id": span_id, "parent": parent, "job": job, "name": name,
                                      "start_ns": start, "end_ns": end}) + "\n")
            leaves = {name: {"calls": self.leaf_calls[name], "self_ns": self.self_ns[name]}
                      for name in sorted(self.leaf_calls)}
            out.write(json.dumps({"leaves": leaves}) + "\n")


def format_shares(shares: dict[str, float]) -> str:
    return ", ".join(f"{layer} {share:.1%}" for layer, share in sorted(shares.items(), key=lambda kv: -kv[1]))


class Sampler:
    """Untraced split of job time by layer, from CPU-time samples.

    Every ``interval`` seconds of process CPU time, ``SIGPROF`` interrupts the
    run and the handler walks the interrupted stack from the innermost frame
    out to the first frame of a layer module.  That mirrors the tracer's
    charging: code of ``padics``, ``subjects`` and the standard library counts
    for the layer that called it, and ``FunctionOracle`` frames count by
    their oracle's source.  Samples that reach no layer frame (the
    benchmark's own checks and calibration) are left out of the shares.  A
    sample costs a few microseconds, far less than a wrapped call.
    """

    def __init__(self, interval: float = 0.001) -> None:
        self.interval = interval
        self.samples: Counter = Counter()
        self.total = 0
        self._previous = None

    def _sample(self, signum, frame) -> None:
        while frame is not None:
            module = frame.f_globals.get("__name__", "")
            layer = module.rpartition(".")[2]
            if module.startswith("padic_automata.") and layer in LAYERS:
                if layer == "oracle":
                    source = getattr(frame.f_locals.get("self"), "source", None)
                    layer = SOURCE_LAYER.get(source, "oracle")
                self.samples[layer] += 1
                self.total += 1
                return
            frame = frame.f_back

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, self.interval, self.interval)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, self._previous)

    def shares(self) -> dict[str, float]:
        return {layer: _ratio(self.samples[layer], self.total) for layer in LAYERS}
