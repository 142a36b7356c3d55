"""In-memory spans around framelab's public functions, and what they add up to.

``Tracer.install`` replaces every public function and method of the
framelab modules with a wrapper at each place the name is looked up:
module globals (so names that ``cli`` and the other modules bind with
``from ... import`` are covered) and class dictionaries.  A wrapper
records one span (name, start, end, parent span, job) into flat arrays
and keeps a few counters that need a call's arguments or result.  Nothing
is written until the run ends; ``uninstall`` restores the originals.

Self time of a span is its duration minus the durations of its direct
child spans; summed over all spans it equals the duration of the root
spans, which is the traced wall time.  The wrapper's own bookkeeping
falls partly inside a span and partly in its caller's self time;
``layer_metrics`` takes the cost of one traced call, timed on a no-op by
``call_overhead``, back out of both.
"""

import array
import collections
import contextlib
import os
import statistics
import sys
import time
import types

import numpy as np

PACKAGE = "framelab"

# Constructors are traced only where a layer metric counts objects built.
TRACED_CONSTRUCTORS = {"stepfn.StepFunction", "intervals.IntervalSet",
                       "lp.CoordinateVector"}
# size of the no-op timing behind call_overhead
OVERHEAD_CALLS = 2000
OVERHEAD_ROUNDS = 7


class Tracer:
    """Span recorder; one per traced run."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name_id = array.array("i")
        self.parent = array.array("i")
        self.job = array.array("i")
        self.start = array.array("q")
        self.end = array.array("q")
        self.stack = []
        self.job_id = -1
        self.counts = collections.Counter()
        self.overhead = []
        self._patches = []
        self._wrapped = {}

    def _intern(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, nid):
        sid = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.job.append(self.job_id)
        self.end.append(0)
        self.stack.append(sid)
        self.start.append(time.perf_counter_ns())
        return sid

    def _close(self, sid):
        self.end[sid] = time.perf_counter_ns()
        self.stack.pop()

    def wrap(self, name, fn, before=None, after=None):
        """Return fn wrapped in a span called ``name``.

        ``before(tracer, args, kwargs)`` may return replacement
        ``(args, kwargs)``; ``after(tracer, args, result)`` sees the result.
        Both run inside the span.
        """
        nid = self._intern(name)
        tracer = self

        def traced(*args, **kwargs):
            sid = tracer._open(nid)
            try:
                if before is not None:
                    args, kwargs = before(tracer, args, kwargs)
                result = fn(*args, **kwargs)
                if after is not None:
                    after(tracer, args, result)
                return result
            finally:
                tracer._close(sid)

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def span(self, name):
        """A span opened by the benchmark itself, e.g. around one job."""
        sid = self._open(self._intern(name))
        try:
            yield
        finally:
            self._close(sid)

    # -- patching --------------------------------------------------------------

    def _function_wrapper(self, fn):
        key = id(fn)
        if key not in self._wrapped:
            name = f"{_short_module(fn.__module__)}.{fn.__qualname__}"
            before, after = LAYER_HOOKS.get(name, (None, None))
            self._wrapped[key] = (fn, self.wrap(name, fn, before, after))
        return self._wrapped[key][1]

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def _patch_class(self, cls):
        qual = f"{_short_module(cls.__module__)}.{cls.__qualname__}"
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and not (attr == "__init__"
                                             and qual in TRACED_CONSTRUCTORS):
                continue
            if isinstance(raw, types.FunctionType):
                self._patch(cls, attr, self._function_wrapper(raw))
            elif isinstance(raw, staticmethod):
                self._patch(cls, attr, staticmethod(
                    self._function_wrapper(raw.__func__)))
            elif isinstance(raw, classmethod):
                self._patch(cls, attr, classmethod(
                    self._function_wrapper(raw.__func__)))

    def install(self):
        """Wrap every public framelab function and method where it is looked up.

        Each install first times the tracer's cost per call (``overhead``),
        so the estimate follows the machine's speed from pass to pass.
        """
        if self._patches:
            raise RuntimeError("tracer is already installed")
        self.overhead.append(call_overhead())
        classes = []
        for mod_name in sorted(m for m in sys.modules
                               if m == PACKAGE or m.startswith(PACKAGE + ".")):
            module = sys.modules[mod_name]
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not _is_ours(obj):
                    continue
                if isinstance(obj, types.FunctionType):
                    self._patch(module, attr, self._function_wrapper(obj))
                elif isinstance(obj, type) and obj not in classes:
                    classes.append(obj)
        for cls in classes:
            self._patch_class(cls)

    def uninstall(self):
        for owner, attr, raw in reversed(self._patches):
            setattr(owner, attr, raw)
        self._patches.clear()

    # -- results ---------------------------------------------------------------

    def arrays(self):
        """Spans as numpy arrays: name ids, parents, jobs, starts, ends (ns)."""
        return (np.frombuffer(self.name_id, dtype=np.int32).copy(),
                np.frombuffer(self.parent, dtype=np.int32).copy(),
                np.frombuffer(self.job, dtype=np.int32).copy(),
                np.frombuffer(self.start, dtype=np.int64).copy(),
                np.frombuffer(self.end, dtype=np.int64).copy())

    def save(self, path):
        """Write every span and counter to an .npz file."""
        name_id, parent, job, start, end = self.arrays()
        np.savez(path, names=np.array(self.names, dtype=str),
                 name_id=name_id, parent=parent, job=job, start=start, end=end,
                 count_names=np.array(sorted(self.counts), dtype=str),
                 count_values=np.array([self.counts[k] for k in sorted(self.counts)],
                                       dtype=np.int64),
                 overhead_ns=np.array(self.overhead, dtype=float))


def call_overhead():
    """Tracer cost of one traced call, in ns: (inside its span, charged to its caller).

    A no-op is called OVERHEAD_CALLS times traced and untraced.  The part
    inside the span is its duration less the untraced call; the caller pays
    the rest of the traced loop's extra time.  Medians over OVERHEAD_ROUNDS.
    """
    def noop():
        return None

    inside, outside = [], []
    clock = time.perf_counter_ns
    for _ in range(OVERHEAD_ROUNDS):
        probe = Tracer()
        traced = probe.wrap("noop", noop)
        t0 = clock()
        for _ in range(OVERHEAD_CALLS):
            noop()
        t1 = clock()
        for _ in range(OVERHEAD_CALLS):
            traced()
        t2 = clock()
        plain = (t1 - t0) / OVERHEAD_CALLS
        spans = (sum(probe.end) - sum(probe.start)) / OVERHEAD_CALLS
        inside.append(spans - plain)
        outside.append((t2 - t1) / OVERHEAD_CALLS - spans)
    return statistics.median(inside), statistics.median(outside)


def _short_module(module_name):
    return module_name[len(PACKAGE) + 1:] if module_name.startswith(PACKAGE + ".") \
        else module_name


def _is_ours(obj):
    module = getattr(obj, "__module__", None) or ""
    return ((isinstance(obj, (types.FunctionType, type)))
            and (module == PACKAGE or module.startswith(PACKAGE + ".")))


def self_times(parent, start, end):
    """Per-span self time: duration minus the durations of direct children."""
    dur = end - start
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent],
                        minlength=dur.size)
    return dur - child


# -- counters at layer boundaries ------------------------------------------------


def _cells_built(tracer, args, result):
    tracer.counts["stepfn.cells_built"] += int(args[0].values.size)


def _sum_terms(tracer, args, kwargs):
    # sum accepts any iterable; materialize it so counting does not consume it
    funcs = list(args[0])
    tracer.counts["stepfn.sum.terms"] += len(funcs)
    return (funcs,), kwargs


def _interval_pieces(tracer, args, result):
    tracer.counts["intervals.pieces"] += len(args[0].intervals)


def _member_side(tracer, args, kwargs):
    side = args[3] if len(args) > 3 else kwargs.get("side", "primal")
    tracer.counts[f"wavelet_frame.member.{side}"] += 1
    return args, kwargs


def _reconstruct_pairs(tracer, args, kwargs):
    positions = args[2] if len(args) > 2 else None
    touched = len(args[0].pairs) if positions is None else len(positions)
    tracer.counts["diagnostics.pairs_touched"] += touched
    return args, kwargs


def _tail_pairs(tracer, args, kwargs):
    tracer.counts["diagnostics.pairs_touched"] += len(args[0].pairs)
    return args, kwargs


def _probe_pairs(tracer, args, kwargs):
    tracer.counts["diagnostics.pairs_touched"] += sum(len(p) for p in args[2])
    return args, kwargs


def _report_bytes(tracer, args, result):
    tracer.counts["reports.bytes"] += os.path.getsize(args[0])


LAYER_HOOKS = {
    "stepfn.StepFunction.__init__": (None, _cells_built),
    "stepfn.StepFunction.sum": (_sum_terms, None),
    "intervals.IntervalSet.__init__": (None, _interval_pieces),
    "wavelet_frame.member": (_member_side, None),
    "diagnostics.DiscreteFrame.reconstruct": (_reconstruct_pairs, None),
    "diagnostics.tail_functional": (_tail_pairs, None),
    "diagnostics.boundedly_complete_probe": (_probe_pairs, None),
    "reports.write_json_report": (None, _report_bytes),
    "reports.write_csv": (None, _report_bytes),
}


# -- layer metrics ---------------------------------------------------------------

LAYER_MODULES = ("stepfn", "intervals", "pettis", "translate_frame", "wavelet_frame",
                 "lp", "diagnostics", "sampling", "reports", "cli")

# metric name -> (span name, "calls" | "self_s")
SPAN_METRICS = {
    "stepfn.built": ("stepfn.StepFunction.__init__", "calls"),
    "stepfn.add.calls": ("stepfn.StepFunction.add", "calls"),
    "stepfn.multiply.calls": ("stepfn.StepFunction.multiply", "calls"),
    "stepfn.inner.calls": ("stepfn.StepFunction.inner", "calls"),
    "stepfn.periodized_l1_sup.self_s": ("stepfn.StepFunction.periodized_l1_sup",
                                        "self_s"),
    "intervals.built": ("intervals.IntervalSet.__init__", "calls"),
    "pettis.exact_set_supremum.calls": ("pettis.exact_set_supremum", "calls"),
    "translate_frame.analysis_function.calls": ("translate_frame.analysis_function",
                                                "calls"),
    "translate_frame.certificates.self_s": ("translate_frame.generator_certificates",
                                            "self_s"),
    "lp.pair.calls": ("lp.CoordinateVector.pair", "calls"),
    "lp.built": ("lp.CoordinateVector.__init__", "calls"),
    "diagnostics.reconstruct.calls": ("diagnostics.DiscreteFrame.reconstruct", "calls"),
}

COUNTER_METRICS = ("stepfn.cells_built", "stepfn.sum.terms", "intervals.pieces",
                   "diagnostics.pairs_touched", "reports.bytes")


def layer_metrics(names, name_id, parent, start, end, counts, passes, overhead):
    """Per-pass layer metrics (name -> value) from recorded spans and counters.

    ``overhead`` is call_overhead's (inside, outside) pair: every span's
    self time loses ``inside`` and ``outside`` per direct child, so a layer's
    self time estimates its untraced cost.
    """
    has_parent = parent >= 0
    children = np.bincount(parent[has_parent], minlength=parent.size)
    selfs = self_times(parent, start, end) - overhead[0] - children * overhead[1]
    calls = np.bincount(name_id, minlength=len(names))
    self_ns = np.bincount(name_id, weights=selfs, minlength=len(names))
    by_name = {n: (int(calls[i]), float(self_ns[i])) for i, n in enumerate(names)}
    metrics = {}
    for module in LAYER_MODULES:
        prefix = module + "."
        spans = [v for n, v in by_name.items() if n.startswith(prefix)]
        metrics[f"{module}.self_s"] = sum(s for _, s in spans) / 1e9 / passes
        if module == "stepfn":
            metrics["stepfn.calls"] = sum(c for c, _ in spans) / passes
    for metric, (span, what) in SPAN_METRICS.items():
        c, s = by_name.get(span, (0, 0.0))
        metrics[metric] = c / passes if what == "calls" else s / 1e9 / passes
    for metric in COUNTER_METRICS:
        metrics[metric] = counts.get(metric, 0) / passes
    primal = counts.get("wavelet_frame.member.primal", 0)
    dual = counts.get("wavelet_frame.member.dual", 0)
    metrics["wavelet_frame.members"] = (primal + dual) / passes
    metrics["wavelet_frame.useful_frac"] = primal / dual if dual else 0.0
    return metrics
