"""Spans around ghcalc's public functions, recorded from outside the package.

`Tracer.install()` replaces each traced function by a wrapper that records
a span: name, parent span, start, end, a size (points, pairs or iterations)
and, for the two memory-hungry layers, the tracemalloc peak of the call.
ghcalc modules bind imported names locally (`from .ivf import
is_convex_sampled`), so the wrapper replaces the function under every name
it is bound to in every loaded ghcalc module, not only where it is defined.
Methods are replaced on their classes.

`eval_lo_hi` calls itself once per expression node.  The binding in
`ghcalc.expr` (the one the recursion uses) only counts node visits; the
other bindings record one span per top-level evaluation.

Spans are kept in memory, in flat arrays, and written out with `save()`;
`layer_metrics()` derives the per-layer metrics, self times included, from
the saved arrays.  The interval and ivector modules are on no hot path and
get no spans; their time falls into the self time of their callers.
"""

from __future__ import annotations

import sys
import tracemalloc
from array import array
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

SPANS = (
    "expr.parse", "expr.eval", "ivf.eval_many", "ivf.grid_points", "ivf.gradient",
    "ivf.convexity", "ivf.lipschitz", "subgrad.check", "subgrad.scan", "subgrad.probe",
    "iop.construct", "iop.efficient", "iop.descent", "iop.optimality",
    "cli.eval", "cli.subgrad_check", "cli.subdiff_scan", "cli.efficient", "cli.descent",
    "cli.examples",
)
CODE = {name: i for i, name in enumerate(SPANS)}
CLI_COMMANDS = ("eval", "subgrad_check", "subdiff_scan", "efficient", "descent", "examples")

PER_LAYER = (
    ("expr.parse_calls", "count"), ("expr.parse_s", "s"), ("expr.eval_top_calls", "count"),
    ("expr.eval_node_visits", "count"), ("expr.eval_points", "count"),
    ("expr.eval_self_s", "s"),
    ("ivf.eval_many_calls", "count"), ("ivf.eval_many_points", "count"),
    ("ivf.eval_many_s", "s"), ("ivf.eval_point_calls", "count"), ("ivf.grid_points_s", "s"),
    ("ivf.gradient_calls", "count"), ("ivf.gradient_s", "s"),
    ("ivf.convexity_pairs", "count"), ("ivf.convexity_s", "s"), ("ivf.convexity_peak_mb", "MB"),
    ("ivf.lipschitz_pairs", "count"), ("ivf.lipschitz_s", "s"),
    ("subgrad.check_calls", "count"), ("subgrad.check_samples", "count"),
    ("subgrad.check_s", "s"), ("subgrad.scan_s", "s"), ("subgrad.probe_s", "s"),
    ("subgrad.probe_eval_many_calls", "count"),
    ("iop.construct_s", "s"), ("iop.efficient_points", "count"), ("iop.efficient_s", "s"),
    ("iop.efficient_peak_mb", "MB"), ("iop.descent_iters", "count"), ("iop.descent_s", "s"),
    ("iop.descent_evals_per_iter", "count"), ("iop.optimality_s", "s"),
    ("cli.import_s", "s"),
    *((f"cli.{cmd}_s", "s") for cmd in CLI_COMMANDS),
    ("cli.child_peak_rss_mb", "MB"),
)


def _pairs(grid) -> float:
    n = 1
    for count in grid.counts:
        n *= count
    return n * (n - 1) / 2.0


def _grid_arg(args, kwargs, index):
    return kwargs["grid"] if "grid" in kwargs else args[index]


class Tracer:
    def __init__(self):
        self.code = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.size = array("d")
        self.peak_mb = array("d")
        self.visits = 0
        self.point_evals = 0
        self._stack = [-1]
        self._patches: List[tuple] = []

    # -- recording ---------------------------------------------------------

    def reset(self) -> None:
        for arr in (self.code, self.parent, self.start, self.end, self.size, self.peak_mb):
            del arr[:]
        self.visits = 0
        self.point_evals = 0

    def _wrap(self, name: str, fn: Callable,
              size: Optional[Callable] = None, memory: bool = False) -> Callable:
        code = CODE[name]
        tracer = self

        def traced(*args, **kwargs):
            sid = len(tracer.code)
            tracer.code.append(code)
            tracer.parent.append(tracer._stack[-1])
            tracer.size.append(0.0)
            tracer.peak_mb.append(0.0)
            tracer.end.append(0.0)
            tracer._stack.append(sid)
            own_trace = memory and not tracemalloc.is_tracing()
            if own_trace:
                tracemalloc.start()
            tracer.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end[sid] = perf_counter()
                tracer._stack.pop()
                if own_trace:
                    tracer.peak_mb[sid] = tracemalloc.get_traced_memory()[1] / 2.0 ** 20
                    tracemalloc.stop()
            if size is not None:
                tracer.size[sid] = size(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- patching ----------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _replace_everywhere(self, original, replacement) -> None:
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "ghcalc" or name.startswith("ghcalc.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attr, replacement)

    def _function(self, module_name: str, attr: str, name: str, **kw) -> None:
        original = getattr(sys.modules[module_name], attr)
        self._replace_everywhere(original, self._wrap(name, original, **kw))

    def install(self) -> None:
        import ghcalc  # noqa: F401  (binds the package-level re-exports)
        import ghcalc.cli
        import ghcalc.examples_runner  # noqa: F401
        import ghcalc.problems  # noqa: F401
        from ghcalc import expr
        from ghcalc.iop import Iop
        from ghcalc.ivf import Grid, Ivf

        tracer = self
        eval_lo_hi = expr.eval_lo_hi

        def visit(node, xs):
            tracer.visits += 1
            return eval_lo_hi(node, xs)

        self._set(expr, "eval_lo_hi", visit)
        self._replace_everywhere(
            eval_lo_hi,
            self._wrap("expr.eval", visit, size=lambda a, k, r: float(a[1].shape[0])))

        self._function("ghcalc.expr", "parse_expr", "expr.parse")
        self._function("ghcalc.ivf", "gh_gradient", "ivf.gradient")
        self._function("ghcalc.ivf", "is_convex_sampled", "ivf.convexity", memory=True,
                       size=lambda a, k, r: _pairs(_grid_arg(a, k, 1)))
        self._function("ghcalc.ivf", "lipschitz_estimate", "ivf.lipschitz",
                       size=lambda a, k, r: _pairs(_grid_arg(a, k, 1)))
        self._function("ghcalc.subgrad", "is_subgradient", "subgrad.check")
        self._function("ghcalc.subgrad", "subdiff_scan_1d", "subgrad.scan")
        self._function("ghcalc.subgrad", "union_boundedness_probe", "subgrad.probe")
        self._function("ghcalc.iop", "efficient_on_grid", "iop.efficient", memory=True,
                       size=lambda a, k, r: float(len(r.points)))
        self._function("ghcalc.iop", "scalarized_descent", "iop.descent",
                       size=lambda a, k, r: float(len(r.trace)))
        self._function("ghcalc.iop", "optimality_zero_condition", "iop.optimality")
        for cmd in CLI_COMMANDS:
            self._function("ghcalc.cli", f"cmd_{cmd}", f"cli.{cmd}")

        self._set(Ivf, "eval_many", self._wrap("ivf.eval_many", Ivf.eval_many,
                                               size=lambda a, k, r: float(len(r[0]))))
        self._set(Grid, "points", self._wrap("ivf.grid_points", Grid.points,
                                             size=lambda a, k, r: float(len(r))))
        self._set(Iop, "__post_init__", self._wrap("iop.construct", Iop.__post_init__))
        point_eval = Ivf.eval

        def counted_eval(f, x):
            tracer.point_evals += 1
            return point_eval(f, x)

        self._set(Ivf, "eval", counted_eval)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- output --------------------------------------------------------------

    def export(self, **extra) -> Dict[str, np.ndarray]:
        return dict(
            code=np.frombuffer(self.code, dtype=np.int32).copy(),
            parent=np.frombuffer(self.parent, dtype=np.int32).copy(),
            start=np.frombuffer(self.start, dtype=np.float64).copy(),
            end=np.frombuffer(self.end, dtype=np.float64).copy(),
            size=np.frombuffer(self.size, dtype=np.float64).copy(),
            peak_mb=np.frombuffer(self.peak_mb, dtype=np.float64).copy(),
            visits=np.array(self.visits), point_evals=np.array(self.point_evals),
            **{k: np.array(v) for k, v in extra.items()})

    def save(self, path, **extra) -> None:
        np.savez(path, **self.export(**extra))


def _times(t: Dict[str, np.ndarray]):
    """Inclusive and self time of every span in a saved set."""
    dur = t["end"] - t["start"]
    nested = t["parent"] >= 0
    child = np.bincount(t["parent"][nested], weights=dur[nested], minlength=len(dur))
    return dur, dur - child


def _ancestor_has(code: np.ndarray, parent: np.ndarray, target: int) -> np.ndarray:
    """For each span, whether some ancestor span has the target code."""
    found = np.zeros(len(code), dtype=bool)
    anc = parent.copy()
    while True:
        live = anc >= 0
        if not live.any():
            return found
        found[live] |= code[anc[live]] == target
        anc[live] = parent[anc[live]]


def layer_metrics(traces: Sequence[Dict[str, np.ndarray]], passes: int,
                  child_peak_rss_mb: float = 0.0) -> Dict[str, float]:
    """Per-layer metrics from saved span sets, per pass over the deck.

    Counts and `_s` times are totals per pass; `_s` times are inclusive of
    nested spans except `expr.eval_self_s`.  Peaks are maxima over the run,
    and `cli.import_s` is the median over child processes.
    """
    out: Dict[str, float] = {name: 0.0 for name, _ in PER_LAYER}
    imports: List[float] = []
    for t in traces:
        code, parent, size = t["code"], t["parent"], t["size"]
        dur, self_time = _times(t)
        is_ = {name: code == CODE[name] for name in SPANS}

        def add(metric, value):
            out[metric] += float(value)

        add("expr.parse_calls", is_["expr.parse"].sum())
        add("expr.parse_s", dur[is_["expr.parse"]].sum())
        add("expr.eval_top_calls", is_["expr.eval"].sum())
        add("expr.eval_node_visits", t["visits"])
        add("expr.eval_points", size[is_["expr.eval"]].sum())
        add("expr.eval_self_s", self_time[is_["expr.eval"]].sum())
        add("ivf.eval_many_calls", is_["ivf.eval_many"].sum())
        add("ivf.eval_many_points", size[is_["ivf.eval_many"]].sum())
        add("ivf.eval_many_s", dur[is_["ivf.eval_many"]].sum())
        add("ivf.eval_point_calls", t["point_evals"])
        add("ivf.grid_points_s", dur[is_["ivf.grid_points"]].sum())
        add("ivf.gradient_calls", is_["ivf.gradient"].sum())
        add("ivf.gradient_s", dur[is_["ivf.gradient"]].sum())
        add("ivf.convexity_pairs", size[is_["ivf.convexity"]].sum())
        add("ivf.convexity_s", dur[is_["ivf.convexity"]].sum())
        add("ivf.lipschitz_pairs", size[is_["ivf.lipschitz"]].sum())
        add("ivf.lipschitz_s", dur[is_["ivf.lipschitz"]].sum())
        add("subgrad.check_calls", is_["subgrad.check"].sum())
        in_check = is_["ivf.grid_points"] & (parent >= 0)
        in_check[in_check] = code[parent[in_check]] == CODE["subgrad.check"]
        add("subgrad.check_samples", size[in_check].sum())
        add("subgrad.check_s", dur[is_["subgrad.check"]].sum())
        add("subgrad.scan_s", dur[is_["subgrad.scan"]].sum())
        add("subgrad.probe_s", dur[is_["subgrad.probe"]].sum())
        add("subgrad.probe_eval_many_calls", (is_["ivf.eval_many"] & _ancestor_has(
            code, parent, CODE["subgrad.probe"])).sum())
        add("iop.construct_s", dur[is_["iop.construct"]].sum())
        add("iop.efficient_points", size[is_["iop.efficient"]].sum())
        add("iop.efficient_s", dur[is_["iop.efficient"]].sum())
        add("iop.descent_iters", size[is_["iop.descent"]].sum())
        add("iop.descent_s", dur[is_["iop.descent"]].sum())
        # eval_many calls inside descents; divided by the iterations below
        add("iop.descent_evals_per_iter", (is_["ivf.eval_many"] & _ancestor_has(
            code, parent, CODE["iop.descent"])).sum())
        add("iop.optimality_s", dur[is_["iop.optimality"]].sum())
        for metric, name in (("ivf.convexity_peak_mb", "ivf.convexity"),
                             ("iop.efficient_peak_mb", "iop.efficient")):
            if is_[name].any():
                out[metric] = max(out[metric], float(t["peak_mb"][is_[name]].max()))
        for cmd in CLI_COMMANDS:
            add(f"cli.{cmd}_s", dur[is_[f"cli.{cmd}"]].sum())
        if "import_s" in t:
            imports.append(float(t["import_s"]))

    if out["iop.descent_iters"]:
        out["iop.descent_evals_per_iter"] /= out["iop.descent_iters"]
    for name, unit in PER_LAYER:
        if unit != "MB" and name != "iop.descent_evals_per_iter":
            out[name] /= passes
    out["cli.import_s"] = float(np.median(imports)) if imports else 0.0
    out["cli.child_peak_rss_mb"] = child_peak_rss_mb
    return out


def span_table(traces: Sequence[Dict[str, np.ndarray]], passes: int) -> List[list]:
    """[name, calls, inclusive s, self s] per span name, per pass."""
    rows = {name: [0.0, 0.0, 0.0] for name in SPANS}
    for t in traces:
        dur, self_time = _times(t)
        for name in SPANS:
            mask = t["code"] == CODE[name]
            row = rows[name]
            row[0] += float(mask.sum())
            row[1] += float(dur[mask].sum())
            row[2] += float(self_time[mask].sum())
    return [[name] + [v / passes for v in row] for name, row in rows.items() if row[0]]
