"""Spans around maskquorum's layers, installed from outside the package.

``Tracer.install`` wraps every public, non-generator function of the layer
modules (core, constructions, paths, availability, analysis, _bitops, cli),
the construction handles' live / live_batch / live_packed_masks /
sample_quorum / materialize methods, ``Rng.uniform_draws`` and the
``TriGrid`` constructor.  Callers inside the package import names directly
(``from .paths import mpath_live``), so every module's binding of a wrapped
function is replaced, not only the defining one.

A span records its name, start, end, parent span, the benchmark op it
belongs to and a unit count (draws, rows, masks, subsets, or the value a
max-flow returned).  Spans stay in memory; ``dump`` writes them out.  Nested
spans only nest within one thread, so the traced run keeps every call
single-threaded.

Per-layer metrics and the throughput each should move (workload in
brackets); run.py prints these throughputs, and a workload's gated ops_per_s
moves with each in proportion to its share of the block's time:

  core.uniform_draws.ns_per_draw            mc throughput [sample_n1024]
  core.sample_crash_set.us_per_call         flow throughput, small share [sample_n1024]
  constructions.live_batch.ns_per_trial.*   mc throughput [sample_n1024];
                                            enumeration throughput [oracle_exact]
  constructions.live.ms_per_call.MPath      flow throughput [sample_n1024]
  constructions.sample_quorum.us_per_draw.* sample draws per second [sample_n1024]
  constructions.materialize.s               roster specs per second [oracle_exact]
  paths.max_disjoint_paths.ms_per_call      flow throughput [sample_n1024, oracle_exact]
  paths.flow_value.mean, paths.useful_ratio,
  paths.calls_per_trial,
  paths.trigrid_builds_per_trial            flow throughput [sample_n1024]
  paths.connected_batch.ns_per_mask         enumeration throughput [oracle_exact]
  availability.crash_prob_mc.self_s         mc throughput [sample_n1024]
  availability.crash_profile.*              enumeration throughput [oracle_exact]
  bitops.popcount / bitops.unpack_masks     enumeration throughput [oracle_exact]
  analysis.*.s, core.validate_explicit.s    roster specs per second [oracle_exact]
  cli.main.self_s                           every workload
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import threading
from time import perf_counter

LAYER_MODULES = ("core", "constructions", "paths", "availability", "analysis", "_bitops", "cli")
HANDLE_METHODS = ("live", "live_batch", "live_packed_masks", "sample_quorum", "materialize")


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


# Unit count of a span, by function: (args, kwargs, result) -> number.
_UNITS = {
    "core.uniform_draws": lambda a, k, r: _arg(a, k, 2, "count"),
    "constructions.live_batch": lambda a, k, r: len(_arg(a, k, 1, "alive")),
    "constructions.live_packed_masks": lambda a, k, r: len(_arg(a, k, 1, "masks")),
    "bitops.popcount": lambda a, k, r: _arg(a, k, 0, "masks").size,
    "bitops.unpack_masks": lambda a, k, r: len(_arg(a, k, 0, "masks")),
    "paths.connected_batch": lambda a, k, r: len(_arg(a, k, 0, "masks")),
    "paths.max_disjoint_paths": lambda a, k, r: r,
    "paths.mpath_live": lambda a, k, r: _arg(a, k, 1, "r"),
    "availability.crash_profile": lambda a, k, r: 2 ** _arg(a, k, 0, "target").n,
}


class Span:
    __slots__ = ("name", "base", "layer", "start", "end", "parent", "op", "units")

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.op: int | None = None
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, layer: str, base: str, by_class: bool = False):
        units = _UNITS.get(base)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            span = Span()
            span.name = (f"{base}.{type(args[0]).__name__.removesuffix('Handle')}"
                         if by_class else base)
            span.base, span.layer, span.op = base, layer, tracer.op
            span.parent = stack[-1] if stack else None
            span.units = 1
            tracer.spans.append(span)
            stack.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
            if units is not None:
                span.units = units(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap the layers of the maskquorum package imported in this process."""
        modules = {name: sys.modules[f"maskquorum.{name}"] for name in LAYER_MODULES}
        wrappers: dict[int, tuple] = {}
        for name, mod in modules.items():
            layer = name.lstrip("_")
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")
                        and not inspect.isgeneratorfunction(obj)):
                    wrappers[id(obj)] = (obj, self._wrap(obj, layer, f"{layer}.{attr}"))
        package = [m for n, m in sys.modules.items()
                   if n == "maskquorum" or n.startswith("maskquorum.")]
        for mod in package:
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])

        cons = modules["constructions"]
        for cls in vars(cons).values():
            if isinstance(cls, type) and issubclass(cls, cons.QuorumSystemHandle):
                for meth in HANDLE_METHODS:
                    if meth in cls.__dict__:
                        setattr(cls, meth, self._wrap(cls.__dict__[meth], "constructions",
                                                      f"constructions.{meth}", by_class=True))
        rng = modules["core"].Rng
        rng.uniform_draws = self._wrap(rng.uniform_draws, "core", "core.uniform_draws")
        grid = modules["paths"].TriGrid
        grid.__init__ = self._wrap(grid.__init__, "paths", "paths.TriGrid")

    def dump(self, path) -> None:
        index = {id(s): i for i, s in enumerate(self.spans)}
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "i": i, "name": s.name, "start": s.start, "end": s.end,
                    "parent": None if s.parent is None else index[id(s.parent)],
                    "op": s.op, "units": s.units}) + "\n")


# (metric, unit, better, span selector, statistic, scale).  Statistics:
# "unit" total time over total units, "call" mean time per call, "self" mean
# self time per call, "top" like "unit" over spans the benchmark called
# directly (not from inside another span).
TIMED_METRICS = [
    ("core.uniform_draws.ns_per_draw", "ns", "core.uniform_draws", "unit", 1e9),
    ("core.sample_crash_set.us_per_call", "us", "core.sample_crash_set", "call", 1e6),
    ("constructions.live_batch.ns_per_trial.MGrid", "ns", "constructions.live_batch.MGrid", "unit", 1e9),
    ("constructions.live_batch.ns_per_trial.RT", "ns", "constructions.live_batch.RT", "unit", 1e9),
    ("constructions.live_batch.ns_per_trial.BoostFPP", "ns", "constructions.live_batch.BoostFPP", "unit", 1e9),
    ("constructions.live_batch.ns_per_trial.MPath", "ns", "constructions.live_batch.MPath", "unit", 1e9),
    ("constructions.live.ms_per_call.MPath", "ms", "constructions.live.MPath", "call", 1e3),
    ("constructions.sample_quorum.us_per_draw.RT", "us", "constructions.sample_quorum.RT", "top", 1e6),
    ("constructions.sample_quorum.us_per_draw.MGrid", "us", "constructions.sample_quorum.MGrid", "top", 1e6),
    ("constructions.sample_quorum.us_per_draw.BoostFPP", "us", "constructions.sample_quorum.BoostFPP", "top", 1e6),
    ("constructions.sample_quorum.us_per_draw.MPath", "us", "constructions.sample_quorum.MPath", "top", 1e6),
    ("constructions.materialize.s", "s", "constructions.materialize", "call", 1.0),
    ("paths.max_disjoint_paths.ms_per_call", "ms", "paths.max_disjoint_paths", "call", 1e3),
    ("paths.connected_batch.ns_per_mask", "ns", "paths.connected_batch", "unit", 1e9),
    ("availability.crash_prob_mc.self_s", "s", "availability.crash_prob_mc", "self", 1.0),
    ("availability.crash_profile.ns_per_subset", "ns", "availability.crash_profile", "unit", 1e9),
    ("availability.crash_profile.self_s", "s", "availability.crash_profile", "self", 1.0),
    ("bitops.popcount.ns_per_mask", "ns", "bitops.popcount", "unit", 1e9),
    ("bitops.unpack_masks.ns_per_mask", "ns", "bitops.unpack_masks", "unit", 1e9),
    ("analysis.combinatorial_params.s", "s", "analysis.combinatorial_params", "call", 1.0),
    ("analysis.check_masking.s", "s", "analysis.check_masking", "call", 1.0),
    ("analysis.load_lp.s", "s", "analysis.load_lp", "call", 1.0),
    ("analysis.is_fair.s", "s", "analysis.is_fair", "call", 1.0),
    ("core.validate_explicit.s", "s", "core.validate_explicit", "call", 1.0),
    ("cli.main.self_s", "s", "cli.main", "self", 1.0),
]
LAYERS = ("core", "constructions", "paths", "availability", "analysis", "bitops", "cli", "bench")


def summarize(spans: list[Span], op_times: list[float]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the spans of one traced pass."""
    children: dict[int, float] = {}
    for s in spans:
        if s.parent is not None:
            children[id(s.parent)] = children.get(id(s.parent), 0.0) + s.duration

    def self_time(s: Span) -> float:
        return s.duration - children.get(id(s), 0.0)

    out: dict[str, tuple[float, str]] = {}
    for name, unit, selector, stat, scale in TIMED_METRICS:
        chosen = [s for s in spans if selector in (s.name, s.base)
                  and (stat != "top" or s.parent is None)]
        value = 0.0
        if chosen:
            if stat in ("unit", "top"):
                units = sum(s.units for s in chosen)
                value = sum(s.duration for s in chosen) / units if units else 0.0
            elif stat == "call":
                value = sum(s.duration for s in chosen) / len(chosen)
            else:
                value = sum(self_time(s) for s in chosen) / len(chosen)
        out[name] = (value * scale, unit)
        out[f"{name}.samples"] = (len(chosen), "count")

    flows = [s for s in spans if s.base == "paths.max_disjoint_paths"]
    lives = [s for s in spans if s.base == "paths.mpath_live"]
    grids = [s for s in spans if s.base == "paths.TriGrid"]
    total_flow = sum(s.units for s in flows)
    useful = sum(min(s.units, s.parent.units) for s in flows
                 if s.parent is not None and s.parent.base == "paths.mpath_live")
    out["paths.flow_value.mean"] = (total_flow / len(flows) if flows else 0.0, "count")
    out["paths.useful_ratio"] = (useful / total_flow if total_flow else 0.0, "ratio")
    out["paths.calls_per_trial"] = (len(flows) / len(lives) if lives else 0.0, "count")
    out["paths.trigrid_builds_per_trial"] = (len(grids) / len(lives) if lives else 0.0, "count")
    out["paths.max_disjoint_paths.samples"] = (len(flows), "count")

    ops = max(len(op_times), 1)
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for s in spans:
        layer_self[s.layer] += self_time(s)
    layer_self["bench"] = sum(op_times) - sum(s.duration for s in spans if s.parent is None)
    for layer, total in layer_self.items():
        out[f"layer.{layer}.self_ms_per_op"] = (total / ops * 1e3, "ms")
    return out
