"""Span recording around acakit's public functions, from outside the package.

`Tracer.install()` replaces every public function of the layer modules, as
bound in each acakit module's namespace, with a timing wrapper, and wraps
the counted `KernelHandle` entry points on the class.  Nothing inside
`src/acakit` is edited: the wrappers only sit where callers look the names
up.  Spans stay in memory until `write_jsonl`; `layer_metrics` turns them
into the per-layer figures.

A span is (id, parent, name, start_ns, end_ns, thread, op, realization,
evals, info).  The parent comes from a thread-local stack, so spans made
in `run_realizations` worker threads have no parent; the realization id is
carried down the stack from the enclosing `experiments.run_realization`.
"""
from __future__ import annotations

import importlib
import inspect
import itertools
import json
import os
import threading
import time
from collections import defaultdict

import numpy as np

LAYERS = ("geometry", "kernel", "lowrank", "acagp", "oracle", "experiments", "cli")
KERNEL_METHODS = (
    "eval",
    "eval_row",
    "eval_col",
    "eval_row_subset",
    "eval_col_subset",
    "assemble_dense",
)
# Span names that differ from "<defining module>.<function>", keyed by the
# namespace the call is looked up in.
RENAMES = {("acagp", "bounding_aspect_ratio"): "acagp.aspect_test"}

ID, PARENT, NAME, START, END, THREAD, OP, REAL, EVALS, INFO = range(10)


def _method_info(args, kwargs, before, result) -> dict:
    """Rank, evaluations and pivot-selector outcome of one aca/aca_gp call."""
    x, y, kernel = args[0], args[1], args[2]
    trace = result.pivot_trace
    return {
        "n": len(x),
        "m": len(y),
        "rank": result.rank,
        "evals": kernel.eval_count - before,
        "ic": result.central_row_count,
        "jc": result.central_col_count,
        "circle_fallbacks": sum(
            1 for r in trace if r.rank in (2, 3) and r.selector == "central"
        ),
    }


def _workers_info(args, kwargs, before, result) -> dict:
    threads = kwargs.get("threads", args[1] if len(args) > 1 else None)
    return {"workers": threads if threads is not None else (os.cpu_count() or 1)}


def _json_bytes(args, kwargs, before, result) -> dict:
    return {"bytes": len(result)}  # json.dumps output is ASCII


def _kernel_count(args, kwargs):
    return args[2].eval_count


INFO_HOOKS = {
    "lowrank.aca": (_kernel_count, _method_info),
    "acagp.aca_gp": (_kernel_count, _method_info),
    "experiments.run_realizations": (None, _workers_info),
    "lowrank.skeleton_to_json": (None, _json_bytes),
}


class Tracer:
    """In-memory span recorder; one per traced worker process."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.op = 0
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.realization = []
        return local

    def wrap(self, fn, name: str, count_evals: bool = False):
        hooks = INFO_HOOKS.get(name)
        is_realization = name == "experiments.run_realization"
        spans, ids, state = self.spans, self._ids, self._state
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            local = state()
            stack = local.stack
            sid = next(ids)
            parent = stack[-1] if stack else None
            if is_realization:
                local.realization.append(args[1])
            real = local.realization[-1] if local.realization else None
            before = hooks[0](args, kwargs) if hooks and hooks[0] else None
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                if is_realization:
                    local.realization.pop()
            evals = int(np.size(result)) if count_evals else 0
            info = hooks[1](args, kwargs, before, result) if hooks else None
            spans.append(
                (sid, parent, name, start, end, threading.get_ident(), self.op,
                 real, evals, info)
            )
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap the layer modules' public functions and the kernel methods,
        for the rest of the process."""
        modules = {name: importlib.import_module(f"acakit.{name}") for name in LAYERS}
        public: dict[int, tuple[object, str]] = {}
        for layer, mod in modules.items():
            for attr in mod.__all__:
                obj = getattr(mod, attr)
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    public[id(obj)] = (obj, f"{layer}.{attr}")
        wrappers: dict[tuple[int, str], object] = {}
        for layer, mod in modules.items():
            for attr, value in list(vars(mod).items()):
                if id(value) not in public:
                    continue
                fn, name = public[id(value)]
                name = RENAMES.get((layer, attr), name)
                key = (id(fn), name)
                if key not in wrappers:
                    wrappers[key] = self.wrap(fn, name)
                setattr(mod, attr, wrappers[key])
        handle = modules["kernel"].KernelHandle
        for meth in KERNEL_METHODS:
            setattr(
                handle, meth,
                self.wrap(getattr(handle, meth), f"kernel.{meth}", count_evals=True),
            )

    def write_jsonl(self, path) -> None:
        keys = ("id", "parent", "name", "start_ns", "end_ns", "thread", "op",
                "realization", "evals", "info")
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


# --- per-layer metrics --------------------------------------------------

# Per-operation time sums reported as "<name>.ms".
OP_TIME_SPANS = {
    "geometry.true_distance.ms": ("geometry.true_distance",),
    "acagp.aca_gp.ms": ("acagp.aca_gp",),
    "acagp.first_pivot.ms": ("acagp.first_pivot",),
    "acagp.aspect_test.ms": ("acagp.aspect_test",),
    "acagp.central_subset.ms": ("acagp.central_subset",),
    "acagp.select_rank2.ms": ("acagp.select_rank2",),
    "acagp.select_rank3.ms": ("acagp.select_rank3",),
    "acagp.select_higher.ms": ("acagp.select_higher",),
    "lowrank.aca.ms": ("lowrank.aca",),
    "lowrank.skeleton_to_json.ms": ("lowrank.skeleton_to_json",),
    "oracle.svd_rank_errors.ms": ("oracle.svd_rank_errors",),
    "experiments.run_realizations.ms": ("experiments.run_realizations",),
    "experiments.aggregate.ms": ("experiments.aggregate",),
    "experiments.render_csv.ms": (
        "experiments.render_benchmark_csv",
        "experiments.render_sweep_csv",
    ),
    **{f"kernel.{m}.ms": (f"kernel.{m}",) for m in KERNEL_METHODS},
}
# Per-operation call counts reported as "<name>.calls".
OP_CALL_SPANS = {
    "geometry.place_clouds.calls": "geometry.place_clouds",
    "geometry.true_distance.calls": "geometry.true_distance",
    "acagp.aca_gp.calls": "acagp.aca_gp",
    "acagp.select_higher.calls": "acagp.select_higher",
    "lowrank.aca.calls": "lowrank.aca",
    "oracle.svd_rank_errors.calls": "oracle.svd_rank_errors",
    "experiments.run_realization.calls": "experiments.run_realization",
}

# name -> unit for every per-layer metric `layer_metrics` returns.
LAYER_UNITS = {
    "geometry.place_clouds.ms.p50": "ms",
    "geometry.place_clouds.ms.p90": "ms",
    "experiments.run_realization.ms.p50": "ms",
    "experiments.run_realization.ms.p90": "ms",
    "experiments.run_realization.self_ms": "ms",
    "experiments.pool_efficiency": "ratio",
    "acagp.aca_gp.ns_per_eval": "ns",
    "acagp.probe_evals": "count",
    "acagp.circle_fallbacks": "count",
    "lowrank.aca.ns_per_eval": "ns",
    "lowrank.aca.row_yield": "ratio",
    "lowrank.skeleton_to_json.bytes": "B",
    "kernel.evals": "count",
    "kernel.ns_per_eval": "ns",
    **{f"kernel.{m}.evals": "count" for m in KERNEL_METHODS},
    **{name: "ms" for name in OP_TIME_SPANS},
    **{name: "count" for name in OP_CALL_SPANS},
    "cli.main.self_ms": "ms",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[tuple], ops: list[int]) -> dict[str, list[float]]:
    """Samples of every per-layer metric: one per operation, except the
    `.ms.p50`/`.ms.p90` and `run_realization.self_ms` samples, which are
    one per call (the caller reduces `.p90` lists by their 90th percentile
    and every other list by its median).

    A span nested directly in a span of the same name (aca_gp solving the
    swapped pair) is not counted again.  Self time is a span's duration
    minus that of its direct children, which share its thread.
    """
    by_id = {s[ID]: s for s in spans}
    child_ms: dict[int, float] = defaultdict(float)
    for s in spans:
        if s[PARENT] is not None:
            child_ms[s[PARENT]] += (s[END] - s[START]) / 1e6
    top = [
        s for s in spans
        if s[PARENT] is None or by_id[s[PARENT]][NAME] != s[NAME]
    ]
    per_op: dict[int, list[tuple]] = defaultdict(list)
    for s in top:
        per_op[s[OP]].append(s)

    def ms(s) -> float:
        return (s[END] - s[START]) / 1e6

    samples: dict[str, list[float]] = defaultdict(list)
    for op in ops:
        op_spans = per_op.get(op, [])
        time_by: dict[str, float] = defaultdict(float)
        calls_by: dict[str, int] = defaultdict(int)
        evals_by: dict[str, int] = defaultdict(int)
        for s in op_spans:
            time_by[s[NAME]] += ms(s)
            calls_by[s[NAME]] += 1
            evals_by[s[NAME]] += s[EVALS]
        for metric, names in OP_TIME_SPANS.items():
            samples[metric].append(sum(time_by[n] for n in names))
        for metric, name in OP_CALL_SPANS.items():
            samples[metric].append(calls_by[name])
        kernel_ms = sum(time_by[f"kernel.{m}"] for m in KERNEL_METHODS)
        kernel_evals = sum(evals_by[f"kernel.{m}"] for m in KERNEL_METHODS)
        for m in KERNEL_METHODS:
            samples[f"kernel.{m}.evals"].append(evals_by[f"kernel.{m}"])
        samples["kernel.evals"].append(kernel_evals)
        samples["kernel.ns_per_eval"].append(_ratio(kernel_ms * 1e6, kernel_evals))

        for method in ("acagp.aca_gp", "lowrank.aca"):
            infos = [s[INFO] for s in op_spans if s[NAME] == method]
            evals = sum(i["evals"] for i in infos)
            samples[f"{method}.ns_per_eval"].append(
                _ratio(time_by[method] * 1e6, evals)
            )
            if method == "acagp.aca_gp":
                samples["acagp.probe_evals"].append(
                    sum(i["evals"] - i["rank"] * (i["n"] + i["m"]) for i in infos)
                )
                samples["acagp.circle_fallbacks"].append(
                    sum(i["circle_fallbacks"] for i in infos)
                )
            else:
                rank = sum(i["rank"] for i in infos)
                rows = sum((i["evals"] - i["rank"] * i["n"]) / i["m"] for i in infos)
                samples["lowrank.aca.row_yield"].append(_ratio(rank, rows))
        samples["lowrank.skeleton_to_json.bytes"].append(
            sum(s[INFO]["bytes"] for s in op_spans
                if s[NAME] == "lowrank.skeleton_to_json")
        )
        pool = [s for s in op_spans if s[NAME] == "experiments.run_realizations"]
        busy = sum(ms(s) for s in op_spans if s[NAME] == "experiments.run_realization")
        samples["experiments.pool_efficiency"].append(
            _ratio(busy, sum(ms(s) * s[INFO]["workers"] for s in pool))
        )
        samples["cli.main.self_ms"].append(
            sum(ms(s) - child_ms[s[ID]] for s in op_spans if s[NAME] == "cli.main")
        )

    placements = [ms(s) for s in top if s[NAME] == "geometry.place_clouds"]
    realizations = [s for s in top if s[NAME] == "experiments.run_realization"]
    real_ms = [ms(s) for s in realizations]
    samples["geometry.place_clouds.ms.p50"] = placements
    samples["geometry.place_clouds.ms.p90"] = placements
    samples["experiments.run_realization.ms.p50"] = real_ms
    samples["experiments.run_realization.ms.p90"] = real_ms
    samples["experiments.run_realization.self_ms"] = [
        ms(s) - child_ms[s[ID]] for s in realizations
    ]
    return dict(samples)
