"""In-memory span tracing of swapkit's public functions, from outside `src/`.

`Tracer.install()` replaces each traced function with a wrapper in every
`swapkit.*` namespace that binds it, and wraps classes through their
`__init__` so that no class object is ever replaced.  A wrapper records one
span per call: layer name, start, end, parent span and the id of the
operation that was running.  A call made directly inside a span of the same
layer is folded into that span (`is_isomorphism` calls
`is_full_homomorphism`), so a layer's calls count boundary crossings, not
internal recursion.  `Tracer.uninstall()` restores the originals.

Spans stay in memory; `write_spans` writes them out once the run is over,
and `layer_stats` turns them into per-layer calls, self time and total time.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from typing import Callable, Iterable, Optional

#: Traced functions: layer name -> (module, attribute) pairs.  One layer may
#: cover several functions (the four homomorphism/submultialgebra checks).
FUNCTION_LAYERS = {
    "formula.parse": [("swapkit.formula", "parse")],
    "formula.to_text": [("swapkit.formula", "to_text")],
    "nmatrix.decide": [("swapkit.nmatrix", "decide")],
    "nmatrix.nmatrix_of": [("swapkit.nmatrix", "nmatrix_of")],
    "swap.characterize": [("swapkit.swap", "characterize")],
    "swap.validates": [("swapkit.swap", "validates")],
    "swap.random_swap_substructure": [("swapkit.swap", "random_swap_substructure")],
    "swap.is_swap_for": [("swapkit.swap", "is_swap_for")],
    "swap.full_swap": [("swapkit.swap", "full_swap")],
    "swap.represent": [("swapkit.swap", "represent")],
    "swap.kalman_star": [("swapkit.swap", "kalman_star")],
    "swap.product_iso": [("swapkit.swap", "product_iso")],
    "multialg.ma_product": [("swapkit.multialg", "ma_product")],
    "multialg.hom_check": [("swapkit.multialg", "is_homomorphism"),
                           ("swapkit.multialg", "is_full_homomorphism"),
                           ("swapkit.multialg", "is_isomorphism"),
                           ("swapkit.multialg", "is_submultialgebra")],
}

#: Traced constructors: layer name -> (module, class).
INIT_LAYERS = {
    "multialg.MultiAlg_init": ("swapkit.multialg", "MultiAlg"),
}

LAYERS = tuple(FUNCTION_LAYERS) + tuple(INIT_LAYERS)

# span record fields
LAYER, START, END, PARENT, OP = range(5)


class Tracer:
    """Records spans at layer boundaries while installed."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op_id: Optional[int] = None
        self.decide_calls: list[tuple] = []   # (premises, goal, holds, op id)
        self.cells_built: dict[Optional[int], int] = defaultdict(int)
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        swapkit_modules = [m for name, m in list(sys.modules.items())
                           if name == "swapkit" or name.startswith("swapkit.")]
        for layer, targets in FUNCTION_LAYERS.items():
            for module_name, attr in targets:
                original = getattr(sys.modules[module_name], attr)
                wrapped = self._wrap(layer, original, self._after(layer))
                bound = 0
                for module in swapkit_modules:
                    for name, value in list(vars(module).items()):
                        if value is original:
                            self._restore.append((module, name, original))
                            setattr(module, name, wrapped)
                            bound += 1
                if not bound:  # pragma: no cover - the defining module binds it
                    raise RuntimeError(f"{module_name}.{attr} is bound nowhere")
        for layer, (module_name, cls_name) in INIT_LAYERS.items():
            cls = getattr(sys.modules[module_name], cls_name)
            original = cls.__dict__["__init__"]
            self._restore.append((cls, "__init__", original))
            cls.__init__ = self._wrap(layer, original, self._count_cells)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()

    def _after(self, layer: str) -> Optional[Callable]:
        if layer == "nmatrix.decide":
            return self._record_decide
        return None

    def _record_decide(self, result, args, kwargs) -> None:
        _matrix, premises, goal = _decide_args(args, kwargs)
        self.decide_calls.append((tuple(premises), goal, result.holds,
                                  self.op_id))

    def _count_cells(self, _result, args, _kwargs) -> None:
        self.cells_built[self.op_id] += args[0].cell_count()

    def _wrap(self, layer: str, fn: Callable,
              after: Optional[Callable]) -> Callable:
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            if stack and spans[stack[-1]][LAYER] == layer:
                return fn(*args, **kwargs)
            record = [layer, 0.0, 0.0, stack[-1] if stack else -1,
                      tracer.op_id]
            stack.append(len(spans))
            spans.append(record)
            record[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[END] = clock()
                stack.pop()
            if after is not None:
                after(result, args, kwargs)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", layer)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced


def _decide_args(args, kwargs):
    names = ("matrix", "premises", "goal")
    values = dict(zip(names, args))
    values.update(kwargs)
    return values["matrix"], values["premises"], values["goal"]


# ----------------------------------------------------------------------
# Span arithmetic
# ----------------------------------------------------------------------

def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of it that child spans cover.

    Child intervals are clipped to the parent and merged before they are
    subtracted, so overlapping or overhanging children are not counted twice.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span[PARENT] >= 0:
            children[span[PARENT]].append((span[START], span[END]))
    out = []
    for sid, span in enumerate(spans):
        start, end = span[START], span[END]
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(sid, ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out.append(end - start - covered)
    return out


def layer_stats(spans: list[list], layers: Iterable[str] = LAYERS
                ) -> dict[str, dict[str, float]]:
    """Per layer: calls, self_s and total_s over spans that belong to an op.

    Spans recorded outside any op (set-up) are left out.  A span nested,
    through other layers, inside a span of its own layer adds its self time
    but not its duration again, so total_s never counts an interval twice.
    """
    stats = {layer: _empty() for layer in layers}
    own = self_times(spans)
    for sid, span in enumerate(spans):
        if span[OP] is None:
            continue
        entry = stats.setdefault(span[LAYER], _empty())
        entry["calls"] += 1
        entry["self_s"] += own[sid]
        if not _has_ancestor_in(spans, sid, span[LAYER]):
            entry["total_s"] += span[END] - span[START]
    return stats


def _empty() -> dict:
    return {"calls": 0, "self_s": 0.0, "total_s": 0.0}


def _has_ancestor_in(spans: list[list], sid: int, layer: str) -> bool:
    parent = spans[sid][PARENT]
    while parent >= 0:
        if spans[parent][LAYER] == layer:
            return True
        parent = spans[parent][PARENT]
    return False


def merge_stats(into: dict[str, dict[str, float]],
                more: dict[str, dict[str, float]]) -> None:
    for layer, entry in more.items():
        target = into.setdefault(layer, _empty())
        for key, value in entry.items():
            target[key] += value


def write_spans(path, spans: list[list]) -> None:
    """One span per line: layer, start, end, parent index, op id."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("layer,start,end,parent,op\n")
        for span in spans:
            op = "" if span[OP] is None else span[OP]
            fh.write(f"{span[LAYER]},{span[START]!r},{span[END]!r},"
                     f"{span[PARENT]},{op}\n")


# ----------------------------------------------------------------------
# Summaries and per-layer metrics
# ----------------------------------------------------------------------

def summary(tracer: Tracer) -> dict:
    """Layer stats plus the counts measured at the boundaries, over ops."""
    from swapkit.formula import subformula_closure
    decides = [c for c in tracer.decide_calls if c[3] is not None]
    return {
        "layers": layer_stats(tracer.spans),
        "decide_calls": len(decides),
        "decide_holds": sum(1 for c in decides if c[2]),
        "closure_nodes": sum(len(subformula_closure(list(p) + [g]))
                             for p, g, _holds, _op in decides),
        "characterize_ops": len({s[OP] for s in tracer.spans
                                 if s[LAYER] == "swap.characterize"
                                 and s[OP] is not None}),
        "cells_built": sum(n for op, n in tracer.cells_built.items()
                           if op is not None),
    }


def merge_summaries(into: dict, more: dict) -> None:
    merge_stats(into.setdefault("layers", {}), more["layers"])
    for key, value in more.items():
        if key != "layers":
            into[key] = into.get(key, 0) + value


#: Layers reported with calls, self_s and total_s; swap.validates reports
#: calls only, since its time is almost all nmatrix.decide.
TIMED_LAYERS = tuple(layer for layer in LAYERS if layer != "swap.validates")


def layer_metrics(summary: dict, bytes_per_cell: float, cli_import_s: float,
                  cli_run_s: float, overhead_ops_per_s: float) -> dict:
    """The per-layer metrics, name -> (value, unit)."""
    layers = summary["layers"]
    out = {}
    for layer in TIMED_LAYERS:
        entry = layers.get(layer, _empty())
        out[f"{layer}.calls"] = (entry["calls"], "count")
        out[f"{layer}.self_s"] = (entry["self_s"], "s")
        out[f"{layer}.total_s"] = (entry["total_s"], "s")
    decides = summary["decide_calls"]
    validates = layers.get("swap.validates", {}).get("calls", 0)
    candidates = summary["characterize_ops"]
    out["formula.closure_nodes"] = (summary["closure_nodes"], "count")
    out["nmatrix.decide.holds_ratio"] = (
        summary["decide_holds"] / decides if decides else 0.0, "ratio")
    out["swap.validates.calls"] = (validates, "count")
    out["swap.validates_per_candidate"] = (
        validates / candidates if candidates else 0.0, "ratio")
    out["multialg.cells_built"] = (summary["cells_built"], "count")
    out["multialg.bytes_per_cell"] = (bytes_per_cell, "B")
    out["cli.import_s"] = (cli_import_s, "s")
    out["cli.run_s"] = (cli_run_s, "s")
    out["trace.overhead_ops_per_s"] = (overhead_ops_per_s, "1/s")
    return out


def guard_errors(layers: dict, hit: Iterable[str],
                 zero: Iterable[str]) -> list[str]:
    """Boundaries that should be crossed but were not, and the reverse.

    A refactor that bypasses a wrapper shows up here instead of reading as
    a speed-up."""
    errors = []
    for layer in hit:
        if layers.get(layer, {}).get("calls", 0) == 0:
            errors.append(f"{layer} recorded no calls; the workload must "
                          "cross it")
    for layer in zero:
        calls = layers.get(layer, {}).get("calls", 0)
        if calls:
            errors.append(f"{layer} recorded {calls} calls; predicted none")
    return errors
