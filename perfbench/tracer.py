"""Span tracer that wraps ctreg's public functions from outside the library.

Each traced function is replaced, in every ``ctreg`` module namespace that
binds it, by a wrapper that records a span (name, start, end, parent, op).
Functions that call each other through module globals (``tuning`` binds
``canonicalize`` by name, ``fit_nct`` calls ``fit_gct``) therefore nest
their spans correctly.  A layer's self time is its span duration minus the
time covered by its direct child spans.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from typing import Callable, Dict, List, Tuple

# module -> public functions whose spans the per-layer metrics are built from
TARGETS: Dict[str, Tuple[str, ...]] = {
    "canonical": ("canonicalize", "canonical_ls", "to_beta"),
    "thresholding": ("apply_rule",),
    "tuning": (
        "kfold_cv",
        "fold_assignment",
        "breakpoints",
        "joint_cv",
        "kfold_cv_pcr",
        "kfold_cv_ridge",
    ),
    "estimators": ("fit_gct", "fit_pcr", "fit_ridge", "fit_min_norm_ls", "predict"),
    "kernel": ("gram", "fit_kernel_gct", "predict_kernel_batch", "kernel_canonicalize"),
    "simstudy": ("generate_scenario", "run_experiment"),
    "cli": ("read_csv", "main"),
}


def _canonicalize_counts(args, kwargs, result):
    design = (args[0] if args else kwargs["dataset"]).design
    return {"elems": design.shape[0] * design.shape[1], "rank_min": result.rank}


def _kernel_counts(args, kwargs, result):
    K = args[0] if args else kwargs["K"]
    return {"elems": K.shape[0] * K.shape[1]}


def _path_counts(args, kwargs, result):
    return {
        "segments": len(result.path_segments),
        "candidates": len(result.candidate_set),
    }


def _csv_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0] if args else kwargs["path"])}


# work counts read from a call's arguments or result: target -> (quantity
# names, reader).  Counts are summed per op; *_min quantities keep the minimum.
COUNTERS: Dict[str, Tuple[Tuple[str, ...], Callable]] = {
    "canonical.canonicalize": (("elems", "rank_min"), _canonicalize_counts),
    "kernel.kernel_canonicalize": (("elems",), _kernel_counts),
    "tuning.kfold_cv": (("segments", "candidates"), _path_counts),
    "cli.read_csv": (("bytes",), _csv_bytes),
}


class Tracer:
    """Records spans in memory while installed; nothing is traced otherwise."""

    def __init__(self) -> None:
        # span: [name, start, end, parent index or -1, op index]
        self.spans: List[list] = []
        self.counts: Dict[str, Dict[str, float]] = {}
        self.missing: List[str] = []
        self._stack: List[int] = []
        self._op = -1
        self._patches: List[Tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self._op])
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def start_op(self, op_index: int) -> int:
        self._op = op_index
        return self.begin("op")

    def _count(self, name: str, values: Dict[str, float]) -> None:
        totals = self.counts.setdefault(name, {})
        for key, value in values.items():
            if key.endswith("_min"):
                totals[key] = min(totals.get(key, value), value)
            else:
                totals[key] = totals.get(key, 0) + value

    def _wrap(self, name: str, func: Callable) -> Callable:
        counter = COUNTERS.get(name, ((), None))[1]

        @functools.wraps(func)
        def traced(*args, **kwargs):
            index = self.begin(name)
            try:
                result = func(*args, **kwargs)
            finally:
                self.end(index)
            if counter is not None:
                self._count(name, counter(args, kwargs, result))
            return result

        return traced

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        """Replace every ctreg binding of each target by its traced wrapper."""
        modules = [
            module
            for mod_name, module in list(sys.modules.items())
            if module is not None and (mod_name == "ctreg" or mod_name.startswith("ctreg."))
        ]
        self.missing = []
        for layer, names in TARGETS.items():
            home = sys.modules.get(f"ctreg.{layer}")
            for name in names:
                original = getattr(home, name, None) if home is not None else None
                if original is None:
                    self.missing.append(f"{layer}.{name}")
                    continue
                wrapper = self._wrap(f"{layer}.{name}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patches.append((module, attr, original))
                            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches = []

    # -- analysis ------------------------------------------------------------

    def self_times(self) -> Dict[str, Tuple[int, float]]:
        """Per span name: (calls, total self seconds)."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: Dict[str, Tuple[int, float]] = {}
        for (name, start, end, _, _), child in zip(self.spans, covered):
            calls, total = out.get(name, (0, 0.0))
            out[name] = (calls + 1, total + (end - start) - child)
        return out


def all_targets() -> List[str]:
    return [f"{layer}.{name}" for layer, names in TARGETS.items() for name in names]
