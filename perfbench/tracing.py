"""Layer spans for the benchmark's traced run.

The benchmark wraps each layer's public entry point in its own code:
the wrappers are installed on the program's modules and classes for a
traced phase and removed afterwards.  The program's own telemetry is
not used, so a change to it cannot move these numbers.

A span records its layer, start, end and parent.  A layer's self time
is the duration of its spans minus the time covered by their child
spans, so the self times of all layers add up to the traced wall time.
A call into a layer from inside the same layer opens no new span: the
outer span already covers it.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import statistics
import sys
import threading
import time
from collections import defaultdict

#: Every layer the traced run reports, in report order.  ``engine``,
#: ``serving`` and ``model`` are the orchestration layers; the others
#: do the numerical work.
LAYERS = (
    "kernels", "geometry", "compression", "assembly", "factorize",
    "solve", "engine", "serving", "model",
)
ORCHESTRATION = ("engine", "serving", "model")


def _nbytes(obj) -> int:
    """Bytes of the arrays an opaque geometry object holds."""
    total = getattr(obj, "nbytes", None)
    if isinstance(total, int):
        return total
    return sum(
        v.nbytes for v in getattr(obj, "__dict__", {}).values()
        if hasattr(v, "nbytes") and hasattr(v, "dtype")
    )


class Recorder:
    """In-memory spans and counters, grouped by phase.

    ``phase`` is ``None`` outside traced phases; wrappers then call
    straight through.
    """

    def __init__(self) -> None:
        self.phase: str | None = None
        self.spans: list[list] = []  # [phase, layer, t0, t1, parent]
        self.counts: dict[tuple[str, str], float] = defaultdict(float)
        self.plans: dict[str, list] = defaultdict(list)
        self.factorizations: dict[str, list] = defaultdict(list)
        self.last_plan = None
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def inside(self, layer: str) -> bool:
        stack = self._stack()
        return bool(stack) and self.spans[stack[-1]][1] == layer

    def open(self, layer: str) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else None
        self.spans.append([self.phase, layer, time.perf_counter(), None, parent])
        stack.append(len(self.spans) - 1)
        return stack[-1]

    def close(self, idx: int) -> None:
        self.spans[idx][3] = time.perf_counter()
        self._stack().pop()

    def count(self, layer: str, key: str, value: float = 1.0) -> None:
        self.counts[(self.phase, f"{layer}.{key}")] += value

    @contextlib.contextmanager
    def region(self, layer: str):
        """A span opened by the benchmark itself."""
        idx = self.open(layer)
        try:
            yield
        finally:
            self.close(idx)

    # ------------------------------------------------------------------
    def self_times(self, phase: str) -> tuple[dict, dict, list]:
        """Per-layer self time and outermost-call count of one phase,
        and the indices of its top-level spans."""
        child = defaultdict(float)
        for span in self.spans:
            if span[0] == phase and span[4] is not None:
                child[span[4]] += span[3] - span[2]
        busy: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        top = []
        for idx, (ph, layer, t0, t1, parent) in enumerate(self.spans):
            if ph != phase:
                continue
            busy[layer] += (t1 - t0) - child[idx]
            calls[layer] += 1
            if parent is None:
                top.append(idx)
        return busy, calls, top


# ----------------------------------------------------------------------
# counter hooks: (recorder, layer, args, result, before) -> None
# ----------------------------------------------------------------------
def _kernel_entries(rec, layer, args, result, before):
    if isinstance(result, list):
        rec.count(layer, "entries", sum(a.size for a in result))
    else:
        rec.count(layer, "entries", result.size)


def _geometry_before(args):
    return getattr(args[0], "misses", 0)


def _geometry_lookup(rec, layer, args, result, before):
    if getattr(args[0], "misses", 0) > before:
        rec.count(layer, "misses")
        rec.count(layer, "bytes", _nbytes(result))
    else:
        rec.count(layer, "hits")


def _assembly_plan(rec, layer, args, result, before):
    plan = result[1].plan
    rec.last_plan = plan
    rec.plans[rec.phase].append(plan)


def _compress_one(rec, layer, args, result, before):
    rec.count(layer, "tiles")
    rec.count(layer, "rank_sum", result[0])


def _compress_many(rec, layer, args, result, before):
    rec.count(layer, "tiles", len(result))
    rec.count(layer, "rank_sum", sum(r[0] for r in result.values()))


def _factorization(rec, layer, args, result, before):
    factor, run = result
    stats = getattr(run, "stats", run)
    rec.count(layer, "tasks", sum(stats.kernel_counts.values()))
    rec.count(layer, "densified_tiles", stats.densified_tiles)
    rec.count(layer, "retries", getattr(stats, "retries", 0))
    rec.factorizations[rec.phase].append((rec.last_plan, factor.nbytes))


def _rhs_columns(rec, layer, args, result, before):
    rhs = args[-1]
    rec.count(layer, "rhs_columns", rhs.shape[1] if rhs.ndim == 2 else 1)


#: ``(layer, module, attribute, before-hook, after-hook)`` of every
#: program entry point the traced run wraps, and the kernel methods it
#: wraps.  An entry point or method a later change removed is skipped
#: (and listed in the run's output).
ENTRY_POINTS = (
    ("geometry", "repro.tile.geometry", "GeometryCache.tile_geometry",
     _geometry_before, _geometry_lookup),
    ("geometry", "repro.tile.geometry", "GeometryCache.pair_geometry",
     _geometry_before, _geometry_lookup),
    ("assembly", "repro.tile.assembly", "build_planned_covariance",
     None, _assembly_plan),
    ("compression", "repro.tile.compression", "compress_or_rank",
     None, _compress_one),
    ("compression", "repro.tile.compression", "compress_many",
     None, _compress_many),
    ("factorize", "repro.tile.cholesky", "tile_cholesky",
     None, _factorization),
    ("factorize", "repro.runtime.parallel", "execute_cholesky_parallel",
     None, _factorization),
    ("factorize", "repro.runtime.batchdispatch", "execute_cholesky_batched",
     None, _factorization),
    ("factorize", "repro.runtime.procpool", "ProcessPoolEngine.execute",
     None, _factorization),
    ("solve", "repro.tile.solve", "tile_logdet", None, None),
    ("solve", "repro.tile.solve", "forward_solve", None, _rhs_columns),
    ("solve", "repro.tile.solve", "PanelSolver.forward", None, _rhs_columns),
    ("serving", "repro.core.serving", "PredictionEngine.predict", None, None),
    ("model", "repro.core.model", "ExaGeoStatModel.predict", None, None),
)
KERNEL_METHODS = ("__call__", "from_geometry", "from_geometry_batch")


def _wrap(rec: Recorder, layer: str, fn, before_hook, after_hook):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if rec.phase is None or rec.inside(layer):
            return fn(*args, **kwargs)
        before = before_hook(args) if before_hook is not None else None
        idx = rec.open(layer)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(idx)
        if after_hook is not None:
            after_hook(rec, layer, args, result, before)
        return result

    return wrapper


class Instrumentation:
    """Installs the span wrappers; :meth:`remove` restores the program."""

    def __init__(self, rec: Recorder, kernel_cls: type):
        self.rec = rec
        self.kernel_cls = kernel_cls
        self.skipped: list[str] = []
        self._undo: list = []

    def install(self) -> None:
        for layer, module, attr, before, after in ENTRY_POINTS:
            try:
                mod = importlib.import_module(module)
                owner_name, _, name = attr.rpartition(".")
                owner = getattr(mod, owner_name) if owner_name else mod
                getattr(owner, name)
            except (ImportError, AttributeError):
                self.skipped.append(f"{module}.{attr}")
                continue
            if owner_name:
                self._patch_method(owner, name, layer, before, after)
            else:
                self._patch_function(mod, name, layer, before, after)
        for name in KERNEL_METHODS:
            if not hasattr(self.kernel_cls, name):
                self.skipped.append(f"{self.kernel_cls.__name__}.{name}")
                continue
            self._patch_method(
                self.kernel_cls, name, "kernels", None, _kernel_entries
            )

    def _patch_method(self, cls, name, layer, before, after) -> None:
        own = cls.__dict__.get(name)
        fn = getattr(cls, name)
        setattr(cls, name, _wrap(self.rec, layer, fn, before, after))
        if own is None:
            self._undo.append(lambda: delattr(cls, name))
        else:
            self._undo.append(lambda: setattr(cls, name, own))

    def _patch_function(self, mod, name, layer, before, after) -> None:
        """Rebind the function in every program module that imported
        it by name, so ``from x import f`` call sites see the wrapper."""
        fn = getattr(mod, name)
        wrapped = _wrap(self.rec, layer, fn, before, after)
        for mod_name, module in list(sys.modules.items()):
            if not (mod_name == "repro" or mod_name.startswith("repro.")):
                continue
            for key, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, key, wrapped)
                    self._undo.append(
                        lambda m=module, k=key: setattr(m, k, fn)
                    )

    def remove(self) -> None:
        while self._undo:
            self._undo.pop()()


def median_or_zero(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0
