"""In-process tracing of the qgms layers, from outside the package.

``Tracer.install`` replaces the public functions of every qgms module
(plus the few private ones named in ``EXTRA``) with wrappers that record
a span each: name, layer, start, end and the enclosing span. A function
is rebound everywhere it is reachable by name, including the
``from .x import y`` copies other modules hold and module-level dicts
such as ``verify.SUITES``, so calls inside the package are seen too.
``uninstall`` restores every binding. Nothing under ``src/`` changes.

Hooks attached to the engine entry points add work counts (gates,
support sizes, bytes) at the same boundaries. Their own cost is recorded
as a ``trace.bookkeeping`` span, so it leaves every layer's self time.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import time
from dataclasses import dataclass
from typing import Callable

# Module -> layer of its functions, unless LAYER_OF names another.
MODULE_LAYER = {
    "gf2": "gf2",
    "circuit": "circuit",
    "sim": "sim",
    "synth": "synth.build",
    "oracles": "oracles",
    "amplify": "amplify",
    "counting": "counting",
    "analysis": "analysis",
    "verify": "verify",
    "cli": "cli",
}
LAYER_OF = {
    "circuit.resource_profile": "circuit.profile",
    "sim.sparse_apply": "sim.sparse",
    "sim.run_sparse": "sim.sparse",
    "sim.sparse_marginal": "sim.sparse",
    "sim.sparse_to_dense": "sim.sparse",
    "sim.run": "sim.dense",
    "sim.measure": "sim.dense",
    "sim.full_distribution": "sim.dense",
    "sim.dump_state": "sim.dense",
    "sim.run_basis": "sim.basis",
    "sim.pack_bits": "sim.basis",
    "sim.extract_bits": "sim.basis",
    "analysis.build_gms_circuit": "analysis.build_circuit",
    "analysis.prep_circuit": "analysis.prep",
    "analysis.prepare_initial_state": "analysis.prep",
    "analysis.classifier_mask": "analysis.masks",
    "analysis.success_mask": "analysis.masks",
    "analysis.rank_only_mask": "analysis.masks",
    "analysis._accept_table": "analysis.accept_table",
    "analysis.ug_classifier": "analysis.accept_table",
    "analysis.run_gms": "analysis.run_gms",
    "analysis.amplitude_stats": "analysis.stats",
    "analysis.two_to_one_model": "analysis.stats",
    "analysis.optimal_iterations": "analysis.stats",
    "analysis.query_ratio": "analysis.stats",
    "analysis.character_sum": "analysis.stats",
    "analysis.coset_character_sum": "analysis.stats",
    "analysis.hybrid_baseline": "analysis.hybrid",
    "analysis.hybrid_accept": "analysis.hybrid",
    "analysis.deferred_vs_immediate": "analysis.deferred",
    "analysis.analysis_report": "analysis.report",
    "verify.suite_gf2": "verify.gf2",
    "verify.suite_circuits": "verify.circuits",
    "verify.suite_counting": "verify.counting",
    "verify.suite_deferred": "verify.deferred",
    "verify.suite_gms": "verify.gms",
    "verify._norm_deviation": "verify.norm_deviation",
    "verify._solver_equivalence": "verify.solver_equivalence",
}
# Private functions traced because a per-layer metric names them.
EXTRA = (
    "analysis._accept_table",
    "oracles._permutation_family",
    "verify._norm_deviation",
    "verify._solver_equivalence",
)
# lru-cached functions whose caches each timed operation starts cold.
CACHED = (
    "analysis._accept_table",
    "oracles._permutation_family",
    "verify.reference_run",
)

BOOKKEEPING = "trace.bookkeeping"


@dataclass(frozen=True)
class Span:
    """One traced call; times are perf_counter_ns, parent is a span id."""

    id: int
    name: str
    layer: str
    start: int
    end: int
    parent: int | None


def _is_traceable(obj, module_name: str) -> bool:
    is_cached = hasattr(obj, "cache_info") and hasattr(obj, "__wrapped__")
    if not (inspect.isfunction(obj) or is_cached):
        return False
    if getattr(obj, "__module__", None) != module_name:
        return False
    # A generator's span would end before its body runs.
    return not inspect.isgeneratorfunction(getattr(obj, "__wrapped__", obj))


def traced_functions() -> dict[str, object]:
    """``{"module.func": function}`` for every function to wrap."""
    out = {}
    for short in MODULE_LAYER:
        module = importlib.import_module(f"qgms.{short}")
        for attr, obj in vars(module).items():
            key = f"{short}.{attr}"
            if attr.startswith("_") and key not in EXTRA:
                continue
            if _is_traceable(obj, module.__name__):
                out[key] = obj
    return out


def cached_functions() -> list:
    """The original lru-cached callables listed in CACHED."""
    out = []
    for key in CACHED:
        short, attr = key.split(".")
        out.append(getattr(importlib.import_module(f"qgms.{short}"), attr))
    return out


# ---------------------------------------------------------------------------
# Counter hooks: (counts, args, kwargs, result) -> None


def _bump(counts: dict, key: str, value) -> None:
    counts[key] = counts.get(key, 0) + value


def _peak(counts: dict, key: str, value) -> None:
    counts[key] = max(counts.get(key, value), value)


def _sparse_hook(counts, args, kwargs, result) -> None:
    state = args[0] if args else kwargs["state"]
    gates = args[1] if len(args) > 1 else kwargs["gates"]
    support = max(len(state), len(result))
    _bump(counts, "sim.sparse.gates", len(gates))
    _bump(counts, "sim.sparse.amp_gate_updates", len(gates) * support)
    _peak(counts, "sim.sparse.peak_support", support)
    mass_in = sum((a * a.conjugate()).real for a in state.values())
    mass_out = sum((a * a.conjugate()).real for a in result.values())
    _peak(counts, "sim.sparse.norm_loss", mass_in - mass_out)


def _dense_hook(counts, args, kwargs, result) -> None:
    circ = args[0] if args else kwargs["circ"]
    _bump(counts, "sim.dense.gates", len(circ.gates))
    _bump(counts, "sim.dense.bytes_computed", len(circ.gates) * result.amps.nbytes)
    _peak(counts, "sim.dense.max_qubits", circ.qubit_count)


def _basis_hook(counts, args, kwargs, result) -> None:
    circ = args[0] if args else kwargs["circ"]
    _bump(counts, "sim.basis.gates", len(circ.gates))


def _build_circuit_hook(counts, args, kwargs, result) -> None:
    _bump(counts, "analysis.build_circuit.gates", len(result[0].gates))


def _run_gms_hook(counts, args, kwargs, result) -> None:
    _bump(counts, "analysis.rounds", len(result) - 1)


def _synthesis_hook(counts, args, kwargs, result) -> None:
    circuit = getattr(result, "circuit", None)
    if circuit is not None and hasattr(result, "stages"):
        _bump(counts, "synth.build.gates", len(circuit.gates))


def _to_text_hook(counts, args, kwargs, result) -> None:
    _bump(counts, "circuit.to_text.bytes", len(result))


HOOKS: dict[str, Callable] = {
    "sim.sparse_apply": _sparse_hook,
    "sim.run": _dense_hook,
    "sim.run_basis": _basis_hook,
    "analysis.build_gms_circuit": _build_circuit_hook,
    "analysis.run_gms": _run_gms_hook,
}


# ---------------------------------------------------------------------------
# The tracer


class Tracer:
    """Spans and counts of one process; install around the traced region."""

    def __init__(self):
        self.spans: list[Span | None] = []
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []
        self._restore: list[tuple[object, object, object]] = []

    # -- recording

    def _open(self) -> tuple[int, int | None]:
        sid = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        return sid, parent

    def _close(self, sid, parent, name, layer, start) -> None:
        end = time.perf_counter_ns()
        self._stack.pop()
        self.spans[sid] = Span(sid, name, layer, start, end, parent)

    @contextlib.contextmanager
    def span(self, name: str, layer: str):
        """Record one span around a block."""
        sid, parent = self._open()
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            self._close(sid, parent, name, layer, start)

    def wrap(self, fn, name: str, layer: str, hook: Callable | None = None):
        """``fn`` recording a span per call, then ``hook`` on its result."""

        def traced(*args, **kwargs):
            sid, parent = self._open()
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(sid, parent, name, layer, start)
            if hook is not None:
                # The traced call's span is closed, so this one becomes the
                # caller's child and leaves every layer's self time.
                with self.span(BOOKKEEPING, "trace"):
                    hook(self.counts, args, kwargs, result)
            return result

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        traced.__wrapped__ = fn
        return traced

    # -- installation

    def install(self) -> None:
        """Rebind every traced function in every module that can see it."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for key, fn in traced_functions().items():
            layer = LAYER_OF.get(key, MODULE_LAYER[key.split(".")[0]])
            hook = HOOKS.get(key)
            if hook is None and layer == "synth.build":
                hook = _synthesis_hook
            wrappers[id(fn)] = (fn, self.wrap(fn, key, layer, hook))

        modules = [importlib.import_module("qgms")]
        modules += [importlib.import_module(f"qgms.{m}") for m in MODULE_LAYER]
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, hit[1])
                elif type(value) is dict:
                    for k, v in list(value.items()):
                        hit = wrappers.get(id(v))
                        if hit is not None and hit[0] is v:
                            self._restore.append((value, k, v))
                            value[k] = hit[1]

        circuit_cls = importlib.import_module("qgms.circuit").Circuit
        original = circuit_cls.__dict__["to_text"]
        self._restore.append((circuit_cls, "to_text", original))
        circuit_cls.to_text = self.wrap(
            original, "circuit.Circuit.to_text", "circuit.to_text", _to_text_hook
        )

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._restore):
            if isinstance(owner, dict):
                owner[key] = value
            else:
                setattr(owner, key, value)
        self._restore.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


# ---------------------------------------------------------------------------
# Analysis of recorded spans


def self_times(spans: list[Span]) -> dict[int, int]:
    """Span id -> duration minus the time its direct children cover (ns).

    Calls are sequential in one thread, so children never overlap and
    their durations add up to the part of the parent they cover.
    """
    covered: dict[int, int] = {}
    for s in spans:
        if s.parent is not None:
            covered[s.parent] = covered.get(s.parent, 0) + (s.end - s.start)
    return {s.id: (s.end - s.start) - covered.get(s.id, 0) for s in spans}


def layer_summary(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per layer: self time (s), total time (s) and calls into the layer.

    A call counts when the span's parent belongs to another layer, so a
    layer calling itself (rank -> rref) is entered once. Total time sums
    the outermost spans of the layer only.
    """
    by_id = {s.id: s for s in spans}
    own = self_times(spans)
    out: dict[str, dict[str, float]] = {}
    for s in spans:
        row = out.setdefault(s.layer, {"self_s": 0.0, "wall_s": 0.0, "calls": 0})
        row["self_s"] += own[s.id] / 1e9
        parent = by_id.get(s.parent) if s.parent is not None else None
        if parent is None or parent.layer != s.layer:
            row["calls"] += 1
            row["wall_s"] += (s.end - s.start) / 1e9
    return out
