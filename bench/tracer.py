"""Outside-in tracer: spans around the public functions of each ladderforge
layer, installed from the benchmark's own files.  No file of the package
changes.

``instrument(tracer)`` wraps every function named in a layer module's
``__all__`` (``cli.run`` for the CLI, which has no ``__all__``) wherever it is
bound in a ``ladderforge.*`` namespace, and counts calls to
``Operator.__matmul__`` with the stored entries of each product.  Spans are
kept in memory as tuples and written out once, at the end of a run.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import itertools
import json
import sys
import threading
import time
from collections import defaultdict

LAYERS = ("fock", "params", "catalogue", "transforms", "reductions", "eigenstates",
          "spectra", "chen", "cli")

# span tuple layout, also the keys of each line of spans.jsonl
FIELDS = ("id", "name", "start", "end", "parent", "request", "dim", "nnz", "error")
SID, NAME, START, END, PARENT, REQUEST, DIM, NNZ, ERR = range(len(FIELDS))


def _size(args) -> tuple[int | None, int | None]:
    """dim and nnz of the first argument that carries them."""
    for a in args:
        nnz = getattr(a, "nnz", None) if hasattr(a, "mat") else None
        cut = getattr(a, "cutoff", a)
        dim = getattr(cut, "dim", None)
        if isinstance(dim, int):
            return dim, nnz
    return None, None


class Tracer:
    """Span recorder.  One client drives it; worker threads that a traced
    call starts are parented to the innermost span of the thread that
    started the request."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.request: str | None = None
        self._local = threading.local()
        self._main = threading.main_thread()
        self._main_stack: list[int] = []
        self._ids = itertools.count()

    def _stack(self) -> list[int]:
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str, args=()):
        stack = self._stack()
        parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else None)
        sid = next(self._ids)
        dim, nnz = _size(args)
        stack.append(sid)
        failed = True
        start = time.perf_counter()
        try:
            yield
            failed = False
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((sid, name, start, end, parent, self.request, dim, nnz,
                               failed))

    def wrap(self, name: str, fn, observe=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name, args):
                result = fn(*args, **kwargs)
            if observe is not None:
                observe(self, result)
            return result
        return traced

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(dict(zip(FIELDS, s))) + "\n")


def read_spans(path: str) -> list[tuple]:
    with open(path, encoding="utf-8") as fh:
        return [tuple(d[k] for k in FIELDS) for d in map(json.loads, fh)]


def _observe_chain(tracer: Tracer, report) -> None:
    entries = getattr(report, "entries", [])
    tracer.counts["spectra.raising_chain.reported"] += len(entries)
    tracer.counts["spectra.raising_chain.certified"] += sum(1 for e in entries if e.certified)


_OBSERVERS = {"spectra.raising_chain": _observe_chain}


def _public_functions(layer: str, module) -> list[str]:
    names = ["run"] if layer == "cli" else list(getattr(module, "__all__", []))
    return [n for n in names if inspect.isfunction(getattr(module, n, None))]


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Install the wrappers for the duration of the block."""
    replacements = {}
    for layer in LAYERS:
        module = importlib.import_module(f"ladderforge.{layer}")
        for fname in _public_functions(layer, module):
            fn = getattr(module, fname)
            if id(fn) not in replacements:
                name = f"{layer}.{fname}"
                replacements[id(fn)] = (fn, tracer.wrap(name, fn, _OBSERVERS.get(name)))

    patched = []
    for modname, module in list(sys.modules.items()):
        if modname != "ladderforge" and not modname.startswith("ladderforge."):
            continue
        for attr, value in list(vars(module).items()):
            hit = replacements.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, attr, hit[1])
                patched.append((module, attr, value))

    from ladderforge.fock import Operator
    matmul = Operator.__matmul__

    def counted_matmul(self, other):
        out = matmul(self, other)
        tracer.counts["fock.matmul.calls"] += 1
        tracer.counts["fock.matmul.nnz_out"] += out.nnz
        return out

    Operator.__matmul__ = counted_matmul
    try:
        yield tracer
    finally:
        Operator.__matmul__ = matmul
        for module, attr, value in patched:
            setattr(module, attr, value)


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------

def self_times(spans: list[tuple]) -> dict[int, float]:
    """Span id -> duration minus the part of it that child spans cover."""
    children = defaultdict(list)
    for s in spans:
        if s[PARENT] is not None:
            children[s[PARENT]].append((s[START], s[END]))
    out = {}
    for s in spans:
        covered = 0.0
        lo = s[START]
        for a, b in sorted(children.get(s[SID], ())):
            a, b = max(a, lo), min(b, s[END])
            if b > a:
                covered += b - a
                lo = b
        out[s[SID]] = (s[END] - s[START]) - covered
    return out


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


# per-layer metrics, each normalized per traced cycle
_CALLS = ("transforms.expm", "transforms.build_unitary", "reductions.reduce_by_similarity",
          "spectra.diagonalize_oracle", "fock.apply", "fock.build_generators")
_SELF = ("transforms.expm", "transforms.similarity", "reductions.reduce_by_similarity",
         "params.hamiltonian_params_from_matrix", "params.ladder_coeffs_from_matrix",
         "fock.shell_projector", "spectra.diagonalize_oracle", "spectra.raising_chain",
         "eigenstates.verify_eigenstate", "fock.apply_creation_series",
         "fock.state_to_json", "fock.state_to_csv", "fock.build_generators",
         "fock.commutator", "fock.interior_projector", "params.solve_ladder",
         "params.build_hamiltonian", "params.build_ladder", "params.verify_ladder",
         "catalogue.appendix_catalogue")
_ERRORS = ("reductions.reduce_by_similarity",)
_GROUPS = {
    "eigenstates.construct": ("eigenstates.fractional_lambda_state",
                              "eigenstates.fractional_separable_cs",
                              "eigenstates.isotropic_states", "eigenstates.basic21_states",
                              "eigenstates.su2_ground", "eigenstates.linear_coupled_states"),
    "chen.build": ("chen.build_H_pq", "chen.build_calA_pq", "chen.build_A_pq_generalized"),
    "chen.states": ("chen.chen_ground", "chen.degenerate_zero_states", "chen.tilde0_state"),
}

PER_LAYER = (
    [(f"{n}.calls", "calls/cycle", "lower") for n in _CALLS]
    + [(f"{n}.self_s", "s/cycle", "lower") for n in _SELF]
    + [(f"{n}.errors", "errors/cycle", "lower") for n in _ERRORS]
    + [(f"{g}.self_s", "s/cycle", "lower") for g in _GROUPS]
    + [(f"{layer}.self_s", "s/cycle", "lower") for layer in LAYERS]
    + [(f"{layer}.errors", "errors/cycle", "lower") for layer in LAYERS]
    + [("fock.matmul.calls", "calls/cycle", "lower"),
       ("fock.matmul.nnz_out", "entries/cycle", "lower"),
       ("spectra.raising_chain.certified_ratio", "ratio", "higher"),
       ("trace.overhead_s", "s/cycle", "lower")]
)


def layer_metrics(spans: list[tuple], counts: dict, cycles: int,
                  overhead_s: float) -> dict[str, float]:
    """Per-cycle values of every PER_LAYER metric.

    A layer's errors are exceptions that leave the layer: raised out of one
    of its public functions to a caller outside the layer."""
    own = self_times(spans)
    layer_by_id = {s[SID]: layer_of(s[NAME]) for s in spans}
    calls = defaultdict(int)
    self_s = defaultdict(float)
    errors = defaultdict(int)
    for s in spans:
        name, layer = s[NAME], layer_by_id[s[SID]]
        calls[name] += 1
        self_s[name] += own[s[SID]]
        self_s[layer] += own[s[SID]]
        if s[ERR]:
            errors[name] += 1
            if layer_by_id.get(s[PARENT]) != layer:
                errors[layer] += 1
    for group, members in _GROUPS.items():
        self_s[group] = sum(self_s[m] for m in members)
    reported = counts.get("spectra.raising_chain.reported", 0)
    certified = counts.get("spectra.raising_chain.certified", 0)
    out = {}
    for name, _, _ in PER_LAYER:
        key, _, kind = name.rpartition(".")
        if kind == "calls":
            out[name] = (counts.get(name, 0) if key == "fock.matmul" else calls[key]) / cycles
        elif kind == "self_s":
            out[name] = self_s[key] / cycles
        elif kind == "errors":
            out[name] = errors[key] / cycles
    out["fock.matmul.nnz_out"] = counts.get("fock.matmul.nnz_out", 0) / cycles
    out["spectra.raising_chain.certified_ratio"] = certified / reported if reported else 0.0
    out["trace.overhead_s"] = overhead_s
    return out
