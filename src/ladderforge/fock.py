"""Truncated two-mode bosonic Fock space: basis bookkeeping, sparse operators,
states, and the generator set every other module is built from.

The basis is the occupation grid {|n1, n2> : 0 <= n_i <= n_i_max}, stored
row-major so that index(n1, n2) = n1 * (n2_max + 1) + n2.  Creation operators
are hard-truncated: a_i^dag maps the top occupation level to the zero vector.
Truncation artifacts are masked in all checks by restricting to interior
index sets (interior_residual).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np
import scipy.sparse as sp

from .errors import CutoffMismatch, LadderForgeError

__all__ = [
    "ToleranceConfig",
    "FockCutoff",
    "Operator",
    "TwoModeState",
    "GeneratorSet",
    "build_generators",
    "commutator",
    "interior_projector",
    "interior_indices",
    "shell_indices",
    "shell_projector",
    "interior_residual",
    "apply",
    "norm",
    "normalize",
    "basis_state",
    "vacuum_state",
    "apply_creation_series",
    "operator_to_json",
    "operator_from_json",
    "state_to_json",
    "state_from_json",
    "state_to_csv",
]


@dataclass(frozen=True)
class ToleranceConfig:
    """Single knob record for every numerical threshold used by the package."""

    algebra: float = 1e-12        # exact operator identities on the interior
    ladder: float = 1e-10         # commutator residual ||P([H,A]+A)P||
    eigen: float = 1e-8           # eigenstate residuals ||Av - lambda v||
    gate: float = 1e-10           # relative tolerance for algebraic gates (b^2 = 1, ...)
    nullspace_rel: float = 1e-11  # SVD threshold relative to max(1, largest singular value)
    zero_state: float = 1e-14     # below this norm a state cannot be normalized
    chain_mass: float = 1e-10     # amplitude mass allowed outside the safe interior


DEFAULT_TOL = ToleranceConfig()


@dataclass(frozen=True)
class FockCutoff:
    """Per-mode maximum occupations of the truncated basis."""

    n1_max: int
    n2_max: int

    def __post_init__(self):
        if self.n1_max < 0 or self.n2_max < 0:
            raise ValueError("occupation cutoffs must be non-negative")

    @property
    def dim(self) -> int:
        return (self.n1_max + 1) * (self.n2_max + 1)

    def index(self, n1: int, n2: int) -> int:
        if not (0 <= n1 <= self.n1_max and 0 <= n2 <= self.n2_max):
            raise IndexError(f"occupation ({n1},{n2}) outside cutoff {self}")
        return n1 * (self.n2_max + 1) + n2

    def occupations(self, index: int) -> tuple[int, int]:
        if not (0 <= index < self.dim):
            raise IndexError(f"basis index {index} outside dimension {self.dim}")
        return divmod(index, self.n2_max + 1)

    def states(self) -> Iterator[tuple[int, int]]:
        for n1 in range(self.n1_max + 1):
            for n2 in range(self.n2_max + 1):
                yield n1, n2


class Operator:
    """Sparse complex matrix over a fixed truncated basis."""

    __slots__ = ("cutoff", "mat")

    def __init__(self, cutoff: FockCutoff, mat):
        m = sp.csr_matrix(mat, dtype=np.complex128)
        if m.shape != (cutoff.dim, cutoff.dim):
            raise ValueError(f"matrix shape {m.shape} does not match dimension {cutoff.dim}")
        m.eliminate_zeros()
        m.sort_indices()
        self.cutoff = cutoff
        self.mat = m

    def _check(self, other: "Operator") -> None:
        if self.cutoff != other.cutoff:
            raise CutoffMismatch(f"{self.cutoff} vs {other.cutoff}")

    def dag(self) -> "Operator":
        return Operator(self.cutoff, self.mat.conj().T)

    def __add__(self, other: "Operator") -> "Operator":
        self._check(other)
        return Operator(self.cutoff, self.mat + other.mat)

    def __sub__(self, other: "Operator") -> "Operator":
        self._check(other)
        return Operator(self.cutoff, self.mat - other.mat)

    def __neg__(self) -> "Operator":
        return Operator(self.cutoff, -self.mat)

    def __mul__(self, scalar) -> "Operator":
        return Operator(self.cutoff, self.mat * complex(scalar))

    __rmul__ = __mul__

    def __truediv__(self, scalar) -> "Operator":
        return Operator(self.cutoff, self.mat / complex(scalar))

    def __matmul__(self, other: "Operator") -> "Operator":
        self._check(other)
        return Operator(self.cutoff, self.mat @ other.mat)

    def norm(self) -> float:
        """Frobenius norm."""
        return float(sp.linalg.norm(self.mat, "fro"))

    def to_dense(self) -> np.ndarray:
        return self.mat.toarray()

    @property
    def nnz(self) -> int:
        return self.mat.nnz

    def entries(self) -> Iterator[tuple[int, int, complex]]:
        """Stored entries in (row, col) order."""
        coo = self.mat.tocoo()
        order = np.lexsort((coo.col, coo.row))
        for k in order:
            yield int(coo.row[k]), int(coo.col[k]), complex(coo.data[k])

    def __repr__(self) -> str:
        return f"Operator(dim={self.cutoff.dim}, nnz={self.nnz})"


@dataclass
class TwoModeState:
    """Dense complex amplitude vector over the occupation grid."""

    cutoff: FockCutoff
    amplitudes: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.amplitudes, dtype=np.complex128).reshape(-1)
        if v.size != self.cutoff.dim:
            raise ValueError(f"amplitude length {v.size} does not match dimension {self.cutoff.dim}")
        self.amplitudes = v

    def overlap(self, other: "TwoModeState") -> complex:
        if self.cutoff != other.cutoff:
            raise CutoffMismatch(f"{self.cutoff} vs {other.cutoff}")
        return complex(np.vdot(self.amplitudes, other.amplitudes))

    def copy(self) -> "TwoModeState":
        return TwoModeState(self.cutoff, self.amplitudes.copy())


@dataclass(frozen=True)
class GeneratorSet:
    """All algebra generators realized as matrices on one truncated basis.

    n_op = (a1'a1 + a2'a2)/2, j3 = (a1'a1 - a2'a2)/2, j_plus = a1'a2,
    j_minus = a1 a2' (Schwinger realization built from the mode operators).
    """

    cutoff: FockCutoff
    a1: Operator
    a2: Operator
    a1_dag: Operator
    a2_dag: Operator
    identity: Operator
    n_op: Operator
    j3: Operator
    j_plus: Operator
    j_minus: Operator


def build_generators(cutoff: FockCutoff) -> GeneratorSet:
    """Construct the full generator set on the given truncation.

    On the row-major grid the mode operators are exact Kronecker products,
    a1 = a (x) I and a2 = I (x) a, of the one-mode annihilator a."""
    def lower(n_max: int):
        return sp.diags(np.sqrt(np.arange(1.0, n_max + 1)), 1, shape=(n_max + 1, n_max + 1))

    a1 = Operator(cutoff, sp.kron(lower(cutoff.n1_max), sp.identity(cutoff.n2_max + 1)))
    a2 = Operator(cutoff, sp.kron(sp.identity(cutoff.n1_max + 1), lower(cutoff.n2_max)))
    a1_dag = a1.dag()
    a2_dag = a2.dag()
    identity = Operator(cutoff, sp.identity(cutoff.dim, dtype=np.complex128, format="csr"))
    num1 = a1_dag @ a1
    num2 = a2_dag @ a2
    return GeneratorSet(
        cutoff=cutoff,
        a1=a1,
        a2=a2,
        a1_dag=a1_dag,
        a2_dag=a2_dag,
        identity=identity,
        n_op=(num1 + num2) / 2.0,
        j3=(num1 - num2) / 2.0,
        j_plus=a1_dag @ a2,
        j_minus=a1 @ a2_dag,
    )


def commutator(a: Operator, b: Operator) -> Operator:
    return a @ b - b @ a


def interior_indices(cutoff: FockCutoff, degree: int) -> np.ndarray:
    """Basis indices with n1 <= n1_max - degree and n2 <= n2_max - degree."""
    if degree < 0 or degree > min(cutoff.n1_max, cutoff.n2_max):
        raise ValueError(f"degree {degree} too large for cutoff {cutoff}")
    n1 = np.arange(cutoff.n1_max - degree + 1, dtype=np.intp)
    n2 = np.arange(cutoff.n2_max - degree + 1, dtype=np.intp)
    return (n1[:, None] * (cutoff.n2_max + 1) + n2).ravel()


def interior_projector(cutoff: FockCutoff, degree: int) -> Operator:
    """Diagonal 0/1 projector masking the outer `degree` occupation layers;
    the reference that interior_residual is tested against."""
    diag = np.zeros(cutoff.dim)
    diag[interior_indices(cutoff, degree)] = 1.0
    return Operator(cutoff, sp.diags(diag, format="csr", dtype=np.complex128))


def shell_indices(cutoff: FockCutoff, s_max: int) -> np.ndarray:
    """Basis indices with n1 + n2 <= s_max.

    Mixing rotations preserve the total occupation, so identities involving
    them are exact on complete shells; combined with displacement steps the
    junk from the truncation corner leaks a few shells inward, and retreating
    in total occupation (rather than per mode) is the masking that matches
    the error geometry.
    """
    n1, n2 = np.divmod(np.arange(cutoff.dim, dtype=np.intp), cutoff.n2_max + 1)
    return np.flatnonzero(n1 + n2 <= s_max)


def shell_projector(cutoff: FockCutoff, s_max: int) -> Operator:
    """Diagonal 0/1 projector onto total occupation <= s_max; the reference
    that interior_residual is tested against."""
    diag = np.zeros(cutoff.dim)
    diag[shell_indices(cutoff, s_max)] = 1.0
    return Operator(cutoff, sp.diags(diag, format="csr", dtype=np.complex128))


def interior_residual(op: Operator, keep: np.ndarray) -> float:
    """Frobenius norm of `op` restricted to the sorted basis indices `keep`
    (interior_indices or shell_indices), i.e. ||P op P||_F for the diagonal
    projector P onto them.  The restriction keeps the stored entries in
    row-major order, so the sum runs in the same order as for P op P."""
    sub = op.mat[keep][:, keep]
    sub.sort_indices()
    return float(sp.linalg.norm(sub, "fro"))


def apply(a: Operator, v: TwoModeState) -> TwoModeState:
    if a.cutoff != v.cutoff:
        raise CutoffMismatch(f"{a.cutoff} vs {v.cutoff}")
    return TwoModeState(v.cutoff, a.mat @ v.amplitudes)


def norm(v: TwoModeState) -> float:
    return float(np.linalg.norm(v.amplitudes))


def normalize(v: TwoModeState, tol: float = DEFAULT_TOL.zero_state) -> TwoModeState:
    n = norm(v)
    if n < tol:
        raise LadderForgeError(f"cannot normalize state with norm {n:.3e}")
    return TwoModeState(v.cutoff, v.amplitudes / n)


def basis_state(cutoff: FockCutoff, n1: int, n2: int) -> TwoModeState:
    amps = np.zeros(cutoff.dim, dtype=np.complex128)
    amps[cutoff.index(n1, n2)] = 1.0
    return TwoModeState(cutoff, amps)


def vacuum_state(cutoff: FockCutoff) -> TwoModeState:
    return basis_state(cutoff, 0, 0)


def apply_creation_series(a: Operator, v: TwoModeState, tol: float = 1e-300) -> TwoModeState:
    """Apply exp(a) to v by Taylor series.

    Intended for polynomials in creation operators, which are nilpotent on the
    truncated space, so the series terminates exactly; a general operator is
    summed until terms vanish or a hard iteration cap trips.
    """
    if a.cutoff != v.cutoff:
        raise CutoffMismatch(f"{a.cutoff} vs {v.cutoff}")
    out = v.amplitudes.astype(np.complex128)
    term = out.copy()
    for k in range(1, 4 * a.cutoff.dim + 4):
        term = (a.mat @ term) / k
        tn = np.linalg.norm(term)
        if tn == 0.0 or tn < tol * max(1.0, np.linalg.norm(out)):
            break
        out = out + term
    else:
        raise LadderForgeError("series for exp(a)v did not terminate; operator is not nilpotent")
    return TwoModeState(v.cutoff, out)


# ---------------------------------------------------------------------------
# serialization: operators as sparse entry lists, states as dense re/im pairs
# ---------------------------------------------------------------------------

def operator_to_json(a: Operator) -> dict:
    return {
        "cutoff": [a.cutoff.n1_max, a.cutoff.n2_max],
        "entries": [[r, c, z.real, z.imag] for r, c, z in a.entries()],
    }


def operator_from_json(payload: dict) -> Operator:
    cutoff = FockCutoff(*payload["cutoff"])
    rows, cols, vals = [], [], []
    for r, c, re, im in payload["entries"]:
        rows.append(int(r))
        cols.append(int(c))
        vals.append(complex(re, im))
    m = sp.coo_matrix((vals, (rows, cols)), shape=(cutoff.dim, cutoff.dim), dtype=np.complex128)
    return Operator(cutoff, m)


def state_to_json(v: TwoModeState) -> dict:
    return {
        "cutoff": [v.cutoff.n1_max, v.cutoff.n2_max],
        "amplitudes": [[z.real, z.imag] for z in v.amplitudes],
    }


def state_from_json(payload: dict) -> TwoModeState:
    cutoff = FockCutoff(*payload["cutoff"])
    amps = np.array([complex(re, im) for re, im in payload["amplitudes"]], dtype=np.complex128)
    return TwoModeState(cutoff, amps)


def state_to_csv(v: TwoModeState) -> str:
    """CSV rows (n1, n2, re, im, probability), header included."""
    n1, n2 = np.divmod(np.arange(v.cutoff.dim), v.cutoff.n2_max + 1)
    cells = zip(n1.tolist(), n2.tolist(), v.amplitudes.tolist())
    return "\n".join(["n1,n2,re,im,probability",
                      *(f"{a},{b},{z.real!r},{z.imag!r},{abs(z) ** 2!r}"
                        for a, b, z in cells)]) + "\n"
