"""Truncated two-mode bosonic Fock space: basis bookkeeping, sparse operators,
states, and the generator set every other module is built from.

The basis is the occupation grid {|n1, n2> : 0 <= n_i <= n_i_max}, stored
row-major so that index(n1, n2) = n1 * (n2_max + 1) + n2.  Creation operators
are hard-truncated: a_i^dag maps the top occupation level to the zero vector.
Truncation artifacts are masked in all checks by restricting to interior
index sets.

scipy.sparse is imported where a CSR matrix is built (Operator, the CSR
forms of the weighted shifts), not at module level: the scenarios that only
check identities and mat-vecs on the grid weights never load scipy.

An operator that moves the grid by a few shifts (dn1, dn2) is held as its
weights on the grid padded by one zero layer, where a shift is a flat offset
(Shifts).  GeneratorSet records the nine generators, seven shifts with
closed-form weights; their combinations (a Hamiltonian, a ladder) and
products (chen's p:q operators) are formed shift by shift, commutator
identities are checked on the weights with no matrix formed
(commutator_residual), and CSR forms are assembled in one pass (_csr).
The CSR products and restricted norms these match bit for bit are the
test suite's oracle; no scenario forms them.

States are built from polynomials in the commuting creation operators
(CreationPoly), which act on amplitude vectors as weighted shifts of the
flat grid, and from the closed-form coherent state exp(x1 a1' + x2 a2')|0>
(coherent_state): no matrix is formed for them.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .errors import CutoffMismatch, CutoffTooSmall, LadderForgeError

__all__ = [
    "ToleranceConfig",
    "FockCutoff",
    "Operator",
    "Shifts",
    "TwoModeState",
    "GeneratorSet",
    "build_generators",
    "commutator_residual",
    "interior_indices",
    "apply",
    "norm",
    "normalize",
    "basis_state",
    "CreationPoly",
    "coherent_state",
    "state_to_json",
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
    """Sparse complex matrix over a fixed truncated basis, stored in canonical
    CSR form (sorted indices, no duplicate entries, no stored zeros).  The
    argument is never modified: a CSR matrix or (data, indices, indptr) tuple
    may lend its arrays, and when they are not canonical the canonical form
    is made on a copy of them."""

    __slots__ = ("cutoff", "mat")

    def __init__(self, cutoff: FockCutoff, mat):
        import scipy.sparse as sp

        m = sp.csr_matrix(mat, dtype=np.complex128)
        if m.shape != (cutoff.dim, cutoff.dim):
            raise ValueError(f"matrix shape {m.shape} does not match dimension {cutoff.dim}")
        if not (m.has_canonical_format and m.data.all()):
            lent = (mat if isinstance(mat, tuple)
                    else [getattr(mat, k, None) for k in ("data", "indices", "indptr")])
            if any(np.may_share_memory(x, a) for x in (m.data, m.indices, m.indptr)
                   for a in lent):
                m = m.copy()
            m.sum_duplicates()
            m.eliminate_zeros()
        self.cutoff = cutoff
        self.mat = m

    def _check(self, other: "Operator") -> None:
        if self.cutoff != other.cutoff:
            raise CutoffMismatch(f"{self.cutoff} vs {other.cutoff}")

    def _result(self, m) -> "Operator":
        """Wrap a CSR matrix scipy has just made: nobody else holds it, so
        it is made canonical in place."""
        m.eliminate_zeros()
        m.sort_indices()
        return Operator(self.cutoff, m)

    def dag(self) -> "Operator":
        return Operator(self.cutoff, self.mat.conj().T)

    def __add__(self, other: "Operator") -> "Operator":
        self._check(other)
        return self._result(self.mat + other.mat)

    def __sub__(self, other: "Operator") -> "Operator":
        self._check(other)
        return self._result(self.mat - other.mat)

    def __neg__(self) -> "Operator":
        return self._result(-self.mat)

    def __mul__(self, scalar) -> "Operator":
        return self._result(self.mat * complex(scalar))

    __rmul__ = __mul__

    def __truediv__(self, scalar) -> "Operator":
        return self._result(self.mat / complex(scalar))

    def __matmul__(self, other: "Operator") -> "Operator":
        self._check(other)
        return self._result(self.mat @ other.mat)

    def norm(self) -> float:
        """Frobenius norm: that of the stored entries, as scipy takes it."""
        return float(np.linalg.norm(self.mat.data))

    def to_dense(self) -> np.ndarray:
        return self.mat.toarray()

    @property
    def nnz(self) -> int:
        return self.mat.nnz

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


# the generators in the order combine adds them: only the diagonal ones
# (n_op, j3, identity) share a shift, and they come last in this order
_GENERATORS = ("a1", "a2", "a1_dag", "a2_dag", "j_plus", "j_minus", "n_op", "j3", "identity")

# the shift (dn1, dn2) of each generator: row |m1, m2> of a generator holds
# its weight in column |m1 + dn1, m2 + dn2>
_SHIFT_OF = {"a1_dag": (-1, 0), "j_plus": (-1, 1), "a2_dag": (0, -1), "n_op": (0, 0),
             "j3": (0, 0), "identity": (0, 0), "a2": (0, 1), "j_minus": (1, -1), "a1": (1, 0)}
_SHIFTS = tuple(sorted(set(_SHIFT_OF.values())))


def _inside(m1, m2, shift, n1_max: int, n2_max: int):
    """Where |m1 + dn1, m2 + dn2> lies in the box 0 <= n_i <= n_i_max."""
    d1, d2 = shift
    return (0 <= m1 + d1) & (m1 + d1 <= n1_max) & (0 <= m2 + d2) & (m2 + d2 <= n2_max)


class Shifts:
    """An operator as weighted shifts of the grid: `weights[(dn1, dn2)]` is
    its weight on the grid padded by one zero layer, flattened row-major
    (stride n2_max + 3); row |m> holds the weight at |m> in column
    |m1 + dn1, m2 + dn2>, zero where that column leaves the grid.  Sums,
    scalar multiples, products (`@`, summed by _product) and the adjoint form
    each weight as Operator arithmetic forms the CSR entry, a missing shift
    counting as zero, so `csr` gives that Operator bit for bit."""

    __slots__ = ("cutoff", "weights")
    __array_ufunc__ = None   # numpy scalars defer to the reflected operators

    def __init__(self, cutoff: FockCutoff, weights: dict):
        self.cutoff, self.weights = cutoff, weights

    def __add__(self, other: "Shifts") -> "Shifts":
        return Shifts(self.cutoff, {k: self.weights.get(k, 0) + other.weights.get(k, 0)
                                    for k in {*self.weights, *other.weights}})

    def __sub__(self, other: "Shifts") -> "Shifts":
        return Shifts(self.cutoff, {k: self.weights.get(k, 0) - other.weights.get(k, 0)
                                    for k in {*self.weights, *other.weights}})

    def __mul__(self, scalar) -> "Shifts":
        return Shifts(self.cutoff, {k: w * complex(scalar) for k, w in self.weights.items()})

    __rmul__ = __mul__

    def __truediv__(self, scalar) -> "Shifts":
        return self * (1 / complex(scalar))

    def __matmul__(self, other: "Shifts") -> "Shifts":
        stride, rows = self.cutoff.n2_max + 3, self.cutoff.n1_max + 1
        shifts = tuple(sorted({*self.weights, *other.weights}))
        products, pairs, _, margin = _products(shifts, stride)
        size = (rows + 2) * stride
        left, right = (_parts(shifts, op.weights, margin,
                              np.zeros((2, len(op.weights), size + 2 * margin)))
                       for op in (self, other))
        re, im = _product(left, right, pairs, margin + stride, stride, rows,
                          np.empty((2, len(products), rows * stride)))
        out = {}
        for t in np.flatnonzero(re.any(axis=1) | im.any(axis=1)):
            w = out[products[t]] = np.zeros(size, dtype=np.complex128)
            w.real[stride:-stride], w.imag[stride:-stride] = re[t], im[t]
        return Shifts(self.cutoff, out)

    def dag(self) -> "Shifts":
        """The adjoint: shift -s, with weight conj(w_s[m]) at |m + s>."""
        stride = self.cutoff.n2_max + 3
        return Shifts(self.cutoff, {(-a, -b): np.conj(np.roll(w, a * stride + b))
                                    for (a, b), w in self.weights.items()})

    def matvec(self, v: np.ndarray) -> np.ndarray:
        """The operator on the flat amplitudes v as scipy's mat-vec forms it:
        row |m> sums w_s[m] v[m + s] from zero over the shifts s in sorted
        order, which is the column order of a CSR row, each product rounded
        as (ar br - ai bi, ar bi + ai br) with no fused multiply-add.  v is
        laid on the padded grid with the zeros _products lays on each side,
        and a weight is zero where its column leaves the grid."""
        cut = self.cutoff
        stride, rows = cut.n2_max + 3, cut.n1_max + 1
        shifts = tuple(sorted(self.weights))
        margin = _products(shifts, stride)[3]
        start, stop = margin + stride, margin + stride * (rows + 1)
        grid = np.zeros((2, stop + stride + margin))
        inner = grid[:, start:stop].reshape(2, rows, stride)[..., 1:-1]
        inner[0], inner[1] = (part.reshape(rows, -1) for part in (v.real, v.imag))
        re, im = np.zeros((2, rows * stride))
        for d1, d2 in shifts:
            w, at = self.weights[d1, d2][stride:-stride], d1 * stride + d2
            br, bi = grid[:, start + at:stop + at]
            re += w.real * br - w.imag * bi
            im += w.real * bi + w.imag * br
        out = np.empty((rows, stride), dtype=np.complex128)
        out.real, out.imag = re.reshape(rows, stride), im.reshape(rows, stride)
        return out[:, 1:-1].ravel()

    def csr(self) -> Operator:
        return _csr(self.cutoff, self.weights)


@dataclass(frozen=True)
class GeneratorSet:
    """All algebra generators on one truncated basis, recorded as their
    weights on the occupation grid.

    n_op = (a1'a1 + a2'a2)/2, j3 = (a1'a1 - a2'a2)/2, j_plus = a1'a2,
    j_minus = a1 a2' (Schwinger realization built from the mode operators).
    `weights[name]` is the generator's weight in the layout of Shifts: on the
    grid padded by one zero layer and flattened row-major (stride
    n2_max + 3), so that its shift is a flat offset.  Every CSR form is
    assembled from these weights by _csr: each generator as an Operator on
    first use (`g.a1`, ...), and any linear combination of them by `combine`.
    """

    cutoff: FockCutoff
    weights: dict = field(repr=False, compare=False)

    def __getattr__(self, name: str) -> Operator:
        # reached only for a generator not built yet: once built, it is
        # found in the instance dict
        if name not in _GENERATORS:
            raise AttributeError(name)
        op = self.shift(name).csr()
        object.__setattr__(self, name, op)
        return op

    @functools.cached_property
    def _work(self) -> tuple[np.ndarray, np.ndarray]:
        """commutator_residual's work arrays, kept from call to call so that
        their pages stay mapped: its three operands' weight parts (3 x 2 x 7 x
        padded grid) and, flat, room for the parts of two products of
        generator combinations on every row (2 x 2 x 19 x rows)."""
        cut = self.cutoff
        return (np.empty((3, 2, len(_SHIFTS), (cut.n1_max + 3) * (cut.n2_max + 3))),
                np.empty(4 * len(_products(_SHIFTS, cut.n2_max + 3)[0]) * (cut.n1_max + 1)
                         * (cut.n2_max + 3)))

    def shift(self, name: str) -> Shifts:
        """The generator `name` as weighted shifts, its weights as built."""
        return Shifts(self.cutoff, {_SHIFT_OF[name]: self.weights[name]})

    def shifts(self, terms) -> Shifts:
        """sum_k c_k G_k over the (generator name, c_k) terms with c_k != 0,
        each shift's terms added in combine's order.  The padding of a scaled
        weight may hold -0; a non-finite c_k scales only the nonzero weights,
        as 0 c_k would put a NaN where the column leaves the grid."""
        by_shift = {}
        for name, c in sorted(terms, key=lambda t: _GENERATORS.index(t[0])):
            if c != 0:
                k, w = _SHIFT_OF[name], self.weights[name] * complex(c)
                if not cmath.isfinite(c):
                    w[self.weights[name] == 0] = 0
                by_shift[k] = by_shift[k] + w if k in by_shift else w
        return Shifts(self.cutoff, by_shift)

    def combine(self, terms) -> Operator:
        """sum_k c_k G_k over the (generator name, c_k) pairs.  The diagonal
        generators are added in the order n_op, j3, identity whatever the
        order of `terms`, and each shift's sum is added to zero, so the
        entries are those of the chained Operator sum written in that order."""
        return _csr(self.cutoff, {k: 0 + w for k, w in self.shifts(terms).weights.items()})

    def shell_blocks(self, terms) -> dict:
        """sum_k c_k G_k on the shells n1 + n2 = s <= top = min(n1_max, n2_max)
        as its blocks between shells: out[delta][s] is the block from shell s
        to shell s + delta, rows and columns indexed by n1 (the column
        |k, s - k>) in a (top + 1) x (top + 1) array, zero past the shells.
        A shift (dn1, dn2) moves the shell by delta = -(dn1 + dn2), and its
        weights are read off in one gather; rows past shell top are left out."""
        top, stride = min(self.cutoff.n1_max, self.cutoff.n2_max), self.cutoff.n2_max + 3
        s, k = _shell_columns(top)
        out = {}
        for (d1, d2), w in self.shifts(terms).weights.items():
            j = k - d1   # row |k - dn1, s - k - dn2>
            on = (0 <= j) & (j <= top)
            if -d1 - d2 not in out:
                out[-d1 - d2] = np.zeros((top + 1,) * 3, dtype=np.complex128)
            block = out[-d1 - d2]
            block[s[on], j[on], k[on]] = w[(j[on] + 1) * stride + s[on] - k[on] - d2 + 1]
        return out


@functools.lru_cache(maxsize=16)
def _shell_columns(top: int) -> tuple[np.ndarray, np.ndarray]:
    """(s, k) of every column |k, s - k> on the shells s <= top, in shell order."""
    s, k = np.tril_indices(top + 1)
    s.flags.writeable = k.flags.writeable = False
    return s, k


def _csr(cutoff: FockCutoff, by_shift: dict) -> Operator:
    """The operator whose shift (dn1, dn2) has the flat padded weight
    by_shift[(dn1, dn2)], in canonical CSR form, assembled in one pass: the
    dim x K weights stacked in sorted order of the shifts, the nonzero ones
    kept row by row.  That fills every row already sorted: the columns on
    the grid of one row fall in the order of their shifts."""
    import scipy.sparse as sp

    n1, n2, dim = cutoff.n1_max, cutoff.n2_max, cutoff.dim
    shifts = sorted(by_shift)
    data = np.empty((n1 + 1, n2 + 1, len(shifts)), dtype=np.complex128)
    for j, k in enumerate(shifts):
        data[..., j] = by_shift[k].reshape(n1 + 3, n2 + 3)[1:-1, 1:-1]
    data = data.reshape(dim, len(shifts))
    nz = data != 0
    cols = (np.arange(dim, dtype=np.int32)[:, None]
            + np.array([d1 * (n2 + 1) + d2 for d1, d2 in shifts], dtype=np.int32))
    indptr = np.zeros(dim + 1, dtype=np.int32)
    np.cumsum(np.count_nonzero(nz, axis=1), out=indptr[1:])
    return Operator(cutoff, sp.csr_matrix((data[nz], cols[nz], indptr), shape=(dim, dim)))


def build_generators(cutoff: FockCutoff) -> GeneratorSet:
    """The generator set on the given truncation, read off the grid.

    Each generator is one shift of the occupations with a closed-form
    weight: row |m1, m2> of a1 holds sqrt(m1 + 1) in column |m1 + 1, m2>,
    row |m1, m2> of j_plus = a1'a2 holds sqrt(m1) sqrt(m2 + 1) in column
    |m1 - 1, m2 + 1>, and so on.  The weights are the float expressions of
    the mode-operator products (the diagonal of a1'a1 is sqrt(m1) sqrt(m1),
    not m1), so every entry equals that of the product build bit for bit;
    a1' and a2' carry the -0 imaginary part of a conjugate transpose."""
    m1, m2 = np.indices((cutoff.n1_max + 1, cutoff.n2_max + 1))
    root1, root2 = np.sqrt(m1.astype(float)), np.sqrt(m2.astype(float))
    up1, up2 = np.sqrt(m1 + 1.0), np.sqrt(m2 + 1.0)
    num1, num2 = root1 * root1, root2 * root2
    weights = {"a1": up1, "a2": up2, "a1_dag": np.conj(root1 + 0j),
               "a2_dag": np.conj(root2 + 0j), "j_plus": root1 * up2, "j_minus": up1 * root2,
               "n_op": (num1 + num2) / 2.0, "j3": (num1 - num2) / 2.0,
               "identity": np.ones(m1.shape)}
    padded = {}
    for name, w in weights.items():
        grid = np.zeros((cutoff.n1_max + 3, cutoff.n2_max + 3), dtype=np.complex128)
        grid[1:-1, 1:-1] = np.where(_inside(m1, m2, _SHIFT_OF[name], cutoff.n1_max,
                                            cutoff.n2_max), w, 0)
        padded[name] = grid.ravel()
    return GeneratorSet(cutoff, padded)


def interior_indices(cutoff: FockCutoff, degree: int) -> np.ndarray:
    """Basis indices with n1 <= n1_max - degree and n2 <= n2_max - degree."""
    if degree < 0 or degree > min(cutoff.n1_max, cutoff.n2_max):
        raise ValueError(f"degree {degree} too large for cutoff {cutoff}")
    n1 = np.arange(cutoff.n1_max - degree + 1, dtype=np.intp)
    n2 = np.arange(cutoff.n2_max - degree + 1, dtype=np.intp)
    return (n1[:, None] * (cutoff.n2_max + 1) + n2).ravel()


# The kernel below works in the layout of Shifts, over the padded rows of
# the interior box taken whole: a shift is then a flat offset, and every
# slice is contiguous.  The columns past the box in each row are formed too
# and never read.

@functools.lru_cache(maxsize=64)
def _products(shifts: tuple, stride: int) -> tuple[tuple, np.ndarray, list, int]:
    """The shifts products of two of `shifts` land on, and `shifts`, sorted;
    where the product of shifts i and j lands among them; where shift i does;
    and the zeros to lay on each side of the flat padded grid (of stride
    `stride`) that keep any grid rows moved by one of `shifts` on the array."""
    out = tuple(sorted({(a + c, b + d) for a, b in shifts for c, d in shifts} | set(shifts)))
    return (out, np.array([[out.index((a + c, b + d)) for c, d in shifts] for a, b in shifts]),
            [out.index(s) for s in shifts], max([0, *(abs(a * stride + b) - stride
                                                      for a, b in shifts)]))


@functools.lru_cache(maxsize=32)
def _interior_entries(cutoff: FockCutoff, degree: int, shifts: tuple) -> tuple[int, np.ndarray]:
    """The number of grid rows the degree-`degree` interior box spans, and the
    entries of a (products of `shifts`) x (those padded rows, flat) array whose
    row and column lie in the box, as flat indices in row-major (row, column)
    order."""
    products = _products(shifts, cutoff.n2_max + 3)[0]
    m1, m2 = np.divmod(interior_indices(cutoff, degree), cutoff.n2_max + 1)
    hi1, hi2, stride = cutoff.n1_max - degree, cutoff.n2_max - degree, cutoff.n2_max + 3
    inside = np.array([_inside(m1, m2, s, hi1, hi2) for s in products])
    flat = np.arange(len(products))[:, None] * (hi1 + 1) * stride + m1 * stride + m2 + 1
    return hi1 + 1, flat.T[inside.T]


def _parts(shifts: tuple, by_shift: dict, margin: int, out: np.ndarray):
    """An operand's shifts, sorted, which is the order of their columns on
    the grid in each row, with their places among `shifts`, and the real and
    imaginary parts of their weights, written into the front of `out`
    (2 x shifts x (padded grid and a margin of zeros on each side))."""
    keys, grid = sorted(by_shift), out[..., margin:out.shape[-1] - margin]
    for row, k in enumerate(keys):
        grid[0, row], grid[1, row] = by_shift[k].real, by_shift[k].imag
    return list(map(shifts.index, keys)), keys, out[0, :len(keys)], out[1, :len(keys)]


def _product(left, right, pairs: np.ndarray, start: int, stride: int, rows: int,
             out: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Real and imaginary parts of the product of two _parts splits on `rows`
    padded rows from flat index `start`, summed into `out` (2 x product
    shifts x rows * stride): row |m> of L_i R_j holds L_i[m] R_j[m + s_i] in
    column |m + s_i + s_j>, product shift pairs[i, j].  As a sparse product
    forms it, the sum runs from zero over i in column order, each term
    rounded as (ar br - ai bi, ar bi + ai br) with no fused multiply-add.  A
    weight is zero where its column leaves the grid, so a slice reading past
    the grid's edge (padding, margin or next row) adds nothing."""
    (li, lk, l_re, l_im), (rj, _, r_re, r_im) = left, right
    stop = start + stride * rows
    re, im = out
    out.fill(0.0)
    for row, (i, (d1, d2)) in enumerate(zip(li, lk)):
        at = d1 * stride + d2
        ar, ai = l_re[row, start:stop], l_im[row, start:stop]
        br, bi = r_re[:, start + at:stop + at], r_im[:, start + at:stop + at]
        t = pairs[i, rj]
        re[t] += ar * br - ai * bi
        im[t] += ar * bi + ai * br
    return re, im


def commutator_residual(g: GeneratorSet, x: Shifts, y: Shifts, z: Shifts,
                        degree: int) -> float:
    """||P([X, Y] + Z)P||_F on the degree-`degree` interior of g's cutoff, for
    weighted shifts X, Y, Z: generator combinations (GeneratorSet.shifts,
    sharing one table of product shifts) or others, such as chen's operators.

    No matrix is formed: products of shifted slices are summed into the
    shifts they land on, on the box's rows only; an entry counts when its
    column is in the box too.  Entries get the roundings of scipy's sparse
    product, difference and sum, and the norm takes the nonzero ones in
    row-major order, as scipy's norm of the stored entries of the CSR
    matrices restricted to the box does: where scipy rounds without fused
    multiply-add, the two agree to the last bit."""
    used = {*x.weights, *y.weights, *z.weights}
    shifts = _SHIFTS if used.issubset(_SHIFTS) else tuple(sorted(used))
    stride = g.cutoff.n2_max + 3
    products, pairs, own, margin = _products(shifts, stride)
    rows, kept = _interior_entries(g.cutoff, degree, shifts)
    parts, work = g._work if shifts is _SHIFTS else (   # the generators' need no margin
        np.zeros((3, 2, len(shifts), (g.cutoff.n1_max + 3) * stride + 2 * margin)),
        np.empty(4 * len(products) * rows * stride))
    xy, yx = work[:4 * len(products) * rows * stride].reshape(2, 2, len(products), rows * stride)
    x, y = _parts(shifts, x.weights, margin, parts[0]), _parts(shifts, y.weights, margin, parts[1])
    start = margin + stride
    (re, im), (yx_re, yx_im) = (_product(x, y, pairs, start, stride, rows, xy),
                                _product(y, x, pairs, start, stride, rows, yx))
    re -= yx_re
    im -= yx_im
    zk, _, z_re, z_im = _parts(shifts, z.weights, margin, parts[2])
    at = [own[k] for k in zk]
    re[at] += z_re[:, start:start + rows * stride]
    im[at] += z_im[:, start:start + rows * stride]
    re, im = re.ravel()[kept], im.ravel()[kept]
    nonzero = (re != 0) | (im != 0)
    entries = np.empty(np.count_nonzero(nonzero), dtype=np.complex128)
    entries.real, entries.imag = re[nonzero], im[nonzero]
    return float(np.linalg.norm(entries))


def apply(a: Operator, v: TwoModeState) -> TwoModeState:
    if a.cutoff != v.cutoff:
        raise CutoffMismatch(f"{a.cutoff} vs {v.cutoff}")
    return TwoModeState(v.cutoff, a.mat @ v.amplitudes)


def norm(v: TwoModeState) -> float:
    return float(np.linalg.norm(v.amplitudes))


def normalize(v: TwoModeState) -> TwoModeState:
    n = norm(v)
    if n < DEFAULT_TOL.zero_state:
        raise LadderForgeError(f"cannot normalize state with norm {n:.3e}")
    return TwoModeState(v.cutoff, v.amplitudes / n)


def basis_state(cutoff: FockCutoff, n1: int, n2: int) -> TwoModeState:
    amps = np.zeros(cutoff.dim, dtype=np.complex128)
    amps[cutoff.index(n1, n2)] = 1.0
    return TwoModeState(cutoff, amps)


class CreationPoly:
    """A polynomial sum_pq c_pq a1'^p a2'^q in the creation operators, held
    as its nonzero coefficients {(p, q): c_pq}.

    The truncated a1' and a2' commute and their powers compose, so sums,
    scalar multiples and products (`@`) of polynomials are the polynomial
    ones, exact on the truncated space.  On a cutoff the polynomial acts on
    amplitude arrays as weighted shifts of the flat grid (`on`)."""

    __slots__ = ("coeffs",)
    __array_ufunc__ = None   # numpy scalars defer to the reflected operators

    def __init__(self, coeffs: dict):
        self.coeffs = {k: complex(c) for k, c in coeffs.items() if c != 0}

    def __add__(self, other: "CreationPoly") -> "CreationPoly":
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            out[k] = out.get(k, 0) + c
        return CreationPoly(out)

    def __sub__(self, other: "CreationPoly") -> "CreationPoly":
        return self + -1.0 * other

    def __mul__(self, scalar) -> "CreationPoly":
        return CreationPoly({k: c * complex(scalar) for k, c in self.coeffs.items()})

    __rmul__ = __mul__

    def __matmul__(self, other: "CreationPoly") -> "CreationPoly":
        out = {}
        for (p, q), c in self.coeffs.items():
            for (r, s), d in other.coeffs.items():
                out[p + r, q + s] = out.get((p + r, q + s), 0) + c * d
        return CreationPoly(out)

    @property
    def degrees(self) -> tuple[int, int] | None:
        """(max p, max q) over the nonzero terms; None for the zero polynomial."""
        if not self.coeffs:
            return None
        return max(p for p, _ in self.coeffs), max(q for _, q in self.coeffs)

    def on(self, cutoff: FockCutoff):
        """The polynomial on the truncated space, as a function of amplitude
        arrays whose last axis is the flat grid.  a1'^p a2'^q moves the flat
        index by p (n2_max + 1) + q with weight
        sqrt(n1! / (n1 - p)!) sqrt(n2! / (n2 - q)!) at the landing state
        |n1, n2>, zero where n1 < p or n2 < q: there the shifted slice has
        wrapped round from the row above, and where the source left the
        grid, its landing place has wrapped round too."""
        dim, terms = cutoff.dim, []
        for (p, q), c in self.coeffs.items():
            if p <= cutoff.n1_max and q <= cutoff.n2_max:
                off = p * (cutoff.n2_max + 1) + q
                w = np.outer(_falling_roots(cutoff.n1_max, p), _falling_roots(cutoff.n2_max, q))
                terms.append((off, c * w.ravel()[off:]))

        def act(v: np.ndarray) -> np.ndarray:
            out = np.zeros(v.shape, dtype=np.complex128)
            for off, w in terms:
                out[..., off:] += w * v[..., :dim - off]
            return out
        return act

    def __repr__(self) -> str:
        return f"CreationPoly({self.coeffs})"


A1_DAG = CreationPoly({(1, 0): 1.0})
A2_DAG = CreationPoly({(0, 1): 1.0})


@functools.lru_cache(maxsize=256)
def _falling_roots(n_max: int, p: int) -> np.ndarray:
    """sqrt(n! / (n - p)!) for n = 0..n_max, zero where n < p: the weight of
    a'^p at each landing level."""
    n = np.arange(n_max + 1.0)
    out = np.zeros(n_max + 1)
    out[p:] = np.prod(np.sqrt(n[p:, None] - np.arange(p)), axis=1)
    return out


def _coherent_factor(n_max: int, x: complex) -> np.ndarray:
    """x^n / sqrt(n!) for n = 0..n_max."""
    return np.cumprod(np.concatenate(([1.0 + 0j], x / np.sqrt(np.arange(1.0, n_max + 1)))))


_LOG_MAX = math.log(np.finfo(float).max)


def _log_peak(n_max: int, r: float) -> float:
    """The log of the largest r^n / sqrt(n!) over n = 0..n_max: the terms
    grow while n <= r^2."""
    n = int(min(n_max, r * r))
    return n * math.log(r) - math.lgamma(n + 1) / 2 if n else 0.0


def coherent_state(cutoff: FockCutoff, x1: complex, x2: complex) -> TwoModeState:
    """exp(x1 a1' + x2 a2')|0> on the truncated space, unnormalized: the
    amplitude of |n1, n2> is x1^n1 / sqrt(n1!) * x2^n2 / sqrt(n2!), which
    the truncated series gives exactly.  CutoffTooSmall when an amplitude,
    or the sum of their squares that a norm takes, would overflow; the
    state's weight lies near n_i = |x_i|^2, which is then in the hundreds
    or more."""
    x1, x2 = complex(x1), complex(x2)
    peak = _log_peak(cutoff.n1_max, abs(x1)) + _log_peak(cutoff.n2_max, abs(x2))
    if 2 * peak + math.log(cutoff.dim) > _LOG_MAX:
        raise CutoffTooSmall(f"exp(x1 a1' + x2 a2')|0> with |x1|, |x2| = {abs(x1):.1e}, "
                             f"{abs(x2):.1e} overflows on cutoff {cutoff.n1_max},"
                             f"{cutoff.n2_max}: its weight lies near n_i = |x_i|^2")
    return TwoModeState(cutoff, np.outer(_coherent_factor(cutoff.n1_max, x1),
                                         _coherent_factor(cutoff.n2_max, x2)))


# ---------------------------------------------------------------------------
# serialization: states as dense re/im pairs
# ---------------------------------------------------------------------------

def state_to_json(v: TwoModeState) -> dict:
    return {
        "cutoff": [v.cutoff.n1_max, v.cutoff.n2_max],
        "amplitudes": np.column_stack((v.amplitudes.real, v.amplitudes.imag)).tolist(),
    }


def state_to_csv(v: TwoModeState) -> str:
    """CSV rows (n1, n2, re, im, probability), header included."""
    n1, n2 = np.divmod(np.arange(v.cutoff.dim), v.cutoff.n2_max + 1)
    cells = zip(n1.tolist(), n2.tolist(), v.amplitudes.tolist())
    return "\n".join(["n1,n2,re,im,probability",
                      *(f"{a},{b},{z.real!r},{z.imag!r},{abs(z) ** 2!r}"
                        for a, b, z in cells)]) + "\n"
