"""Truncated two-mode bosonic Fock space: basis bookkeeping, sparse operators,
states, and the generator set every other module is built from.

The basis is the occupation grid {|n1, n2> : 0 <= n_i <= n_i_max}, stored
row-major so that index(n1, n2) = n1 * (n2_max + 1) + n2.  Creation operators
are hard-truncated: a_i^dag maps the top occupation level to the zero vector.
Truncation artifacts are masked in all checks by restricting to interior
index sets (interior_residual).

scipy.sparse is imported where a CSR matrix is built (Operator, the
generators' CSR forms), not at module level: the scenarios that only check
identities on the grid weights never load scipy.

Each of the nine generators moves the grid by one of seven shifts
(dn1, dn2) with a closed-form weight, and GeneratorSet records them once,
as those weights on the grid padded by one zero layer, where a shift is a
flat offset.  A linear combination of them (a Hamiltonian, a ladder) is
summed shift by shift on those weights (_by_shift).  Commutator identities
among elements of their span are checked on the sums themselves
(commutator_residual), with no matrix formed; every CSR form, a single
generator or GeneratorSet.combine, is assembled from them in one pass
(_csr).

States are built from polynomials in the commuting creation operators
(CreationPoly), which act on amplitude vectors as weighted shifts of the
flat grid, and from the closed-form coherent state exp(x1 a1' + x2 a2')|0>
(coherent_state): no matrix is formed for them.
"""

from __future__ import annotations

import cmath
import functools
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .errors import CutoffMismatch, LadderForgeError

__all__ = [
    "ToleranceConfig",
    "FockCutoff",
    "Operator",
    "TwoModeState",
    "GeneratorSet",
    "build_generators",
    "commutator",
    "commutator_residual",
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
    "CreationPoly",
    "coherent_state",
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
        """Frobenius norm, scipy's as in interior_residual."""
        import scipy.sparse.linalg

        return float(scipy.sparse.linalg.norm(self.mat, "fro"))

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


# the generators in the order combine adds them: only the diagonal ones
# (n_op, j3, identity) share a shift, and they come last in this order
_GENERATORS = ("a1", "a2", "a1_dag", "a2_dag", "j_plus", "j_minus", "n_op", "j3", "identity")

# the seven shifts (dn1, dn2) of the generators, in column order: row
# |m1, m2> of a generator holds its weight in column |m1 + dn1, m2 + dn2>
_SHIFTS = ((-1, 0), (-1, 1), (0, -1), (0, 0), (0, 1), (1, -1), (1, 0))
_SHIFT_OF = {"a1_dag": 0, "j_plus": 1, "a2_dag": 2, "n_op": 3, "j3": 3, "identity": 3,
             "a2": 4, "j_minus": 5, "a1": 6}

# a product of two shifts moves the grid by their sum, one of 19 shifts:
# _PAIR_SHIFT[i, j] is where the pair of shifts i, j lands among them, and
# _OWN_SHIFT[i] where shift i itself does
_PRODUCT_SHIFTS = sorted({(a + c, b + d) for a, b in _SHIFTS for c, d in _SHIFTS})
_PAIR_SHIFT = np.array([[_PRODUCT_SHIFTS.index((a + c, b + d)) for c, d in _SHIFTS]
                        for a, b in _SHIFTS])
_OWN_SHIFT = [_PRODUCT_SHIFTS.index(s) for s in _SHIFTS]


def _inside(m1, m2, shift, n1_max: int, n2_max: int):
    """Where |m1 + dn1, m2 + dn2> lies in the box 0 <= n_i <= n_i_max."""
    d1, d2 = shift
    return (0 <= m1 + d1) & (m1 + d1 <= n1_max) & (0 <= m2 + d2) & (m2 + d2 <= n2_max)


@dataclass(frozen=True)
class GeneratorSet:
    """All algebra generators on one truncated basis, recorded as their
    weights on the occupation grid.

    n_op = (a1'a1 + a2'a2)/2, j3 = (a1'a1 - a2'a2)/2, j_plus = a1'a2,
    j_minus = a1 a2' (Schwinger realization built from the mode operators).
    `weights[name]` is the generator's weight on the grid padded by one zero
    layer and flattened row-major (stride n2_max + 3), so that a shift is a
    flat offset: row |m> of the generator holds the weight at |m> in the
    column one shift away, and the weight is zero where that column leaves
    the grid.  Every CSR form is assembled from these weights by _csr: each
    generator as an Operator on first use (`g.a1`, ...), and any linear
    combination of them by `combine`.
    """

    cutoff: FockCutoff
    weights: dict = field(repr=False, compare=False)

    def __getattr__(self, name: str) -> Operator:
        # reached only for a generator not built yet: once built, it is
        # found in the instance dict
        if name not in _GENERATORS:
            raise AttributeError(name)
        op = _csr(self.cutoff, {_SHIFT_OF[name]: self.weights[name]})
        object.__setattr__(self, name, op)
        return op

    @functools.cached_property
    def _work(self) -> tuple[np.ndarray, np.ndarray]:
        """commutator_residual's work arrays, kept from call to call so that
        their pages stay mapped: the real and imaginary weight parts of its
        three operands (3 x 2 x 7 x padded grid) and, flat, room for the two
        products' parts over every padded grid row (2 x 2 x 19 x rows); a
        smaller interior box uses the front."""
        cut = self.cutoff
        return (np.empty((3, 2, len(_SHIFTS), (cut.n1_max + 3) * (cut.n2_max + 3))),
                np.empty(4 * len(_PRODUCT_SHIFTS) * (cut.n1_max + 1) * (cut.n2_max + 3)))

    def combine(self, terms) -> Operator:
        """sum_k c_k G_k over the (generator name, c_k) pairs.  The diagonal
        generators are added in the order n_op, j3, identity whatever the
        order of `terms`, and each shift's sum is added to zero, so the
        entries are those of the chained Operator sum written in that order."""
        return _csr(self.cutoff, {k: 0 + w for k, w in _by_shift(self, terms).items()})

    def block(self, terms, keep: np.ndarray) -> np.ndarray:
        """combine(terms) restricted to the basis indices `keep`, as a dense
        |keep| x |keep| array read off the weights: entry (i, j) is the
        weight at keep[i] of the shift that reaches keep[j], added to zero as
        combine adds it, so the array equals
        combine(terms).mat[keep][:, keep].toarray() bit for bit."""
        stride = self.cutoff.n2_max + 3
        n1, n2 = np.divmod(keep, self.cutoff.n2_max + 1)
        at = (n1 + 1) * stride + n2 + 1   # keep on the flat padded grid
        where = np.full((self.cutoff.n1_max + 3) * stride, -1)
        where[at] = np.arange(keep.size)
        out = np.zeros((keep.size, keep.size), dtype=np.complex128)
        for k, w in _by_shift(self, terms).items():
            d1, d2 = _SHIFTS[k]
            col = where[at + d1 * stride + d2]
            row = np.flatnonzero(col >= 0)
            out[row, col[row]] = 0 + w[at[row]]
        return out


def _by_shift(g: GeneratorSet, terms) -> dict:
    """sum_k c_k G_k over the (generator name, c_k) terms with c_k != 0, as
    {shift: its weight on the flat padded grid}; the terms of a shift are
    added in combine's order.  The padding of a scaled weight may hold -0;
    a non-finite c_k scales only the nonzero weights, as 0 c_k would put a
    NaN where the column leaves the grid."""
    by_shift = {}
    for name, c in sorted(terms, key=lambda t: _GENERATORS.index(t[0])):
        if c != 0:
            k, w = _SHIFT_OF[name], g.weights[name] * complex(c)
            if not cmath.isfinite(c):
                w[g.weights[name] == 0] = 0
            by_shift[k] = by_shift[k] + w if k in by_shift else w
    return by_shift


def _csr(cutoff: FockCutoff, by_shift: dict) -> Operator:
    """The operator whose shift k has the flat padded weight by_shift[k], in
    canonical CSR form, assembled in one pass: the dim x K weights stacked in
    column order, the nonzero ones kept row by row.  Taken in column order,
    the shifts fill every row already sorted; two shifts with one column
    offset never both have a weight in one row."""
    import scipy.sparse as sp

    n1, n2, dim = cutoff.n1_max, cutoff.n2_max, cutoff.dim
    shifts = sorted(by_shift)
    data = np.empty((n1 + 1, n2 + 1, len(shifts)), dtype=np.complex128)
    for j, k in enumerate(shifts):
        data[..., j] = by_shift[k].reshape(n1 + 3, n2 + 3)[1:-1, 1:-1]
    data = data.reshape(dim, len(shifts))
    nz = data != 0
    cols = (np.arange(dim, dtype=np.int32)[:, None]
            + np.array([d1 * (n2 + 1) + d2 for d1, d2 in (_SHIFTS[k] for k in shifts)],
                       dtype=np.int32))
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
    on = [_inside(m1, m2, s, cutoff.n1_max, cutoff.n2_max) for s in _SHIFTS]
    padded = {}
    for name, w in weights.items():
        grid = np.zeros((cutoff.n1_max + 3, cutoff.n2_max + 3), dtype=np.complex128)
        grid[1:-1, 1:-1] = np.where(on[_SHIFT_OF[name]], w, 0)
        padded[name] = grid.ravel()
    return GeneratorSet(cutoff, padded)


def commutator(a: Operator, b: Operator) -> Operator:
    return a @ b - b @ a


def interior_indices(cutoff: FockCutoff, degree: int) -> np.ndarray:
    """Basis indices with n1 <= n1_max - degree and n2 <= n2_max - degree."""
    if degree < 0 or degree > min(cutoff.n1_max, cutoff.n2_max):
        raise ValueError(f"degree {degree} too large for cutoff {cutoff}")
    n1 = np.arange(cutoff.n1_max - degree + 1, dtype=np.intp)
    n2 = np.arange(cutoff.n2_max - degree + 1, dtype=np.intp)
    return (n1[:, None] * (cutoff.n2_max + 1) + n2).ravel()


# The kernel below works on the grid padded by one zero layer and flattened
# row-major (stride n2_max + 3), over the padded rows of the interior box
# taken whole: a shift is then a flat offset, and every slice is contiguous.
# The columns past the box in each row are formed too and never read.

@functools.lru_cache(maxsize=32)
def _interior_entries(cutoff: FockCutoff, degree: int) -> tuple[int, np.ndarray]:
    """The number of grid rows the degree-`degree` interior box spans, and
    the entries of a 19 x (those rows of the padded grid, flat) array of
    entries per product shift whose row and column both lie in the box: as
    flat indices into it, in row-major order of (row, column)."""
    m1, m2 = np.divmod(interior_indices(cutoff, degree), cutoff.n2_max + 1)
    hi1, hi2 = cutoff.n1_max - degree, cutoff.n2_max - degree
    inside = np.array([_inside(m1, m2, s, hi1, hi2) for s in _PRODUCT_SHIFTS])
    at = m1 * (cutoff.n2_max + 3) + m2 + 1
    flat = np.arange(len(_PRODUCT_SHIFTS))[:, None] * (hi1 + 1) * (cutoff.n2_max + 3) + at
    return hi1 + 1, flat.T[inside.T]


def _parts(by_shift: dict, out: np.ndarray) -> tuple[list, np.ndarray, np.ndarray]:
    """A _by_shift sum as the shifts it uses and, per shift, the real and
    imaginary parts of its weight, written into the front of `out`
    (2 x 7 x padded grid).  A -0 in the padding leaves every nonzero entry
    of a product and the norm as they are."""
    shifts = sorted(by_shift)
    for row, k in enumerate(shifts):
        out[0, row], out[1, row] = by_shift[k].real, by_shift[k].imag
    return shifts, out[0, :len(shifts)], out[1, :len(shifts)]


def _product(left, right, stride: int, rows: int,
             out: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Real and imaginary parts of the product of two _parts splits on
    the padded rows 1..rows, per product shift, summed into `out`
    (2 x 19 x rows * stride): row |m> of L_i R_j holds L_i[m] R_j[m + s_i]
    in column |m + s_i + s_j>.  Each entry is formed as a sparse row-by-row
    product forms it: summed over i in column order, each term rounded as
    (ar br - ai bi, ar bi + ai br), with no fused multiply-add."""
    (li, l_re, l_im), (rj, r_re, r_im) = left, right
    start, stop = stride, stride * (rows + 1)
    re, im = out
    out.fill(0.0)
    for row, i in enumerate(li):
        d1, d2 = _SHIFTS[i]
        at = d1 * stride + d2
        ar, ai = l_re[row, start:stop], l_im[row, start:stop]
        br, bi = r_re[:, start + at:stop + at], r_im[:, start + at:stop + at]
        t = _PAIR_SHIFT[i, rj]
        re[t] += ar * br - ai * bi
        im[t] += ar * bi + ai * br
    return re, im


def commutator_residual(g: GeneratorSet, x, y, z, degree: int) -> float:
    """||P([X, Y] + Z)P||_F on the degree-`degree` interior, for X, Y and Z
    in the span of the generators, each given as (generator name, c_k)
    terms as combine takes them.

    No matrix is formed: each operand is at most seven weighted shifts, a
    product at most 49 products of shifted slices summed into the 19
    product shifts, and only the rows of the box are formed; an entry counts
    when its column is in the box too.  A weight is zero where its column
    leaves the grid and the padding is zero, so every entry is that of the
    truncated matrices, formed with the roundings of scipy's sparse product,
    difference and sum, and the norm takes the nonzero entries in row-major
    order as interior_residual does on the CSR matrices.  Where scipy rounds
    without fused multiply-add and n2_max >= 4 (the 19 shifts then reach
    their columns in sorted order), the two agree to the last bit."""
    rows, kept = _interior_entries(g.cutoff, degree)
    stride = g.cutoff.n2_max + 3
    parts, products = g._work
    xy, yx = products[:4 * len(_PRODUCT_SHIFTS) * rows * stride].reshape(
        2, 2, len(_PRODUCT_SHIFTS), rows * stride)
    x, y = _parts(_by_shift(g, x), parts[0]), _parts(_by_shift(g, y), parts[1])
    (re, im), (yx_re, yx_im) = _product(x, y, stride, rows, xy), _product(y, x, stride, rows, yx)
    re -= yx_re
    im -= yx_im
    zk, z_re, z_im = _parts(_by_shift(g, z), parts[2])
    own = [_OWN_SHIFT[k] for k in zk]
    re[own] += z_re[:, stride:stride * (rows + 1)]
    im[own] += z_im[:, stride:stride * (rows + 1)]
    re, im = re.ravel()[kept], im.ravel()[kept]
    nonzero = (re != 0) | (im != 0)
    entries = np.empty(np.count_nonzero(nonzero), dtype=np.complex128)
    entries.real, entries.imag = re[nonzero], im[nonzero]
    return float(np.linalg.norm(entries))


def interior_projector(cutoff: FockCutoff, degree: int) -> Operator:
    """Diagonal 0/1 projector masking the outer `degree` occupation layers;
    the reference that interior_residual is tested against."""
    import scipy.sparse as sp

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
    import scipy.sparse as sp

    diag = np.zeros(cutoff.dim)
    diag[shell_indices(cutoff, s_max)] = 1.0
    return Operator(cutoff, sp.diags(diag, format="csr", dtype=np.complex128))


def interior_residual(op: Operator, keep: np.ndarray) -> float:
    """Frobenius norm of `op` restricted to the sorted basis indices `keep`
    (interior_indices or shell_indices), i.e. ||P op P||_F for the diagonal
    projector P onto them.  The restriction keeps the stored entries in
    row-major order, so the sum runs in the same order as for P op P.

    The norm is scipy.sparse.linalg.norm(sub, "fro"), though it equals
    np.linalg.norm(sub.data): chen then always loads scipy.sparse.linalg
    (about 10 MB with the scipy.linalg it imports), so whether a process
    that runs chen loads it does not hang on whether some spectrum energy
    took shift-invert, the only other path to it."""
    import scipy.sparse.linalg

    sub = op.mat[keep][:, keep]
    sub.sort_indices()
    return float(scipy.sparse.linalg.norm(sub, "fro"))


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


def vacuum_state(cutoff: FockCutoff) -> TwoModeState:
    return basis_state(cutoff, 0, 0)


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


def coherent_state(cutoff: FockCutoff, x1: complex, x2: complex) -> TwoModeState:
    """exp(x1 a1' + x2 a2')|0> on the truncated space, unnormalized: the
    amplitude of |n1, n2> is x1^n1 / sqrt(n1!) * x2^n2 / sqrt(n2!), which
    the truncated series gives exactly."""
    return TwoModeState(cutoff, np.outer(_coherent_factor(cutoff.n1_max, complex(x1)),
                                         _coherent_factor(cutoff.n2_max, complex(x2))))


# ---------------------------------------------------------------------------
# serialization: operators as sparse entry lists, states as dense re/im pairs
# ---------------------------------------------------------------------------

def operator_to_json(a: Operator) -> dict:
    return {
        "cutoff": [a.cutoff.n1_max, a.cutoff.n2_max],
        "entries": [[r, c, z.real, z.imag] for r, c, z in a.entries()],
    }


def operator_from_json(payload: dict) -> Operator:
    import scipy.sparse as sp

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
        "amplitudes": np.column_stack((v.amplitudes.real, v.amplitudes.imag)).tolist(),
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
