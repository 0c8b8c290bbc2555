"""Truncated two-mode bosonic Fock space: basis bookkeeping, operators,
states, and the generator set every other module is built from.

The basis is the occupation grid {|n1, n2> : 0 <= n_i <= n_i_max}, stored
row-major so that index(n1, n2) = n1 * (n2_max + 1) + n2.  Creation operators
are hard-truncated: a_i^dag maps the top occupation level to the zero vector.
Truncation artifacts are masked in all checks by restricting to interior
index sets.

Every operator is written once, as normal-ordered monomials
a1'^p a2'^q a1^r a2^s (Poly), and lowered to a cutoff as weighted shifts of
the grid (Operator): the nine generators (GeneratorSet), their combinations
and chen's p:q operators alike; creation polynomials also act on states
directly.  Identities are checked by brute force on the lowered weights
(commutator_residual), never in the algebra, with the roundings of scipy's
sparse arithmetic on the CSR matrix, which the test suite holds as its
oracle.  The one CSR form built here, Operator.csr, is the matrix `spectrum`
multiplies by; scipy.sparse is imported there alone, so the other scenarios
never load scipy.

States are written as JSON and CSV here too, every float as float.__repr__
writes it; repr_chars writes a whole float array at once.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .errors import CutoffMismatch, CutoffTooSmall, LadderForgeError

__all__ = [
    "ToleranceConfig",
    "FockCutoff",
    "Operator",
    "TwoModeState",
    "GeneratorSet",
    "build_generators",
    "commutator_residual",
    "interior_indices",
    "norm",
    "normalize",
    "basis_state",
    "Poly",
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


class Operator:
    """An operator as weighted shifts of the grid: `weights[(dn1, dn2)]` is
    its weight on the grid padded by one zero layer, flattened row-major
    (stride n2_max + 3); row |m> holds the weight at |m> in column
    |m1 + dn1, m2 + dn2>, zero where that column leaves the grid.  Sums,
    scalar multiples, products (`@`, summed by _product) and the adjoint form
    each weight as scipy's sparse arithmetic forms the entry of the CSR
    matrix, a missing shift counting as zero, so `csr` gives that matrix bit
    for bit."""

    __slots__ = ("cutoff", "weights")
    __array_ufunc__ = None   # numpy scalars defer to the reflected operators

    def __init__(self, cutoff: FockCutoff, weights: dict):
        self.cutoff, self.weights = cutoff, weights

    def __add__(self, other: "Operator") -> "Operator":
        return Operator(self.cutoff, {k: self.weights.get(k, 0) + other.weights.get(k, 0)
                                      for k in {*self.weights, *other.weights}})

    def __sub__(self, other: "Operator") -> "Operator":
        return Operator(self.cutoff, {k: self.weights.get(k, 0) - other.weights.get(k, 0)
                                      for k in {*self.weights, *other.weights}})

    def __mul__(self, scalar) -> "Operator":
        return Operator(self.cutoff, {k: w * complex(scalar) for k, w in self.weights.items()})

    __rmul__ = __mul__

    def __truediv__(self, scalar) -> "Operator":
        return self * (1 / complex(scalar))

    def __matmul__(self, other: "Operator") -> "Operator":
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
        return Operator(self.cutoff, out)

    def dag(self) -> "Operator":
        """The adjoint: shift -s, with weight conj(w_s[m]) at |m + s>."""
        stride = self.cutoff.n2_max + 3
        return Operator(self.cutoff, {(-a, -b): np.conj(np.roll(w, a * stride + b))
                                      for (a, b), w in self.weights.items()})

    def _grid(self, w: np.ndarray) -> np.ndarray:
        """A weight on the grid itself, its padding dropped."""
        return w.reshape(self.cutoff.n1_max + 3, self.cutoff.n2_max + 3)[1:-1, 1:-1]

    @property
    def nnz(self) -> int:
        """The number of nonzero weights on the grid: the stored entries of csr()."""
        return sum(np.count_nonzero(self._grid(w)) for w in self.weights.values())

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

    def csr(self):
        """The operator as a scipy CSR matrix in canonical form (sorted
        indices, no duplicate entries, no stored zeros), assembled in one
        pass: the dim x K weights stacked in sorted order of the shifts, the
        nonzero ones kept row by row.  That fills every row already sorted:
        the columns on the grid of one row fall in the order of their
        shifts."""
        import scipy.sparse as sp

        n2, dim = self.cutoff.n2_max, self.cutoff.dim
        shifts = sorted(self.weights)
        data = np.empty((dim, len(shifts)), dtype=np.complex128)
        for j, k in enumerate(shifts):
            data[:, j] = self._grid(self.weights[k]).ravel()
        nz = data != 0
        cols = (np.arange(dim, dtype=np.int32)[:, None]
                + np.array([d1 * (n2 + 1) + d2 for d1, d2 in shifts], dtype=np.int32))
        indptr = np.zeros(dim + 1, dtype=np.int32)
        np.cumsum(np.count_nonzero(nz, axis=1), out=indptr[1:])
        return sp.csr_matrix((data[nz], cols[nz], indptr), shape=(dim, dim))


class Poly:
    """A polynomial in the mode operators as its normal-ordered monomials
    a1'^p a2'^q a1^r a2^s, {(p, q, r, s): c} over the nonzero c.  Sums,
    scalar multiples and the adjoint act on the coefficients; a product (`@`)
    normal-orders each mode by the one-mode rule
        a^r a'^P = sum_k k! C(r, k) C(P, k) a'^(P - k) a^(r - k),
    exact in the algebra.  `lower` gives the operator on a cutoff, which is
    the product of its factors' lowerings wherever no intermediate state of
    the product leaves the grid; a creation polynomial (r = s = 0) acts on
    states directly (`on`), exactly, as the truncated a1', a2' commute."""

    __slots__ = ("coeffs",)
    __array_ufunc__ = None   # numpy scalars defer to the reflected operators

    def __init__(self, coeffs: dict):
        self.coeffs = {k: complex(c) for k, c in coeffs.items() if c != 0}

    def __add__(self, other: "Poly") -> "Poly":
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            out[k] = out.get(k, 0) + c
        return Poly(out)

    def __sub__(self, other: "Poly") -> "Poly":
        return self + -1.0 * other

    def __mul__(self, scalar) -> "Poly":
        return Poly({k: c * complex(scalar) for k, c in self.coeffs.items()})

    __rmul__ = __mul__

    def __matmul__(self, other: "Poly") -> "Poly":
        out = {}
        for (p, q, r, s), c in self.coeffs.items():
            for (p2, q2, r2, s2), d in other.coeffs.items():
                for k1, k2 in itertools.product(range(min(r, p2) + 1), range(min(s, q2) + 1)):
                    term, key = c * d, (p + p2 - k1, q + q2 - k2, r - k1 + r2, s - k2 + s2)
                    if k1 or k2:   # a factor of 1 would only move the sign of a zero
                        term *= (math.perm(r, k1) * math.comb(p2, k1)
                                 * math.perm(s, k2) * math.comb(q2, k2))
                    out[key] = out.get(key, 0) + term
        return Poly(out)

    def dag(self) -> "Poly":
        return Poly({(r, s, p, q): c.conjugate() for (p, q, r, s), c in self.coeffs.items()})

    @property
    def degrees(self) -> tuple[int, int] | None:
        """(max p, max q) over the terms; None for the zero polynomial."""
        return tuple(map(max, zip(*self.coeffs)))[:2] or None

    def lower(self, cutoff: FockCutoff) -> Operator:
        """The weighted shifts on `cutoff`: a1'^p a2'^q a1^r a2^s at shift
        (r - p, s - q), row |m1, m2> holding c R1(m1, p) R1(m1 - p + r, r)
        R2(m2, q) R2(m2 - q + s, s) (_mode_weights), zero where the column
        leaves the grid.  c scales the real and imaginary parts apart, so
        the adjoint's conj(1) = 1 - 0j keeps a conjugate transpose's -0."""
        out = {}
        for (p, q, r, s), c in self.coeffs.items():
            (lo1, f1), (lo2, f2) = (_mode_weights(cutoff.n1_max, p, r),
                                    _mode_weights(cutoff.n2_max, q, s))
            w = np.zeros((cutoff.n1_max + 3, cutoff.n2_max + 3), dtype=np.complex128)
            box, grid = w[1 + lo1:1 + lo1 + len(f1), 1 + lo2:1 + lo2 + len(f2)], np.outer(f1, f2)
            box.real, box.imag = c.real * grid, c.imag * grid
            k = (r - p, s - q)
            out[k] = out[k] + w.ravel() if k in out else w.ravel()
        return Operator(cutoff, out)

    def on(self, cutoff: FockCutoff):
        """A creation polynomial on `cutoff`, as a function of amplitude
        arrays whose last axis is the flat grid: a1'^p a2'^q moves the flat
        index by p (n2_max + 1) + q with weight R1(n1, p) R2(n2, q) at the
        landing |n1, n2>, zero where a slice wraps round a row of the grid."""
        dim, terms = cutoff.dim, []
        for (p, q, _, _), c in self.coeffs.items():
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
        return f"Poly({self.coeffs})"


@functools.lru_cache(maxsize=256)
def _falling_roots(n_max: int, p: int) -> np.ndarray:
    """sqrt(n! / (n - p)!) for n = 0..n_max, zero where n < p: the weight of
    a'^p at each landing level, read-only."""
    n = np.arange(n_max + 1.0)
    out = np.zeros(n_max + 1)
    out[p:] = np.prod(np.sqrt(n[p:, None] - np.arange(p)), axis=1)
    out.flags.writeable = False
    return out


def _mode_weights(n_max: int, p: int, r: int) -> tuple[int, np.ndarray]:
    """lo, and the weights R(m, p) R(m - p + r, r) of a'^p a^r in the rows
    m = lo.. whose column m - p + r lies on 0..n_max (R = _falling_roots)."""
    lo = max(0, p - r)
    hi = max(lo - 1, min(n_max, n_max + p - r))
    roots_p, roots_r = _falling_roots(n_max, p), _falling_roots(n_max, r)
    return lo, roots_p[lo:hi + 1] * roots_r[lo - p + r:hi - p + r + 1]


_A1, _A2 = Poly({(0, 0, 1, 0): 1.0}), Poly({(0, 0, 0, 1): 1.0})
# the nine generators, in the order GeneratorSet.shifts adds them: only the
# diagonal ones (n_op, j3, identity) share a shift, and they come last.  The
# adjoints carry conj(1) = 1 - 0j, their products 1 + 0j.
_GENERATORS = {"a1": _A1, "a2": _A2, "a1_dag": _A1.dag(), "a2_dag": _A2.dag(),
               "j_plus": _A1.dag() @ _A2, "j_minus": _A1 @ _A2.dag(),
               "n_op": 0.5 * (_A1.dag() @ _A1 + _A2.dag() @ _A2),
               "j3": 0.5 * (_A1.dag() @ _A1 - _A2.dag() @ _A2),
               "identity": Poly({(0, 0, 0, 0): 1.0})}
# the shift (dn1, dn2) of each generator, which all its monomials share: row
# |m1, m2> holds its weight in column |m1 + dn1, m2 + dn2>
_SHIFT_OF = {name: next((r - p, s - q) for p, q, r, s in poly.coeffs)
             for name, poly in _GENERATORS.items()}
_SHIFTS = tuple(sorted(set(_SHIFT_OF.values())))
_ORDER = {name: i for i, name in enumerate(_GENERATORS)}
A1_DAG, A2_DAG = Poly({(1, 0, 0, 0): 1.0}), Poly({(0, 1, 0, 0): 1.0})


@dataclass(frozen=True)
class GeneratorSet:
    """All algebra generators on one truncated basis: `weights[name]` is the
    weight of _GENERATORS[name] lowered to the grid, in the layout of
    Operator (the grid padded by one zero layer, flattened row-major with
    stride n2_max + 3, so that its shift is a flat offset).  Each generator
    is an Operator (`shift`), and so is any linear combination (`shifts`)."""

    cutoff: FockCutoff
    weights: dict = field(repr=False, compare=False)

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

    def shift(self, name: str) -> Operator:
        """The generator `name` as an Operator, its weights as built."""
        return Operator(self.cutoff, {_SHIFT_OF[name]: self.weights[name]})

    def shifts(self, terms) -> Operator:
        """sum_k c_k G_k over the (generator name, c_k) terms with c_k != 0,
        each shift's terms summed from zero in the order of _GENERATORS
        whatever the order of `terms`: the weights are the entries of the
        chained sum of the scaled generators' CSR matrices written in that
        order.  A non-finite c_k scales only the nonzero weights, as 0 c_k
        would put a NaN where the column leaves the grid."""
        by_shift = {}
        for name, c in sorted(terms, key=lambda t: _ORDER[t[0]]):
            if c != 0:
                k, w = _SHIFT_OF[name], self.weights[name] * complex(c)
                if not cmath.isfinite(c):
                    w[self.weights[name] == 0] = 0
                by_shift[k] = by_shift.get(k, 0) + w
        return Operator(self.cutoff, by_shift)

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


def build_generators(cutoff: FockCutoff) -> GeneratorSet:
    """The generators' monomials lowered to `cutoff`, every entry that of the
    product build bit for bit: the diagonal of a1'a1 is sqrt(m1) sqrt(m1),
    not m1, and a1', a2' carry the -0 imaginary part of an adjoint."""
    return GeneratorSet(cutoff, {name: poly.lower(cutoff).weights[_SHIFT_OF[name]]
                                 for name, poly in _GENERATORS.items()})


def interior_indices(cutoff: FockCutoff, degree: int) -> np.ndarray:
    """Basis indices with n1 <= n1_max - degree and n2 <= n2_max - degree."""
    if degree < 0 or degree > min(cutoff.n1_max, cutoff.n2_max):
        raise ValueError(f"degree {degree} too large for cutoff {cutoff}")
    n1 = np.arange(cutoff.n1_max - degree + 1, dtype=np.intp)
    n2 = np.arange(cutoff.n2_max - degree + 1, dtype=np.intp)
    return (n1[:, None] * (cutoff.n2_max + 1) + n2).ravel()


# The kernel below works in the layout of Operator, over the padded rows of
# the interior box taken whole: a shift is then a flat offset, and every
# slice is contiguous.  The columns past the box in each row are formed too
# and never read.

@functools.lru_cache(maxsize=64)
def _products(shifts: tuple, stride: int) -> tuple[tuple, np.ndarray, tuple, int]:
    """The shifts products of two of `shifts` land on, and `shifts`, sorted;
    where the product of shifts i and j lands among them (read-only, as the
    cache hands it to every caller); where shift i does; and the zeros to lay
    on each side of the flat padded grid (of stride `stride`) that keep any
    grid rows moved by one of `shifts` on the array."""
    out = tuple(sorted({(a + c, b + d) for a, b in shifts for c, d in shifts} | set(shifts)))
    pairs = np.array([[out.index((a + c, b + d)) for c, d in shifts] for a, b in shifts])
    pairs.flags.writeable = False
    return (out, pairs, tuple(out.index(s) for s in shifts),
            max([0, *(abs(a * stride + b) - stride for a, b in shifts)]))


@functools.lru_cache(maxsize=32)
def _interior_entries(cutoff: FockCutoff, degree: int, shifts: tuple) -> tuple[int, np.ndarray]:
    """The number of grid rows the degree-`degree` interior box spans, and the
    entries of a (products of `shifts`) x (those padded rows, flat) array whose
    row and column lie in the box, as flat indices in row-major (row, column)
    order, read-only."""
    products = _products(shifts, cutoff.n2_max + 3)[0]
    m1, m2 = np.divmod(interior_indices(cutoff, degree), cutoff.n2_max + 1)
    hi1, hi2, stride = cutoff.n1_max - degree, cutoff.n2_max - degree, cutoff.n2_max + 3
    inside = np.array([(0 <= m1 + a) & (m1 + a <= hi1) & (0 <= m2 + b) & (m2 + b <= hi2)
                       for a, b in products])
    flat = np.arange(len(products))[:, None] * (hi1 + 1) * stride + m1 * stride + m2 + 1
    kept = flat.T[inside.T]
    kept.flags.writeable = False
    return hi1 + 1, kept


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


def commutator_residual(g: GeneratorSet, x: Operator, y: Operator, z: Operator,
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
# numbers as text: float.__repr__ of a whole array at once
# ---------------------------------------------------------------------------

_EPS = float(np.finfo(np.longdouble).eps)
_TEN_LOW = -292             # _tens()[i] is 10^(i + _TEN_LOW)
_WIDTH = 45                 # the chars of one text, NULs included: see repr_chars
_DOUBLE = np.finfo(np.float64)


@functools.cache
def _tens() -> np.ndarray:
    """10^p correctly rounded to long double, for each p that scales a
    normal double to 17 integer digits."""
    tens = np.array([f"1e{p}" for p in range(_TEN_LOW, 325)], dtype=np.longdouble)
    tens.flags.writeable = False
    return tens


@functools.cache
def _quads() -> np.ndarray:
    """The four ASCII digits of 0..9999, one uint32 each."""
    return np.frombuffer("".join(f"{i:04d}" for i in range(10000)).encode(), np.uint32)


@functools.cache
def _exponents() -> np.ndarray:
    """Row 0 NUL, row e + 400 the text of exponent e: e-05, e+16, e-100."""
    return np.frombuffer(b"\0" * 5 + b"".join(f"e{e:+03d}".encode().ljust(5, b"\0")
                                              for e in range(-399, 400)), np.uint8).reshape(-1, 5)


_FRACTION_LEADS = np.frombuffer(b"\0\0\0\0\0" b"0.\0\0\0" b"0.0\0\0" b"0.00\0" b"0.000",
                                np.uint8).reshape(5, 5)


def _digits(q: np.ndarray) -> np.ndarray:
    """The 17 ASCII digits of each q < 10^17, zero-padded, as a uint8 matrix."""
    hi, lo = np.divmod(q, 10 ** 8)
    quads = np.stack([hi // 10 ** 8, *np.divmod(hi % 10 ** 8, 10 ** 4), *np.divmod(lo, 10 ** 4)], 1)
    return _quads()[quads].view(np.uint8)[:, 3:]


def _gaps(whole: np.ndarray, frac: np.ndarray, ten) -> tuple:
    """For t = whole + frac, whole an integer and frac in [0, 1): (t mod ten
    as an integer, the distance from t down to a multiple of ten, the
    distance up to the next one), the distances in double."""
    r = whole % ten
    return r, r + frac, (ten - r) - frac


def _shortest(y: np.ndarray, mant: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(decided, chars) for nonzero normal doubles y that are not powers of
    two, mant their frexp mantissas: chars as repr_chars writes them, right
    where decided.

    The shortest repr of x is the least n <= 17 for which the n-digit
    decimal nearest x lies strictly inside x's round-trip interval, x plus
    or minus half its spacing.  Scaled by 10^p so that x has 17 integer
    digits, t = x 10^p, the n-digit decimals are the multiples of 10^(17-n),
    and the interval is t +- h with h = t / (mant 2^54), between 1/2 and 12:
    n is 17 - j for the largest j whose nearest multiple of 10^j lies within
    h of t; the nearer the multiple, the longer it stays within, so j is
    found stepping up.  t is computed in long double, within 2 eps t of
    x 10^p (eps of long double; the table of 10^p is correctly rounded),
    then split into its integer part and its fraction; the distances to
    multiples, and h, are formed in double, and where they are below 16
    they lie within 2^-49 of those of the computed t (exactly on them
    where long double has 64 bits: t's fraction then has at most 10 bits).
    Where a distance lies within 4 eps t + 2^-48 of h, or the nearest
    multiple as near to halfway (two n-digit decimals about equally near),
    or the estimate of p left t below 10^16 or its nearest multiple at
    10^17 (one more digit), the entry is not decided: the caller writes it
    with float.__repr__.  Where long double
    is plain double, 4 eps t exceeds h and nothing is decided."""
    x = np.abs(y)
    k = np.floor(np.log10(x)).astype(np.intp)   # the decimal exponent, or one off
    with np.errstate(all="ignore"):             # an overflowing table where long double is double
        t = x * _tens()[16 - k - _TEN_LOW]
        h = (t / (mant * 2.0 ** 54)).astype(np.float64)
        whole = t.astype(np.int64)
        frac = (t - whole).astype(np.float64)
    j, live = np.zeros(t.size, np.intp), np.arange(t.size)
    for p in range(1, 17):
        _, down, up = _gaps(whole[live], frac[live], 10 ** p)
        live = live[np.minimum(down, up) < h[live]]
        j[live] = p
        if not live.size:
            break
    ten = 10 ** j
    r, down, up = _gaps(whole, frac, ten)
    near = np.minimum(down, up)
    far = np.minimum(*_gaps(whole, frac, 10 * ten)[1:])
    q = whole - r + np.where(up < down, ten, 0)  # the multiple nearest t
    margin = 4 * _EPS * whole + 2.0 ** -48
    decided = ((near < np.minimum(h, ten / 2) - margin) & (far > h + margin)
               & (whole >= 10 ** 16) & (q < 10 ** 17))
    q = np.where(decided, q, 0)
    n, decpt = 17 - j, k + 1                    # x = 0.d1...dn 10^decpt
    fixed = (decpt > -4) & (decpt <= 16)
    point = np.where(fixed, decpt, 1)           # the digits before the point
    chars = np.zeros((y.size, _WIDTH), np.uint8)
    chars[:, 0] = np.signbit(y) * np.uint8(ord("-"))
    chars[:, 1:6] = _FRACTION_LEADS[np.maximum(1 - point, 0)]
    # the digits of q, its trailing zeros kept up to the point
    chars[:, 6:40:2] = _digits(q) * (np.arange(17) < np.maximum(n, point)[:, None])
    dot = np.flatnonzero((point > 0) & (fixed | (n > 1)))
    chars[dot, 5 + 2 * point[dot]] = ord(".")
    integral = np.flatnonzero(fixed & (n <= point))
    chars[integral, 6 + 2 * point[integral]] = ord("0")
    chars[:, 40:] = _exponents()[np.where(fixed, 0, decpt + 399)]
    return decided, chars


def repr_chars(a) -> np.ndarray:
    """float.__repr__ of every entry of the float array a, as a uint8 matrix
    of shape a.shape + (45,): the non-NUL bytes of each row spell the text
    in order (join_chars drops the NULs).

    The layout has a column for every place a character can take: the
    sign; "0." and up to three zeros before the digits of a number below
    1e-3 written without exponent; 17 digits, each followed by a column for
    the point or the "0" of an integral value; "e", the exponent's sign and
    its three digits.
    Zeros are written as 0.0 and -0.0; nonzero normal doubles that are not
    powers of two by _shortest; the entries it does not decide, and
    subnormals, powers of two, infinities and NaN, by float.__repr__."""
    a = np.asarray(a, dtype=np.float64)
    y = a.ravel()
    x = np.abs(y)
    chars = np.zeros((y.size, _WIDTH), np.uint8)
    mant = np.frexp(x)[0]
    fast = np.flatnonzero((mant != 0.5) & (x >= _DOUBLE.smallest_normal) & (x <= _DOUBLE.max))
    decided, rows = _shortest(y[fast], mant[fast])
    chars[fast] = rows
    zero = np.flatnonzero(x == 0)
    chars[zero, :4] = np.frombuffer(b"0.0\0-0.0", np.uint8).reshape(2, 4)[
        np.signbit(y[zero]).astype(np.intp)]
    rest = np.ones(y.size, bool)
    rest[fast[decided]] = rest[zero] = False
    rest = np.flatnonzero(rest)
    texts = [float.__repr__(v).encode() for v in y[rest].tolist()]
    chars[rest] = np.array(texts, dtype=f"S{_WIDTH}").view(np.uint8).reshape(-1, _WIDTH)
    return chars.reshape(a.shape + (_WIDTH,))


def join_chars(parts) -> str:
    """Each row of the uint8 char matrices and byte strings of parts, side
    by side, rows one after another, NULs dropped."""
    rows = max(len(p) for p in parts if isinstance(p, np.ndarray))
    cols = [p if isinstance(p, np.ndarray) else np.tile(np.frombuffer(p, np.uint8), (rows, 1))
            for p in parts]
    return np.concatenate(cols, axis=1).tobytes().translate(None, b"\0").decode("ascii")


# ---------------------------------------------------------------------------
# serialization: states as dense re/im pairs
# ---------------------------------------------------------------------------

def state_to_json(v: TwoModeState) -> dict:
    """The cutoff and the amplitudes as a (dim, 2) array of re, im pairs."""
    return {
        "cutoff": [v.cutoff.n1_max, v.cutoff.n2_max],
        "amplitudes": np.column_stack((v.amplitudes.real, v.amplitudes.imag)),
    }


def state_to_csv(v: TwoModeState) -> str:
    """CSV rows (n1, n2, re, im, probability), header included; the
    probability is abs(z) ** 2, as Python computes it."""
    n1, n2 = np.divmod(np.arange(v.cutoff.dim), v.cutoff.n2_max + 1)
    index = [np.array(n.tolist(), dtype="S").view(np.uint8).reshape(v.cutoff.dim, -1)
             for n in (n1, n2)]
    prob = repr_chars([abs(z) ** 2 for z in v.amplitudes.tolist()])
    return "n1,n2,re,im,probability\n" + join_chars(
        [index[0], b",", index[1], b",", repr_chars(v.amplitudes.real), b",",
         repr_chars(v.amplitudes.imag), b",", prob, b"\n"])
