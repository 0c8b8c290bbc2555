"""Independent references, and the dense paths the package's closed forms
replaced.

For the generators: the CSR operator the package's weighted shifts
(fock.Operator) are checked against (CsrOperator: scipy's canonical CSR
matrix with scipy's sums, products and adjoint), the generators and their
combinations as such (csr_generators, combine), and its mat-vec (apply);
the interior and shell projectors, the commutator as CSR products and
interior_residual, the Frobenius norm of a CSR matrix restricted to an
index set, which commutator_residual must match bit for bit; the
generators as Kronecker and matrix products of the one-mode annihilator,
and H and A as chained CsrOperator sums of them; scipy's sparse Frobenius
norm; the ladder identity as CSR products restricted to the interior;
chen's p:q operators as chained products of the CSR generators, and their
identities as CSR products.

For the closed-form reduction: coefficient readers that take an operator's
coefficients off its matrix, the rotated couplings and basic parameters
written out from the rotation's cosine and sine rather than from its angle,
the mixing rotation named by (eps, b, beta3), the frame's columns stepped
by creation steps on the whole grid (stepped_columns), reduce's shells and
residuals formed from them there (full_grid_shell_max,
full_grid_reduce_residuals), a generator combination restricted to an
index set (block), and the built unitaries: scipy's Pade-13 expm per
invariant block of a truncated generator (expm, build_unitary,
build_chain), similarity, the product form of the mixing rotation
(verify_disentangled_T) on the shell-safe interior (rotation_safe_degree),
and the JSON reader of a chain step.

For the spectra: the raising power from its normal-ordered expansion
(normal_order_power, with the contraction counts in closed form and by
recurrence) and the dense eigvalsh of the interior block
(diagonalize_oracle), which nearest_eigenvalues must reproduce.

For the polynomials (fock.Poly) and the eigenstates: each monomial as the
CSR product of its factors (csr_poly), the state exp(E) P^kappa |0> as a
Taylor series of CSR mat-vecs on the whole exponent, the su(2) binomial
ground in closed form (su2_ground), and the fractional kappa family from its
own formula (fractional_lambda_state).

For serialization: a state's CSV table written row by row, one f-string
and float.__repr__ per number (state_csv), which fock.state_to_csv must
reproduce byte for byte.
"""

import math
from dataclasses import dataclass
from math import comb, factorial
from types import SimpleNamespace

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg
from scipy.sparse import csgraph

from ladderforge import eigenstates
from ladderforge.chen import PQParams
from ladderforge.eigenstates import EigenstateRequest
from ladderforge.errors import CutoffMismatch, CutoffTooSmall, DomainError, LadderForgeError
from ladderforge.fock import (_GENERATORS, A1_DAG, A2_DAG, FockCutoff,
                              GeneratorSet, Operator, Poly, TwoModeState, basis_state,
                              build_generators, coherent_state, interior_indices, normalize)
from ladderforge.params import (HamiltonianParams, LadderCoeffs,
                                build_hamiltonian, build_ladder, parse_complex)
from ladderforge.reductions import Frame, _compose
from ladderforge.spectra import _hermitian_interior
from ladderforge.transforms import UnitarySpec, mixing_angle


# cutoffs the one-pass build is checked at; at N2 = 1 the j_plus and a2_dag
# shifts fall on one flat diagonal, and on the one-mode grids (N2 = 0 or
# N1 = 0) several shifts fall on the diagonal's
ORACLE_CUTOFFS = [(0, 0), (1, 1), (2, 5), (5, 1), (12, 16), (40, 40), (4, 0), (0, 4)]


class CsrOperator:
    """Sparse complex matrix over a fixed truncated basis, stored in canonical
    CSR form (sorted indices, no duplicate entries, no stored zeros), with
    scipy's sums, scalar multiples, products and adjoint.  The argument is
    never modified: a CSR matrix or (data, indices, indptr) tuple may lend
    its arrays, and when they are not canonical the canonical form is made
    on a copy of them."""

    __slots__ = ("cutoff", "mat")

    def __init__(self, cutoff: FockCutoff, mat):
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

    def _check(self, other: "CsrOperator") -> None:
        if self.cutoff != other.cutoff:
            raise CutoffMismatch(f"{self.cutoff} vs {other.cutoff}")

    def _result(self, m) -> "CsrOperator":
        """Wrap a CSR matrix scipy has just made: nobody else holds it, so
        it is made canonical in place."""
        m.eliminate_zeros()
        m.sort_indices()
        return CsrOperator(self.cutoff, m)

    def dag(self) -> "CsrOperator":
        return CsrOperator(self.cutoff, self.mat.conj().T)

    def __add__(self, other: "CsrOperator") -> "CsrOperator":
        self._check(other)
        return self._result(self.mat + other.mat)

    def __sub__(self, other: "CsrOperator") -> "CsrOperator":
        self._check(other)
        return self._result(self.mat - other.mat)

    def __neg__(self) -> "CsrOperator":
        return self._result(-self.mat)

    def __mul__(self, scalar) -> "CsrOperator":
        return self._result(self.mat * complex(scalar))

    __rmul__ = __mul__

    def __truediv__(self, scalar) -> "CsrOperator":
        return self._result(self.mat / complex(scalar))

    def __matmul__(self, other: "CsrOperator") -> "CsrOperator":
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


def csr(op: Operator) -> CsrOperator:
    """The weighted shifts' CSR matrix (Operator.csr) as a CsrOperator."""
    return CsrOperator(op.cutoff, op.csr())


def csr_generators(g: GeneratorSet) -> SimpleNamespace:
    """The nine generators as CsrOperators, each assembled from its grid
    weights (GeneratorSet.shift, Operator.csr)."""
    return SimpleNamespace(cutoff=g.cutoff, **{name: csr(g.shift(name)) for name in _GENERATORS})


def combine(g: GeneratorSet, terms) -> CsrOperator:
    """sum_k c_k G_k over the (generator name, c_k) terms as a CsrOperator."""
    return csr(g.shifts(terms))


def apply(a: CsrOperator, v: TwoModeState) -> TwoModeState:
    """scipy's CSR mat-vec of a on v."""
    if a.cutoff != v.cutoff:
        raise CutoffMismatch(f"{a.cutoff} vs {v.cutoff}")
    return TwoModeState(v.cutoff, a.mat @ v.amplitudes)


def assert_same_csr(op: CsrOperator, ref: CsrOperator) -> None:
    """Identical CSR arrays, the data bit for bit (the sign of zero included)."""
    assert op.mat.indptr.dtype == ref.mat.indptr.dtype
    np.testing.assert_array_equal(op.mat.indptr, ref.mat.indptr)
    np.testing.assert_array_equal(op.mat.indices, ref.mat.indices)
    assert op.mat.data.shape == ref.mat.data.shape
    np.testing.assert_array_equal(op.mat.data.view(np.uint64), ref.mat.data.view(np.uint64))


def commutator(a: CsrOperator, b: CsrOperator) -> CsrOperator:
    return a @ b - b @ a


def interior_residual(op: CsrOperator, keep: np.ndarray) -> float:
    """Frobenius norm of `op` restricted to the sorted basis indices `keep`
    (interior_indices or shell_indices), i.e. ||P op P||_F for the diagonal
    projector P onto them.  The restriction keeps the stored entries in
    row-major order, so the sum runs in the same order as for P op P, and
    the norm is that of the stored entries, as scipy takes it."""
    sub = op.mat[keep][:, keep]
    sub.sort_indices()
    return float(np.linalg.norm(sub.data))


def vacuum_state(cutoff: FockCutoff) -> TwoModeState:
    return basis_state(cutoff, 0, 0)


def coeffs_from_json(d: dict) -> LadderCoeffs:
    """The reader of params.coeffs_to_json's records."""
    return LadderCoeffs(**{k: parse_complex(d.get(k, 0)) for k in
                           ("mu1", "mu2", "nu1", "nu2",
                            "alpha_plus", "alpha_minus", "alpha3", "a0")})


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


def interior_projector(cutoff: FockCutoff, degree: int) -> CsrOperator:
    """Diagonal 0/1 projector masking the outer `degree` occupation layers."""
    diag = np.zeros(cutoff.dim)
    diag[interior_indices(cutoff, degree)] = 1.0
    return CsrOperator(cutoff, sp.diags(diag, format="csr", dtype=np.complex128))


def shell_projector(cutoff: FockCutoff, s_max: int) -> CsrOperator:
    """Diagonal 0/1 projector onto total occupation <= s_max."""
    diag = np.zeros(cutoff.dim)
    diag[shell_indices(cutoff, s_max)] = 1.0
    return CsrOperator(cutoff, sp.diags(diag, format="csr", dtype=np.complex128))


def zero_signed_bits(z) -> np.ndarray:
    """The float64 bits of the real and imaginary parts of z, -0 read as +0:
    two paths that round alike but add a zero in another place differ only
    in the sign of a zero."""
    return (np.asarray(z, dtype=np.complex128).view(float) + 0.0).view(np.uint64)


def csr_frobenius(op: CsrOperator) -> float:
    """scipy.sparse.linalg.norm(mat, "fro") of the operator's CSR matrix."""
    return float(scipy.sparse.linalg.norm(op.mat, "fro"))


def kron_generators(cutoff: FockCutoff) -> SimpleNamespace:
    """The generators as products: a1 = a (x) I and a2 = I (x) a of the
    one-mode annihilator a, their adjoints, and n_op, j3, j_plus, j_minus
    as CsrOperator products and sums of those."""
    def lower(n_max: int):
        return sp.diags(np.sqrt(np.arange(1.0, n_max + 1)), 1, shape=(n_max + 1, n_max + 1))

    a1 = CsrOperator(cutoff, sp.kron(lower(cutoff.n1_max), sp.identity(cutoff.n2_max + 1)))
    a2 = CsrOperator(cutoff, sp.kron(sp.identity(cutoff.n1_max + 1), lower(cutoff.n2_max)))
    a1_dag = a1.dag()
    a2_dag = a2.dag()
    identity = CsrOperator(cutoff, sp.identity(cutoff.dim, dtype=np.complex128, format="csr"))
    num1 = a1_dag @ a1
    num2 = a2_dag @ a2
    return SimpleNamespace(cutoff=cutoff, a1=a1, a2=a2, a1_dag=a1_dag, a2_dag=a2_dag,
                           identity=identity, n_op=(num1 + num2) / 2.0,
                           j3=(num1 - num2) / 2.0, j_plus=a1_dag @ a2, j_minus=a1 @ a2_dag)


def sum_hamiltonian(p: HamiltonianParams, g) -> CsrOperator:
    """H as the chained CsrOperator sum of scaled generators."""
    return (p.beta0 * g.n_op
            + p.beta_plus * g.j_minus + p.beta_minus * g.j_plus + p.beta3 * g.j3
            + p.gamma1 * g.a1_dag + np.conj(p.gamma1) * g.a1
            + p.gamma2 * g.a2_dag + np.conj(p.gamma2) * g.a2
            + p.h0 * g.identity)


def sum_ladder(c: LadderCoeffs, g) -> CsrOperator:
    """A as the chained CsrOperator sum of scaled generators."""
    return (c.mu1 * g.a1 + c.mu2 * g.a2 + c.nu1 * g.a1_dag + c.nu2 * g.a2_dag
            + c.alpha_minus * g.j_plus + c.alpha_plus * g.j_minus + c.alpha3 * g.j3
            + c.a0 * g.identity)


def csr_ladder_residual(h: CsrOperator, a: CsrOperator, degree: int = 3) -> float:
    """|| P ([H, A] + A) P ||_F on the degree-`degree` interior, from the CSR
    products on the whole truncated space."""
    return interior_residual(commutator(h, a) + a, interior_indices(h.cutoff, degree))


def csr_verify_ladder(p: HamiltonianParams, c: LadderCoeffs, g: GeneratorSet,
                      degree: int = 3) -> float:
    """verify_ladder from the CSR matrices: H against the ladder divided by
    its scale."""
    a = csr(build_ladder(LadderCoeffs(*(c.as_array() / c.scale)), g))
    return csr_ladder_residual(csr(build_hamiltonian(p, g)), a, degree)


def _op_power(op: CsrOperator, n: int, ident: CsrOperator) -> CsrOperator:
    out = ident
    for _ in range(n):
        out = out @ op
    return out


def csr_H_pq(pq: PQParams, g: GeneratorSet) -> CsrOperator:
    """chen.build_H_pq as CSR products and sums of the generators."""
    ops = csr_generators(g)
    num1 = ops.a1_dag @ ops.a1
    num2 = ops.a2_dag @ ops.a2
    return (pq.p * num1 + pq.q * num2) / (pq.p * pq.q)


def csr_calA_pq(pq: PQParams, g: GeneratorSet) -> CsrOperator:
    """chen.build_calA_pq from CSR powers of a2 and a1."""
    ops = csr_generators(g)
    a2p = _op_power(ops.a2, pq.p, ops.identity)
    a1q = _op_power(ops.a1, pq.q, ops.identity)
    return (np.conj(pq.alpha_plus) * pq.q * a2p
            - np.conj(pq.alpha_minus) * pq.p * a1q) / (pq.p * pq.q)


def csr_A_pq_generalized(pq: PQParams, g: GeneratorSet) -> CsrOperator:
    """chen.build_A_pq_generalized from CSR powers of a1' and a2'."""
    ops = csr_generators(g)
    left = _op_power(ops.a1_dag, pq.q - 1, ops.identity) @ ops.a2
    right = ops.a1 @ _op_power(ops.a2_dag, pq.p - 1, ops.identity)
    return pq.alpha_minus * left + pq.alpha_plus * right


def csr_chen_residuals(h: CsrOperator, cal_a: CsrOperator, a_gen: CsrOperator,
                       degree: int) -> tuple[float, float]:
    """chen's ladder_residual ||P([H, calA] + calA)P|| and
    generalized_commutes_residual ||P[A_gen, calA']P|| as CSR products of
    the given matrices."""
    keep = interior_indices(h.cutoff, degree)
    return (interior_residual(commutator(h, cal_a) + cal_a, keep),
            interior_residual(commutator(a_gen, cal_a.dag()), keep))


def alt_hamiltonian(pq: PQParams, g: GeneratorSet) -> CsrOperator:
    """(p n1 + q n2) / (1 - (p-1)(q-1)); the Chen grounds are its eigenstates
    with energy p q kappa / (1 - (p-1)(q-1))."""
    ops = csr_generators(g)
    den = 1 - (pq.p - 1) * (pq.q - 1)
    if den == 0:
        raise DomainError("alt-denominator", "(p-1)(q-1) = 1 leaves the form undefined")
    num1 = ops.a1_dag @ ops.a1
    num2 = ops.a2_dag @ ops.a2
    return (pq.p * num1 + pq.q * num2) / den


def chen_ground_via_raising(pq: PQParams, kappa: int, g: GeneratorSet) -> TwoModeState:
    """Brute-force route: normalize((calA')^kappa |0,0>) with CSR mat-vecs."""
    raiser = csr_calA_pq(pq, g).dag()
    v = vacuum_state(g.cutoff)
    for _ in range(kappa):
        v = apply(raiser, v)
    if np.linalg.norm(v.amplitudes) < 1e-12:
        raise LadderForgeError("raising chain collapsed below the requested kappa")
    return normalize(v)


def _me(op: CsrOperator, bra: tuple[int, int], ket: tuple[int, int]) -> complex:
    cut = op.cutoff
    return complex(op.mat[cut.index(*bra), cut.index(*ket)])


def hamiltonian_params_from_matrix(h: CsrOperator, g: GeneratorSet,
                                   residual_tol: float = 1e-8,
                                   degree: int = 1,
                                   shell_max: int | None = None) -> HamiltonianParams:
    """Read Hamiltonian coefficients back off a matrix known to lie in the
    algebra span; raises if the rebuild does not reproduce the degree-`degree`
    interior.  Matrices produced by conjugation through built unitaries carry
    truncation junk on incomplete shells, so callers should pass the
    shell-safe degree in that case."""
    if h.cutoff.n1_max < 2 or h.cutoff.n2_max < 2:
        raise LadderForgeError("coefficient extraction needs cutoffs of at least (2,2)")
    h0 = _me(h, (0, 0), (0, 0))
    gamma1 = _me(h, (1, 0), (0, 0))
    gamma2 = _me(h, (0, 1), (0, 0))
    beta_plus = _me(h, (0, 1), (1, 0))
    d10 = _me(h, (1, 0), (1, 0)) - h0
    d01 = _me(h, (0, 1), (0, 1)) - h0
    beta0 = d10 + d01
    beta3 = d10 - d01
    for name, val in (("h0", h0), ("beta0", beta0), ("beta3", beta3)):
        if abs(val.imag) > 1e-9:
            raise LadderForgeError(f"extracted {name} is not real: {val}")
    p = HamiltonianParams(beta0=beta0.real, beta_plus=beta_plus, beta3=beta3.real,
                          gamma1=gamma1, gamma2=gamma2, h0=h0.real)
    keep = (interior_indices(h.cutoff, degree) if shell_max is None
            else shell_indices(h.cutoff, shell_max))
    resid = interior_residual(h - csr(build_hamiltonian(p, g)), keep)
    if resid > residual_tol:
        raise LadderForgeError(f"matrix is not in the Hamiltonian span (residual {resid:.3e})")
    return p


def ladder_coeffs_from_matrix(a: CsrOperator, g: GeneratorSet,
                              residual_tol: float = 1e-8,
                              degree: int = 1,
                              shell_max: int | None = None) -> LadderCoeffs:
    if a.cutoff.n1_max < 2 or a.cutoff.n2_max < 2:
        raise LadderForgeError("coefficient extraction needs cutoffs of at least (2,2)")
    a0 = _me(a, (0, 0), (0, 0))
    c = LadderCoeffs(
        mu1=_me(a, (0, 0), (1, 0)),
        mu2=_me(a, (0, 0), (0, 1)),
        nu1=_me(a, (1, 0), (0, 0)),
        nu2=_me(a, (0, 1), (0, 0)),
        alpha_plus=_me(a, (0, 1), (1, 0)),
        alpha_minus=_me(a, (1, 0), (0, 1)),
        alpha3=2.0 * (_me(a, (1, 0), (1, 0)) - a0),
        a0=a0,
    )
    keep = (interior_indices(a.cutoff, degree) if shell_max is None
            else shell_indices(a.cutoff, shell_max))
    resid = interior_residual(a - csr(build_ladder(c, g)), keep)
    if resid > residual_tol:
        raise LadderForgeError(f"matrix is not in the ladder span (residual {resid:.3e})")
    return c


def rotated_couplings(p: HamiltonianParams, eps: int = 1) -> tuple[complex, complex]:
    """Linear couplings after the mixing rotation that lands on beta3 = eps*b.

    With c^2 = (b + eps beta3)/(2b), s^2 = (b - eps beta3)/(2b) and
    c s = |beta_plus|/b, the larger of c and s comes from its square root
    and the smaller from the product, so neither cancels near beta3 = +/-b."""
    b, r = p.b, abs(p.beta_plus)
    if eps * p.beta3 >= 0:
        c = np.sqrt((b + eps * p.beta3) / (2.0 * b))
        s = r / (b * c)
    else:
        s = np.sqrt((b - eps * p.beta3) / (2.0 * b))
        c = r / (b * s)
    phase = np.exp(1j * p.theta)
    return (complex(c * p.gamma1 + eps * np.conj(phase) * s * p.gamma2),
            complex(c * p.gamma2 - eps * phase * s * p.gamma1))


def reduced_params(p: HamiltonianParams, eps: int = 1) -> HamiltonianParams:
    """Basic-form parameters: beta0 kept, beta3 -> eps*b when beta_plus is
    nonzero, beta_plus and the couplings -> 0, and
    h0 -> h0 - sum_i |gamma'_i|^2 / omega_i over the rotated couplings."""
    g1, g2, beta3 = p.gamma1, p.gamma2, p.beta3
    if abs(p.beta_plus) > 1e-12:
        (g1, g2), beta3 = rotated_couplings(p, eps), eps * p.b
    h0 = p.h0
    for gamma, w in ((g1, (p.beta0 + beta3) / 2.0), (g2, (p.beta0 - beta3) / 2.0)):
        if gamma != 0:
            h0 -= abs(gamma) ** 2 / w
    return HamiltonianParams(beta0=p.beta0, beta3=beta3, h0=h0)


def mix_spec(eps: int, b: float, beta3: float, theta: float) -> UnitarySpec:
    """The mixing rotation that takes beta3 to eps*b, for a Hamiltonian
    with su(2) invariant b and the given beta3 and phase theta."""
    r = np.sqrt(max(b * b - beta3 * beta3, 0.0)) / 2.0
    return UnitarySpec("mix_t", {"angle": mixing_angle(r, beta3, eps), "theta": theta})


def stepped_columns(frame: Frame, cut: FockCutoff, keep: np.ndarray) -> np.ndarray:
    """U[:, keep] of any frame, exact on the truncated space, each column one
    creation step from a lower one:
        U|n1, n2> = d1^n1 d2^n2 U|0> / sqrt(n1! n2!),
        U|0> = e^{-|x|^2/2} exp(x . a')|0>,
    so `keep` (sorted) must hold the lower neighbour of each of its states,
    as shell and interior index sets do.  The columns with n1 = 0 are stepped
    up in n2 one at a time, then each n1 level at once from the one below.
    Nothing is renormalized: the weight a column has past the cutoff is
    truncation, and stays missing."""
    n1, n2 = np.divmod(keep, cut.n2_max + 1)
    d1, d2 = (d.on(cut) for d in frame.dags())
    u = np.empty((cut.dim, keep.size), dtype=complex)
    w = u.T   # w[j] is column j
    vac = coherent_state(cut, *frame.x).amplitudes
    w[0] = np.exp(-np.vdot(frame.x, frame.x).real / 2.0) * vac
    for j in range(1, np.count_nonzero(n1 == 0)):
        w[j] = d2(w[j - 1]) / np.sqrt(n2[j])
    for level in range(1, n1.max(initial=0) + 1):
        rows = np.flatnonzero(n1 == level)
        w[rows] = d1(w[np.searchsorted(keep, keep[rows] - cut.n2_max - 1)]) / np.sqrt(level)
    return u


def frame_columns(frame: Frame, cut: FockCutoff, keep: np.ndarray) -> np.ndarray:
    """U[:, keep]: a rotation alone's shell blocks placed on the grid
    (Frame.columns), any other frame's stepped columns."""
    if frame.rotation_only:
        return frame.columns(cut, keep)
    return stepped_columns(frame, cut, keep)


def full_grid_shell_max(frame: Frame, cut: FockCutoff) -> int:
    """The shells S of the frame's columns on the whole grid: up to
    min(N1, N2)//2, below the first whose columns lose more than 1e-13 of
    their norm past the cutoff (a column that is not finite, or whose
    coherent amplitudes overflow, is lost whole); -1 when shell 0 is lost."""
    top = min(cut.n1_max, cut.n2_max) // 2
    keep = shell_indices(cut, top)
    try:
        w = frame_columns(frame, cut, keep)
        lost = 1.0 - np.vecdot(w.T, w.T).real
    except CutoffTooSmall:
        lost = np.ones(keep.size)
    shells = np.sum(np.divmod(keep, cut.n2_max + 1), axis=0)
    lost[~np.isfinite(lost)] = 1.0
    return int(np.min(shells[lost > 1e-13], initial=top + 1)) - 1


def full_grid_reduce_residuals(p: HamiltonianParams, c: LadderCoeffs, red,
                               g: GeneratorSet) -> tuple[float, float]:
    """reduce's residuals ||W' H W - H_red[S, S]||_F and the same for A,
    with W = U[:, S] formed over the whole grid, zero rows included, and
    the brute-force H and A unrestricted; S, the chain and the closed forms
    are those of the Reduction `red`."""
    keep = shell_indices(g.cutoff, red.shell_max)
    w = frame_columns(_compose(red.chain, red.params), g.cutoff, keep)

    def residual(op: Operator, reduced: Operator) -> float:
        return float(np.linalg.norm(w.conj().T @ (op.csr() @ w)
                                    - reduced.csr()[keep][:, keep].toarray()))

    return (residual(build_hamiltonian(p, g), build_hamiltonian(red.params, g)),
            residual(build_ladder(c, g), build_ladder(red.coeffs, g)))


def block(g: GeneratorSet, terms, keep: np.ndarray) -> np.ndarray:
    """g.shifts(terms) restricted to the basis indices `keep`, as a dense
    |keep| x |keep| array read off the weights: entry (i, j) is the weight
    at keep[i] of the shift that reaches keep[j], so the array equals
    g.shifts(terms).csr()[keep][:, keep].toarray() bit for bit."""
    stride = g.cutoff.n2_max + 3
    n1, n2 = np.divmod(keep, g.cutoff.n2_max + 1)
    at = (n1 + 1) * stride + n2 + 1   # keep on the flat padded grid
    where = np.full((g.cutoff.n1_max + 3) * stride, -1)
    where[at] = np.arange(keep.size)
    out = np.zeros((keep.size, keep.size), dtype=np.complex128)
    for (d1, d2), w in g.shifts(terms).weights.items():
        col = where[at + d1 * stride + d2]
        row = np.flatnonzero(col >= 0)
        out[row, col[row]] = w[at[row]]
    return out


def apply_creation_series(a: CsrOperator, v: TwoModeState, tol: float = 1e-300) -> TwoModeState:
    """Apply exp(a) to v by Taylor series.

    Intended for polynomials in creation operators, which are nilpotent on the
    truncated space, so the series terminates exactly; a general operator is
    summed until terms vanish or a hard iteration cap trips.
    """
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


def csr_poly(poly: Poly, g: GeneratorSet) -> CsrOperator:
    """sum c a1'^p a2'^q a1^r a2^s as CSR products of the truncated
    generators, each monomial multiplied out factor by factor."""
    ops = csr_generators(g)
    out = combine(g, [])
    for (p, q, r, s), c in poly.coeffs.items():
        term = ops.identity
        for op in [ops.a1_dag] * p + [ops.a2_dag] * q + [ops.a1] * r + [ops.a2] * s:
            term = term @ op
        out = out + c * term
    return out


def series_state(g: GeneratorSet, exponent: Poly | None,
                 poly: Poly | None = None, power: int = 1,
                 frame=None) -> TwoModeState:
    """normalize(exp(exponent) poly^power |0>), carried through `frame` when
    given, from CSR operators: poly applied `power` times to the vacuum, then
    the Taylor series of the whole exponent without its constant term."""
    v = vacuum_state(g.cutoff)
    if poly is not None:
        for _ in range(power):
            v = apply(csr_poly(poly, g), v)
    if frame is not None:
        exponent = frame.prefix() if exponent is None else exponent + frame.prefix()
    if exponent is not None:
        v = apply_creation_series(csr_poly(Poly(
            {k: c for k, c in exponent.coeffs.items() if any(k)}), g), v)
    return normalize(v)


# ---------------------------------------------------------------------------
# built unitaries: truncated matrix exponentials of the chain steps
# ---------------------------------------------------------------------------

def expm(a: CsrOperator) -> CsrOperator:
    """exp(a), one scipy Pade-13 expm per connected component of the
    sparsity graph of a; the components are the invariant blocks."""
    n_blocks, labels = csgraph.connected_components(abs(a.mat), directed=False)
    order = np.argsort(labels, kind="stable")
    blocks = np.split(order, np.cumsum(np.bincount(labels, minlength=n_blocks))[:-1])
    u = sp.block_diag([scipy.linalg.expm(a.mat[i][:, i].toarray()) for i in blocks],
                      format="csr")
    back = np.argsort(order)  # block order back to the grid order
    return CsrOperator(a.cutoff, u[back][:, back])


def unitary_generator(spec: UnitarySpec, g: GeneratorSet) -> CsrOperator:
    """Anti-Hermitian generator G of the spec's unitary exp(G)."""
    ops = csr_generators(g)
    p = spec.params
    if spec.kind == "displace1":
        alpha = complex(p["alpha"])
        return alpha * ops.a1_dag - np.conj(alpha) * ops.a1
    elif spec.kind == "displace2":
        alpha = complex(p["alpha"])
        return alpha * ops.a2_dag - np.conj(alpha) * ops.a2
    elif spec.kind == "squeeze2":
        chi = complex(p["chi"])
        return -0.5 * (chi * (ops.a2_dag @ ops.a2_dag) - np.conj(chi) * (ops.a2 @ ops.a2))
    elif spec.kind == "squeeze_two_mode":
        th = float(p["theta_tilde"])
        ph = float(p["phi_tilde"])
        return -0.5 * th * (np.exp(-1j * ph) * (ops.a1_dag @ ops.a2_dag)
                             - np.exp(1j * ph) * (ops.a1 @ ops.a2))
    elif spec.kind == "mix_t":
        phi, theta = float(p["angle"]), float(p["theta"])
        return -phi * (np.exp(-1j * theta) * ops.j_plus - np.exp(1j * theta) * ops.j_minus)
    else:  # pragma: no cover - guarded in UnitarySpec
        raise ValueError(spec.kind)


def build_unitary(spec: UnitarySpec, g: GeneratorSet) -> CsrOperator:
    return expm(unitary_generator(spec, g))


def build_chain(chain: list[UnitarySpec], g: GeneratorSet) -> CsrOperator:
    """Compose a similarity chain into one unitary.

    Specs are successive similarity transformations (first spec first), so
    the returned U satisfies  reduced = U' O U  and maps reduced-frame kets
    to original-frame kets as  |orig> = U |reduced>.
    """
    ops = csr_generators(g)
    u = ops.identity
    for spec in chain:
        u = u @ build_unitary(spec, g)
    return u


def similarity(u: CsrOperator, o: CsrOperator) -> CsrOperator:
    """U' O U; CutoffMismatch if the two were built over different cutoffs."""
    return u.dag() @ o @ u


def rotation_safe_degree(cutoff: FockCutoff) -> int:
    """Smallest interior degree whose box only contains complete
    total-occupation shells.

    A mixing rotation preserves n1 + n2, so it is exact on states whose whole
    shell fits inside the truncation; a box with n_i <= n_i_max - degree
    reaches shell n1 + n2 = (n1_max - degree) + (n2_max - degree), which must
    not exceed min(n1_max, n2_max).  Identities involving built unitaries are
    meaningless on shallower interiors, where truncation junk dominates.
    """
    need = cutoff.n1_max + cutoff.n2_max - min(cutoff.n1_max, cutoff.n2_max)
    return (need + 1) // 2


def verify_disentangled_T(eps: int, b: float, beta3: float, theta: float,
                          cutoff: FockCutoff, g: GeneratorSet | None = None,
                          degree: int | None = None) -> float:
    """Frobenius distance on the shell-safe interior between the
    single-exponential mixing rotation and its raising/diagonal/lowering
    product factorization."""
    if g is None:
        g = build_generators(cutoff)
    ops = csr_generators(g)
    if degree is None:
        degree = rotation_safe_degree(cutoff)
    lo = b - eps * beta3
    hi = b + eps * beta3
    if abs(hi) < 1e-12:
        raise DomainError("disentangle-domain", "product form requires b + eps*beta3 > 0")
    tau = eps * math.sqrt(max(lo, 0.0) / hi)
    t_exp = build_unitary(UnitarySpec("mix_t", {"angle": math.atan(tau), "theta": theta}), g)
    t_prod = (expm(-tau * np.exp(-1j * theta) * ops.j_plus)
              @ expm(math.log(2.0 * b / hi) * ops.j3)
              @ expm(tau * np.exp(1j * theta) * ops.j_minus))
    return interior_residual(t_exp - t_prod, interior_indices(cutoff, degree))


def unitary_spec_from_json(payload: dict) -> UnitarySpec:
    params = {}
    for key, value in payload["params"].items():
        params[key] = complex(value[0], value[1]) if isinstance(value, list) else value
    return UnitarySpec(payload["kind"], params)


# ---------------------------------------------------------------------------
# normal ordering of (mu2* a2' + alpha+* a1' a2)^n, and the dense spectrum
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NormalOrderCoeff:
    """Integer weight of the k-th contraction in the n-th raising power."""

    n: int
    k: int
    value: int


def normal_order_coeffs(n: int) -> list[NormalOrderCoeff]:
    """Closed form n! / ((n-2k)! 2^k k!) for k = 0 .. floor(n/2)."""
    if n < 0:
        raise ValueError("n must be non-negative")
    out = []
    for k in range(n // 2 + 1):
        value = factorial(n) // (factorial(n - 2 * k) * (2 ** k) * factorial(k))
        out.append(NormalOrderCoeff(n=n, k=k, value=value))
    return out


def normal_order_coeffs_recurrence(n: int) -> list[int]:
    """Same integers generated from the recurrence
    c(n, k) = (n+1-2k) c(n-1, k-1) + c(n-1, k),  c(n, 0) = 1."""
    if n < 0:
        raise ValueError("n must be non-negative")
    prev = [1]
    for m in range(1, n + 1):
        cur = []
        for k in range(m // 2 + 1):
            left = prev[k - 1] if 1 <= k <= (m - 1) // 2 + 1 and k - 1 < len(prev) else 0
            right = prev[k] if k < len(prev) else 0
            cur.append((m + 1 - 2 * k) * left + right)
        prev = cur
    return prev


def normal_order_power(c: LadderCoeffs, n: int, g: GeneratorSet,
                       gamma1: complex = 0j, gamma2: complex = 0j) -> CsrOperator:
    """n-th power of the raising operator assembled from its normal-ordered
    expansion rather than by repeated multiplication.

    The lowering operator must have the commensurate 2:1 shape
    mu2 a2 + alpha+ J- , optionally dressed by the linear-coupling terms
    mu1 = conj(gamma2) alpha+, nu2 = gamma1 alpha+ / 2 and the matching
    identity constant.  Anything else is rejected.
    """
    ops = csr_generators(g)
    if n < 0:
        raise ValueError("n must be non-negative")
    tol = 1e-9
    if abs(c.mu2) < 1e-14 or abs(c.alpha_plus) < 1e-14:
        raise LadderForgeError("normal ordering needs mu2 != 0 and alpha_plus != 0")
    if (abs(c.nu1) > tol or abs(c.alpha_minus) > tol or abs(c.alpha3) > tol
            or abs(c.mu1 - np.conj(gamma2) * c.alpha_plus) > tol
            or abs(c.nu2 - gamma1 * c.alpha_plus / 2.0) > tol):
        raise LadderForgeError("wrong ladder shape for the normal-ordered expansion")

    ident = ops.identity
    mu2c = np.conj(c.mu2)
    apc = np.conj(c.alpha_plus)
    a0c = np.conj(c.a0)
    # creation-only and mixed parts of the raising operator
    delta1 = a0c * ident + gamma2 * apc * ops.a1_dag + mu2c * ops.a2_dag
    delta2 = apc * (ops.a1_dag + (np.conj(gamma1) / 2.0) * ident) @ ops.a2
    contraction = mu2c * apc * (ops.a1_dag + (np.conj(gamma1) / 2.0) * ident)

    # cache powers
    d1_pow = [ident]
    d2_pow = [ident]
    x_pow = [ident]
    for _ in range(n):
        d1_pow.append(d1_pow[-1] @ delta1)
        d2_pow.append(d2_pow[-1] @ delta2)
        x_pow.append(x_pow[-1] @ contraction)

    zero = combine(g, [])
    result = zero
    for nk in normal_order_coeffs(n):
        m = n - 2 * nk.k
        ordered = zero
        for j in range(m + 1):
            ordered = ordered + comb(m, j) * (d1_pow[j] @ d2_pow[m - j])
        result = result + nk.value * (x_pow[nk.k] @ ordered)
    return result


def diagonalize_oracle(h: CsrOperator, degree: int = 3) -> np.ndarray:
    """Eigenvalues of the Hamiltonian restricted to the interior subspace,
    sorted ascending, by dense eigvalsh of the whole block; rejects visibly
    non-Hermitian input."""
    keep = interior_indices(h.cutoff, degree)
    return np.linalg.eigvalsh(_hermitian_interior(h.mat, keep).toarray())


# ---------------------------------------------------------------------------
# eigenstates from their own closed forms
# ---------------------------------------------------------------------------

def su2_ground(beta3: float, theta: float, kappa: int, g: GeneratorSet) -> TwoModeState:
    """Binomial ground state of the interacting unit-gate family; equals the
    mixing rotation applied to |0, kappa>."""
    if abs(beta3) >= 1.0:
        raise DomainError("beta3-domain", "|beta3| < 1 required")
    if kappa < 0:
        raise ValueError("kappa must be non-negative")
    if kappa > min(g.cutoff.n1_max, g.cutoff.n2_max):
        raise DomainError("kappa-overflow", "kappa exceeds the cutoff")
    beta_minus = (np.sqrt(1.0 - beta3 ** 2) / 2.0) * np.exp(-1j * theta)
    amps = np.zeros(g.cutoff.dim, dtype=np.complex128)
    pref = ((1.0 + beta3) / 2.0) ** (kappa / 2.0)
    for k in range(kappa + 1):
        amps[g.cutoff.index(k, kappa - k)] = (
            pref * (-1) ** k * np.sqrt(comb(kappa, k))
            * (2.0 * beta_minus / (1.0 + beta3)) ** k)
    return normalize(TwoModeState(g.cutoff, amps))


def fractional_lambda_state(p: HamiltonianParams, req: EigenstateRequest,
                            g: GeneratorSet, mu1: complex = 1.0) -> TwoModeState:
    """Eigenstate exp[(lam/mu1) a1'] (a2' - r a1')^kappa |0,0> of the
    one-direction annihilator mu1 (a1 + r a2), built by the package's
    exp(E) P^kappa |0> (looked up on the module, so that a test may swap it)."""
    if req.kappa < 0:
        raise ValueError("kappa must be non-negative")
    r = eigenstates._fractional_ratio(p)
    return eigenstates._exp_poly_vac(g.cutoff, (req.lam / mu1) * A1_DAG,
                                     A2_DAG - r * A1_DAG, req.kappa)


def state_csv(v: TwoModeState) -> str:
    """CSV rows (n1, n2, re, im, probability), header included, one
    f-string per row."""
    n1, n2 = np.divmod(np.arange(v.cutoff.dim), v.cutoff.n2_max + 1)
    cells = zip(n1.tolist(), n2.tolist(), v.amplitudes.tolist())
    return "\n".join(["n1,n2,re,im,probability",
                      *(f"{a},{b},{z.real!r},{z.imag!r},{abs(z) ** 2!r}"
                        for a, b, z in cells)]) + "\n"
