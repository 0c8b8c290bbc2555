"""Independent references: the interior and shell projectors that
interior_residual restricts to; the generators as Kronecker and matrix
products of the one-mode annihilator, and H and A as chained Operator sums of them;
scipy's sparse Frobenius norm; the ladder identity as CSR products
restricted to the interior; chen's p:q operators as chained products of the
CSR generators, with their identities on those matrices;
for the closed-form reduction, coefficient readers that take an operator's
coefficients off its matrix, the rotated couplings and basic parameters
written out from the rotation's cosine and sine rather than from its angle,
the mixing rotation named by (eps, b, beta3), and reduce's residuals formed
over the whole grid; for the eigenstates,
creation polynomials as CSR operator products and the state
exp(E) P^kappa |0> as a Taylor series of CSR mat-vecs on the whole exponent."""

from types import SimpleNamespace

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg

from ladderforge.chen import PQParams
from ladderforge.errors import DomainError, LadderForgeError
from ladderforge.fock import (CreationPoly, FockCutoff, GeneratorSet, Operator,
                              TwoModeState, apply, commutator, interior_indices,
                              interior_residual, normalize, shell_indices,
                              vacuum_state)
from ladderforge.params import (HamiltonianParams, LadderCoeffs,
                                build_hamiltonian, build_ladder)
from ladderforge.reductions import _compose
from ladderforge.transforms import UnitarySpec, mixing_angle


# cutoffs the one-pass build is checked at; at N2 = 1 the j_plus and a2_dag
# shifts fall on one flat diagonal, and on the one-mode grids (N2 = 0 or
# N1 = 0) several shifts fall on the diagonal's
ORACLE_CUTOFFS = [(0, 0), (1, 1), (2, 5), (5, 1), (12, 16), (40, 40), (4, 0), (0, 4)]


def assert_same_csr(op: Operator, ref: Operator) -> None:
    """Identical CSR arrays, the data bit for bit (the sign of zero included)."""
    assert op.mat.indptr.dtype == ref.mat.indptr.dtype
    np.testing.assert_array_equal(op.mat.indptr, ref.mat.indptr)
    np.testing.assert_array_equal(op.mat.indices, ref.mat.indices)
    assert op.mat.data.shape == ref.mat.data.shape
    np.testing.assert_array_equal(op.mat.data.view(np.uint64), ref.mat.data.view(np.uint64))


def interior_projector(cutoff: FockCutoff, degree: int) -> Operator:
    """Diagonal 0/1 projector masking the outer `degree` occupation layers."""
    diag = np.zeros(cutoff.dim)
    diag[interior_indices(cutoff, degree)] = 1.0
    return Operator(cutoff, sp.diags(diag, format="csr", dtype=np.complex128))


def shell_projector(cutoff: FockCutoff, s_max: int) -> Operator:
    """Diagonal 0/1 projector onto total occupation <= s_max."""
    diag = np.zeros(cutoff.dim)
    diag[shell_indices(cutoff, s_max)] = 1.0
    return Operator(cutoff, sp.diags(diag, format="csr", dtype=np.complex128))


def zero_signed_bits(z) -> np.ndarray:
    """The float64 bits of the real and imaginary parts of z, -0 read as +0:
    two paths that round alike but add a zero in another place differ only
    in the sign of a zero."""
    return (np.asarray(z, dtype=np.complex128).view(float) + 0.0).view(np.uint64)


def csr_frobenius(op: Operator) -> float:
    """scipy.sparse.linalg.norm(mat, "fro") of the operator's CSR matrix."""
    return float(scipy.sparse.linalg.norm(op.mat, "fro"))


def kron_generators(cutoff: FockCutoff) -> SimpleNamespace:
    """The generators as products: a1 = a (x) I and a2 = I (x) a of the
    one-mode annihilator a, their adjoints, and n_op, j3, j_plus, j_minus
    as Operator products and sums of those."""
    def lower(n_max: int):
        return sp.diags(np.sqrt(np.arange(1.0, n_max + 1)), 1, shape=(n_max + 1, n_max + 1))

    a1 = Operator(cutoff, sp.kron(lower(cutoff.n1_max), sp.identity(cutoff.n2_max + 1)))
    a2 = Operator(cutoff, sp.kron(sp.identity(cutoff.n1_max + 1), lower(cutoff.n2_max)))
    a1_dag = a1.dag()
    a2_dag = a2.dag()
    identity = Operator(cutoff, sp.identity(cutoff.dim, dtype=np.complex128, format="csr"))
    num1 = a1_dag @ a1
    num2 = a2_dag @ a2
    return SimpleNamespace(cutoff=cutoff, a1=a1, a2=a2, a1_dag=a1_dag, a2_dag=a2_dag,
                           identity=identity, n_op=(num1 + num2) / 2.0,
                           j3=(num1 - num2) / 2.0, j_plus=a1_dag @ a2, j_minus=a1 @ a2_dag)


def sum_hamiltonian(p: HamiltonianParams, g) -> Operator:
    """H as the chained Operator sum of scaled generators."""
    return (p.beta0 * g.n_op
            + p.beta_plus * g.j_minus + p.beta_minus * g.j_plus + p.beta3 * g.j3
            + p.gamma1 * g.a1_dag + np.conj(p.gamma1) * g.a1
            + p.gamma2 * g.a2_dag + np.conj(p.gamma2) * g.a2
            + p.h0 * g.identity)


def sum_ladder(c: LadderCoeffs, g) -> Operator:
    """A as the chained Operator sum of scaled generators."""
    return (c.mu1 * g.a1 + c.mu2 * g.a2 + c.nu1 * g.a1_dag + c.nu2 * g.a2_dag
            + c.alpha_minus * g.j_plus + c.alpha_plus * g.j_minus + c.alpha3 * g.j3
            + c.a0 * g.identity)


def csr_ladder_residual(h: Operator, a: Operator, degree: int = 3) -> float:
    """|| P ([H, A] + A) P ||_F on the degree-`degree` interior, from the CSR
    products on the whole truncated space."""
    return interior_residual(commutator(h, a) + a, interior_indices(h.cutoff, degree))


def csr_verify_ladder(p: HamiltonianParams, c: LadderCoeffs, g: GeneratorSet,
                      degree: int = 3) -> float:
    """verify_ladder from the CSR matrices: H against the ladder divided by
    its scale."""
    a = build_ladder(LadderCoeffs(*(c.as_array() / c.scale)), g)
    return csr_ladder_residual(build_hamiltonian(p, g), a, degree)


def _op_power(op: Operator, n: int, ident: Operator) -> Operator:
    out = ident
    for _ in range(n):
        out = out @ op
    return out


def csr_H_pq(pq: PQParams, g: GeneratorSet) -> Operator:
    """chen.build_H_pq as CSR products and sums of the generators."""
    num1 = g.a1_dag @ g.a1
    num2 = g.a2_dag @ g.a2
    return (pq.p * num1 + pq.q * num2) / (pq.p * pq.q)


def csr_calA_pq(pq: PQParams, g: GeneratorSet) -> Operator:
    """chen.build_calA_pq from CSR powers of a2 and a1."""
    a2p = _op_power(g.a2, pq.p, g.identity)
    a1q = _op_power(g.a1, pq.q, g.identity)
    return (np.conj(pq.alpha_plus) * pq.q * a2p
            - np.conj(pq.alpha_minus) * pq.p * a1q) / (pq.p * pq.q)


def csr_A_pq_generalized(pq: PQParams, g: GeneratorSet) -> Operator:
    """chen.build_A_pq_generalized from CSR powers of a1' and a2'."""
    left = _op_power(g.a1_dag, pq.q - 1, g.identity) @ g.a2
    right = g.a1 @ _op_power(g.a2_dag, pq.p - 1, g.identity)
    return pq.alpha_minus * left + pq.alpha_plus * right


def csr_chen_residuals(pq: PQParams, g: GeneratorSet, degree: int) -> tuple[float, float]:
    """chen's ladder_residual ||P([H, calA] + calA)P|| and
    generalized_commutes_residual ||P[A_gen, calA']P|| on the CSR products."""
    h, cal_a, a_gen = csr_H_pq(pq, g), csr_calA_pq(pq, g), csr_A_pq_generalized(pq, g)
    keep = interior_indices(g.cutoff, degree)
    return (interior_residual(commutator(h, cal_a) + cal_a, keep),
            interior_residual(commutator(a_gen, cal_a.dag()), keep))


def alt_hamiltonian(pq: PQParams, g: GeneratorSet) -> Operator:
    """(p n1 + q n2) / (1 - (p-1)(q-1)); the Chen grounds are its eigenstates
    with energy p q kappa / (1 - (p-1)(q-1))."""
    den = 1 - (pq.p - 1) * (pq.q - 1)
    if den == 0:
        raise DomainError("alt-denominator", "(p-1)(q-1) = 1 leaves the form undefined")
    num1 = g.a1_dag @ g.a1
    num2 = g.a2_dag @ g.a2
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


def _me(op: Operator, bra: tuple[int, int], ket: tuple[int, int]) -> complex:
    cut = op.cutoff
    return complex(op.mat[cut.index(*bra), cut.index(*ket)])


def hamiltonian_params_from_matrix(h: Operator, g: GeneratorSet,
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
    resid = interior_residual(h - build_hamiltonian(p, g), keep)
    if resid > residual_tol:
        raise LadderForgeError(f"matrix is not in the Hamiltonian span (residual {resid:.3e})")
    return p


def ladder_coeffs_from_matrix(a: Operator, g: GeneratorSet,
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
    resid = interior_residual(a - build_ladder(c, g), keep)
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


def full_grid_reduce_residuals(p: HamiltonianParams, c: LadderCoeffs, red,
                               g: GeneratorSet) -> tuple[float, float]:
    """reduce's residuals ||W' H W - H_red[S, S]||_F and the same for A,
    with W = U[:, S] formed over the whole grid, zero rows included, and
    the brute-force H and A unrestricted; S, the chain and the closed forms
    are those of the Reduction `red`."""
    keep = shell_indices(g.cutoff, red.shell_max)
    w = _compose(red.chain, red.params).columns(g.cutoff, keep)

    def residual(op: Operator, reduced: Operator) -> float:
        return float(np.linalg.norm(w.conj().T @ (op.mat @ w)
                                    - reduced.mat[keep][:, keep].toarray()))

    return (residual(build_hamiltonian(p, g), build_hamiltonian(red.params, g)),
            residual(build_ladder(c, g), build_ladder(red.coeffs, g)))


def apply_creation_series(a: Operator, v: TwoModeState, tol: float = 1e-300) -> TwoModeState:
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


def csr_poly(poly: CreationPoly, g: GeneratorSet) -> Operator:
    """sum c_pq a1'^p a2'^q as CSR products of the truncated generators."""
    out = g.combine([])
    for (p, q), c in poly.coeffs.items():
        term = g.identity
        for op in [g.a1_dag] * p + [g.a2_dag] * q:
            term = term @ op
        out = out + c * term
    return out


def series_state(g: GeneratorSet, exponent: CreationPoly | None,
                 poly: CreationPoly | None = None, power: int = 1,
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
        v = apply_creation_series(csr_poly(CreationPoly(
            {k: c for k, c in exponent.coeffs.items() if k != (0, 0)}), g), v)
    return normalize(v)
