"""Independent references for the closed-form reduction: coefficient readers
that take an operator's coefficients off its matrix, the rotated couplings
and basic parameters written out from the rotation's cosine and sine rather
than from its angle, and the mixing rotation named by (eps, b, beta3)."""

import numpy as np

from ladderforge.errors import LadderForgeError
from ladderforge.fock import (GeneratorSet, Operator, interior_indices,
                             interior_residual, shell_indices)
from ladderforge.params import (HamiltonianParams, LadderCoeffs,
                                build_hamiltonian, build_ladder)
from ladderforge.transforms import UnitarySpec, mixing_angle


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
