"""Closed-form eigenstate families of the lowering operators.

Constructors assemble states from creation-operator series and polynomials
acting on the vacuum, which are exact on the truncated space (creation
polynomials are nilpotent), then normalize numerically.  Product forms in
terms of displacement/squeeze unitaries agree with these up to a global
phase and are exercised in the test suite as cross-checks, not used as the
primary construction: a truncated matrix exponential pollutes amplitudes
near the cutoff while a creation series does not.

Displacement prefixes D1(w1) D2(w2) applied to a creation expression are
absorbed exactly through

    D(w) f(a') |0>  =  const * exp(w a') f(a' - conj(w)) |0>,

so every family below stays within exact series arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from .errors import DomainError
from .fock import (GeneratorSet, Operator, TwoModeState, apply,
                   apply_creation_series, interior_indices, normalize,
                   vacuum_state)
from .params import CaseTag, FamilyKind, HamiltonianParams

__all__ = [
    "EigenstateRequest",
    "fractional_lambda_state",
    "fractional_separable_cs",
    "isotropic_states",
    "basic21_states",
    "su2_ground",
    "linear_coupled_states",
    "verify_eigenstate",
]

_TINY = 1e-14


@dataclass
class EigenstateRequest:
    """Which member of a family to build.

    branch 1 is the separable solution, branch 2 the non-separable one,
    branch 3 (where it exists) the kappa-indexed polynomial family.  Free
    constants left as None take the documented defaults c1 = 1,
    c2 = conj(mu2), lambda2 = lam / 2.
    """

    tag: CaseTag
    lam: complex = 0j
    kappa: int = 0
    branch: int = 1
    c1: complex | None = None
    c2: complex | None = None
    lambda2: complex | None = None


def _check_kappa(g: GeneratorSet, deg1: int, deg2: int) -> None:
    # polynomial prefactors must stay in the lower half of each mode range
    if deg1 > g.cutoff.n1_max // 2 or deg2 > g.cutoff.n2_max // 2:
        raise DomainError("kappa-overflow",
                          f"prefactor degree ({deg1},{deg2}) exceeds half the cutoff "
                          f"({g.cutoff.n1_max},{g.cutoff.n2_max})")


def _strip_identity(op: Operator, identity: Operator) -> Operator:
    """Drop the identity component of a creation polynomial; a scalar in the
    exponent only rescales the state and normalization removes it anyway."""
    idx = op.cutoff.index(0, 0)
    c00 = complex(op.mat[idx, idx])
    if c00 == 0:
        return op
    return op - c00 * identity


def _exp_poly_vac(g: GeneratorSet, exponent: Operator | None,
                  poly: Operator | None = None, power: int = 1,
                  base: TwoModeState | None = None) -> TwoModeState:
    """normalize( exp(exponent) * poly^power |base> ), exactly."""
    v = vacuum_state(g.cutoff) if base is None else base
    if poly is not None:
        for _ in range(power):
            v = apply(poly, v)
    if exponent is not None:
        v = apply_creation_series(_strip_identity(exponent, g.identity), v)
    return normalize(v)


# ---------------------------------------------------------------------------
# b^2 off the unit gate: fractional and isotropic families
# ---------------------------------------------------------------------------

def _fractional_ratio(p: HamiltonianParams) -> complex:
    den = 2.0 - p.beta0 + p.beta3
    if abs(den) < 1e-12:
        raise DomainError("fractional-degenerate",
                          "mode-mixing ratio undefined: 2 - beta0 + beta3 = 0")
    return 2.0 * p.beta_minus / den


def fractional_lambda_state(p: HamiltonianParams, req: EigenstateRequest,
                            g: GeneratorSet, mu1: complex = 1.0) -> TwoModeState:
    """Eigenstate exp[(lam/mu1) a1'] (a2' - r a1')^kappa |0,0> of the
    one-direction annihilator mu1 (a1 + r a2)."""
    if req.kappa < 0:
        raise ValueError("kappa must be non-negative")
    _check_kappa(g, req.kappa, req.kappa)
    r = _fractional_ratio(p)
    poly = g.a2_dag - r * g.a1_dag
    exponent = (req.lam / mu1) * g.a1_dag
    return _exp_poly_vac(g, exponent, poly, req.kappa)


def fractional_separable_cs(p: HamiltonianParams, lam: complex, c1: complex,
                            g: GeneratorSet, mu1: complex = 1.0) -> TwoModeState:
    """Separable two-mode coherent eigenstate of mu1 (a1 + r a2)."""
    if abs(p.beta_plus) < 1e-12:
        raise DomainError("beta-minus-zero",
                          "separable family needs a nonzero mode coupling")
    r = _fractional_ratio(p)
    z1 = c1 * lam / mu1
    z2 = (lam / mu1) * (1.0 - c1) / r
    return _exp_poly_vac(g, z1 * g.a1_dag + z2 * g.a2_dag)


def isotropic_states(mu1: complex, mu2: complex, lam: complex, kappa: int,
                     branch: int, g: GeneratorSet,
                     c2: complex | None = None) -> TwoModeState:
    """Eigenstates of mu1 a1 + mu2 a2.

    branch 1: product of two coherent displacements, free constant c2
              (default conj(mu2), which recovers the symmetric choice).
    branch 2: exp[(lam/mu1) a1'] (a2' - (mu2/mu1) a1')^kappa |0,0>.
    """
    if abs(mu1) < _TINY:
        raise DomainError("mu1-zero", "constructors need mu1 != 0")
    if branch == 1:
        if c2 is None:
            c2 = np.conj(mu2)
        z1 = (lam / mu1) * (1.0 - c2 * mu2)
        z2 = lam * c2
        return _exp_poly_vac(g, z1 * g.a1_dag + z2 * g.a2_dag)
    if branch == 2:
        _check_kappa(g, kappa, kappa)
        poly = g.a2_dag - (mu2 / mu1) * g.a1_dag
        return _exp_poly_vac(g, (lam / mu1) * g.a1_dag, poly, kappa)
    raise DomainError("unknown-branch", f"this family has no branch {branch}")


# ---------------------------------------------------------------------------
# 2:1 basic family: A = mu2 a2 + alpha_plus J-
# ---------------------------------------------------------------------------

def basic21_states(mu2: complex, alpha_plus: complex, lam: complex, branch: int,
                   g: GeneratorSet, c1: complex | None = None,
                   kappa: int = 1) -> TwoModeState:
    """Eigenstates of mu2 a2 + alpha_plus J-.

    branch 1: coherent mode 1 x squeezed-coherent mode 2; requires
              |lam c1 alpha_plus / mu2| < 1.
    branch 2: quadratic-prefactor superposition (the kappa = 1 member).
    branch 3: kappa-th power of the quadratic prefactor.
    """
    if abs(mu2) < _TINY:
        raise DomainError("mu2-zero", "family needs mu2 != 0")
    if c1 is None:
        c1 = 1.0 + 0j
    if branch == 1:
        t = abs(lam * c1 * alpha_plus / mu2)
        if t >= 1.0:
            raise DomainError("squeeze-domain",
                              f"|lam*c1*alpha_plus/mu2| = {t:.4f} leaves the "
                              "squeezed-state domain (< 1 required)")
        exponent = (c1 * lam * g.a1_dag
                    + (lam / mu2) * g.a2_dag
                    - (lam * c1 * alpha_plus / (2.0 * mu2)) * (g.a2_dag @ g.a2_dag))
        return _exp_poly_vac(g, exponent)
    if branch in (2, 3):
        if abs(alpha_plus) < _TINY:
            raise DomainError("alpha-zero", "non-separable branches need alpha_plus != 0")
        power = 1 if branch == 2 else kappa
        _check_kappa(g, power, 2 * power)
        poly = 0.5 * (g.a2_dag @ g.a2_dag) - (mu2 / alpha_plus) * g.a1_dag
        return _exp_poly_vac(g, (lam / mu2) * g.a2_dag, poly, power)
    raise DomainError("unknown-branch", f"this family has no branch {branch}")


# ---------------------------------------------------------------------------
# pure su(2) ladder ground states
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


# ---------------------------------------------------------------------------
# externally coupled families
# ---------------------------------------------------------------------------

def _shifted_dags(g: GeneratorSet, w1: complex, w2: complex):
    """Creation operators conjugated through D1(w1) D2(w2)."""
    return (g.a1_dag - np.conj(w1) * g.identity, g.a2_dag - np.conj(w2) * g.identity)


def linear_coupled_states(p: HamiltonianParams, req: EigenstateRequest,
                          g: GeneratorSet, mu1: complex = 1.0, mu2: complex = 1.0,
                          nu1: complex = 0j, alpha_plus: complex = 1.0) -> TwoModeState:
    """Eigenstate families of the externally coupled Hamiltonians.

    Dispatches on the request tag: the displaced isotropic family, the
    displaced 2:1 / 1:2 family with both linear couplings switched on, and
    the Bogoliubov family on the b = 2 surface (gammas must already be
    displaced away there; see reduce_by_similarity).
    """
    kind = req.tag.kind
    lam = complex(req.lam)
    if kind == FamilyKind.LINEAR_ISO:
        if abs(mu1) < _TINY or abs(mu2) < _TINY:
            raise DomainError("mu-zero", "displaced isotropic family needs mu1, mu2 != 0")
        w1, w2 = -p.gamma1, -p.gamma2
        d1, d2 = _shifted_dags(g, w1, w2)
        shift = w1 * g.a1_dag + w2 * g.a2_dag
        if req.branch == 1:
            c1 = 1.0 + 0j if req.c1 is None else complex(req.c1)
            exponent = (c1 * lam / mu1) * d1 + ((lam / mu2) * (1.0 - c1)) * d2 + shift
            return _exp_poly_vac(g, exponent)
        if req.branch == 2:
            _check_kappa(g, req.kappa, req.kappa)
            poly = d2 - (mu2 / mu1) * d1
            exponent = (lam / mu1) * d1 + shift
            return _exp_poly_vac(g, exponent, poly, req.kappa)
        raise DomainError("unknown-branch", f"this family has no branch {req.branch}")

    if kind == FamilyKind.APPENDIX_A:
        return _displaced_21_states(p, req, g, mu2, alpha_plus)

    if kind == FamilyKind.LINEAR_B2:
        if p.has_gamma():
            raise DomainError("unsupported-gamma",
                              "b = 2 constructors run on the displaced frame; "
                              "reduce the linear couplings away first")
        return _b2_states(p, req, g, mu1, nu1)

    raise DomainError("unsupported-family",
                      f"no coupled-state constructor for tag {req.tag}")


def _displaced_21_states(p: HamiltonianParams, req: EigenstateRequest,
                         g: GeneratorSet, mu2: complex,
                         alpha_plus: complex) -> TwoModeState:
    """Displaced 2:1 (beta3 = +1) or 1:2 (beta3 = -1) family with both
    linear couplings; reduces to the basic family after mode displacements
    by -gamma/frequency."""
    if abs(p.beta0 - 3.0) > 1e-9 or abs(abs(p.beta3) - 1.0) > 1e-9:
        raise DomainError("unsupported-family",
                          "displaced commensurate family needs beta0 = 3, beta3 = +/-1")
    if abs(mu2) < _TINY:
        raise DomainError("mu2-zero", "family needs a nonzero lowering amplitude")
    lam = complex(req.lam)
    if p.beta3 > 0:
        w1, w2 = -p.gamma1 / 2.0, -p.gamma2       # mode frequencies (2, 1)
        dq, dl = _shifted_dags(g, w1, w2)          # dq: linear mode 1, dl: lowered mode 2
    else:
        w1, w2 = -p.gamma1, -p.gamma2 / 2.0        # mode frequencies (1, 2)
        d1, d2 = _shifted_dags(g, w1, w2)
        dq, dl = d2, d1                            # lowered mode is mode 1
    shift = w1 * g.a1_dag + w2 * g.a2_dag
    c1 = 1.0 + 0j if req.c1 is None else complex(req.c1)
    if req.branch == 1:
        t = abs(lam * c1 * alpha_plus / mu2)
        if t >= 1.0:
            raise DomainError("squeeze-domain", f"|lam*c1*alpha_plus/mu2| = {t:.4f} >= 1")
        exponent = (c1 * lam * dq + (lam / mu2) * dl
                    - (lam * c1 * alpha_plus / (2.0 * mu2)) * (dl @ dl) + shift)
        return _exp_poly_vac(g, exponent)
    if req.branch in (2, 3):
        if abs(alpha_plus) < _TINY:
            raise DomainError("alpha-zero", "non-separable branches need alpha != 0")
        power = 1 if req.branch == 2 else req.kappa
        _check_kappa(g, power, 2 * power)
        poly = 0.5 * (dl @ dl) - (mu2 / alpha_plus) * dq
        exponent = (lam / mu2) * dl + shift
        return _exp_poly_vac(g, exponent, poly, power)
    raise DomainError("unknown-branch", f"this family has no branch {req.branch}")


def _b2_states(p: HamiltonianParams, req: EigenstateRequest, g: GeneratorSet,
               mu1: complex, nu1: complex) -> TwoModeState:
    """Families on the b = 2 surface, where annihilation and creation
    amplitudes coexist and the ladder closes the oscillator algebra after a
    normalization by the commutator."""
    if abs(mu1) < _TINY:
        raise DomainError("mu-zero", "annihilation amplitude must be nonzero")
    lam = complex(req.lam)
    ratio = abs(nu1 / mu1)

    if abs(p.beta_plus) < 1e-12:
        # decoupled variant: A = mu*a_low + nu*a_high' with mode roles set by beta3
        if ratio >= 1.0:
            raise DomainError("squeeze-domain", f"|nu/mu| = {ratio:.4f} >= 1")
        if abs(p.beta3 - 2.0) < 1e-9:
            lower_dag, raise_dag = g.a1_dag, g.a2_dag
        elif abs(p.beta3 + 2.0) < 1e-9:
            lower_dag, raise_dag = g.a2_dag, g.a1_dag
        else:
            raise DomainError("unsupported-family", "decoupled form needs beta3 = +/-2")
        base = vacuum_state(g.cutoff)
        for _ in range(req.kappa):
            base = apply(raise_dag, base)
        exponent = (lam / mu1) * lower_dag - (nu1 / mu1) * (lower_dag @ raise_dag)
        return _exp_poly_vac(g, exponent, base=base)

    norm2 = abs(mu1) ** 2 / (2.0 + p.beta3) - abs(nu1) ** 2 / (2.0 - p.beta3)
    if norm2 <= 0:
        raise DomainError("squeeze-domain",
                          "creation part dominates: the family is not normalizable")
    scale = 2.0 * np.sqrt(norm2)
    mu_t, nu_t = mu1 / scale, nu1 / scale

    if req.branch == 1:
        t1 = ratio
        t2 = ratio * (2.0 + p.beta3) / (2.0 - p.beta3)
        if t1 >= 1.0 or t2 >= 1.0:
            raise DomainError("squeeze-domain",
                              f"squeeze arguments ({t1:.4f}, {t2:.4f}) must stay below 1")
        lam2 = lam / 2.0 if req.lambda2 is None else complex(req.lambda2)
        bm = p.beta_minus
        exponent = (((lam - lam2) / mu_t) * g.a1_dag
                    - (nu_t / (2.0 * mu_t)) * (g.a1_dag @ g.a1_dag)
                    + ((2.0 + p.beta3) * lam2 / (2.0 * bm * mu_t)) * g.a2_dag
                    + (0.5 * ((2.0 + p.beta3) / (2.0 - p.beta3))
                       * (p.beta_plus / bm) * (nu_t / mu_t)) * (g.a2_dag @ g.a2_dag))
        return _exp_poly_vac(g, exponent)

    if req.branch == 2:
        x = (nu1 / mu1) * np.sqrt((2.0 + p.beta3) / (2.0 - p.beta3)) * np.exp(1j * p.theta)
        if abs(x) >= 1.0:
            raise DomainError("squeeze-domain", f"pair amplitude |x| = {abs(x):.4f} >= 1")
        # pair-creation state written directly in the original frame: conjugate
        # the rotated-frame creation operators through the mixing rotation
        # analytically, so the construction stays an exact series
        c = np.sqrt((2.0 + p.beta3) / 4.0)
        s = np.sqrt((2.0 - p.beta3) / 4.0)
        b1 = c * g.a1_dag + np.exp(1j * p.theta) * s * g.a2_dag
        b2 = c * g.a2_dag - np.exp(-1j * p.theta) * s * g.a1_dag
        base = vacuum_state(g.cutoff)
        for _ in range(req.kappa):
            base = apply(b2, base)
        exponent = ((np.sqrt(2.0 + p.beta3) * lam / (2.0 * mu_t)) * b1
                    + x * (b1 @ b2))
        return _exp_poly_vac(g, exponent, base=base)

    raise DomainError("unknown-branch", f"this family has no branch {req.branch}")


def verify_eigenstate(a: Operator, v: TwoModeState, lam: complex,
                      degree: int = 3) -> float:
    """|| P (A v - lam v) || / ||v|| on the degree-`degree` interior."""
    resid = apply(a, v).amplitudes - complex(lam) * v.amplitudes
    keep = interior_indices(a.cutoff, degree)
    return float(np.linalg.norm(resid[keep]) / np.linalg.norm(v.amplitudes))
