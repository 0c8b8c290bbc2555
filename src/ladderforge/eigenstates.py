"""Closed-form eigenstate families of the lowering operators.

Every state is  exp(E) P^kappa |0>  for polynomials E and P in the
creation operators (CreationPoly), exact on the truncated space (creation
polynomials are nilpotent there) and then normalized numerically.  The
creation operators commute, so with E = c + L + Q split by degree (a
constant, the linear part, and the terms of degree 2 and more)

    exp(E) P^kappa |0>  =  e^c exp(Q) P^kappa coherent(L),

where coherent(L) = exp(x1 a1' + x2 a2')|0> has the closed form
x1^n1 / sqrt(n1!) x2^n2 / sqrt(n2!) (fock.coherent_state) and e^c goes in
the normalization.  A Taylor series runs only on Q, which is nonzero on the
squeezed branches alone.  Product forms in terms of displacement/squeeze
unitaries agree with these up to a global phase and are exercised in the
test suite as cross-checks, not used as the construction: a truncated
matrix exponential pollutes amplitudes near the cutoff while these do not.

Every family reduces to a basic system, whose states are carried back
through the reduction frame (reductions.Frame): rotation and displacement
prefixes are absorbed exactly through

    U f(a1', a2') |0>  =  const * exp(x . a') f(d1, d2) |0>,   d_i = U a_i' U',

with d1, d2 polynomials of degree one, so every family below stays within
polynomial arithmetic.  No operator matrix is built here; the checks
(verify_eigenstate) run on the brute-force truncated matrices.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from .errors import DomainError, LadderForgeError
from .fock import (A1_DAG, A2_DAG, CreationPoly, FockCutoff, GeneratorSet,
                   Operator, TwoModeState, apply, coherent_state,
                   interior_indices, normalize)
from .params import (CaseTag, FamilyKind, HamiltonianParams, LadderCoeffs,
                     SolveReport, classify)
from .reductions import Frame, reduction_frame

__all__ = [
    "EigenstateRequest",
    "fractional_lambda_state",
    "fractional_separable_cs",
    "isotropic_states",
    "basic21_states",
    "su2_ground",
    "linear_coupled_states",
    "chain_seed",
    "reduced_eigenstate",
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


def _exp_poly_vac(cutoff: FockCutoff, exponent: CreationPoly | None,
                  poly: CreationPoly | None = None, power: int = 1,
                  frame: Frame | None = None) -> TwoModeState:
    """normalize( exp(exponent) * poly^power |0> ), exactly, carried through
    `frame` when given (exponent and poly then written in its d1, d2).  The
    polynomial prefactor must stay in the lower half of each mode range."""
    if poly is not None and power:
        # the top power of each mode in poly^power is power times poly's
        deg = poly.degrees
        if (deg is None or power * deg[0] > cutoff.n1_max // 2
                or power * deg[1] > cutoff.n2_max // 2):
            raise DomainError("kappa-overflow", f"prefactor^{power} |0> leaves the lower "
                                                f"half of the cutoff {cutoff}")
    if frame is not None:
        exponent = frame.prefix() if exponent is None else exponent + frame.prefix()
    terms = {} if exponent is None else exponent.coeffs
    v = coherent_state(cutoff, terms.get((1, 0), 0), terms.get((0, 1), 0)).amplitudes
    if poly is not None:
        act = poly.on(cutoff)
        for _ in range(power):
            v = act(v)
    quad = CreationPoly({k: c for k, c in terms.items() if sum(k) >= 2})
    if quad.coeffs:
        # each power of quad raises n1 + n2 by at least 2
        act, term = quad.on(cutoff), v
        for k in range(1, (cutoff.n1_max + cutoff.n2_max) // 2 + 1):
            term = act(term) / k
            if not term.any():
                break
            v = v + term
    return normalize(TwoModeState(cutoff, v))


# ---------------------------------------------------------------------------
# basic-frame constructors: (exponent, poly, power) in creation operators d
# ---------------------------------------------------------------------------

def _isotropic_terms(d1: CreationPoly, d2: CreationPoly, mu1: complex, mu2: complex, lam: complex,
                     kappa: int, branch: int, c2: complex | None):
    """Eigenstates of mu1 a1 + mu2 a2 (see isotropic_states)."""
    if abs(mu1) < _TINY:
        raise DomainError("mu1-zero", "constructors need mu1 != 0")
    if branch == 1:
        c2 = np.conj(mu2) if c2 is None else c2
        return ((lam / mu1) * (1.0 - c2 * mu2)) * d1 + (lam * c2) * d2, None, 0
    if branch == 2:
        return (lam / mu1) * d1, d2 - (mu2 / mu1) * d1, kappa
    raise DomainError("unknown-branch", f"this family has no branch {branch}")


def _kernel21_terms(d1: CreationPoly, d2: CreationPoly, mu2: complex, alpha_plus: complex,
                    lam: complex, branch: int, c1: complex | None, kappa: int):
    """Eigenstates of mu2 a2 + alpha_plus J- (see basic21_states)."""
    if abs(mu2) < _TINY:
        raise DomainError("mu2-zero", "family needs mu2 != 0")
    c1 = 1.0 + 0j if c1 is None else c1
    if branch == 1:
        t = abs(lam * c1 * alpha_plus / mu2)
        if t >= 1.0:
            raise DomainError("squeeze-domain",
                              f"|lam*c1*alpha_plus/mu2| = {t:.4f} leaves the "
                              "squeezed-state domain (< 1 required)")
        return (c1 * lam * d1 + (lam / mu2) * d2
                - (lam * c1 * alpha_plus / (2.0 * mu2)) * (d2 @ d2)), None, 0
    if branch in (2, 3):
        if abs(alpha_plus) < _TINY:
            raise DomainError("alpha-zero", "non-separable branches need alpha_plus != 0")
        power = 1 if branch == 2 else kappa
        return (lam / mu2) * d2, 0.5 * (d2 @ d2) - (mu2 / alpha_plus) * d1, power
    raise DomainError("unknown-branch", f"this family has no branch {branch}")


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
    r = _fractional_ratio(p)
    return _exp_poly_vac(g.cutoff, (req.lam / mu1) * A1_DAG, A2_DAG - r * A1_DAG, req.kappa)


def fractional_separable_cs(p: HamiltonianParams, lam: complex, c1: complex,
                            g: GeneratorSet, mu1: complex = 1.0) -> TwoModeState:
    """Separable two-mode coherent eigenstate of mu1 (a1 + r a2)."""
    if abs(p.beta_plus) < 1e-12:
        raise DomainError("beta-minus-zero",
                          "separable family needs a nonzero mode coupling")
    r = _fractional_ratio(p)
    z1 = c1 * lam / mu1
    z2 = (lam / mu1) * (1.0 - c1) / r
    return _exp_poly_vac(g.cutoff, z1 * A1_DAG + z2 * A2_DAG)


def isotropic_states(mu1: complex, mu2: complex, lam: complex, kappa: int,
                     branch: int, g: GeneratorSet,
                     c2: complex | None = None) -> TwoModeState:
    """Eigenstates of mu1 a1 + mu2 a2.

    branch 1: product of two coherent displacements, free constant c2
              (default conj(mu2), which recovers the symmetric choice).
    branch 2: exp[(lam/mu1) a1'] (a2' - (mu2/mu1) a1')^kappa |0,0>.
    """
    return _exp_poly_vac(g.cutoff, *_isotropic_terms(A1_DAG, A2_DAG, mu1, mu2, lam,
                                                     kappa, branch, c2))


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
    return _exp_poly_vac(g.cutoff, *_kernel21_terms(A1_DAG, A2_DAG, mu2, alpha_plus, lam,
                                                    branch, c1, kappa))


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

def linear_coupled_states(p: HamiltonianParams, req: EigenstateRequest,
                          g: GeneratorSet, mu1: complex = 1.0, mu2: complex = 1.0,
                          nu1: complex = 0j, alpha_plus: complex = 1.0) -> TwoModeState:
    """Eigenstate families of the externally coupled Hamiltonians.

    Dispatches on the request tag: the displaced isotropic family, the
    displaced 2:1 / 1:2 family with both linear couplings switched on, and
    the Bogoliubov family on the b = 2 surface (gammas must already be
    displaced away there; see reduce_by_similarity).  Each is the basic
    family's state carried through the reduction frame of p.
    """
    kind = req.tag.kind
    if kind == FamilyKind.LINEAR_B2:
        if p.has_gamma():
            raise DomainError("unsupported-gamma",
                              "b = 2 constructors run on the displaced frame; "
                              "reduce the linear couplings away first")
        return _b2_states(p, req, g, mu1, nu1)
    frame = reduction_frame(p)
    d = frame.dags()
    if kind == FamilyKind.LINEAR_ISO:
        if abs(mu1) < _TINY or abs(mu2) < _TINY:
            raise DomainError("mu-zero", "displaced isotropic family needs mu1, mu2 != 0")
        c1 = 1.0 + 0j if req.c1 is None else complex(req.c1)
        terms = _isotropic_terms(*d, mu1, mu2, req.lam, req.kappa, req.branch, (1.0 - c1) / mu2)
    elif kind == FamilyKind.APPENDIX_A:
        if abs(p.beta0 - 3.0) > 1e-9 or abs(abs(p.beta3) - 1.0) > 1e-9:
            raise DomainError("unsupported-family",
                              "displaced commensurate family needs beta0 = 3, beta3 = +/-1")
        terms = _kernel21_terms(*d, mu2, alpha_plus, req.lam, req.branch, req.c1, req.kappa)
    else:
        raise DomainError("unsupported-family",
                          f"no coupled-state constructor for tag {req.tag}")
    return _exp_poly_vac(g.cutoff, *terms, frame=frame)


def _b2_states(p: HamiltonianParams, req: EigenstateRequest, g: GeneratorSet,
               mu1: complex, nu1: complex) -> TwoModeState:
    """Families on the b = 2 surface, where annihilation and creation
    amplitudes coexist and the ladder closes the oscillator algebra after a
    normalization by the commutator.  In the basic frame (mode 1 lowered,
    mode 2 raised) the states are exp(z d1 + x d1 d2) d2^kappa |0>."""
    if abs(mu1) < _TINY:
        raise DomainError("mu-zero", "annihilation amplitude must be nonzero")
    lam = complex(req.lam)
    ratio = abs(nu1 / mu1)

    if abs(p.beta_plus) < 1e-12:
        # decoupled variant: A = mu*a_low + nu*a_high' with mode roles set by beta3
        if ratio >= 1.0:
            raise DomainError("squeeze-domain", f"|nu/mu| = {ratio:.4f} >= 1")
        z, x = lam / mu1, -nu1 / mu1
    else:
        norm2 = abs(mu1) ** 2 / (2.0 + p.beta3) - abs(nu1) ** 2 / (2.0 - p.beta3)
        if norm2 <= 0:
            raise DomainError("squeeze-domain",
                              "creation part dominates: the family is not normalizable")
        scale = 2.0 * np.sqrt(norm2)
        mu_t, nu_t = mu1 / scale, nu1 / scale
        if req.branch == 1:
            t2 = ratio * (2.0 + p.beta3) / (2.0 - p.beta3)
            if ratio >= 1.0 or t2 >= 1.0:
                raise DomainError("squeeze-domain",
                                  f"squeeze arguments ({ratio:.4f}, {t2:.4f}) must stay below 1")
            lam2 = lam / 2.0 if req.lambda2 is None else complex(req.lambda2)
            bm = p.beta_minus
            exponent = (((lam - lam2) / mu_t) * A1_DAG
                        - (nu_t / (2.0 * mu_t)) * (A1_DAG @ A1_DAG)
                        + ((2.0 + p.beta3) * lam2 / (2.0 * bm * mu_t)) * A2_DAG
                        + (0.5 * ((2.0 + p.beta3) / (2.0 - p.beta3))
                           * (p.beta_plus / bm) * (nu_t / mu_t)) * (A2_DAG @ A2_DAG))
            return _exp_poly_vac(g.cutoff, exponent)
        if req.branch != 2:
            raise DomainError("unknown-branch", f"this family has no branch {req.branch}")
        x = (nu1 / mu1) * np.sqrt((2.0 + p.beta3) / (2.0 - p.beta3)) * np.exp(1j * p.theta)
        if abs(x) >= 1.0:
            raise DomainError("squeeze-domain", f"pair amplitude |x| = {abs(x):.4f} >= 1")
        z = np.sqrt(2.0 + p.beta3) * lam / (2.0 * mu_t)
    frame = reduction_frame(p)
    d1, d2 = frame.dags()
    return _exp_poly_vac(g.cutoff, z * d1 + x * (d1 @ d2), d2, req.kappa, frame)


# ---------------------------------------------------------------------------
# any family: the basic system's state carried through the reduction frame
# ---------------------------------------------------------------------------

def _basic_family(p: HamiltonianParams, kappa: int, lam: complex = 0j,
                  branch: int = 0, c1: complex | None = None, c2: complex | None = None):
    """(frame, basic tag, unit ladder, (exponent, poly, power), lambda) of a
    member of p's basic family.  The unit ladders are a1 + a2 (isotropic),
    a2 + J- (2:1), a_k of the stepped mode k (fractional pair, and b = 2,
    where mode 1 is lowered and mode 2 raised) and J- (su(2), lambda = 0
    only); other basic systems, decoupled pairs with no normalizable
    eigenstates, have None.  Pairs give the lambda = 0 powers
    d_other^kappa; branch 0 is the kappa family of the other two."""
    frame = reduction_frame(p)
    d, b = frame.dags(), frame.basic
    tag = classify(b)
    # the stepped mode has frequency +/-1: mode 2 unless only mode 1 has
    w1, w2 = abs(b.beta0 + b.beta3) / 2.0, abs(b.beta0 - b.beta3) / 2.0
    other = 0 if abs(w2 - 1.0) < 1e-9 and abs(w1 - 1.0) >= 1e-9 else 1
    if tag.kind == FamilyKind.ISOTROPIC:
        return frame, tag, LadderCoeffs(mu1=1.0, mu2=1.0), _isotropic_terms(
            *d, 1.0, 1.0, lam, kappa, branch or 2, c2), lam
    if tag == CaseTag(FamilyKind.BASIC21, "2:1"):
        return frame, tag, LadderCoeffs(mu2=1.0, alpha_plus=1.0), _kernel21_terms(
            *d, 1.0, 1.0, lam, branch or 3, c1, kappa), lam
    if tag == CaseTag(FamilyKind.FRACTIONAL, "mu") or tag.kind == FamilyKind.LINEAR_B2:
        return (frame, tag, LadderCoeffs(*np.eye(2)[1 - other]),
                (lam * d[1 - other], d[other], kappa), lam)
    unit = LadderCoeffs(alpha_plus=1.0) if tag.kind == FamilyKind.SU2 else None
    return frame, tag, unit, (None, d[other], kappa), 0j


def chain_seed(p: HamiltonianParams, kappa: int, g: GeneratorSet) -> TwoModeState:
    """lambda = 0 member number kappa of p's basic family, carried through
    the reduction frame: an eigenstate of H that seeds a raising chain."""
    frame, _, _, terms, _ = _basic_family(p, kappa)
    return _exp_poly_vac(g.cutoff, *terms, frame=frame)


def reduced_eigenstate(p: HamiltonianParams, rep: SolveReport, req: EigenstateRequest,
                       g: GeneratorSet) -> tuple[TwoModeState, LadderCoeffs, complex]:
    """(state, ladder, eigenvalue): the requested eigenstate of the basic
    family's unit ladder, carried through the reduction frame, and that
    ladder written in the solver's basis of p's ladders (so a fractional
    ladder is scaled by its stepped mode's amplitude)."""
    # the paper lists the Appendix B rows that do not reduce to 2:1 as
    # non-normalizable, and the solver flags their ladders so; like plain su(2)
    # they keep lambda = 0 states, but only the undisplaced su(2) family builds them
    if req.tag.kind == FamilyKind.APPENDIX_B and not any(rep.normalizable):
        raise DomainError("non-normalizable", f"{req.tag}: no ladder is flagged normalizable")
    c2 = req.c2
    if req.tag.kind == FamilyKind.LINEAR_ISO:   # free constant c1, as in linear_coupled_states
        c2 = 1.0 - (1.0 if req.c1 is None else complex(req.c1))
    frame, tag, unit, terms, lam = _basic_family(p, req.kappa, req.lam, req.branch,
                                                 req.c1, c2)
    if unit is None:
        raise DomainError("non-normalizable", f"basic system {tag} has no normalizable states")
    basis = np.array([frame.reduced_ladder(c).as_array() for c in rep.coeffs]).T
    weights, *_ = np.linalg.lstsq(basis, unit.as_array(), rcond=None)
    if np.linalg.norm(basis @ weights - unit.as_array()) > 1e-9:
        raise LadderForgeError(f"the unit ladder of {tag} is outside the solver's span")
    ladder = LadderCoeffs(*(np.array([c.as_array() for c in rep.coeffs]).T @ weights))
    return _exp_poly_vac(g.cutoff, *terms, frame=frame), ladder, lam


def verify_eigenstate(a: Operator, v: TwoModeState, lam: complex,
                      degree: int = 3) -> float:
    """|| P (A v - lam v) || / ||v|| on the degree-`degree` interior."""
    resid = apply(a, v).amplitudes - complex(lam) * v.amplitudes
    keep = interior_indices(a.cutoff, degree)
    return float(np.linalg.norm(resid[keep]) / np.linalg.norm(v.amplitudes))
