"""Closed-form eigenstate families of the lowering operators.

Every state is  exp(E) P^kappa |0>  for polynomials E and P in the
creation operators (Poly), exact on the truncated space (creation
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
polynomial arithmetic.  No operator matrix is built here, and none for
the check either: verify_eigenstate applies the brute-force truncated A as
its weighted shifts (fock.Operator.matvec), which sum as scipy's CSR
mat-vec does.

The scenarios build every state through `reduced_eigenstate` and
`chain_seed`, on the unit ladder of the basic family.  `isotropic_states`
and `basic21_states` take any ladder amplitudes; `fractional_separable_cs`
and `linear_coupled_states` build the two families that path does not
reach, the separable fractional branch and the b = 2 squeezed branch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, LadderForgeError
from .fock import (A1_DAG, A2_DAG, FockCutoff, GeneratorSet,
                   Operator, Poly, TwoModeState, coherent_state,
                   interior_indices, normalize)
from .params import (CaseTag, FamilyKind, HamiltonianParams, LadderCoeffs,
                     SolveReport, classify)
from .reductions import Frame, reduction_frame

__all__ = [
    "EigenstateRequest",
    "fractional_separable_cs",
    "isotropic_states",
    "basic21_states",
    "linear_coupled_states",
    "chain_seed",
    "reduced_eigenstate",
    "verify_eigenstate",
]

_TINY = 1e-14


@dataclass
class EigenstateRequest:
    """Which member of a family to build, for reduced_eigenstate and
    linear_coupled_states.

    Isotropic and 2:1 bases read `branch`: 1 is the separable solution, 2
    the non-separable one, 3 (2:1 only) the kappa-indexed polynomial family.
    Fractional, su(2) and b = 2 bases ignore it and give the kappa family,
    except in linear_coupled_states's b = 2 constructor, which no scenario
    calls: it reads 1, squeezed, and 2, pair.  Free constants left as None
    take the defaults c1 = 1, c2 = conj(mu2) and, on that squeezed branch
    alone, lambda2 = lam / 2.
    """

    tag: CaseTag
    lam: complex = 0j
    kappa: int = 0
    branch: int = 1
    c1: complex | None = None
    c2: complex | None = None
    lambda2: complex | None = None


def _exp_poly_vac(cutoff: FockCutoff, exponent: Poly | None,
                  poly: Poly | None = None, power: int = 1,
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
    v = coherent_state(cutoff, terms.get((1, 0, 0, 0), 0), terms.get((0, 1, 0, 0), 0)).amplitudes
    if poly is not None:
        act = poly.on(cutoff)
        for _ in range(power):
            v = act(v)
    quad = Poly({k: c for k, c in terms.items() if sum(k) >= 2})
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

def _isotropic_terms(d1: Poly, d2: Poly, mu1: complex, mu2: complex, lam: complex,
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


def _kernel21_terms(d1: Poly, d2: Poly, mu2: complex, alpha_plus: complex,
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
    c2 = None
    if kind == FamilyKind.LINEAR_ISO:
        if abs(mu1) < _TINY or abs(mu2) < _TINY:
            raise DomainError("mu-zero", "displaced isotropic family needs mu1, mu2 != 0")
        c2 = (1.0 - (1.0 + 0j if req.c1 is None else complex(req.c1))) / mu2
    elif kind == FamilyKind.APPENDIX_A:
        if abs(p.beta0 - 3.0) > 1e-9 or abs(abs(p.beta3) - 1.0) > 1e-9:
            raise DomainError("unsupported-family",
                              "displaced commensurate family needs beta0 = 3, beta3 = +/-1")
    else:
        raise DomainError("unsupported-family",
                          f"no coupled-state constructor for tag {req.tag}")
    frame = reduction_frame(p)
    ladder = LadderCoeffs(mu1=mu1, mu2=mu2, alpha_plus=alpha_plus)
    return _exp_poly_vac(g.cutoff, *_basic_terms(frame, ladder, req.lam, req.kappa, req.branch,
                                                 req.c1, c2), frame=frame)


def _b2_states(p: HamiltonianParams, req: EigenstateRequest, g: GeneratorSet,
               mu1: complex, nu1: complex) -> TwoModeState:
    """Families on the b = 2 surface, where annihilation and creation
    amplitudes coexist and the ladder closes the oscillator algebra after a
    normalization by the commutator.  In the basic frame (mode 1 lowered,
    mode 2 raised, amplitude amp of a1) the states are the pair terms
    exp((lam / amp) d1 + x d1 d2) d2^kappa |0>."""
    if abs(mu1) < _TINY:
        raise DomainError("mu-zero", "annihilation amplitude must be nonzero")
    lam = complex(req.lam)
    ratio = abs(nu1 / mu1)

    if abs(p.beta_plus) < 1e-12:
        # decoupled variant: A = mu*a_low + nu*a_high' with mode roles set by beta3
        if ratio >= 1.0:
            raise DomainError("squeeze-domain", f"|nu/mu| = {ratio:.4f} >= 1")
        amp, x = mu1, -nu1 / mu1
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
        amp = 2.0 * mu_t / np.sqrt(2.0 + p.beta3)
    frame = reduction_frame(p)
    exponent, poly, power = _basic_terms(frame, LadderCoeffs(mu1=amp), lam, req.kappa, 0)
    d1, d2 = frame.dags()
    return _exp_poly_vac(g.cutoff, exponent + x * (d1 @ d2), poly, power, frame)


# ---------------------------------------------------------------------------
# any family: the basic system's state carried through the reduction frame
# ---------------------------------------------------------------------------

def _basic_terms(frame: Frame, ladder: LadderCoeffs, lam: complex, kappa: int, branch: int,
                 c1: complex | None = None, c2: complex | None = None):
    """(exponent, poly, power) in the frame's d1, d2 of the eigenstate, value
    lam, of `ladder` in the basic frame, by the basic family: mu1 a1 + mu2 a2
    (isotropic) or mu2 a2 + alpha_plus J- (2:1), where branch 0 is the kappa
    family; else a pair, exp((lam / mu_k) d_k) d_other^kappa for the stepped
    mode k (no exponent where mu_k = 0, as for J- of su(2))."""
    d, tag = frame.dags(), classify(frame.basic)
    if tag.kind == FamilyKind.ISOTROPIC:
        return _isotropic_terms(*d, ladder.mu1, ladder.mu2, lam, kappa, branch or 2, c2)
    if tag == CaseTag(FamilyKind.BASIC21, "2:1"):
        return _kernel21_terms(*d, ladder.mu2, ladder.alpha_plus, lam, branch or 3, c1, kappa)
    k = frame.stepped
    amp = (ladder.mu1, ladder.mu2)[k]
    return ((lam / amp) * d[k] if amp else None), d[1 - k], kappa


def _unit_ladder(frame: Frame) -> LadderCoeffs | None:
    """a1 + a2 (isotropic), a2 + J- (2:1), a_k of the stepped mode (fractional
    mu, b = 2) and J- (su(2), lambda = 0 only); None for the basic systems
    with no normalizable eigenstates."""
    tag = classify(frame.basic)
    if tag.kind == FamilyKind.ISOTROPIC:
        return LadderCoeffs(mu1=1.0, mu2=1.0)
    if tag == CaseTag(FamilyKind.BASIC21, "2:1"):
        return LadderCoeffs(mu2=1.0, alpha_plus=1.0)
    if tag == CaseTag(FamilyKind.FRACTIONAL, "mu") or tag.kind == FamilyKind.LINEAR_B2:
        return LadderCoeffs(*np.eye(2)[frame.stepped])
    return LadderCoeffs(alpha_plus=1.0) if tag.kind == FamilyKind.SU2 else None


def chain_seed(frame: Frame, kappa: int, g: GeneratorSet) -> TwoModeState:
    """lambda = 0 member number kappa of the frame's basic family, carried
    through the frame: an eigenstate of H with energy frame.energy(kappa)
    that seeds a raising chain."""
    terms = _basic_terms(frame, _unit_ladder(frame) or LadderCoeffs(), 0j, kappa, 0)
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
    frame = reduction_frame(p)
    tag, unit = classify(frame.basic), _unit_ladder(frame)
    if unit is None:
        raise DomainError("non-normalizable", f"basic system {tag} has no normalizable states")
    c2 = req.c2
    if req.tag.kind == FamilyKind.LINEAR_ISO:   # free constant c1, as in linear_coupled_states
        c2 = 1.0 - (1.0 if req.c1 is None else complex(req.c1))
    lam = 0j if tag.kind == FamilyKind.SU2 else req.lam
    terms = _basic_terms(frame, unit, lam, req.kappa, req.branch, req.c1, c2)
    basis = np.array([frame.reduced_ladder(c).as_array() for c in rep.coeffs]).T
    weights, *_ = np.linalg.lstsq(basis, unit.as_array(), rcond=None)
    if np.linalg.norm(basis @ weights - unit.as_array()) > 1e-9:
        raise LadderForgeError(f"the unit ladder of {tag} is outside the solver's span")
    ladder = LadderCoeffs(*(np.array([c.as_array() for c in rep.coeffs]).T @ weights))
    return _exp_poly_vac(g.cutoff, *terms, frame=frame), ladder, lam


def verify_eigenstate(a: Operator, v: TwoModeState, lam: complex,
                      degree: int = 3) -> float:
    """|| P (A v - lam v) || / ||v|| on the degree-`degree` interior."""
    resid = a.matvec(v.amplitudes) - complex(lam) * v.amplitudes
    keep = interior_indices(a.cutoff, degree)
    return float(np.linalg.norm(resid[keep]) / np.linalg.norm(v.amplitudes))
