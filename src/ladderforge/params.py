"""Coefficient records for Hamiltonians and candidate ladder operators, the
linear systems governing when a compatible ladder exists, and the case
classification used to dispatch eigenstate constructors.

A Hamiltonian here is

    H = beta0*N + beta_plus*J- + conj(beta_plus)*J+ + beta3*J3
        + gamma1*a1' + conj(gamma1)*a1 + gamma2*a2' + conj(gamma2)*a2 + h0*I

and a candidate lowering operator is

    A = mu1*a1 + mu2*a2 + nu1*a1' + nu2*a2'
        + alpha_minus*J+ + alpha_plus*J- + alpha3*J3 + a0*I.

Requiring [H, A] = -A splits into one 3x3 homogeneous system for the alpha
block and two 2x2 systems for (mu1, mu2) and (nu1, nu2) whose right-hand
sides are linear in alpha and the gammas.  The alpha block is solvable only
on the surface b^2 = 4|beta_plus|^2 + beta3^2 = 1; the mu block (gammas and
alphas zero) only when (2 - beta0)^2 = b^2, the nu block when
(2 + beta0)^2 = b^2.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass, field, replace

import numpy as np

from .fock import (DEFAULT_TOL, GeneratorSet, Operator, ToleranceConfig,
                   commutator, interior_indices, interior_residual)

__all__ = [
    "HamiltonianParams",
    "LadderCoeffs",
    "FamilyKind",
    "CaseTag",
    "MuNuSolution",
    "SolveReport",
    "su2_invariant",
    "solve_alpha_block",
    "solve_mu_nu_block",
    "compute_a0",
    "classify",
    "solve_ladder",
    "build_hamiltonian",
    "build_ladder",
    "verify_ladder",
    "parse_complex",
    "params_to_json",
    "params_from_json",
    "coeffs_to_json",
    "coeffs_from_json",
]

_ZERO = 1e-12


@dataclass(frozen=True)
class HamiltonianParams:
    """Hermitian coefficient record; beta_minus is always conj(beta_plus)."""

    beta0: float = 0.0
    beta_plus: complex = 0j
    beta3: float = 0.0
    gamma1: complex = 0j
    gamma2: complex = 0j
    h0: float = 0.0

    def __post_init__(self):
        for name in ("beta0", "beta3", "h0"):
            value = getattr(self, name)
            if isinstance(value, complex):
                if abs(value.imag) > 1e-14:
                    raise ValueError(f"{name} must be real")
                object.__setattr__(self, name, value.real)
        object.__setattr__(self, "beta_plus", complex(self.beta_plus))
        object.__setattr__(self, "gamma1", complex(self.gamma1))
        object.__setattr__(self, "gamma2", complex(self.gamma2))

    @property
    def beta_minus(self) -> complex:
        return np.conj(self.beta_plus)

    @property
    def r(self) -> float:
        return abs(self.beta_plus)

    @property
    def theta(self) -> float:
        return float(np.angle(self.beta_plus)) if self.r > 0 else 0.0

    @property
    def b(self) -> float:
        return float(np.sqrt(su2_invariant(self)))

    def has_gamma(self, tol: float = _ZERO) -> bool:
        return abs(self.gamma1) > tol or abs(self.gamma2) > tol

    def snapped(self) -> "HamiltonianParams":
        """Every linear coupling at or below _ZERO set to zero, as classify reads it."""
        return replace(self, **{k: 0j for k in ("gamma1", "gamma2")
                                if abs(getattr(self, k)) <= _ZERO})


@dataclass(frozen=True)
class LadderCoeffs:
    mu1: complex = 0j
    mu2: complex = 0j
    nu1: complex = 0j
    nu2: complex = 0j
    alpha_plus: complex = 0j
    alpha_minus: complex = 0j
    alpha3: complex = 0j
    a0: complex = 0j

    def as_array(self) -> np.ndarray:
        return np.array([self.mu1, self.mu2, self.nu1, self.nu2,
                         self.alpha_plus, self.alpha_minus, self.alpha3, self.a0],
                        dtype=np.complex128)

    def scaled(self, factor: complex) -> "LadderCoeffs":
        arr = self.as_array() * factor
        return LadderCoeffs(*arr)

    def plus(self, other: "LadderCoeffs") -> "LadderCoeffs":
        arr = self.as_array() + other.as_array()
        return LadderCoeffs(*arr)


class FamilyKind(str, enum.Enum):
    ISOTROPIC = "IsotropicB0eq2"
    FRACTIONAL = "FractionalBneq1"
    SU2 = "Su2PureLadder"
    BASIC21 = "Basic21"
    EXTENDED21 = "Extended21"
    GENERALIZED21 = "Generalized21"
    LINEAR_ISO = "LinearCoupledIso"
    LINEAR_B2 = "LinearCoupledB2"
    LINEAR_FRACTIONAL = "LinearCoupledFractional"
    APPENDIX_A = "AppendixA"
    APPENDIX_B = "AppendixB"
    NONE = "NoLadderExists"


@dataclass(frozen=True)
class CaseTag:
    kind: FamilyKind
    detail: str = ""

    def __str__(self) -> str:
        return f"{self.kind.value}({self.detail})" if self.detail else self.kind.value


@dataclass
class MuNuSolution:
    """Solution set of the two 2x2 blocks for one fixed alpha vector.

    ``particular`` is a length-4 array (mu1, mu2, nu1, nu2) or None when a
    singular block has an incompatible right-hand side; ``basis`` spans the
    homogeneous directions, each also length 4.
    """

    particular: np.ndarray | None
    basis: list[np.ndarray] = field(default_factory=list)

    @property
    def consistent(self) -> bool:
        return self.particular is not None


@dataclass
class SolveReport:
    """Basis of the ladder-operator solution space for one parameter set."""

    tag: CaseTag
    coeffs: list[LadderCoeffs]
    free_parameters: list[str]
    normalizable: list[bool]
    margins: dict

    @property
    def exists(self) -> bool:
        return len(self.coeffs) > 0

    def combined(self) -> LadderCoeffs:
        """Sum of the basis elements: one lowering operator that uses every
        direction of the solution space."""
        return functools.reduce(LadderCoeffs.plus, self.coeffs)


def su2_invariant(p: HamiltonianParams) -> float:
    """b^2 = 4*beta_plus*beta_minus + beta3^2."""
    return 4.0 * abs(p.beta_plus) ** 2 + p.beta3 ** 2


def _close(x: complex, y: complex, tol: float) -> bool:
    return abs(x - y) <= tol * max(1.0, abs(x), abs(y))


def _nullspace(m: np.ndarray, rel_tol: float) -> list[np.ndarray]:
    _, sing, vh = np.linalg.svd(m)
    cut = rel_tol * (sing[0] if sing.size and sing[0] > 0 else 1.0)
    vecs = [vh[i].conj() for i in range(vh.shape[0]) if i >= sing.size or sing[i] <= cut]
    return [_normalize_direction(v) for v in vecs]


def _normalize_direction(v: np.ndarray) -> np.ndarray:
    """Scale so the preferred component is exactly 1 (deterministic basis)."""
    idx = int(np.argmax(np.abs(v)))
    # prefer the alpha3 slot of 3-vectors when it is not negligible
    if v.size == 3 and abs(v[2]) > 1e-6 * abs(v[idx]):
        idx = 2
    return v / v[idx]


def _alpha_matrix(p: HamiltonianParams) -> np.ndarray:
    bp, bm, b3 = p.beta_plus, p.beta_minus, p.beta3
    return np.array([[2 * bm, -2 * bp, 1.0],
                     [1.0 - b3, 0.0, bp],
                     [0.0, 1.0 + b3, -bm]], dtype=np.complex128)


def solve_alpha_block(p: HamiltonianParams,
                      tol: ToleranceConfig = DEFAULT_TOL) -> list[np.ndarray]:
    """Null-space basis for (alpha_plus, alpha_minus, alpha3); empty unless
    b^2 is on the unit gate."""
    return _nullspace(_alpha_matrix(p), tol.nullspace_rel)


def _mu_matrix(p: HamiltonianParams) -> np.ndarray:
    return np.array([[1.0 - (p.beta0 + p.beta3) / 2.0, -p.beta_plus],
                     [-p.beta_minus, 1.0 - (p.beta0 - p.beta3) / 2.0]],
                    dtype=np.complex128)


def _nu_matrix(p: HamiltonianParams) -> np.ndarray:
    return np.array([[1.0 + (p.beta0 + p.beta3) / 2.0, p.beta_minus],
                     [p.beta_plus, 1.0 + (p.beta0 - p.beta3) / 2.0]],
                    dtype=np.complex128)


def _solve_block(m: np.ndarray, rhs: np.ndarray, tol: ToleranceConfig):
    """Least-squares particular solution + null directions; None if inconsistent."""
    null = _nullspace(m, tol.nullspace_rel)
    x, *_ = np.linalg.lstsq(m, rhs, rcond=None)
    resid = np.linalg.norm(m @ x - rhs)
    if resid > 1e-9 * max(1.0, np.linalg.norm(rhs)):
        return None, null
    return x, null


def solve_mu_nu_block(p: HamiltonianParams, alpha=None,
                      tol: ToleranceConfig = DEFAULT_TOL) -> MuNuSolution:
    """Solve the two 2x2 blocks for (mu1, mu2) and (nu1, nu2).

    ``alpha`` is (alpha_plus, alpha_minus, alpha3) driving the right-hand
    sides; None means the homogeneous problem.  An inconsistent singular
    block yields ``particular = None`` (no ladder for that alpha), never an
    exception.
    """
    if alpha is None:
        ap = am = a3 = 0j
    else:
        ap, am, a3 = (complex(z) for z in alpha)
    g1, g2 = p.gamma1, p.gamma2
    rhs_mu = np.array([-np.conj(g1) / 2.0 * a3 - np.conj(g2) * ap,
                       np.conj(g2) / 2.0 * a3 - np.conj(g1) * am], dtype=np.complex128)
    rhs_nu = np.array([g1 / 2.0 * a3 + g2 * am,
                       -g2 / 2.0 * a3 + g1 * ap], dtype=np.complex128)

    mu_part, mu_null = _solve_block(_mu_matrix(p), rhs_mu, tol)
    nu_part, nu_null = _solve_block(_nu_matrix(p), rhs_nu, tol)
    if mu_part is None or nu_part is None:
        return MuNuSolution(particular=None, basis=[])

    particular = np.concatenate([mu_part, nu_part])
    basis = [np.concatenate([d, [0j, 0j]]) for d in mu_null]
    basis += [np.concatenate([[0j, 0j], d]) for d in nu_null]
    return MuNuSolution(particular=particular, basis=basis)


def compute_a0(p: HamiltonianParams, c: LadderCoeffs) -> complex:
    """Identity coefficient forced by the gamma terms."""
    return (p.gamma1 * c.mu1 + p.gamma2 * c.mu2
            - np.conj(p.gamma1) * c.nu1 - np.conj(p.gamma2) * c.nu2)


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

# allowed beta0 slots per item of the catalogue tables; "gen" stands for any
# beta0 outside {1, 3, -1, -3}.  Item k has k - 1 = [gamma1 != 0]
# + 2 [gamma2 != 0] + 4 [beta3 = -1]
_A_TABLE_SLOTS = {
    1: (1, 3, -1, -3),
    2: (1, 3, -3, "gen"),
    3: (3, -1, -3, "gen"),
    4: (3, -3, "gen"),
    5: (1, 3, -1, -3),
    6: (3, -1, -3, "gen"),
    7: (1, 3, -3, "gen"),
    8: (3, -3, "gen"),
}


def _beta0_slot(beta0: float, tol: float) -> object:
    for value in (1, 3, -1, -3):
        if _close(beta0, value, tol):
            return value
    return "gen"


def appendix_a_label(beta0: float, beta3: float, gamma1: complex, gamma2: complex,
                     tol: float = 1e-10) -> str:
    """Stable row label of the beta_plus = 0, b = 1 catalogue; 'unlisted'
    detail when the gamma pattern admits no row at this beta0."""
    section = 1 if beta3 > 0 else 2
    item = 1 + (abs(gamma1) > _ZERO) + 2 * (abs(gamma2) > _ZERO) + 4 * (section - 1)
    slot = _beta0_slot(beta0, tol)
    b0 = "gen" if slot == "gen" else str(slot)
    if slot not in _A_TABLE_SLOTS[item]:
        return f"A{section}.{item}-b0={b0}-unlisted"
    return f"A{section}.{item}-b0={b0}"


def classify(p: HamiltonianParams, tol: ToleranceConfig = DEFAULT_TOL) -> CaseTag:
    """Deterministic family tag; total over all real/complex inputs.

    Near-threshold parameters go to the nearest branch; the solver report
    carries the gate margins so callers can see how close the call was.
    """
    b2 = su2_invariant(p)
    gate = tol.gate
    has_g = p.has_gamma()
    bp_zero = abs(p.beta_plus) < _ZERO

    if _close(b2, 1.0, gate):
        if bp_zero:
            slot = _beta0_slot(p.beta0, gate)
            if not has_g:
                if slot in (1, 3):
                    variant = {(3, True): "2:1", (3, False): "1:2",
                               (1, True): "mode1", (1, False): "mode2"}[(slot, p.beta3 > 0)]
                    return CaseTag(FamilyKind.BASIC21, variant)
                if slot in (-1, -3):
                    return CaseTag(FamilyKind.APPENDIX_A,
                                   appendix_a_label(p.beta0, p.beta3, 0, 0, gate))
                return CaseTag(FamilyKind.SU2, "Jminus" if p.beta3 > 0 else "Jplus")
            return CaseTag(FamilyKind.APPENDIX_A,
                           appendix_a_label(p.beta0, p.beta3, p.gamma1, p.gamma2, gate))
        # interacting case: |beta3| < 1
        slot = _beta0_slot(p.beta0, gate)
        if not has_g:
            if slot in (1, 3):
                kind = FamilyKind.EXTENDED21 if abs(p.beta3) < _ZERO else FamilyKind.GENERALIZED21
                return CaseTag(kind, f"b0={slot}")
            if slot in (-1, -3):
                return CaseTag(FamilyKind.APPENDIX_B, f"B3-b0={slot}")
            return CaseTag(FamilyKind.SU2, "interacting")
        b0 = slot if slot != "gen" else "gen"
        # gamma1/2 = +/- gamma2 beta_minus / (1 -/+ beta3), cross-multiplied: a
        # beta_plus below about 1e-8 rounds beta3 to +/-1 on the unit gate
        if _close(p.gamma1 * (1.0 - p.beta3), 2.0 * p.gamma2 * p.beta_minus, gate):
            return CaseTag(FamilyKind.APPENDIX_B, f"B4-b0={b0}")
        if _close(p.gamma1 * (1.0 + p.beta3), -2.0 * p.gamma2 * p.beta_minus, gate):
            return CaseTag(FamilyKind.APPENDIX_B, f"B5-b0={b0}")
        return CaseTag(FamilyKind.APPENDIX_B, f"B6-b0={b0}")

    mu_gate = _close((2.0 - p.beta0) ** 2, b2, gate)
    nu_gate = _close((2.0 + p.beta0) ** 2, b2, gate)
    if mu_gate and nu_gate:
        return CaseTag(FamilyKind.LINEAR_B2, "gamma" if has_g else "")
    if not mu_gate and not nu_gate:
        return CaseTag(FamilyKind.NONE)
    branch = "mu" if mu_gate else "nu"
    if _close(b2, 0.0, gate):
        if has_g:
            return CaseTag(FamilyKind.LINEAR_ISO, branch)
        if mu_gate:
            return CaseTag(FamilyKind.ISOTROPIC)
        return CaseTag(FamilyKind.FRACTIONAL, "nu")
    if has_g:
        return CaseTag(FamilyKind.LINEAR_FRACTIONAL, branch)
    return CaseTag(FamilyKind.FRACTIONAL, branch)


_COEFF_NAMES = ("mu1", "mu2", "nu1", "nu2")


def _basis_name(direction: np.ndarray) -> str:
    return _COEFF_NAMES[int(np.argmax(np.abs(direction)))]


def solve_ladder(p: HamiltonianParams,
                 tol: ToleranceConfig = DEFAULT_TOL) -> SolveReport:
    """Full solution space of [H, A] = -A for the given parameters.

    Every returned LadderCoeffs is one basis element of the (linear) solution
    space: homogeneous mu/nu directions plus, on the b^2 = 1 gate, the
    alpha-driven direction with its induced mu/nu components.  Any linear
    combination of the basis is again a valid lowering operator.
    """
    p = p.snapped()
    b2 = su2_invariant(p)
    tag = classify(p, tol)
    margins = {
        "alpha_gate": abs(b2 - 1.0),
        "mu_gate": abs((2.0 - p.beta0) ** 2 - b2),
        "nu_gate": abs((2.0 + p.beta0) ** 2 - b2),
    }

    coeffs: list[LadderCoeffs] = []
    names: list[str] = []
    normalizable: list[bool] = []
    on_unit_gate = _close(b2, 1.0, tol.gate)
    slot = _beta0_slot(p.beta0, tol.gate)

    hom = solve_mu_nu_block(p, None, tol)
    for direction in hom.basis:
        c = LadderCoeffs(*direction, 0j, 0j, 0j, 0j)
        c = replace(c, a0=compute_a0(p, c))
        coeffs.append(c)
        names.append(_basis_name(direction))
        if np.max(np.abs(direction[2:])) > _ZERO:
            normalizable.append(False)        # creation-dominated direction
        else:
            # the one-mode reduction at the unit gate has no normalizable
            # eigenstates away from eigenvalue zero
            normalizable.append(not (on_unit_gate and slot == 1))

    for alpha in solve_alpha_block(p, tol):
        driven = solve_mu_nu_block(p, alpha, tol)
        if not driven.consistent:
            continue
        c = LadderCoeffs(*driven.particular, alpha_plus=alpha[0],
                         alpha_minus=alpha[1], alpha3=alpha[2])
        c = replace(c, a0=compute_a0(p, c))
        coeffs.append(c)
        names.append("alpha3" if abs(alpha[2]) > _ZERO
                     else ("alpha_plus" if abs(alpha[0]) >= abs(alpha[1]) else "alpha_minus"))
        # only the rows reducing to the 2:1 / 1:2 families keep normalizable
        # eigenstates with a nonzero su(2) component; any creation part here
        # is a displacement artifact of the coupling
        normalizable.append(slot == 3)

    if not coeffs:
        tag = CaseTag(FamilyKind.NONE)
    return SolveReport(tag=tag, coeffs=coeffs, free_parameters=names,
                       normalizable=normalizable, margins=margins)


# ---------------------------------------------------------------------------
# matrix construction and residuals
# ---------------------------------------------------------------------------

def build_hamiltonian(p: HamiltonianParams, g: GeneratorSet) -> Operator:
    return (p.beta0 * g.n_op
            + p.beta_plus * g.j_minus + p.beta_minus * g.j_plus + p.beta3 * g.j3
            + p.gamma1 * g.a1_dag + np.conj(p.gamma1) * g.a1
            + p.gamma2 * g.a2_dag + np.conj(p.gamma2) * g.a2
            + p.h0 * g.identity)


def build_ladder(c: LadderCoeffs, g: GeneratorSet) -> Operator:
    return (c.mu1 * g.a1 + c.mu2 * g.a2 + c.nu1 * g.a1_dag + c.nu2 * g.a2_dag
            + c.alpha_minus * g.j_plus + c.alpha_plus * g.j_minus + c.alpha3 * g.j3
            + c.a0 * g.identity)


def verify_ladder(h: Operator, a: Operator, degree: int = 3) -> float:
    """|| P ([H, A] + A) P ||_F on the degree-`degree` interior."""
    return interior_residual(commutator(h, a) + a, interior_indices(h.cutoff, degree))


# ---------------------------------------------------------------------------
# serialization: complex numbers as [re, im]
# ---------------------------------------------------------------------------

def _c(z: complex) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


def params_to_json(p: HamiltonianParams) -> dict:
    return {"beta0": p.beta0, "beta_plus": _c(p.beta_plus), "beta3": p.beta3,
            "gamma1": _c(p.gamma1), "gamma2": _c(p.gamma2), "h0": p.h0}


def parse_complex(value) -> complex:
    """A complex number written as [re, im], a plain number, or a
    're+imj' string (spaces allowed)."""
    if isinstance(value, (list, tuple)):
        re, im = value
        return complex(float(re), float(im))
    if isinstance(value, str):
        return complex(value.replace(" ", ""))
    return complex(value)


def params_from_json(d: dict) -> HamiltonianParams:
    return HamiltonianParams(beta0=float(d.get("beta0", 0.0)),
                             beta_plus=parse_complex(d.get("beta_plus", 0)),
                             beta3=float(d.get("beta3", 0.0)),
                             gamma1=parse_complex(d.get("gamma1", 0)),
                             gamma2=parse_complex(d.get("gamma2", 0)),
                             h0=float(d.get("h0", 0.0)))


def coeffs_to_json(c: LadderCoeffs) -> dict:
    return {"mu1": _c(c.mu1), "mu2": _c(c.mu2), "nu1": _c(c.nu1), "nu2": _c(c.nu2),
            "alpha_plus": _c(c.alpha_plus), "alpha_minus": _c(c.alpha_minus),
            "alpha3": _c(c.alpha3), "a0": _c(c.a0)}


def coeffs_from_json(d: dict) -> LadderCoeffs:
    return LadderCoeffs(**{k: parse_complex(d.get(k, 0)) for k in
                           ("mu1", "mu2", "nu1", "nu2",
                            "alpha_plus", "alpha_minus", "alpha3", "a0")})
