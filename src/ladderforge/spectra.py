"""Energy chains from raising powers, normal ordering of those powers,
closed-form spectra per family, and the dense-diagonalization oracle.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from math import comb, factorial

import numpy as np
import scipy.sparse as sp

from .errors import LadderForgeError
from .fock import (DEFAULT_TOL, GeneratorSet, Operator, ToleranceConfig,
                   TwoModeState, apply, interior_indices, normalize)
from .params import FamilyKind, HamiltonianParams, LadderCoeffs

__all__ = [
    "NormalOrderCoeff",
    "normal_order_coeffs",
    "normal_order_coeffs_recurrence",
    "normal_order_power",
    "ChainEntry",
    "SpectrumReport",
    "raising_chain",
    "closed_form_spectrum",
    "mode_frequencies",
    "diagonalize_oracle",
]


# ---------------------------------------------------------------------------
# normal ordering of (mu2* a2' + alpha+* a1' a2)^n
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
                       gamma1: complex = 0j, gamma2: complex = 0j) -> Operator:
    """n-th power of the raising operator assembled from its normal-ordered
    expansion rather than by repeated multiplication.

    The lowering operator must have the commensurate 2:1 shape
    mu2 a2 + alpha+ J- , optionally dressed by the linear-coupling terms
    mu1 = conj(gamma2) alpha+, nu2 = gamma1 alpha+ / 2 and the matching
    identity constant.  Anything else is rejected.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    tol = 1e-9
    if abs(c.mu2) < 1e-14 or abs(c.alpha_plus) < 1e-14:
        raise LadderForgeError("normal ordering needs mu2 != 0 and alpha_plus != 0")
    if (abs(c.nu1) > tol or abs(c.alpha_minus) > tol or abs(c.alpha3) > tol
            or abs(c.mu1 - np.conj(gamma2) * c.alpha_plus) > tol
            or abs(c.nu2 - gamma1 * c.alpha_plus / 2.0) > tol):
        raise LadderForgeError("wrong ladder shape for the normal-ordered expansion")

    ident = g.identity
    mu2c = np.conj(c.mu2)
    apc = np.conj(c.alpha_plus)
    a0c = np.conj(c.a0)
    # creation-only and mixed parts of the raising operator
    delta1 = a0c * ident + gamma2 * apc * g.a1_dag + mu2c * g.a2_dag
    delta2 = apc * (g.a1_dag + (np.conj(gamma1) / 2.0) * ident) @ g.a2
    contraction = mu2c * apc * (g.a1_dag + (np.conj(gamma1) / 2.0) * ident)

    # cache powers
    d1_pow = [ident]
    d2_pow = [ident]
    x_pow = [ident]
    for _ in range(n):
        d1_pow.append(d1_pow[-1] @ delta1)
        d2_pow.append(d2_pow[-1] @ delta2)
        x_pow.append(x_pow[-1] @ contraction)

    zero = Operator(g.cutoff, sp.csr_matrix((g.cutoff.dim, g.cutoff.dim)))
    result = zero
    for nk in normal_order_coeffs(n):
        m = n - 2 * nk.k
        ordered = zero
        for j in range(m + 1):
            ordered = ordered + comb(m, j) * (d1_pow[j] @ d2_pow[m - j])
        result = result + nk.value * (x_pow[nk.k] @ ordered)
    return result


# ---------------------------------------------------------------------------
# raising chains
# ---------------------------------------------------------------------------

@dataclass
class ChainEntry:
    n: int
    energy_formula: float
    energy_chain: float
    residual: float
    certified: bool


@dataclass
class SpectrumReport:
    CSV_HEADER = "family,kappa,n,energy_formula,energy_chain,energy_oracle,residual"

    family: str
    e0: float
    entries: list[ChainEntry] = field(default_factory=list)
    collapse_at: int | None = None
    oracle: np.ndarray | None = None
    states: list[TwoModeState] = field(default_factory=list)

    def to_json(self) -> dict:
        payload = {"family": self.family, "e0": self.e0, "collapse_at": self.collapse_at,
                   "entries": [asdict(e) for e in self.entries]}
        if self.oracle is not None:
            payload["oracle_eigenvalues"] = [float(x) for x in self.oracle]
        return payload

    def nearest_oracle(self, energy: float) -> float:
        """The oracle eigenvalue closest to `energy`."""
        return float(self.oracle[np.argmin(np.abs(self.oracle - energy))])

    def csv_rows(self, kappa: int | str = "") -> list[str]:
        """One CSV row per entry, in CSV_HEADER's column order; the
        energy_oracle column is empty when there is no oracle."""
        rows = []
        has_oracle = self.oracle is not None and self.oracle.size > 0
        for e in self.entries:
            nearest = repr(self.nearest_oracle(e.energy_chain)) if has_oracle else ""
            rows.append(f"{self.family},{kappa},{e.n},{e.energy_formula!r},"
                        f"{e.energy_chain!r},{nearest},{e.residual!r}")
        return rows

    def to_csv(self, kappa: int | str = "") -> str:
        return "\n".join([self.CSV_HEADER, *self.csv_rows(kappa)]) + "\n"


def raising_chain(h: Operator, a: Operator, ground: TwoModeState, n_max: int,
                  degree: int = 3, family: str = "",
                  tol: ToleranceConfig = DEFAULT_TOL) -> SpectrumReport:
    """Normalize (A')^n |ground> step by step and check each state against
    the energy ladder E0 + n.

    A state is certified while its amplitude mass outside the degree-safe
    interior stays negligible; past that point entries are still reported
    but flagged, and chain collapse (the expected finite-ladder behavior)
    ends the walk.
    """
    keep = interior_indices(h.cutoff, degree)
    outside = np.setdiff1d(np.arange(h.cutoff.dim), keep)
    raiser = a.dag()

    v = normalize(ground)
    e0 = float(np.real(np.vdot(v.amplitudes, h.mat @ v.amplitudes)))
    report = SpectrumReport(family=family, e0=e0)

    for n in range(n_max + 1):
        if n > 0:
            nxt = apply(raiser, v)
            if np.linalg.norm(nxt.amplitudes) < 1e-12:
                report.collapse_at = n
                break
            v = normalize(nxt)
        energy = float(np.real(np.vdot(v.amplitudes, h.mat @ v.amplitudes)))
        target = e0 + n
        resid = float(np.linalg.norm((h.mat @ v.amplitudes - target * v.amplitudes)[keep]))
        mass_out = float(np.linalg.norm(v.amplitudes[outside]) ** 2)
        report.entries.append(ChainEntry(n=n, energy_formula=target,
                                         energy_chain=energy, residual=resid,
                                         certified=mass_out < tol.chain_mass))
        report.states.append(v.copy())
    return report


# ---------------------------------------------------------------------------
# closed-form spectra
# ---------------------------------------------------------------------------

def mode_frequencies(p: HamiltonianParams, eps: int = 1) -> tuple[float, float]:
    """Frequencies of the rotated (decoupled) oscillator pair."""
    b = p.b
    return (p.beta0 + eps * b) / 2.0, (p.beta0 - eps * b) / 2.0


def closed_form_spectrum(tag: FamilyKind, p: HamiltonianParams | None = None,
                         kappa: int = 0, k1: int = 0, k2: int = 0,
                         n: int = 0) -> float:
    """Energy formulas per family; kappa indexes the ground-state family and
    n the raising step.  Families with two branches use kappa = 0 for the
    separable branch and kappa >= 1 for the non-separable one."""
    h0 = p.h0 if p is not None else 0.0
    if tag == FamilyKind.FRACTIONAL:
        return kappa * (p.beta0 - 1.0) + n + h0
    if tag == FamilyKind.SU2:
        if n > kappa:
            raise LadderForgeError("the finite ladder ends at n = kappa")
        return kappa * (p.beta0 - 1.0) / 2.0 + n + h0
    if tag in (FamilyKind.BASIC21, FamilyKind.EXTENDED21, FamilyKind.GENERALIZED21):
        return 2.0 * kappa + n + h0
    if tag == FamilyKind.ISOTROPIC:
        return kappa + n + h0
    if tag == FamilyKind.LINEAR_ISO:
        return kappa + n + h0 - (abs(p.gamma1) ** 2 + abs(p.gamma2) ** 2)
    if tag == FamilyKind.APPENDIX_A:
        # the displaced 2:1 family; constant shift from the removed couplings
        return 2.0 * kappa + n + h0 - (abs(p.gamma1) ** 2 / 2.0 + abs(p.gamma2) ** 2)
    if tag == FamilyKind.LINEAR_B2:
        return n - kappa + h0
    if tag == FamilyKind.LINEAR_FRACTIONAL:
        w1, w2 = mode_frequencies(p)
        return w1 * k1 + w2 * k2 + n + h0
    raise LadderForgeError(f"no closed-form spectrum for tag {tag}")


def diagonalize_oracle(h: Operator, degree: int = 3) -> np.ndarray:
    """Eigenvalues of the Hamiltonian restricted to the interior subspace,
    sorted ascending; rejects visibly non-Hermitian input."""
    keep = interior_indices(h.cutoff, degree)
    sub = h.to_dense()[np.ix_(keep, keep)]
    herm_defect = np.linalg.norm(sub - sub.conj().T)
    if herm_defect > 1e-10 * max(1.0, np.linalg.norm(sub)):
        raise LadderForgeError(f"interior block is not Hermitian (defect {herm_defect:.3e})")
    return np.linalg.eigvalsh((sub + sub.conj().T) / 2.0)
