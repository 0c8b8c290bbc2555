"""Catalogue of Hamiltonian / lowering-operator pairs on the b = 1 surface.

The decoupled rows (beta_plus = 0, beta3 = +/-1) are tabulated explicitly:
for each gamma pattern and each admissible beta0 the (mu1, mu2, nu1, nu2)
vector is written in terms of the free mu/nu amplitude and the free su(2)
amplitude.  Thirty rows exist, fifteen per sign of beta3; the two signs map
into each other by swapping the mode index together with gamma1 <-> gamma2.

The interacting families (beta_plus != 0, parameterized by beta3, theta and
the gammas) are generated through the generic solver, which reproduces the
published closed forms; building them that way keeps every row consistent
with the commutator requirement by construction.

A row is flagged normalizable exactly when beta0 = 3: those rows reduce to a
2:1 or 1:2 commensurate ladder with normalizable eigenstate families.  The
beta0 = 1 rows reduce to a one-mode oscillator whose ladder eigenstates do
not normalize for nonzero eigenvalue, the negative-beta0 rows are creation
dominated, and the generic-beta0 rows reduce to a pure su(2) ladder with
normalizable eigenstates only at eigenvalue zero.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import LadderForgeError
from .params import (_A_TABLE_SLOTS, HamiltonianParams, LadderCoeffs,
                     appendix_a_label, compute_a0, solve_ladder)

__all__ = ["Bindings", "CatalogueRow", "appendix_a_rows", "appendix_b_rows",
           "appendix_catalogue"]


@dataclass(frozen=True)
class Bindings:
    """Values substituted for the free parameters of catalogue rows."""

    free_mu: complex = 1.0
    free_nu: complex = 1.0
    free_alpha: complex = 1.0
    gamma1: complex = 0.4 + 0.3j
    gamma2: complex = 0.25 - 0.15j
    beta0_generic: float = 2.5
    beta3: float = 0.6
    theta: float = 0.7
    h0: float = 0.0


@dataclass(frozen=True)
class CatalogueRow:
    label: str
    params: HamiltonianParams
    coeffs: LadderCoeffs
    normalizable: bool
    note: str = ""


# (mu1, mu2, nu1, nu2) in terms of m (free mu), n (free nu), a (free su(2)
# amplitude) and the gammas; one entry per admissible beta0 slot.
def _a_table_plus(b0, m, n, a, g1, g2):
    # beta3 = +1, free su(2) amplitude multiplies J-
    if g1 == 0 and g2 == 0:
        return {1: (m, 0, 0, 0), 3: (0, m, 0, 0), -1: (0, 0, 0, n), -3: (0, 0, n, 0)}[b0]
    if g2 == 0:
        return {1: (m, 0, 0, g1 * a), 3: (0, m, 0, g1 * a / 2), -3: (0, 0, n, -g1 * a),
                "gen": (0, 0, 0, 2 * g1 * a / (1 + b0))}[b0 if b0 in (1, 3, -3) else "gen"]
    if g1 == 0:
        g2c = np.conj(g2)
        return {3: (g2c * a, m, 0, 0), -1: (-g2c * a, 0, 0, n), -3: (-g2c * a / 2, 0, n, 0),
                "gen": (2 * g2c * a / (b0 - 1), 0, 0, 0)}[b0 if b0 in (3, -1, -3) else "gen"]
    g2c = np.conj(g2)
    return {3: (g2c * a, m, 0, g1 * a / 2), -3: (-g2c * a / 2, 0, n, -g1 * a),
            "gen": (2 * g2c * a / (b0 - 1), 0, 0, 2 * g1 * a / (1 + b0))}[
        b0 if b0 in (3, -3) else "gen"]


def _a_table_minus(b0, m, n, a, g1, g2):
    # beta3 = -1: the plus table with the modes and the gammas swapped
    mu2, mu1, nu2, nu1 = _a_table_plus(b0, m, n, a, g2, g1)
    return mu1, mu2, nu1, nu2


def appendix_a_rows(bind: Bindings | None = None) -> list[CatalogueRow]:
    """The thirty decoupled rows, fifteen per sign of beta3."""
    bind = bind or Bindings()
    if bind.gamma1 == 0 or bind.gamma2 == 0:
        raise LadderForgeError("gamma bindings must be nonzero; the rows without a "
                               "coupling already set it to zero by pattern")
    rows = []
    for item, slots in _A_TABLE_SLOTS.items():
        section = 1 if item <= 4 else 2
        beta3 = 1.0 if section == 1 else -1.0
        g1 = bind.gamma1 if (item - 1) & 1 else 0j
        g2 = bind.gamma2 if (item - 1) & 2 else 0j
        for slot in slots:
            beta0 = bind.beta0_generic if slot == "gen" else float(slot)
            table = _a_table_plus if section == 1 else _a_table_minus
            mu1, mu2, nu1, nu2 = table(slot if slot != "gen" else beta0,
                                       bind.free_mu, bind.free_nu, bind.free_alpha, g1, g2)
            params = HamiltonianParams(beta0=beta0, beta_plus=0j, beta3=beta3,
                                       gamma1=g1, gamma2=g2, h0=bind.h0)
            coeffs = LadderCoeffs(
                mu1=mu1, mu2=mu2, nu1=nu1, nu2=nu2,
                alpha_plus=bind.free_alpha if section == 1 else 0j,
                alpha_minus=bind.free_alpha if section == 2 else 0j,
            )
            coeffs = replace(coeffs, a0=compute_a0(params, coeffs))
            label = appendix_a_label(beta0, beta3, g1, g2)
            rows.append(CatalogueRow(
                label=label, params=params, coeffs=coeffs,
                normalizable=(slot == 3),
                note="" if slot == 3 else "lambda != 0 eigenstates do not normalize",
            ))
    return rows


# interacting-family sections: (label stem, gamma mode, admissible beta0 slots)
_B_SECTIONS = (
    ("B1", "zero", ("gen",)),
    ("B2", "zero", (1, 3)),
    ("B3", "zero", (-1, -3)),
    ("B4", "degenerate-minus", (1, 3, -3, "gen")),
    ("B5", "degenerate-plus", (-1, -3, 3, "gen")),
    ("B6", "generic", (3, -3, "gen")),
)


def _b_gammas(mode: str, bind: Bindings) -> tuple[complex, complex]:
    beta_minus = (np.sqrt(1.0 - bind.beta3 ** 2) / 2.0) * np.exp(-1j * bind.theta)
    if mode == "zero":
        return 0j, 0j
    if mode == "degenerate-minus":   # gamma1/2 = gamma2*beta_minus/(1 - beta3)
        return 2.0 * bind.gamma2 * beta_minus / (1.0 - bind.beta3), bind.gamma2
    if mode == "degenerate-plus":    # gamma1/2 = -gamma2*beta_minus/(1 + beta3)
        return -2.0 * bind.gamma2 * beta_minus / (1.0 + bind.beta3), bind.gamma2
    return bind.gamma1, bind.gamma2


def appendix_b_rows(bind: Bindings | None = None) -> list[CatalogueRow]:
    """Interacting b = 1 families, one bound row per section and beta0 slot."""
    bind = bind or Bindings()
    if not 0 < abs(bind.beta3) < 1:
        raise LadderForgeError("interacting rows need 0 < |beta3| < 1")
    beta_plus = (np.sqrt(1.0 - bind.beta3 ** 2) / 2.0) * np.exp(1j * bind.theta)
    rows = []
    for stem, gamma_mode, slots in _B_SECTIONS:
        g1, g2 = _b_gammas(gamma_mode, bind)
        for slot in slots:
            beta0 = bind.beta0_generic if slot == "gen" else float(slot)
            params = HamiltonianParams(beta0=beta0, beta_plus=beta_plus, beta3=bind.beta3,
                                       gamma1=g1, gamma2=g2, h0=bind.h0)
            report = solve_ladder(params)
            combined = LadderCoeffs()
            for coeff, name in zip(report.coeffs, report.free_parameters):
                if name.startswith("mu"):
                    combined = combined.plus(coeff.scaled(bind.free_mu))
                elif name.startswith("nu"):
                    combined = combined.plus(coeff.scaled(bind.free_nu))
                else:
                    combined = combined.plus(coeff.scaled(bind.free_alpha))
            if np.max(np.abs(combined.as_array())) < 1e-14:
                raise LadderForgeError(f"no ladder solution for catalogue row {stem}-b0={slot}")
            b0_part = "gen" if slot == "gen" else str(slot)
            rows.append(CatalogueRow(
                label=f"{stem}-b0={b0_part}", params=params, coeffs=combined,
                normalizable=(slot == 3),
                note="" if slot == 3 else "lambda != 0 eigenstates do not normalize",
            ))
    return rows


def appendix_catalogue(bind: Bindings | None = None) -> list[CatalogueRow]:
    """All bound catalogue rows: thirty decoupled plus the interacting families."""
    bind = bind or Bindings()
    return appendix_a_rows(bind) + appendix_b_rows(bind)
