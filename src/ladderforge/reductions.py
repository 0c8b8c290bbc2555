"""Reduction of a coupled Hamiltonian/ladder pair to basic form.

Two moves suffice: a two-mode mixing rotation that diagonalizes the su(2)
part (beta_plus -> 0, beta3 -> eps*b), then mode displacements in the
rotated frame that absorb the rotated linear couplings into a constant
shift.  The displacement in mode i divides by the mode frequency, so the
step fails on resonance (a vanishing frequency with a surviving linear
term).

Certification is matrix-level: the original operators are conjugated by the
built unitaries of the chain, one step at a time, and compared against the
rebuilt basic forms.  Hard truncation makes the conjugated matrices exact
only away from the cutoff corner - the junk created there leaks inward by a
few total-occupation shells under the displacement steps - so residuals are
measured on a shell interior (n1 + n2 bounded by about half the cutoff), the
region where the identity genuinely holds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .fock import GeneratorSet, interior_residual, shell_indices
from .params import (HamiltonianParams, LadderCoeffs, build_hamiltonian,
                     build_ladder, hamiltonian_params_from_matrix,
                     ladder_coeffs_from_matrix)
from .transforms import UnitarySpec, build_unitary, similarity

__all__ = ["Reduction", "rotated_gammas", "reduce_by_similarity"]

_ZERO = 1e-12


@dataclass
class Reduction:
    """Outcome of reduce_by_similarity."""

    params: HamiltonianParams
    coeffs: LadderCoeffs
    chain: list[UnitarySpec]
    h_residual: float   # shell-interior mismatch, conjugated H vs rebuilt basic H
    a_residual: float
    shell_max: int      # total occupation up to which the residuals are measured


def rotated_gammas(p: HamiltonianParams, eps: int) -> tuple[complex, complex]:
    """Linear-coupling amplitudes after the mixing rotation."""
    b = p.b
    c = np.sqrt((b + eps * p.beta3) / (2.0 * b))
    s = np.sqrt((b - eps * p.beta3) / (2.0 * b))
    phase = np.exp(1j * p.theta)
    g1 = c * p.gamma1 + eps * np.conj(phase) * s * p.gamma2
    g2 = c * p.gamma2 - eps * phase * s * p.gamma1
    return complex(g1), complex(g2)


def reduce_by_similarity(p: HamiltonianParams, c: LadderCoeffs, g: GeneratorSet,
                         eps: int = 1, shell_max: int | None = None) -> Reduction:
    """Return the basic-form parameters, coefficients and the transform chain.

    The chain lists the similarity steps in application order; composing it
    with ``build_chain`` gives U with  H_reduced = U' H U  and
    |original> = U |reduced>.  Reduced coefficients are read back off the
    conjugated matrices, which also certifies that the conjugation stayed
    inside the operator algebra.
    """
    if eps not in (1, -1):
        raise ValueError("eps must be +1 or -1")
    if shell_max is None:
        shell_max = min(g.cutoff.n1_max, g.cutoff.n2_max) // 2

    chain: list[UnitarySpec] = []
    if abs(p.beta_plus) > _ZERO:
        chain.append(UnitarySpec("mix_t", {"eps": eps, "b": p.b, "beta3": p.beta3,
                                           "theta": p.theta}))
        g1, g2 = rotated_gammas(p, eps)
        beta3_eff = eps * p.b
    else:
        g1, g2 = p.gamma1, p.gamma2
        beta3_eff = p.beta3

    w1 = (p.beta0 + beta3_eff) / 2.0
    w2 = (p.beta0 - beta3_eff) / 2.0
    if abs(g1) > _ZERO:
        if abs(w1) < 1e-10:
            raise DomainError("resonant", "no displacement reduction: mode-1 frequency "
                                          "vanishes with a residual linear coupling")
        chain.append(UnitarySpec("displace1", {"alpha": -g1 / w1}))
    if abs(g2) > _ZERO:
        if abs(w2) < 1e-10:
            raise DomainError("resonant", "no displacement reduction: mode-2 frequency "
                                          "vanishes with a residual linear coupling")
        chain.append(UnitarySpec("displace2", {"alpha": -g2 / w2}))

    h_red = build_hamiltonian(p, g)
    a_red = build_ladder(c, g)
    for spec in chain:  # one factor at a time: each stays sparse, unlike U
        u = build_unitary(spec, g)
        h_red = similarity(u, h_red)
        a_red = similarity(u, a_red)
    p_red = hamiltonian_params_from_matrix(h_red, g, shell_max=shell_max)
    c_red = ladder_coeffs_from_matrix(a_red, g, shell_max=shell_max)

    keep = shell_indices(g.cutoff, shell_max)
    h_resid = interior_residual(h_red - build_hamiltonian(p_red, g), keep)
    a_resid = interior_residual(a_red - build_ladder(c_red, g), keep)
    return Reduction(params=p_red, coeffs=c_red, chain=chain,
                     h_residual=h_resid, a_residual=a_resid, shell_max=shell_max)
