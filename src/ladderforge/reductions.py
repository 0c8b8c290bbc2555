"""Reduction of a coupled Hamiltonian/ladder pair to basic form.

Two moves suffice: a two-mode mixing rotation that diagonalizes the su(2)
part (beta_plus -> 0, beta3 -> eps*b), then mode displacements in the
rotated frame that absorb the rotated linear couplings into a constant
shift.  The displacement in mode i divides by the mode frequency, so the
step fails on resonance (a vanishing frequency with a surviving linear
term).  Each step acts on the creation operators as an affine map, so the
chain composes into one map (`Frame`): it gives the reduced ladder in
closed form and carries the basic system's states back to the original
frame without building a unitary.

The closed form is certified against matrices: the original operators are
conjugated by the built unitaries of the chain, one step at a time, and
compared against the rebuilt basic forms.  Hard truncation makes the
conjugated matrices exact only away from the cutoff corner - the junk
created there leaks inward by a few total-occupation shells under the
displacement steps - so residuals are measured on a shell interior
(n1 + n2 bounded by about half the cutoff), the region where the identity
genuinely holds.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import DomainError
from .fock import GeneratorSet, Operator, interior_residual, shell_indices
from .params import (HamiltonianParams, LadderCoeffs, build_hamiltonian,
                     build_ladder)
from .transforms import UnitarySpec, build_unitary, mixing_angle, similarity

__all__ = ["Reduction", "Frame", "reduction_chain", "reduction_frame",
           "reduce_by_similarity"]

_ZERO = 1e-12


@dataclass
class Reduction:
    """Outcome of reduce_by_similarity."""

    params: HamiltonianParams
    coeffs: LadderCoeffs
    chain: list[UnitarySpec]
    h_residual: float   # shell-interior mismatch, conjugated H vs the basic H
    a_residual: float
    shell_max: int      # total occupation up to which the residuals are measured


def reduction_chain(p: HamiltonianParams,
                    eps: int = 1) -> tuple[list[UnitarySpec], HamiltonianParams]:
    """The similarity chain that takes p to basic form, in application
    order, and the basic parameters it reaches in closed form: beta0 kept,
    beta3 -> eps*b when a rotation runs, beta_plus and the couplings -> 0,
    h0 -> h0 - sum_i |gamma'_i|^2 / omega_i."""
    if eps not in (1, -1):
        raise ValueError("eps must be +1 or -1")
    p = p.snapped()   # the couplings the solver and classify see
    chain: list[UnitarySpec] = []
    if abs(p.beta_plus) > _ZERO:
        rotation = UnitarySpec("mix_t", {"angle": mixing_angle(p.r, p.beta3, eps),
                                         "theta": p.theta})
        chain.append(rotation)
        r = _affine(rotation)[0]
        # U' a' U = r^dagger a': the couplings of a' go to conj(r) gamma
        g1, g2 = map(complex, np.conj(r) @ [p.gamma1, p.gamma2])
        beta3 = eps * p.b
    else:
        g1, g2, beta3 = p.gamma1, p.gamma2, p.beta3

    h0, scale = p.h0, np.hypot(abs(p.gamma1), abs(p.gamma2))
    for mode, gamma, w in ((1, g1, (p.beta0 + beta3) / 2.0), (2, g2, (p.beta0 - beta3) / 2.0)):
        if abs(gamma) > _ZERO * scale:   # else it cancelled in the rotation
            if abs(w) < 1e-10:
                raise DomainError("resonant", f"no displacement reduction: mode-{mode} "
                                              "frequency vanishes with a residual linear coupling")
            chain.append(UnitarySpec(f"displace{mode}", {"alpha": -gamma / w}))
            h0 -= abs(gamma) ** 2 / w
    return chain, HamiltonianParams(beta0=p.beta0, beta3=beta3, h0=h0)


@dataclass(frozen=True)
class Frame:
    """A reduction chain U as one affine map of creation operators,
        U a_i' U' = d_i = sum_k m[i, k] a_k' + c[i],   U|0> ∝ exp(x . a')|0>,
    so that U f(a1', a2')|0> ∝ exp(x . a') f(d1, d2)|0> is exact creation-series
    arithmetic.  The frames of `reduction_frame` have basic parameters with
    beta3 >= 0: a chain that lands on beta3 < 0 ends with the mode swap (1:2
    is the mode swap of 2:1)."""

    basic: HamiltonianParams
    m: np.ndarray
    c: np.ndarray
    x: np.ndarray

    def dags(self, g: GeneratorSet) -> tuple[Operator, Operator]:
        """(d1, d2): the creation operators of the basic frame."""
        return tuple(row[0] * g.a1_dag + row[1] * g.a2_dag + shift * g.identity
                     for row, shift in zip(self.m, self.c))

    def prefix(self, g: GeneratorSet) -> Operator:
        return self.x[0] * g.a1_dag + self.x[1] * g.a2_dag

    def reduced_ladder(self, c: LadderCoeffs) -> LadderCoeffs:
        """Coefficients of U' A U, with A built from c.

        A is a quadratic form  sum q[r, s] v_r v_s  in v = (1, a1, a2, a1', a2');
        U' v U = S v is affine, so U' A U has the form S^T q S, read back with
        a_k a_k' = n_k + 1."""
        s = np.eye(5, dtype=complex)
        s[3:, 3:] = np.linalg.inv(self.m)   # U' a' U = m^-1 (a' - c)
        s[3:, 0] = -s[3:, 3:] @ self.c
        s[1:3, :3] = np.conj(s[3:, [0, 3, 4]])
        q = np.zeros((5, 5), dtype=complex)
        q[0] = [c.a0, c.mu1, c.mu2, c.nu1, c.nu2]
        q[1, 4], q[3, 2] = c.alpha_plus, c.alpha_minus
        q[3, 1], q[4, 2] = c.alpha3 / 2.0, -c.alpha3 / 2.0
        q = s.T @ q @ s
        t = q + q.T
        return LadderCoeffs(mu1=t[0, 1], mu2=t[0, 2], nu1=t[0, 3], nu2=t[0, 4],
                            alpha_plus=t[1, 4], alpha_minus=t[2, 3],
                            alpha3=t[1, 3] - t[2, 4], a0=q[0, 0] + q[1, 3] + q[2, 4])


def _affine(spec: UnitarySpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(r, s, pre): the chain factor V maps a' -> V a' V' = r a' + s and
    |0> -> exp(pre . a')|0> (up to normalization)."""
    if spec.kind == "mix_t":
        phi, phase = spec.params["angle"], np.exp(1j * spec.params["theta"])
        r = np.array([[np.cos(phi), phase * np.sin(phi)],
                      [-np.conj(phase) * np.sin(phi), np.cos(phi)]])
        return r, np.zeros(2), np.zeros(2)
    mode = np.eye(2)[int(spec.kind[-1]) - 1]   # displace1 / displace2
    alpha = complex(spec.params["alpha"])
    return np.eye(2), -np.conj(alpha) * mode, alpha * mode


def _compose(chain: list[UnitarySpec], basic: HamiltonianParams) -> Frame:
    """The chain composed into one Frame, without the closing mode swap."""
    m, c, x = np.eye(2, dtype=complex), np.zeros(2, dtype=complex), np.zeros(2, dtype=complex)
    for spec in reversed(chain):   # U = U_1 ... U_k reaches the ket last factor first
        r, s, pre = _affine(spec)
        m, c, x = m @ r, m @ s + c, pre + r.T @ x
    return Frame(basic, m, c, x)


def reduction_frame(p: HamiltonianParams) -> Frame:
    """The reduction chain of p composed into one Frame, ending with the mode
    swap when the chain lands on beta3 < 0."""
    f = _compose(*reduction_chain(p))
    if f.basic.beta3 < 0:
        return Frame(replace(f.basic, beta3=-f.basic.beta3), f.m[::-1], f.c[::-1], f.x)
    return f


def reduce_by_similarity(p: HamiltonianParams, c: LadderCoeffs, g: GeneratorSet,
                         eps: int = 1, shell_max: int | None = None) -> Reduction:
    """Return the basic-form parameters, coefficients and the transform chain.

    The chain lists the similarity steps in application order; composing it
    with ``build_chain`` gives U with  H_reduced = U' H U  and
    |original> = U |reduced>.  The reduced parameters and coefficients are
    the closed forms of `reduction_chain` and `Frame.reduced_ladder`; the
    residuals compare them with H and A conjugated by the built unitaries.
    """
    chain, params = reduction_chain(p, eps)
    coeffs = _compose(chain, params).reduced_ladder(c)
    if shell_max is None:
        shell_max = min(g.cutoff.n1_max, g.cutoff.n2_max) // 2

    h_red = build_hamiltonian(p, g)
    a_red = build_ladder(c, g)
    for spec in chain:  # one factor at a time: each stays sparse, unlike U
        u = build_unitary(spec, g)
        h_red = similarity(u, h_red)
        a_red = similarity(u, a_red)
    keep = shell_indices(g.cutoff, shell_max)
    return Reduction(params=params, coeffs=coeffs, chain=chain,
                     h_residual=interior_residual(h_red - build_hamiltonian(params, g), keep),
                     a_residual=interior_residual(a_red - build_ladder(coeffs, g), keep),
                     shell_max=shell_max)
