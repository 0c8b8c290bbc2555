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

The closed form is certified against the brute-force truncated H and A:
the frame also gives the columns W = U[:, S] of the chain's unitary exactly
on the truncated space, and the residuals are ||W' H W - H_red[S, S]||_F
and the same for A.  The columns are not renormalized: the weight
1 - ||W[:, j]||^2 a column loses past the cutoff is measured, and S is the
shells n1 + n2 <= min(N1, N2)//2 whose columns keep their norm to 1e-13,
the region where the truncated identity holds.  The weight lost depends on
the chain and the cutoff only, never on the closed form being certified.

A frame with no displacement is a mixing rotation, which conserves
n1 + n2: U is one (s+1) x (s+1) block D_s per shell s, the exponential of
i(J+ - J-) on that shell taken through its exact eigenvalues -s, -s+2, ..., s
and its eigenvectors (cached per top shell), and the residuals are summed
block by block: H and A move n1 + n2 by at most one, so block (t, s) of
W' H W is D_t' H[t, s] D_s with |t - s| <= 1, and the blocks of H, A and
the reduced H_red, A_red are read off the generator weights
(GeneratorSet.shell_blocks).  No CSR matrix and no dense W is formed.  A
displaced frame's columns reach the whole grid: they are stepped there from
U|0> (creation polynomials on a closed-form coherent state), W' (H W) takes
the rows where W is nonzero, and R[S, S] is read off the weights
(GeneratorSet.block).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import CutoffTooSmall, DomainError
from .fock import (CreationPoly, FockCutoff, Operator, build_generators, coherent_state,
                   shell_indices)
from .params import (HamiltonianParams, LadderCoeffs, build_hamiltonian,
                     build_ladder, hamiltonian_terms, ladder_terms)
from .transforms import UnitarySpec, mixing_angle

__all__ = ["Reduction", "Frame", "reduction_chain", "reduction_frame",
           "reduce_by_similarity"]

_ZERO = 1e-12
# the norm a certified column may lose past the cutoff: far above the roundoff
# of a unit column, and times the size of H and A near the cutoff (< 100)
# under 1e-11 in a residual
_INTACT = 1e-13
# the largest cutoff N,N searched for the one that keeps shell 1 intact
_SEARCH_MAX = 256


@dataclass
class Reduction:
    """Outcome of reduce_by_similarity."""

    params: HamiltonianParams
    coeffs: LadderCoeffs
    chain: list[UnitarySpec]
    h_residual: float   # ||W' H W - H_red[S, S]||_F, W = U[:, S] from the frame
    a_residual: float   # the same for A and the reduced ladder
    shell_max: int      # S: n1 + n2 <= shell_max, the shells whose columns are intact


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

    basic = HamiltonianParams(beta0=p.beta0, beta3=beta3, h0=p.h0)
    h0, scale = p.h0, np.hypot(abs(p.gamma1), abs(p.gamma2))
    for mode, gamma, w in zip((1, 2), (g1, g2), basic.omega):
        if abs(gamma) > _ZERO * scale:   # else it cancelled in the rotation
            if abs(w) < 1e-10:
                raise DomainError("resonant", f"no displacement reduction: mode-{mode} "
                                              "frequency vanishes with a residual linear coupling")
            chain.append(UnitarySpec(f"displace{mode}", {"alpha": -gamma / w}))
            h0 -= abs(gamma) ** 2 / w
    return chain, replace(basic, h0=h0)


@dataclass(frozen=True)
class Frame:
    """A reduction chain U as one affine map of creation operators,
        U a_i' U' = d_i = sum_k m[i, k] a_k' + c[i],   U|0> ∝ exp(x . a')|0>,
    so that U f(a1', a2')|0> ∝ exp(x . a') f(d1, d2)|0> is exact arithmetic
    of creation polynomials (fock.CreationPoly).  The frames of
    `reduction_frame` have basic parameters with beta3 >= 0: a chain that
    lands on beta3 < 0 ends with the mode swap (1:2 is the mode swap of
    2:1).  Its basic system h0 + omega1 n1 + omega2 n2 fixes the family."""

    basic: HamiltonianParams
    m: np.ndarray
    c: np.ndarray
    x: np.ndarray

    @property
    def stepped(self) -> int:
        """The mode (0 or 1) the basic ladder steps: one of frequency +/-1,
        mode 1 unless only mode 2 has it.  Seeds are powers of the other's."""
        at_one = [abs(abs(w) - 1.0) < 1e-9 for w in self.basic.omega]
        return 1 if at_one[1] and not at_one[0] else 0

    def energy(self, kappa: int, n: int = 0) -> float:
        """E(kappa, n) = h0 + kappa omega_other + n: the energy of the chain
        seed d_other^kappa |0> raised n times."""
        return self.basic.h0 + kappa * self.basic.omega[1 - self.stepped] + n

    def dags(self) -> tuple[CreationPoly, CreationPoly]:
        """(d1, d2): the creation operators of the basic frame."""
        return tuple(CreationPoly({(1, 0): row[0], (0, 1): row[1], (0, 0): shift})
                     for row, shift in zip(self.m, self.c))

    def prefix(self) -> CreationPoly:
        return CreationPoly({(1, 0): self.x[0], (0, 1): self.x[1]})

    @property
    def rotation_only(self) -> bool:
        """No displacement: U is a mixing rotation (the identity included),
        with or without the closing mode swap, and conserves n1 + n2."""
        return not (self.c.any() or self.x.any())

    def rotation_blocks(self, top: int) -> np.ndarray:
        """The blocks D[s][j, k] = <j, s - j| U |k, s - k> of a rotation-only
        frame on the shells s = 0..top, stacked and zero-padded to
        (top + 1)^3.  With m = [[cos phi, e^{i theta} sin phi], ...],
        U = P exp(phi (J- - J+)) P' for P = diag(e^{-ik theta}) over n1 = k,
        and i(J+ - J-) = Q T_s Q' on shell s, Q = diag(i^k), so that
            D_s = P Q V_s e^{i phi mu} V_s' Q' P',
        V_s the eigenvectors of T_s (_shell_eigenvectors) and mu exactly
        -s, -s+2, ..., s.  After the mode swap, U|k, s - k> is the unswapped
        frame's U|s - k, k>: each block's columns reversed."""
        swap = np.linalg.det(self.m).real < 0
        m = self.m[::-1] if swap else self.m
        phi, theta = math.atan2(abs(m[0, 1]), m[0, 0].real), np.angle(m[0, 1])
        v = _shell_eigenvectors(top)
        n = np.arange(top + 1)
        d = (v * np.exp(1j * phi * (2 * n - n[:, None]))[:, None, :]) @ v.transpose(0, 2, 1)
        phase = np.exp(1j * (np.pi / 2 - theta) * n)
        d *= phase[:, None] * phase.conj()
        if swap:   # column k of shell s from column s - k; past s, the zero padding
            d = np.take_along_axis(d, ((n[:, None] - n) % (top + 1))[:, None, :], axis=2)
        return d

    def columns(self, cut: FockCutoff, keep: np.ndarray) -> np.ndarray:
        """U[:, keep], exact on the truncated space.  A rotation-only frame
        conserves n1 + n2: column |k, s - k> is column k of the block D_s
        (rotation_blocks) on the states of shell s that lie on the grid.
        Otherwise
            U|n1, n2> = d1^n1 d2^n2 U|0> / sqrt(n1! n2!),
            U|0> = e^{-|x|^2/2} exp(x . a')|0>,
        each column one creation step from a lower one, so `keep` (sorted)
        must hold the lower neighbour of each of its states, as shell and
        interior index sets do.  The columns with n1 = 0 are stepped up in n2
        one at a time, then each n1 level at once from the one below.
        Nothing is renormalized: the weight a column has past the cutoff is
        truncation, and stays missing."""
        n1, n2 = np.divmod(keep, cut.n2_max + 1)
        if self.rotation_only:
            shell = n1 + n2
            d = self.rotation_blocks(int(shell.max(initial=0)))
            j = np.arange(d.shape[1])
            col, row = np.nonzero((j <= shell[:, None]) & (j <= cut.n1_max)
                                  & (shell[:, None] - j <= cut.n2_max))
            u = np.zeros((cut.dim, keep.size), dtype=complex)
            u[row * (cut.n2_max + 1) + shell[col] - row, col] = d[shell[col], row, n1[col]]
            return u
        d1, d2 = (d.on(cut) for d in self.dags())
        u = np.empty((cut.dim, keep.size), dtype=complex)
        w = u.T   # w[j] is column j
        vac = coherent_state(cut, *self.x).amplitudes
        w[0] = np.exp(-np.vdot(self.x, self.x).real / 2.0) * vac
        for j in range(1, np.count_nonzero(n1 == 0)):
            w[j] = d2(w[j - 1]) / np.sqrt(n2[j])
        for level in range(1, n1.max(initial=0) + 1):
            rows = np.flatnonzero(n1 == level)
            w[rows] = d1(w[np.searchsorted(keep, keep[rows] - cut.n2_max - 1)]) / np.sqrt(level)
        return u

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


@functools.lru_cache(maxsize=8)
def _shell_eigenvectors(top: int) -> np.ndarray:
    """V[s] for the shells s = 0..top, stacked and zero-padded to (top + 1)^3:
    the eigenvectors of the real symmetric tridiagonal T_s with
    T_s[k + 1, k] = sqrt((k + 1)(s - k)), i(J+ - J-) on shell s with the
    phases i^k taken out, whose eigenvalues are -s, -s+2, ..., s in eigh's
    ascending order.  They depend on top alone, so one array serves every
    frame; it is read-only."""
    v = np.zeros((top + 1,) * 3)
    for s in range(top + 1):
        k = np.arange(s)
        v[s, :s + 1, :s + 1] = np.linalg.eigh(np.diag(np.sqrt((k + 1.0) * (s - k)), -1))[1]
    v.flags.writeable = False
    return v


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


def _columns(frame: Frame, cut: FockCutoff, keep: np.ndarray):
    """The frame's columns U[:, keep] on `cut` and the weight 1 - ||w_j||^2
    each has past it; no columns, and every one lost whole, when the
    vacuum's coherent amplitudes overflow there (fock.coherent_state)."""
    try:
        w = frame.columns(cut, keep)
    except CutoffTooSmall:
        return None, np.ones(keep.size)
    return w, 1.0 - np.vecdot(w.T, w.T).real


def _least_intact_cutoff(frame: Frame, failing: int) -> int | None:
    """The least N whose cutoff N,N keeps the frame's shell-1 columns within
    _INTACT, given that `failing` does not; None when _SEARCH_MAX does not.
    A column at a cutoff is the exact one restricted to the box, so the
    weight it loses only falls as N grows: double, then bisect."""
    def intact(n: int) -> bool:
        cut = FockCutoff(n, n)
        return bool(np.all(_columns(frame, cut, shell_indices(cut, 1))[1] <= _INTACT))

    lo, hi = failing, min(2 * failing, _SEARCH_MAX)
    while not intact(hi):
        if hi == _SEARCH_MAX:
            return None
        lo, hi = hi, min(2 * hi, _SEARCH_MAX)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if intact(mid) else (mid, hi)
    return hi


def reduce_by_similarity(p: HamiltonianParams, c: LadderCoeffs, cut: FockCutoff,
                         eps: int = 1) -> Reduction:
    """Return the basic-form parameters, coefficients and the transform chain.

    The chain lists the similarity steps in application order; composed
    it is the U with  H_reduced = U' H U  and |original> = U |reduced>.  The
    reduced parameters and coefficients are the closed forms of
    `reduction_chain` and `Frame.reduced_ladder`; the residuals compare them,
    on the shells S, with the truncated H and A conjugated by the frame's
    exact columns W = U[:, S].  S is the shells up to min(N1, N2)//2 below
    the first whose columns lose more than 1e-13 of their norm past the
    cutoff; CutoffTooSmall, naming the least cutoff N,N that keeps shell 1,
    when that leaves no shell 1.

    A frame with no displacement is a rotation alone, and W is its shell
    blocks D_s (Frame.rotation_blocks): each residual is summed block by
    block over the (s, s) and (s +/- 1, s) blocks, as batched products of
    the blocks read off the generator weights on the box n1, n2 <= shell_max
    (_shell_residual), and the norm a column keeps is that of its block
    column.  A displaced frame's W is stepped on the whole grid
    (Frame.columns) and sandwiched with the CSR H and A there.
    """
    chain, params = reduction_chain(p, eps)
    frame = _compose(chain, params)
    coeffs = frame.reduced_ladder(c)
    top = min(cut.n1_max, cut.n2_max) // 2
    if frame.rotation_only:
        d = frame.rotation_blocks(top)
        shells, k = np.tril_indices(top + 1)   # column |k, s - k> is D_s's column k
        lost = 1.0 - np.vecdot(d, d, axis=1).real[shells, k]
    else:
        keep = shell_indices(cut, top)
        w, lost = _columns(frame, cut, keep)
        shells = np.sum(np.divmod(keep, cut.n2_max + 1), axis=0)
    shell_max = int(np.min(shells[lost > _INTACT], initial=top + 1)) - 1
    if shell_max < 1:   # shell 1 is the least S that sees every coefficient
        least = _least_intact_cutoff(frame, max(min(cut.n1_max, cut.n2_max), 1))
        raise CutoffTooSmall(
            f"reduce cannot certify at cutoff {cut.n1_max},{cut.n2_max}: the "
            f"frame's shell-1 columns lose {lost[shells <= 1].max():.1e} of their norm past "
            "it; " + (f"{least},{least} is the least cutoff that keeps them" if least else
                      f"no cutoff up to {_SEARCH_MAX},{_SEARCH_MAX} keeps them"))
    if frame.rotation_only:
        g = build_generators(FockCutoff(shell_max, shell_max))
        d = d[:shell_max + 1, :shell_max + 1, :shell_max + 1]
        h_residual, a_residual = (
            _shell_residual(d, g.shell_blocks(op), g.shell_blocks(red))
            for op, red in ((hamiltonian_terms(p), hamiltonian_terms(params)),
                            (ladder_terms(c), ladder_terms(coeffs))))
    else:
        g = build_generators(cut)
        if shell_max < top:
            keep, w = keep[shells <= shell_max], w[:, shells <= shell_max]
        # the rows where W is zero add nothing to W' H W
        rows = np.flatnonzero(w.any(axis=1))
        if rows.size == w.shape[0]:
            rows = slice(None)
        wh = w[rows].conj().T

        def residual(op: Operator, reduced: list) -> float:
            return float(np.linalg.norm(wh @ (op.mat @ w)[rows] - g.block(reduced, keep)))

        h_residual = residual(build_hamiltonian(p, g), hamiltonian_terms(params))
        a_residual = residual(build_ladder(c, g), ladder_terms(coeffs))
    return Reduction(params=params, coeffs=coeffs, chain=chain, h_residual=h_residual,
                     a_residual=a_residual, shell_max=shell_max)


def _shell_residual(d: np.ndarray, op: dict, reduced: dict) -> float:
    """||D' X D - R||_F over the shells s = 0..len(d) - 1, for the rotation
    blocks d (Frame.rotation_blocks) and the shell blocks of X and of the
    reduced R (GeneratorSet.shell_blocks): block (s + delta, s) of D' X D
    is D_{s+delta}' X[s + delta, s] D_s, formed for every s at once where
    both shells are in range."""
    dh = d.conj().transpose(0, 2, 1)
    squares = 0.0
    for delta in sorted({*op, *reduced}):
        cols = slice(max(0, -delta), len(d) - max(0, delta))
        rows = slice(cols.start + delta, cols.stop + delta)
        e = -reduced[delta][cols] if delta in reduced else 0.0
        if delta in op:
            e = e + dh[rows] @ op[delta][cols] @ d[cols]
        squares += np.vdot(e, e).real
    return math.sqrt(squares)
