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

The closed form is certified against the brute-force truncated H and A,
conjugated by the chain's unitary U on the shells S of its columns U[:, S].
Nothing is renormalized: the weight 1 - ||U|j>||^2 a column loses past the
cutoff is measured, and S is the shells n1 + n2 <= min(N1, N2)//2 whose
columns keep their norm to 1e-13, the region where the truncated identity
holds.  The weight lost depends on the chain and the cutoff only, never on
the closed form being certified.  No CSR matrix and no dense column of U
is formed.

The mixing rotation R conserves n1 + n2: it is one (s+1) x (s+1) block D_s
per shell s, the exponential of i(J+ - J-) on that shell taken through its
exact eigenvalues -s, -s+2, ..., s and its eigenvectors (cached per top
shell).  H and A move n1 + n2 by at most one, so block (t, s) of R' H R is
D_t' H[t, s] D_s with |t - s| <= 1, and the blocks of H, A and of the
closed forms are read off the generator weights (GeneratorSet.shell_blocks):
a rotation's residual is summed block by block.  The displacements act on
one mode each, and after the rotation they are displacements of the
original modes, R D(alpha) R' = D(x) with x = r^T alpha: the displaced
number states of a mode are formed on that mode alone (stepped, or along
their diagonals for a large displacement), every term of H and A is a
product of one-mode operators, and D(x)' X D(x) is a sum of Kronecker
products of one-mode sandwiches.  A frame U = D(x) R is
certified in those two steps: D(x) against the closed form once the
couplings are absorbed, then R against the reduced one, both on S
(reduce_by_similarity).
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import CutoffTooSmall, DomainError
from .fock import CreationPoly, FockCutoff, build_generators
from .params import HamiltonianParams, LadderCoeffs, hamiltonian_terms, ladder_terms
from .transforms import UnitarySpec, mixing_angle

__all__ = ["Reduction", "Frame", "reduction_chain", "reduction_frame",
           "reduce_by_similarity", "cutoff_advice"]

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
    h_residual: float   # bounds ||U' H U - H_red||_F on S (reduce_by_similarity)
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
        """U[:, keep] of a rotation-only frame, exact on the truncated space:
        U conserves n1 + n2, so column |k, s - k> is column k of the block
        D_s (rotation_blocks) on the states of shell s that lie on the grid.
        A displaced frame's columns reach the whole grid; reduce certifies it
        through its one-mode factors instead (reduce_by_similarity)."""
        if not self.rotation_only:
            raise ValueError("columns of a displaced frame are not formed")
        n1, n2 = np.divmod(keep, cut.n2_max + 1)
        shell = n1 + n2
        d = self.rotation_blocks(int(shell.max(initial=0)))
        j = np.arange(d.shape[1])
        col, row = np.nonzero((j <= shell[:, None]) & (j <= cut.n1_max)
                              & (shell[:, None] - j <= cut.n2_max))
        u = np.zeros((cut.dim, keep.size), dtype=complex)
        u[row * (cut.n2_max + 1) + shell[col] - row, col] = d[shell[col], row, n1[col]]
        return u

    def vacuum_lost(self, n1_max: int, n2_max: int) -> float:
        """The weight U|0> has past the box n1 <= n1_max, n2 <= n2_max:
        U|0> is the normalized coherent state at x, a product of one-mode
        displaced vacua (_displaced)."""
        m1, m2 = (_displaced(x, n, 0) for x, n in zip(self.x, (n1_max, n2_max)))
        return 1.0 - float(_kept(m1, m2, None)[0, 0])

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


@functools.lru_cache(maxsize=16)
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


def _displaced(alpha: complex, n_max: int, k_max: int) -> np.ndarray:
    """M[n, k] = <n| D |k> for the levels n <= n_max and k <= k_max, D the
    one-mode displacement with D a' D' = a' - conj(alpha):
        D|0> = e^{-|alpha|^2/2} sum_n alpha^n / sqrt(n!) |n>,
        D|k> = (a' - conj(alpha)) D|k - 1> / sqrt(k).
    a' only raises, so each column is the exact one restricted to the
    levels, and nothing is renormalized: the weight a column has past n_max
    is truncation, and stays missing.  The vacuum's amplitudes are taken
    through their logarithms, so that a displacement whose weight lies far
    past n_max leaves columns that underflow to zero (lost whole) and none
    overflows.

    The stepping's rounding grows as e^{2|alpha| sqrt(k)}.  Past
    |alpha| sqrt(k_max) = 4, where it would pass about 1e-13, each diagonal
    n - k = +/-a is taken instead through the three-term recurrence of the
    Laguerre polynomials in j = min(n, k), scaled to the entries
        f[j, a] = sqrt(j! / (j + a)!) |alpha|^a e^{-|alpha|^2/2} L_j^(a)(|alpha|^2),
        <j + a| D |j> = e^{ia arg(alpha)} f[j, a],
        <j| D |j + a> = (-1)^a e^{-ia arg(alpha)} f[j, a],
    which keeps the columns orthonormal to about 1e-13 at any |alpha|."""
    r, phase = abs(alpha), cmath.phase(alpha)
    if r * math.sqrt(k_max) <= 4:
        n = np.arange(n_max + 1)
        m = np.zeros((n_max + 1, k_max + 1), dtype=complex)
        if r == 0:
            m[0, 0] = 1.0
        else:
            m[:, 0] = np.exp(_log_coherent(r, n_max) + 1j * phase * n)
        root = np.sqrt(n[1:])
        for k in range(1, k_max + 1):
            m[:, k] = -np.conj(alpha) * m[:, k - 1]
            m[1:, k] += root * m[:-1, k - 1]
            m[:, k] /= math.sqrt(k)
        return m
    a = np.arange(max(n_max, k_max) + 1)
    f = np.zeros((k_max + 1, a.size))
    f[0] = np.exp(_log_coherent(r, a[-1]))
    if f[0].any():   # else every entry underflows: lost whole
        x = r * r
        f[1] = (1 + a - x) * f[0] / np.sqrt(1 + a)
        for j in range(1, k_max):
            f[j + 1] = (((2 * j + 1 + a - x) * f[j] - np.sqrt(j * (j + a)) * f[j - 1])
                        / np.sqrt((j + 1) * (j + 1 + a)))
    n, k = np.ogrid[:n_max + 1, :k_max + 1]
    sign = np.where((n < k) & ((k - n) % 2 == 1), -1.0, 1.0)
    return sign * f[np.minimum(n, k), abs(n - k)] * np.exp(1j * phase * (n - k))


def _log_coherent(r: float, n_max: int) -> np.ndarray:
    """log |<n|D|0>| = n log r - log(n!)/2 - r^2/2 for n <= n_max and r > 0:
    the levels past double range underflow to zero once exponentiated."""
    n = np.arange(n_max + 1)
    return n * math.log(r) - np.cumsum(np.log(np.maximum(n, 1))) / 2 - r * r / 2


def _kept(m1: np.ndarray, m2: np.ndarray, d: np.ndarray | None) -> np.ndarray:
    """kept[s, k]: the weight on the grid of the column |k, s - k> of
    U = (D1 (x) D2) R, for D_i's columns m_i on the grid's levels
    (_displaced, as many as the shells) and R's shell blocks d
    (Frame.rotation_blocks), or no rotation.  With G_i = m_i' m_i, a state v
    on shell s keeps v' G_s v, G_s[i, j] = G1[i, j] G2[s - i, s - j]: for
    v = |k, s - k>, G1[k, k] G2[s - k, s - k]."""
    t = m1.shape[1]
    if d is None:
        w1, w2 = (np.sum(m.real ** 2 + m.imag ** 2, axis=0) for m in (m1, m2))
        s, k = np.ogrid[:t, :t]
        return np.where(k <= s, w1[k] * w2[(s - k) % t], 0)
    g1, g2 = (m.conj().T @ m for m in (m1, m2))
    s, i, j = np.ogrid[:t, :t, :t]
    gs = np.where((i <= s) & (j <= s), g1[i, j] * g2[(s - i) % t, (s - j) % t], 0)
    return np.vecdot(d, gs @ d, axis=1).real


def cutoff_advice(intact, failing: int, what: str = "them") -> str:
    """Names the least N whose cutoff N,N passes `intact(N)`, given that
    `failing` does not, or says that no N up to _SEARCH_MAX does.  A state
    on a cutoff is the exact one restricted to the box, so the weight it
    loses only falls as N grows: double, then bisect."""
    lo, hi = failing, min(2 * failing, _SEARCH_MAX)
    while not intact(hi):
        if hi == _SEARCH_MAX:
            return f"no cutoff up to {_SEARCH_MAX},{_SEARCH_MAX} keeps {what}"
        lo, hi = hi, min(2 * hi, _SEARCH_MAX)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if intact(mid) else (mid, hi)
    return f"{hi},{hi} is the least cutoff that keeps {what}"


def reduce_by_similarity(p: HamiltonianParams, c: LadderCoeffs, cut: FockCutoff,
                         eps: int = 1) -> Reduction:
    """Return the basic-form parameters, coefficients and the transform chain.

    The chain lists the similarity steps in application order; composed
    it is the U with  H_reduced = U' H U  and |original> = U |reduced>.  The
    reduced parameters and coefficients are the closed forms of
    `reduction_chain` and `Frame.reduced_ladder`; the residuals compare them,
    on the shells S, with the truncated H and A conjugated by the frame's
    exact columns.  S is the shells up to min(N1, N2)//2 below the first
    whose columns lose more than 1e-13 of their norm past the cutoff;
    CutoffTooSmall, naming the least cutoff N,N that keeps shell 1, when
    that leaves no shell 1.

    A frame with no displacement is a rotation alone, and its columns are
    its shell blocks D_s (Frame.rotation_blocks): each residual is summed
    block by block over the (s, s) and (s +/- 1, s) blocks, as batched
    products of the blocks read off the generator weights on the box
    n1, n2 <= shell_max (_shell_residual), and the norm a column keeps is
    that of its block column.

    A displaced frame is U = D(x) R: the rotation R (if any), then the
    displacement D(x) = D1(x1) (x) D2(x2) of the original modes, x the
    frame's coherent vacuum, which is the chain's D(alpha) taken through
    the rotation.  Each residual is the sum of two exact steps, which
    bounds ||U' X U - X_red||_F on S:
      1. ||D(x)' X D(x) - X'||_F on S, X' the closed form once the couplings
         are absorbed: H without its couplings and with the reduced h0, A
         with a_i -> a_i + x_i (the reduced forms themselves without a
         rotation).  Every term of X is a product of one-mode operators and
         D(x)'s columns on S are m1 (x) m2 for the one-mode displaced number
         states m_i (_displaced), so D(x)' X D(x) is a sum of Kronecker
         products of (shell_max + 1)^2 one-mode sandwiches (_kron_residual);
      2. ||R' X' R - X_red||_F on S, block by block as for a rotation alone.
    The weight a column of U keeps on the grid is a closed sum over the
    one-mode states and R's blocks (_kept).
    """
    chain, params = reduction_chain(p, eps)
    frame = _compose(chain, params)
    coeffs = frame.reduced_ladder(c)
    rotates = bool(chain) and chain[0].kind == "mix_t"
    grid = (cut.n1_max, cut.n2_max)
    top = min(grid) // 2
    shells, k = np.tril_indices(top + 1)   # column |k, s - k>
    # R's shell blocks; a frame with no displacement is R alone, the identity included
    d = frame.rotation_blocks(top) if rotates or frame.rotation_only else None
    if frame.rotation_only:
        kept = np.vecdot(d, d, axis=1).real
    else:
        m = [_displaced(x, n, top) for x, n in zip(frame.x, grid)]
        kept = _kept(*m, d)
    lost = 1.0 - kept[shells, k]
    shell_max = int(np.min(shells[lost > _INTACT], initial=top + 1)) - 1
    if shell_max < 1:   # shell 1 is the least S that sees every coefficient
        def intact(n: int) -> bool:
            m = [_displaced(x, n, 1) for x in frame.x]
            d1 = None if d is None else d[:2, :2, :2]
            return bool(np.all(1.0 - _kept(*m, d1)[[0, 1, 1], [0, 0, 1]] <= _INTACT))

        raise CutoffTooSmall(
            f"reduce cannot certify at cutoff {grid[0]},{grid[1]}: the "
            f"frame's shell-1 columns lose {lost[shells <= 1].max():.1e} of their norm past "
            f"it; {cutoff_advice(intact, max(min(grid), 1))}")
    terms = [(hamiltonian_terms(p), hamiltonian_terms(params)),
             (ladder_terms(c), ladder_terms(coeffs))]
    residuals = [0.0, 0.0]
    if not frame.rotation_only:
        # step 1: D(x) against H and A with their couplings absorbed
        mid = [red for _, red in terms]
        if rotates:
            shift = Frame(params, np.eye(2), -np.conj(frame.x), frame.x)
            mid = [hamiltonian_terms(replace(p, gamma1=0j, gamma2=0j, h0=params.h0)),
                   ladder_terms(shift.reduced_ladder(c))]
        sides = [_sandwiches(x) for x in (*(x[:, :shell_max + 1] for x in m),
                                          np.eye(shell_max + 1))]
        residuals = [_kron_residual(*sides, x, y) for (x, _), y in zip(terms, mid)]
        terms = [(y, red) for y, (_, red) in zip(mid, terms)]
    if d is not None:
        # step 2, the whole certificate of a rotation alone: R against the reduced forms
        g = build_generators(FockCutoff(shell_max, shell_max))
        d = d[:shell_max + 1, :shell_max + 1, :shell_max + 1]
        residuals = [r + _shell_residual(d, g.shell_blocks(x), g.shell_blocks(red))
                     for r, (x, red) in zip(residuals, terms)]
    return Reduction(params=params, coeffs=coeffs, chain=chain, h_residual=residuals[0],
                     a_residual=residuals[1], shell_max=shell_max)


# each generator as products x1 (x) x2 of the one-mode operators 1, a, a'
# and n: (x1, x2, weight) terms
_FACTORS = {"a1": (("a", "1", 1.0),), "a2": (("1", "a", 1.0),),
            "a1_dag": (("a'", "1", 1.0),), "a2_dag": (("1", "a'", 1.0),),
            "j_plus": (("a'", "a", 1.0),), "j_minus": (("a", "a'", 1.0),),
            "n_op": (("n", "1", 0.5), ("1", "n", 0.5)),
            "j3": (("n", "1", 0.5), ("1", "n", -0.5)),
            "identity": (("1", "1", 1.0),)}


def _sandwiches(m: np.ndarray) -> dict:
    """{x: M' x M} for the one-mode operators x = 1, a, a', n, truncated to
    the levels of M's rows; for M the identity, their matrices."""
    root, mh = np.sqrt(np.arange(1.0, len(m)))[:, None], m.conj().T
    lowered, raised = np.zeros_like(m), np.zeros_like(m)
    lowered[:-1], raised[1:] = root * m[1:], root * m[:-1]
    return {"1": mh @ m, "a": mh @ lowered, "a'": mh @ raised,
            "n": mh @ (np.arange(len(m))[:, None] * m)}


def _kron_residual(x1: dict, x2: dict, unit: dict, terms: list, reduced: list) -> float:
    """||M' X M - R||_F on the shells n1 + n2 <= K, M = m1 (x) m2 with K + 1
    columns each, for X and R given as (generator, coefficient) terms and
    the one-mode sandwiches x_i of m_i and `unit` of the identity
    (_sandwiches).  Each side is sum_t f_t (x) g_t with f_t, g_t
    (K + 1) x (K + 1): X's terms grouped by their mode-2 operator o2,
    f = sum c m1' o1 m1 and g = m2' o2 m2, and R's the same on the truncated
    one-mode matrices.  Entry ((i, j), (k, l)) is sum_t f_t[i, k] g_t[j, l],
    formed one mode-1 row i at a time."""
    left, right = [], []
    for ones, twos, sign, side in ((x1, x2, 1.0, terms), (unit, unit, -1.0, reduced)):
        by_mode2 = {}
        for name, coeff in side:
            if coeff != 0:
                for o1, o2, w in _FACTORS[name]:
                    f = (sign * w * coeff) * ones[o1]
                    by_mode2[o2] = by_mode2[o2] + f if o2 in by_mode2 else f
        left += by_mode2.values()
        right += [twos[o2] for o2 in by_mode2]
    size = len(unit["1"])
    f = np.moveaxis(np.array(left), 0, -1)                    # [i, k, t]
    g = np.array(right)                                       # [t, j, l]
    n = np.arange(size)
    on = (n[:, None] + n <= size - 1).astype(float)           # (k, l) on the shells
    squares = 0.0
    for i in range(size):   # rows (i, j), j <= K - i: products small enough for one thread
        e = f[i] @ g[:, :size - i].reshape(len(right), -1)    # [k, (j, l)]
        e = (e.real ** 2 + e.imag ** 2).reshape(size, size - i, size).sum(axis=1)
        squares += float(np.vdot(e, on))
    return math.sqrt(squares)


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
