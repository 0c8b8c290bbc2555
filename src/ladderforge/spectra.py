"""Energy chains from raising powers, and the eigenvalues of the truncated
Hamiltonian the chains are checked against.

A chain climbs from a seed of known energy E0 (in the `spectrum` scenario
the reduction frame's closed form E(kappa, 0), `reductions.Frame.energy`)
and holds entry n to E0 + n.  The oracle is the brute-force truncated
interior block K = H[keep, keep].  Both take H, and the chain takes A', as
the scipy CSR matrices of their weighted shifts (fock.Operator.csr), formed
once per request: scipy's mat-vec is several times faster than the shift
mat-vec on the chain's repeated products.
`nearest_eigenvalues` gives the eigenvalue of that block nearest each chain
energy without forming a dim x dim matrix.  Each chain state is first
taken as its own witness: its Rayleigh quotient on K and the residual
there pin the nearest eigenvalue to within 1e-12 by the Hermitian residual
bound.  Only the energies their states do not pin take the block's
structure: the u(2) part of H conserves n1 + n2, so a block without linear
couplings is diagonalized shell by shell; a block whose couplings join
shells gets one sparse shift-invert solve per energy.  The dense eigvalsh
of the whole block is the test suite's oracle for these eigenvalues."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import LadderForgeError
from .fock import DEFAULT_TOL, FockCutoff, TwoModeState, interior_indices, normalize

__all__ = [
    "ChainEntry",
    "SpectrumReport",
    "raising_chain",
    "nearest_eigenvalues",
]


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
    energy_oracle: float | None = None   # set from nearest_eigenvalues when certified


@dataclass
class SpectrumReport:
    CSV_HEADER = "family,kappa,n,energy_formula,energy_chain,energy_oracle,residual"

    family: str
    entries: list[ChainEntry] = field(default_factory=list)
    collapse_at: int | None = None
    states: list[TwoModeState] = field(default_factory=list)

    def csv_rows(self, kappa: int | str = "") -> list[str]:
        """One CSV row per entry, in CSV_HEADER's column order; the
        energy_oracle column is empty for an entry not checked against the
        oracle (the spectrum scenario checks the certified entries only)."""
        rows = []
        for e in self.entries:
            nearest = "" if e.energy_oracle is None else repr(e.energy_oracle)
            rows.append(f"{self.family},{kappa},{e.n},{e.energy_formula!r},"
                        f"{e.energy_chain!r},{nearest},{e.residual!r}")
        return rows


def raising_chain(h, raiser, ground: TwoModeState, n_max: int,
                  e0: float, degree: int = 3, family: str = "") -> SpectrumReport:
    """Normalize (A')^n |ground> step by step and check each state against
    the energy ladder e0 + n, e0 being the closed-form energy of `ground`;
    `h` and `raiser` are the CSR matrices of H and A' on ground's cutoff
    (Operator.csr).

    A state is certified while its amplitude mass outside the degree-safe
    interior stays negligible; past that point entries are still reported
    but flagged, and chain collapse (the expected finite-ladder behavior)
    ends the walk.
    """
    cut = ground.cutoff
    keep = interior_indices(cut, degree)
    outside = np.ones(cut.dim, dtype=bool)
    outside[keep] = False

    v = normalize(ground)
    report = SpectrumReport(family=family)
    for n in range(n_max + 1):
        if n > 0:
            nxt = raiser @ v.amplitudes
            if np.linalg.norm(nxt) < 1e-12:
                report.collapse_at = n
                break
            v = normalize(TwoModeState(cut, nxt))
        hv = h @ v.amplitudes
        energy = float(np.real(np.vdot(v.amplitudes, hv)))
        target = e0 + n
        resid = float(np.linalg.norm((hv - target * v.amplitudes)[keep]))
        mass_out = float(np.linalg.norm(v.amplitudes[outside]) ** 2)
        report.entries.append(ChainEntry(n=n, energy_formula=target,
                                         energy_chain=energy, residual=resid,
                                         certified=mass_out < DEFAULT_TOL.chain_mass))
        report.states.append(v.copy())
    return report


# A chain state pins the eigenvalue nearest its energy E at its Rayleigh
# quotient rho on the interior block when 2|E - rho| + r is at most this,
# r = ||(K - rho) x|| / ||x||: K has an eigenvalue within r of rho (Parlett,
# The Symmetric Eigenvalue Problem, Thm 4.5.1), so the one nearest E is
# within 2|E - rho| + r of rho.
_PINNED = 1e-12


def _hermitian_interior(h, keep: np.ndarray):
    """The block H[keep, keep] of the CSR matrix h, symmetrized; rejects
    visibly non-Hermitian input."""
    sub = h[keep][:, keep]
    herm_defect = np.linalg.norm((sub - sub.conj().T).data)
    if herm_defect > 1e-10 * max(1.0, np.linalg.norm(sub.data)):
        raise LadderForgeError(f"interior block is not Hermitian (defect {herm_defect:.3e})")
    return (sub + sub.conj().T) / 2.0


def _pinned_by_witness(sub, keep: np.ndarray, energies: np.ndarray,
                       states) -> tuple[np.ndarray, np.ndarray]:
    """Each state's Rayleigh quotient on the interior block, and whether it
    pins the eigenvalue nearest the state's energy (see _PINNED)."""
    x = np.array([s.amplitudes[keep] for s in states]).reshape(len(states), keep.size)
    kx = (sub @ x.T).T
    xx = np.vecdot(x, x).real
    # a state with no interior part gives NaN, which pins nothing
    with np.errstate(divide="ignore", invalid="ignore"):
        rho = np.vecdot(x, kx).real / xx
        r = np.linalg.norm(kx - rho[:, None] * x, axis=1) / np.sqrt(xx)
    return rho, 2.0 * np.abs(energies - rho) + r <= _PINNED


def _nearest_from_structure(sub, keep: np.ndarray, n2_max: int,
                            energies: np.ndarray) -> np.ndarray:
    """The eigenvalue of the interior block nearest each energy, per shell
    when no stored entry joins two shells, else by shift-invert."""
    n1, n2 = np.divmod(keep, n2_max + 1)
    shell = n1 + n2
    rows, cols = sub.nonzero()
    if np.array_equal(shell[rows], shell[cols]):
        order = np.argsort(shell, kind="stable")
        blocks = np.split(order, np.cumsum(np.bincount(shell))[:-1])
        spectrum = np.concatenate([np.linalg.eigvalsh(sub[i][:, i].toarray())
                                   for i in blocks])
        return spectrum[np.argmin(np.abs(spectrum - energies[:, None]), axis=1)]
    # Local import: loading scipy.sparse.linalg at module level would add
    # about 0.5 s to every `import ladderforge.cli`.
    from scipy.sparse.linalg import ArpackNoConvergence, eigsh

    # a fixed start vector, so that a report does not depend on earlier calls
    v0 = np.random.default_rng(0).standard_normal(sub.shape[0])
    try:
        nearest = [eigsh(sub, k=1, sigma=e, v0=v0, return_eigenvectors=False)[0]
                   for e in energies]
    except ArpackNoConvergence as exc:
        raise LadderForgeError(f"shift-invert did not converge: {exc}") from exc
    return np.array(nearest, dtype=float)


def nearest_eigenvalues(h, cutoff: FockCutoff, energies, degree: int = 3,
                        states=None) -> tuple[np.ndarray, np.ndarray]:
    """For each energy, the eigenvalue of the interior block K = H[keep, keep]
    of H's CSR matrix `h` on `cutoff` nearest it, as the block's full
    eigvalsh spectrum gives it, without forming a dim x dim matrix.  Returns
    those eigenvalues and a mask of the energies that took the per-shell or
    shift-invert path.

    `states`, when given, holds one state per energy (the chain state the
    energy was measured on).  An energy E whose state x pins the eigenvalue,
    2|E - rho| + r <= 1e-12 with rho = x'Kx / x'x and r = ||Kx - rho x|| / ||x||,
    gets rho.  Every other energy takes the block's structure: when every
    stored entry joins two states of the same shell n1 + n2 (no linear
    coupling), each shell block is diagonalized on its own, at most
    min(N1, N2) + 1 states at a time; otherwise the energy takes one ARPACK
    shift-invert solve, eigsh(K, k=1, sigma=E); the block is complex, so
    eigsh hands it to eigs (Arnoldi, ncv 20).  Neither runs when the states
    pin every energy.  Rejects visibly non-Hermitian input.
    """
    keep = interior_indices(cutoff, degree)
    sub = _hermitian_interior(h, keep)
    energies = np.asarray(energies, dtype=float)
    nearest = np.empty_like(energies)
    left = np.ones(energies.shape, dtype=bool)
    if states is not None:
        rho, pinned = _pinned_by_witness(sub, keep, energies, states)
        nearest[pinned] = rho[pinned]
        left = ~pinned
    if left.any():
        nearest[left] = _nearest_from_structure(sub, keep, cutoff.n2_max, energies[left])
    return nearest, left

