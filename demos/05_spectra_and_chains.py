"""Raising chains: climb from a family's lambda = 0 states, hold each step to
the reduction frame's closed form E(kappa, n) = h0 + kappa omega_other + n,
and compare the energies against the eigenvalues of the truncated
Hamiltonian, including the truncated su(2) ladder and the degeneracy
bookkeeping of the 2:1 oscillator."""

from collections import Counter

import numpy as np

from ladderforge import (FockCutoff, HamiltonianParams, LadderCoeffs,
                         build_generators, build_hamiltonian, build_ladder,
                         nearest_eigenvalues, raising_chain, solve_ladder)
from ladderforge.eigenstates import chain_seed
from ladderforge.reductions import reduction_frame

# 2:1 basic family at a tall cutoff so five chains fit
cut = FockCutoff(12, 24)
g = build_generators(cut)
p21 = HamiltonianParams(beta0=3.0, beta3=1.0)
frame = reduction_frame(p21)
# H and the raiser A' as the CSR matrices the spectrum scenario multiplies by
h = build_hamiltonian(p21, g).csr()
mu2, ap = 0.8 + 0.1j, 0.5 - 0.3j
raiser = build_ladder(LadderCoeffs(mu2=mu2, alpha_plus=ap), g).dag().csr()

print("2:1 oscillator chains, one per kappa:")
certified = []
for kappa in range(5):
    rep = raising_chain(h, raiser, chain_seed(frame, kappa, g), 14, frame.energy(kappa),
                        degree=3)
    entries = [(e, s) for e, s in zip(rep.entries, rep.states)
               if e.certified and e.energy_formula <= 9 + 1e-9]
    certified += entries
    print(f"  kappa = {kappa}: E = 2*{kappa} + n, "
          f"worst residual {max(e.residual for e, _ in entries):.1e}")

# each chain energy against the interior block's eigenvalue nearest it
nearest, _ = nearest_eigenvalues(h, cut, [e.energy_chain for e, _ in certified], 3,
                                 [s for _, s in certified])
worst = max(abs(e.energy_chain - x) for (e, _), x in zip(certified, nearest))
print(f"chain energies vs the nearest interior eigenvalues: worst gap {worst:.1e}")
# H = 2 n1 + n2 here, so level E holds the floor(E/2) + 1 states |n1, E - 2 n1>
energies = Counter(round(e.energy_formula, 9) for e, _ in certified)
levels = Counter(float(2 * n1 + n2) for n1 in range(5) for n2 in range(10) if 2 * n1 + n2 <= 9)
print(f"chain energies reproduce the level degeneracies floor(E/2) + 1: "
      f"{energies == levels}  ({len(certified)} levels up to E = 9)")

# su(2): a finite ladder that stops at n = kappa
g14 = build_generators(FockCutoff(14, 14))
r = np.sqrt(1 - 0.6 ** 2) / 2
p = HamiltonianParams(beta0=0.0, beta_plus=r * np.exp(1.1j), beta3=0.6)
rep_solver = solve_ladder(p)
h_su2 = build_hamiltonian(p, g14).csr()
raiser_su2 = build_ladder(rep_solver.coeffs[0], g14).dag().csr()
kappa = 4
frame = reduction_frame(p)
rep = raising_chain(h_su2, raiser_su2, chain_seed(frame, kappa, g14), 8,
                    frame.energy(kappa), degree=3)
chain = ", ".join(f"{e.energy_chain:+.1f}" for e in rep.entries)
print(f"\nsu(2) ladder, kappa = {kappa}: energies {chain}")
print(f"chain collapses at n = {rep.collapse_at} (finite spectrum)")
