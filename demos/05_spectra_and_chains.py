"""Raising chains: climb from a family's lambda = 0 states, hold each step to
the reduction frame's closed form E(kappa, n) = h0 + kappa omega_other + n,
and compare the energies against the dense-diagonalization oracle, including
the truncated su(2) ladder and the degeneracy bookkeeping of the 2:1
oscillator."""

from collections import Counter

import numpy as np

from ladderforge import (FockCutoff, HamiltonianParams, LadderCoeffs,
                         basic21_states, build_generators, build_hamiltonian,
                         build_ladder, diagonalize_oracle, raising_chain,
                         solve_ladder, su2_ground, vacuum_state)
from ladderforge.reductions import reduction_frame

# 2:1 basic family at a tall cutoff so five chains fit
cut = FockCutoff(12, 24)
g = build_generators(cut)
p21 = HamiltonianParams(beta0=3.0, beta3=1.0)
frame = reduction_frame(p21)
h = build_hamiltonian(p21, g)
mu2, ap = 0.8 + 0.1j, 0.5 - 0.3j
a = build_ladder(LadderCoeffs(mu2=mu2, alpha_plus=ap), g)

print("2:1 oscillator chains, one per kappa:")
energies = []
for kappa in range(5):
    ground = vacuum_state(cut) if kappa == 0 else \
        basic21_states(mu2, ap, 0.0, 3, g, kappa=kappa)
    rep = raising_chain(h, a, ground, 14, frame.energy(kappa), degree=3)
    certified = [e for e in rep.entries if e.certified and e.energy_formula <= 9 + 1e-9]
    energies += [round(e.energy_formula, 9) for e in certified]
    print(f"  kappa = {kappa}: E = 2*{kappa} + n, "
          f"worst residual {max(e.residual for e in certified):.1e}")

oracle = [round(float(x), 9) for x in diagonalize_oracle(h, 3) if x <= 9 + 1e-9]
print(f"chain energies reproduce the interior spectrum multiset: "
      f"{Counter(energies) == Counter(oracle)}  "
      f"({len(energies)} levels up to E = 9)")

# su(2): a finite ladder that stops at n = kappa
g14 = build_generators(FockCutoff(14, 14))
r = np.sqrt(1 - 0.6 ** 2) / 2
p = HamiltonianParams(beta0=0.0, beta_plus=r * np.exp(1.1j), beta3=0.6)
rep_solver = solve_ladder(p)
h_su2 = build_hamiltonian(p, g14)
a_su2 = build_ladder(rep_solver.coeffs[0], g14)
kappa = 4
rep = raising_chain(h_su2, a_su2, su2_ground(0.6, 1.1, kappa, g14), 8,
                    reduction_frame(p).energy(kappa), degree=3)
chain = ", ".join(f"{e.energy_chain:+.1f}" for e in rep.entries)
print(f"\nsu(2) ladder, kappa = {kappa}: energies {chain}")
print(f"chain collapses at n = {rep.collapse_at} (finite spectrum)")
