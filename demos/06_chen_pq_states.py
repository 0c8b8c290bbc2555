"""The p:q commensurate oscillator: its one-step lowering operator, the
binomial su(2)-type grounds, the degenerate zero subspace, and the
degeneracy-resolved spectrum."""

from collections import Counter

import numpy as np

from ladderforge import (FockCutoff, PQParams, build_A_pq_generalized,
                         build_calA_pq, build_H_pq, build_generators,
                         chen_ground, degenerate_zero_states, louck_spectrum,
                         tilde0_state)
from ladderforge.fock import commutator_residual

g = build_generators(FockCutoff(20, 20))
pq = PQParams(3, 2, alpha_plus=0.7 + 0.2j, alpha_minus=0.9 - 0.5j)
h = build_H_pq(pq, g)
cal_a = build_calA_pq(pq, g)
a_gen = build_A_pq_generalized(pq, g)
deg = max(pq.p, pq.q)

print(f"p:q = {pq.p}:{pq.q}")
# the p:q operators lie outside the algebra's span; each is a few weighted
# shifts of the occupation grid, and its identities are checked on them
print(f"[H, A] + A residual:          "
      f"{commutator_residual(g, h, cal_a, cal_a, deg):.2e}")
print(f"[A_gen, A'] residual:         "
      f"{commutator_residual(g, a_gen, cal_a.dag(), g.shifts([]), deg):.2e}")

print("\nbinomial grounds (energy = kappa):")
for kappa in range(4):
    v = chen_ground(pq, kappa, g)
    h_resid = np.linalg.norm(h.matvec(v.amplitudes) - kappa * v.amplitudes)
    weight = sum(abs(v.amplitudes[g.cutoff.index(pq.q * k, pq.p * (kappa - k))]) ** 2
                 for k in range(kappa + 1))
    print(f"  kappa = {kappa}: H residual {h_resid:.1e}, "
          f"support weight on |qk, p(kappa-k)> = {weight:.6f}")

zeros = degenerate_zero_states(pq, g)
print(f"\nzero subspace of the lowering operator: {len(zeros)} states")
for k1 in range(pq.q):
    for k2 in range(pq.p):
        print(f"  |{k1},{k2}>  E = {louck_spectrum(pq, 0, k1, k2):.4f}")

t0 = tilde0_state(pq, g)
print(f"\nnon-separable zero mode: annihilation residual "
      f"{np.linalg.norm(cal_a.matvec(t0.amplitudes)):.1e}, "
      f"energy residual {np.linalg.norm(h.matvec(t0.amplitudes) - t0.amplitudes):.1e}")

# spectrum bookkeeping on a smaller box, exact as rationals: H assembled as
# a CSR matrix from its weighted shifts and diagonalized whole
cut12 = FockCutoff(12, 12)
g12 = build_generators(cut12)
oracle = np.linalg.eigvalsh(build_H_pq(pq, g12).csr().toarray())
predicted = sorted(louck_spectrum(pq, n1 // pq.q + n2 // pq.p, n1 % pq.q, n2 % pq.p)
                   for n1, n2 in cut12.states())
match = Counter(np.round(oracle * pq.p * pq.q).astype(int).tolist()) == \
    Counter(np.round(np.array(predicted) * pq.p * pq.q).astype(int).tolist())
print(f"\nfull interior spectrum equals the n + k1/q + k2/p multiset: {match}")
lowest = ", ".join(f"{x:.4f}" for x in oracle[:8])
print(f"lowest levels: {lowest}")
