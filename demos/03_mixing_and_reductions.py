"""The mixing rotation in action: rotate annihilators into each other, then
reduce a fully coupled Hamiltonian to its basic anisotropic form."""

import numpy as np

from ladderforge import (FockCutoff, HamiltonianParams, UnitarySpec,
                         build_generators, similarity, build_unitary,
                         reduce_by_similarity, solve_ladder,
                         verify_disentangled_T)
from ladderforge.fock import interior_indices, interior_residual
from ladderforge.transforms import rotation_safe_degree

cutoff = FockCutoff(14, 14)
g = build_generators(cutoff)
deg = rotation_safe_degree(cutoff)
keep = interior_indices(cutoff, deg)

# the quarter-turn case: a1 -> (a1 - a2)/sqrt(2)
t = build_unitary(UnitarySpec("mix_t", {"angle": np.pi / 4, "theta": 0.0}), g)
rotated = similarity(t, g.a1)
target = (g.a1 - g.a2) / np.sqrt(2)
print(f"rotated a1 vs (a1 - a2)/sqrt2:  {interior_residual(rotated - target, keep):.2e}")
print(f"unitarity defect:               {(t.dag() @ t - g.identity).norm():.2e}")
print(f"disentangled product form:      "
      f"{verify_disentangled_T(1, 1.0, 0.0, 0.0, cutoff, g):.2e}")

# a fully coupled system: su(2) part + both linear couplings
r = np.sqrt(1 - 0.6 ** 2) / 2
p = HamiltonianParams(beta0=2.5, beta_plus=r * np.exp(0.7j), beta3=0.6,
                      gamma1=0.12 + 0.09j, gamma2=0.10 - 0.06j, h0=0.3)
rep = solve_ladder(p)
red = reduce_by_similarity(p, rep.coeffs[0], g.cutoff)

print(f"\nreducing {rep.tag}:")
for step in red.chain:
    print(f"  step: {step.kind}  {step.params}")
q = red.params
print(f"reduced Hamiltonian: beta0 = {q.beta0:.4f}, beta3 = {q.beta3:.4f}, "
      f"|beta+| = {abs(q.beta_plus):.1e}, |gammas| = "
      f"{abs(q.gamma1):.1e}, {abs(q.gamma2):.1e}, h0 = {q.h0:.6f}")
print(f"certified on shells n1+n2 <= {red.shell_max}: "
      f"H residual {red.h_residual:.2e}, A residual {red.a_residual:.2e}")
print("the reduced ladder is the pure su(2) lowering direction:")
print(f"  alpha3 = {red.coeffs.alpha3:.4f}, "
      f"alpha+ = {red.coeffs.alpha_plus:.4f}, alpha- = {red.coeffs.alpha_minus:.4f}")
