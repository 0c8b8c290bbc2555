"""The mixing rotation in action: rotate annihilators into each other, then
reduce a fully coupled Hamiltonian to its basic anisotropic form."""

import numpy as np

from ladderforge import (FockCutoff, HamiltonianParams, build_generators,
                         reduce_by_similarity, solve_ladder)
from ladderforge.reductions import reduction_frame

cutoff = FockCutoff(14, 14)
g = build_generators(cutoff)

# the quarter-turn case: beta3 = 0 and |beta+| = 1/2 reduce by the rotation
# of angle pi/4, which takes a1 -> (a1 - a2)/sqrt(2)
frame = reduction_frame(HamiltonianParams(beta0=2.5, beta_plus=0.5))
d1, d2 = frame.dags()
print("the rotation on the creation operators, U a_i' U':")
for name, d in (("a1'", d1), ("a2'", d2)):
    print(f"  {name} -> {d.coeffs[1, 0, 0, 0].real:+.4f} a1' {d.coeffs[0, 1, 0, 0].real:+.4f} a2'")

# its columns U[:, S] on the shells n1 + n2 <= 7, exact on the truncated
# space: the rotation keeps n1 + n2, so they never reach the cutoff
n1, n2 = np.divmod(np.arange(cutoff.dim), cutoff.n2_max + 1)
keep = np.flatnonzero(n1 + n2 <= 7)
w = frame.columns(cutoff, keep)
rotated = w.conj().T @ (g.shift("a1").csr() @ w)
target = ((g.shift("a1") - g.shift("a2")) / np.sqrt(2)).csr()[keep][:, keep].toarray()
print(f"rotated a1 vs (a1 - a2)/sqrt2:  {np.linalg.norm(rotated - target):.2e}")
print(f"unitarity defect on the shells: {np.linalg.norm(w.conj().T @ w - np.eye(keep.size)):.2e}")

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
