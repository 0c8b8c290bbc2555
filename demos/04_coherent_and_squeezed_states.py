"""Tour of the eigenstate families: separable coherent states, su(2)-type
binomials, squeezed-coherent members, and the pair-creation series on the
b = 2 surface.  Every state is pushed back through its lowering operator."""

import numpy as np

from ladderforge import (EigenstateRequest, FockCutoff, HamiltonianParams,
                         LadderCoeffs, basic21_states, build_generators,
                         build_ladder, classify, isotropic_states,
                         linear_coupled_states, verify_eigenstate)
from ladderforge.eigenstates import chain_seed
from ladderforge.reductions import reduction_frame

g = build_generators(FockCutoff(20, 20))
cut = g.cutoff


def leading(state, count=4):
    order = np.argsort(-np.abs(state.amplitudes))[:count]
    parts = []
    for idx in order:
        n1, n2 = cut.occupations(int(idx))
        parts.append(f"{state.amplitudes[idx]:+.3f}|{n1},{n2}>")
    return "  ".join(parts)


print("== isotropic family ==")
lam = 0.9 - 0.4j
a_iso = build_ladder(LadderCoeffs(mu1=0.8, mu2=0.6), g)
v = isotropic_states(0.8, 0.6, lam, 0, 1, g)
print(f"separable, lam = {lam}:   residual {verify_eigenstate(a_iso, v, lam, 4):.2e}")
v = isotropic_states(0.8, 0.6, 0.0, 2, 2, g)
print(f"su(2)-type kappa = 2:     {leading(v, 3)}")

print("\n== 2:1 commensurate family ==")
mu2, ap = 1.0, 0.4
a21 = build_ladder(LadderCoeffs(mu2=mu2, alpha_plus=ap), g)
v = basic21_states(mu2, ap, 0.8, 1, g, c1=0.5)
print(f"squeezed-coherent member: residual {verify_eigenstate(a21, v, 0.8, 4):.2e}")
v = basic21_states(mu2, ap, 0.0, 2, g)
print(f"non-separable ground:     {leading(v, 2)}")
v = basic21_states(mu2, ap, 0.0, 3, g, kappa=2)
print(f"kappa = 2 ground:         {leading(v, 3)}")

print("\n== su(2) binomial ground ==")
# the rotated |0, kappa>: the seed of the su(2) family's reduction frame
r = np.sqrt(1 - 0.6 ** 2) / 2
p = HamiltonianParams(beta0=0.0, beta_plus=r * np.exp(1.1j), beta3=0.6)
v = chain_seed(reduction_frame(p), 3, g)
print(f"kappa = 3:                {leading(v, 4)}")

print("\n== pair-creation family on the b = 2 surface ==")
r = np.sqrt((4 - 0.64) / 4)
p = HamiltonianParams(beta0=0.0, beta_plus=r * np.exp(0.9j), beta3=-0.8)
tag = classify(p)
mu1, nu1 = 1.0, 0.3
denom = abs(mu1) ** 2 / (2 + p.beta3) - abs(nu1) ** 2 / (2 - p.beta3)
scale = 2 * np.sqrt(denom)
a_b2 = build_ladder(LadderCoeffs(
    mu1=mu1 / scale, mu2=2 * p.beta_minus / (2 + p.beta3) * mu1 / scale,
    nu1=nu1 / scale, nu2=-2 * p.beta_plus / (2 - p.beta3) * nu1 / scale), g)
req = EigenstateRequest(tag=tag, lam=0.0, branch=1)
v = linear_coupled_states(p, req, g, mu1=mu1, nu1=nu1)
print(f"two-mode squeezed vacuum: residual {verify_eigenstate(a_b2, v, 0.0, 5):.2e}")
req = EigenstateRequest(tag=tag, lam=0.0, branch=2, kappa=1)
v = linear_coupled_states(p, req, g, mu1=mu1, nu1=nu1)
print(f"pair-series ground:       residual {verify_eigenstate(a_b2, v, 0.0, 5):.2e}")
print(f"                          {leading(v, 3)}")
