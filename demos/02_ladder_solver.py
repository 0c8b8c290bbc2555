"""Which Hamiltonians admit a compatible lowering operator?  Scan a few
coefficient records through the solver and check every returned operator
against the commutator requirement [H, A] = -A."""

import numpy as np

from ladderforge import (FockCutoff, HamiltonianParams, build_generators,
                         solve_ladder, su2_invariant, verify_ladder)


def unit_gate(beta0, beta3, theta=0.7, **kw):
    r = np.sqrt(1.0 - beta3 ** 2) / 2.0
    return HamiltonianParams(beta0=beta0, beta_plus=r * np.exp(1j * theta),
                             beta3=beta3, **kw)


cases = {
    "isotropic": HamiltonianParams(beta0=2.0),
    "fractional 1/2": HamiltonianParams(
        beta0=0.5, beta_plus=np.sqrt((1.5 ** 2 - 0.4 ** 2) / 4), beta3=0.4),
    "pure su(2) ladder": unit_gate(2.5, 0.6),
    "generalized 2:1": unit_gate(3.0, 0.6),
    "coupled 2:1": HamiltonianParams(beta0=3.0, beta3=1.0,
                                     gamma1=0.4 + 0.3j, gamma2=0.25 - 0.15j),
    "pair-creation b=2": HamiltonianParams(
        beta0=0.0, beta_plus=np.sqrt(4 - 0.64) / 2, beta3=0.8),
    "no ladder": HamiltonianParams(beta0=7.0, beta_plus=0.25, beta3=0.5),
}

g = build_generators(FockCutoff(12, 12))

for name, p in cases.items():
    rep = solve_ladder(p)
    print(f"\n{name}:  b^2 = {su2_invariant(p):.4f}  ->  {rep.tag}")
    if not rep.exists:
        print("  no compatible lowering operator (both gates closed)")
        continue
    for coeff, free, ok in zip(rep.coeffs, rep.free_parameters, rep.normalizable):
        resid = verify_ladder(p, coeff, g, 3)
        flag = "normalizable family" if ok else "eigenstates refuse away from 0"
        print(f"  free parameter {free:<12} residual {resid:.2e}  [{flag}]")
