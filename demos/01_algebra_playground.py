"""Build the two-mode generator set and watch its commutation relations hold
on the interior of the truncated space."""

from ladderforge import (FockCutoff, build_generators, commutator,
                         interior_indices, interior_residual)

cutoff = FockCutoff(10, 10)
g = build_generators(cutoff)
print(f"basis dimension: {cutoff.dim}")

keep = interior_indices(cutoff, 2)

relations = {
    "[a1, a1'] - I": commutator(g.a1, g.a1_dag) - g.identity,
    "[a1, a2']": commutator(g.a1, g.a2_dag),
    "[J+, J-] - 2 J3": commutator(g.j_plus, g.j_minus) - 2 * g.j3,
    "[J3, J+] - J+": commutator(g.j3, g.j_plus) - g.j_plus,
    "[N, J3]": commutator(g.n_op, g.j3),
    "[N, a1] + a1/2": commutator(g.n_op, g.a1) + 0.5 * g.a1,
    "[J+, a1] + a2": commutator(g.j_plus, g.a1) + g.a2,
    "[J-, a1'] - a2'": commutator(g.j_minus, g.a1_dag) - g.a2_dag,
    "[J+, a1']": commutator(g.j_plus, g.a1_dag),
}

print("\ninterior residuals (degree-2 interior):")
for name, op in relations.items():
    print(f"  {name:<18} {interior_residual(op, keep):.2e}")

# hard truncation is visible only at the boundary
full = commutator(g.a1, g.a1_dag) - g.identity
print(f"\nsame [a1, a1'] - I without masking: {full.norm():.2e}")
print("the defect sits at the top occupation row, where a1' maps to zero")

# the truncation defect is exactly -(n1_max + 1) at the boundary level
idx = cutoff.index(cutoff.n1_max, 0)
print(f"boundary element: {full.mat[idx, idx].real:+.1f} "
      f"(expected {-(cutoff.n1_max + 1)})")
