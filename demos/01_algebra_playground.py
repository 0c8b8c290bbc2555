"""Build the two-mode generator set and watch its commutation relations hold
on the interior of the truncated space."""

from ladderforge import FockCutoff, basis_state, build_generators
from ladderforge.fock import commutator_residual

cutoff = FockCutoff(10, 10)
g = build_generators(cutoff)
print(f"basis dimension: {cutoff.dim}")

# [X, Y] + Z = 0, with Z a combination of generators
relations = {
    "[a1, a1'] - I": ("a1", "a1_dag", [("identity", -1)]),
    "[a1, a2']": ("a1", "a2_dag", []),
    "[J+, J-] - 2 J3": ("j_plus", "j_minus", [("j3", -2)]),
    "[J3, J+] - J+": ("j3", "j_plus", [("j_plus", -1)]),
    "[N, J3]": ("n_op", "j3", []),
    "[N, a1] + a1/2": ("n_op", "a1", [("a1", 0.5)]),
    "[J+, a1] + a2": ("j_plus", "a1", [("a2", 1)]),
    "[J-, a1'] - a2'": ("j_minus", "a1_dag", [("a2_dag", -1)]),
    "[J+, a1']": ("j_plus", "a1_dag", []),
}


def residual(x, y, z, degree):
    """||P([X, Y] + Z)P|| on the degree-`degree` interior, read off the
    generators' weights on the grid: no matrix is formed."""
    return commutator_residual(g, g.shifts([(x, 1)]), g.shifts([(y, 1)]), g.shifts(z), degree)


print("\ninterior residuals (degree-2 interior):")
for name, (x, y, z) in relations.items():
    print(f"  {name:<18} {residual(x, y, z, 2):.2e}")

# hard truncation is visible only at the boundary: degree 0 is the whole grid
print(f"\nsame [a1, a1'] - I without masking: {residual('a1', 'a1_dag', [('identity', -1)], 0):.2e}")
print("the defect sits at the top occupation row, where a1' maps to zero")

# the truncation defect is exactly -(n1_max + 1) at the boundary level
a1, a1_dag = g.shift("a1"), g.shift("a1_dag")
defect = a1 @ a1_dag - a1_dag @ a1 - g.shift("identity")
idx = cutoff.index(cutoff.n1_max, 0)
element = defect.matvec(basis_state(cutoff, cutoff.n1_max, 0).amplitudes)[idx]
print(f"boundary element: {element.real:+.1f} (expected {-(cutoff.n1_max + 1)})")
