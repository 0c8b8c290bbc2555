"""The package keeps only what its scenarios reach: each public name is
used somewhere in src, and no dense scipy path is imported there."""

import ast
import pathlib
from collections import Counter

SRC = pathlib.Path(__file__).parent.parent / "src" / "ladderforge"
TREES = {p.name: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(SRC.glob("*.py"))}

# the only builders of the separable fractional and b = 2 squeezed families,
# and two wrappers that take any ladder amplitudes, which no scenario calls
KEPT_CONSTRUCTORS = {"fractional_separable_cs", "linear_coupled_states",
                     "isotropic_states", "basic21_states"}


def _exported(tree: ast.Module) -> list[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__"
                                                for t in node.targets):
            return ast.literal_eval(node.value)
    return []


def test_every_public_name_is_used_in_the_package():
    # a name counts as used where it is read as a name or an attribute in a
    # module other than __init__: its own definition and an import are not uses
    used = Counter()
    for name, tree in TREES.items():
        if name != "__init__.py":
            for node in ast.walk(tree):
                if isinstance(node, ast.Name):
                    used[node.id] += 1
                elif isinstance(node, ast.Attribute):
                    used[node.attr] += 1
    unused = {(module, name) for module, tree in TREES.items() for name in _exported(tree)
              if not used[name] and name not in KEPT_CONSTRUCTORS}
    assert not unused


def test_no_dense_scipy_module_is_imported():
    dense = ("scipy.linalg", "scipy.sparse.csgraph")
    found = []
    for module, tree in TREES.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                names = [node.module, *(f"{node.module}.{a.name}" for a in node.names)]
            else:
                continue
            found += [(module, n) for n in names if n.startswith(dense)]
    assert not found


# the only scipy imports in src: the CSR matrix `spectrum` multiplies by
# (Operator.csr) and spectrum's shift-invert fallback
SCIPY_IMPORTS = {("fock.py", "csr", "scipy.sparse"),
                 ("spectra.py", "_nearest_from_structure", "scipy.sparse.linalg")}


def _scipy_imports(tree: ast.Module) -> list[tuple[str | None, str]]:
    """(enclosing function, module) of each scipy import in the tree; None
    for an import at module or class level."""
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Import):
                found.extend((function, a.name) for a in child.names
                             if a.name.split(".")[0] == "scipy")
            elif (isinstance(child, ast.ImportFrom)
                  and (child.module or "").split(".")[0] == "scipy"):
                found.append((function, child.module))
            visit(child, child.name if isinstance(child, ast.FunctionDef) else function)

    visit(tree, None)
    return found


def test_scipy_is_imported_only_for_the_spectrum_matrices():
    # every other path (reduce's shell blocks, the identity checks, chen,
    # the eigenstate mat-vec) works on the weighted shifts themselves
    found = {(module, function, name) for module, tree in TREES.items()
             for function, name in _scipy_imports(tree)}
    assert found <= SCIPY_IMPORTS
