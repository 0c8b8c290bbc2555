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


def test_reductions_imports_no_scipy():
    # reduce certifies on shell blocks and one-mode factors: no CSR matrix
    found = [ast.dump(node) for node in ast.walk(TREES["reductions.py"])
             if isinstance(node, (ast.Import, ast.ImportFrom))
             and any(name.startswith("scipy") for name in
                     ([a.name for a in node.names] if isinstance(node, ast.Import)
                      else [node.module or ""]))]
    assert not found
