"""Guard against dead code: every top-level function, class and constant in
the package must be used by the package itself, not only by its tests.

A name counts as used when some other statement under src/chatscreen loads
it (as a bare name or as an attribute, e.g. `ac.featurize`). Imports alone
do not count, and neither do uses inside the name's own definition.
"""

import ast
from pathlib import Path

SRC = Path(__file__).parents[1] / "src" / "chatscreen"

# Entry points kept on purpose although only tests call them.
ALLOWED = {
    "cell_step",                 # criterion 2: the single-cell oracle check
    "LstmState",                 # cell_step's state type
    "gradient_check",            # criterion 1: finite-difference verifier
    "training_loss_and_grads",   # criterion 1: each model's loss and grads
    "__version__",               # package metadata
}


def defined_names(node):
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                         ast.ClassDef)):
        return [node.name]
    targets = []
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, ast.AnnAssign):
        targets = [node.target]
    return [t.id for t in targets if isinstance(t, ast.Name)]


def loaded_names(node):
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
    return names


def test_every_top_level_name_is_used_in_the_package():
    statements = [(path.name, node) for path in sorted(SRC.glob("*.py"))
                  for node in ast.parse(path.read_text()).body]
    loads = [loaded_names(node) for _, node in statements]
    unused = []
    for i, (module, node) in enumerate(statements):
        for name in defined_names(node):
            if name in ALLOWED:
                continue
            if not any(name in names
                       for j, names in enumerate(loads) if j != i):
                unused.append(f"{module}: {name}")
    assert not unused, f"only tests reach: {unused}"
