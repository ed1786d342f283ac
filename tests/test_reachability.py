"""Guard against dead code: every top-level function, class and constant in
the package must be used by the package itself, not only by its tests, and
so must every field, property and method of its classes.

A top-level name counts as used when some other statement under
src/chatscreen loads it (as a bare name or as an attribute, e.g.
`ac.featurize`). A class member counts as used when some statement outside
its own definition reads it as an attribute (`self.embedding`,
`verdict.score`). Both checks match by name: any read of an attribute
called `score` counts for every member called `score`. So a field that is
set but never read passes while another class has a read field of its
name, as `AuthorUnit.conversation_id` did beside
`ConversationSequence.conversation_id`. A read through a
module (`np.zeros`, `corpus_io.Message`) names a module attribute, so it
counts for top-level names only. Imports, assignments and keyword
arguments do not count, and neither do uses inside the name's own
definition. Dunder methods are called by Python, not by name, and are
exempt.

A defaulted parameter counts as used when some src/chatscreen call to a
function of that name passes it, by keyword or by position (after `self`
or `cls` for a method); a call to a class passes `__init__`'s parameters.
This too matches by name, so a call to any `create` counts for every
method called `create`.

An exception class counts as used only where src/chatscreen raises it or
names it in an `except` clause; being subclassed or imported does not
count, so a class that no code tells apart from its base is caught.
"""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).parents[1] / "src" / "chatscreen"

# Entry points kept on purpose although only tests call them.
ALLOWED = {
    "gradient_check",            # criterion 1: finite-difference verifier
    "training_loss_and_grads",   # criterion 1: each model's loss and grads
    "__version__",               # package metadata
}

# Defaulted parameters kept on purpose although no src/ call passes them.
ALLOWED_DEFAULTS = {
    "main(argv)",                 # the CLI tests pass their own argv
    "gradient_check(epsilon)",    # criterion 1 picks its step
    "LstmLayerParams.init(dtype)",  # criterion 2 builds float64 cells
}

# Class members kept on purpose although no src/ statement reads them.
ALLOWED_MEMBERS = {
    # benchmarks/reference.py and tests/oracles.py read them
    tuple(f"LstmLayerParams.{side}{gate}"
          for side in "UWb" for gate in "ifog"),
    # benchmarks/reference.py reads it to pick the row the head reads
    ("ScdModel.masked",),
    # benchmarks/corpora.py reads it as the generator's truth
    ("SynthResult.positive_conversation_ids",),
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
    names = []
    for target in targets:
        elements = target.elts if isinstance(target, ast.Tuple) else [target]
        names += [t.id for t in elements if isinstance(t, ast.Name)]
    return names


def loaded_names(node):
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
    return names


def top_level_statements():
    return [(path.name, node) for path in sorted(SRC.glob("*.py"))
            for node in ast.parse(path.read_text()).body]


def test_every_top_level_name_is_used_in_the_package():
    stmts = top_level_statements()
    loads = [loaded_names(node) for _, node in stmts]
    unused = []
    for i, (module, node) in enumerate(stmts):
        for name in defined_names(node):
            if name in ALLOWED:
                continue
            if not any(name in names
                       for j, names in enumerate(loads) if j != i):
                unused.append(f"{module}: {name}")
    assert not unused, f"only tests reach: {unused}"


def test_allowlist_names_real_top_level_names():
    defined = {name for _, node in top_level_statements()
               for name in defined_names(node)}
    stale = ALLOWED - defined
    assert not stale, f"allowlisted names that do not exist: {stale}"


def module_aliases(tree):
    """Names an `import` binds to a module: `import numpy as np` and
    `from . import corpus_io`."""
    aliases = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (
                isinstance(node, ast.ImportFrom) and node.module is None):
            aliases.update((a.asname or a.name).split(".")[0]
                           for a in node.names)
    return aliases


def attribute_reads(node, modules):
    """Attribute names read under node, except reads through a module."""
    reads = []
    for sub in ast.walk(node):
        if (isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load)
                and not (isinstance(sub.value, ast.Name)
                         and sub.value.id in modules)):
            reads.append(sub.attr)
    return reads


def members(cls):
    """(name, defining node) for each field, class attribute, property and
    method of cls, and each attribute its __init__ sets on self."""
    found = []
    for node in cls.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if not (node.name.startswith("__") and node.name.endswith("__")):
                found.append((node.name, node))
            if node.name == "__init__":
                found += [(t.attr, t) for t in ast.walk(node)
                          if isinstance(t, ast.Attribute)
                          and isinstance(t.ctx, ast.Store)
                          and isinstance(t.value, ast.Name)
                          and t.value.id == "self"]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            found += [(name, node) for name in defined_names(node)]
    return found


def class_members():
    """(module, qualified name, reads under the definition, all reads of
    the name in the package) for every member of every src/ class."""
    trees = {path.name: ast.parse(path.read_text())
             for path in sorted(SRC.glob("*.py"))}
    modules = {name: module_aliases(tree) for name, tree in trees.items()}
    reads = Counter(attr for name, tree in trees.items()
                    for attr in attribute_reads(tree, modules[name]))
    for module, tree in trees.items():
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef):
                for name, node in members(cls):
                    own = attribute_reads(node, modules[module]).count(name)
                    yield module, f"{cls.name}.{name}", own, reads[name]


def test_every_class_member_is_read_in_the_package():
    allowed = {name for entry in ALLOWED_MEMBERS for name in entry}
    unused = [f"{module}: {qualified}"
              for module, qualified, own, total in class_members()
              if qualified not in allowed and total <= own]
    assert not unused, f"no src/ statement reads: {unused}"


def test_member_allowlist_names_real_members():
    defined = {qualified for _, qualified, _, _ in class_members()}
    stale = {name for entry in ALLOWED_MEMBERS for name in entry} - defined
    assert not stale, f"allowlisted members that do not exist: {stale}"


def functions(tree):
    """(class or None, function) for each top-level function and method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield None, node
        elif isinstance(node, ast.ClassDef):
            for fn in node.body:
                if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield node, fn


def defaulted_params():
    """(module, "qualified(param)", callee name, position or None, param)
    for each defaulted parameter of each src/ function and method. The
    callee name of `__init__` is its class's name; the position skips
    `self` and `cls`, and is None for a keyword-only parameter."""
    for path in sorted(SRC.glob("*.py")):
        for cls, fn in functions(ast.parse(path.read_text())):
            static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                         for d in fn.decorator_list)
            skip = 1 if cls is not None and not static else 0
            callee = cls.name if fn.name == "__init__" else fn.name
            qualified = f"{cls.name}.{fn.name}" if cls else fn.name
            positional = fn.args.posonlyargs + fn.args.args
            first = len(positional) - len(fn.args.defaults)
            for i, arg in enumerate(positional[first:], start=first):
                yield (path.name, f"{qualified}({arg.arg})", callee, i - skip,
                       arg.arg)
            for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
                if default is not None:
                    yield (path.name, f"{qualified}({arg.arg})", callee, None,
                           arg.arg)


def passed_params():
    """(callee name, positional count or None, keyword names) for each
    src/ call; the count is None when a `*` splat may pass any number, and
    a `**` splat counts as passing every keyword."""
    calls = []
    for path in sorted(SRC.glob("*.py")):
        for call in ast.walk(ast.parse(path.read_text())):
            if not isinstance(call, ast.Call):
                continue
            func = call.func
            name = (func.id if isinstance(func, ast.Name) else
                    func.attr if isinstance(func, ast.Attribute) else None)
            if name is None:
                continue
            splat = any(isinstance(a, ast.Starred) for a in call.args)
            keywords = {k.arg for k in call.keywords}
            calls.append((name, None if splat else len(call.args),
                          keywords))
    return calls


def test_every_defaulted_parameter_is_passed_in_the_package():
    calls = passed_params()
    unpassed = []
    for module, qualified, callee, position, param in defaulted_params():
        if qualified in ALLOWED_DEFAULTS:
            continue
        if not any(name == callee and (
                param in keywords or None in keywords
                or (position is not None
                    and (count is None or count > position)))
                   for name, count, keywords in calls):
            unpassed.append(f"{module}: {qualified}")
    assert not unpassed, f"no src/ call passes: {unpassed}"


def test_default_allowlist_names_real_parameters():
    defined = {qualified for _, qualified, _, _, _ in defaulted_params()}
    stale = ALLOWED_DEFAULTS - defined
    assert not stale, f"allowlisted parameters that do not exist: {stale}"


def exception_classes(trees):
    """Names of the src/ classes derived, directly or through each other,
    from Exception."""
    bases = {cls.name: {b.id for b in cls.bases if isinstance(b, ast.Name)}
             for tree in trees for cls in ast.walk(tree)
             if isinstance(cls, ast.ClassDef)}
    found = {"Exception"}
    while True:
        more = {name for name, parents in bases.items() if parents & found}
        if more <= found:
            return found - {"Exception"}
        found |= more


def raised_or_caught(trees):
    """Class names a `raise` or an `except` clause under src/ names."""
    names = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and node.exc is not None:
                target = node.exc.func if isinstance(node.exc, ast.Call) \
                    else node.exc
                names |= loaded_names(target)
            elif isinstance(node, ast.ExceptHandler) and node.type:
                names |= loaded_names(node.type)
    return names


def test_every_exception_class_is_raised_or_caught():
    trees = [ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))]
    unused = exception_classes(trees) - raised_or_caught(trees)
    assert not unused, f"neither raised nor caught in src/: {sorted(unused)}"
