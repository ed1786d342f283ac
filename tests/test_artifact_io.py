"""Guard for the I/O rule: every file the package writes goes through
corpus_io.write_atomic, and every text file it reads through
corpus_io.read_text, so the atomic rename, the file mode and the strict
UTF-8 decode are each decided in one place.

A call counts as a write when it is `write_text`, `write_bytes`,
`os.replace`, `os.open`, `tempfile.mkstemp`, or an `open` whose mode is
not a literal read mode; it is allowed only inside `write_atomic`.
`.read_text` is allowed only inside `read_text`.
"""

import ast
from pathlib import Path

SRC = Path(__file__).parents[1] / "src" / "chatscreen"

ALWAYS_WRITES = {"write_text", "write_bytes", "mkstemp"}


def _open_mode(call):
    """The mode argument of an open() call, None when absent (read)."""
    for kw in call.keywords:
        if kw.arg == "mode":
            return kw.value
    is_builtin = isinstance(call.func, ast.Name)
    position = 1 if is_builtin else 0     # open(file, mode) / path.open(mode)
    return call.args[position] if len(call.args) > position else None


def _is_write_open(call):
    mode = _open_mode(call)
    if mode is None:
        return False
    if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)):
        return True     # a computed mode cannot be shown to be a read
    return any(flag in mode.value for flag in "wax+")


def _violations(tree, module):
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Call):
            func = node.func
            name = (func.attr if isinstance(func, ast.Attribute)
                    else getattr(func, "id", None))
            owner = (func.value.id if isinstance(func, ast.Attribute)
                     and isinstance(func.value, ast.Name) else None)
            writes = (name in ALWAYS_WRITES
                      or (owner == "os" and name in ("replace", "open"))
                      or (name == "open" and owner != "os"
                          and _is_write_open(node)))
            if writes and function != "write_atomic":
                found.append(f"{module}:{node.lineno}: {name} outside "
                             "write_atomic")
            if name == "read_text" and isinstance(func, ast.Attribute) \
                    and function != "read_text":
                found.append(f"{module}:{node.lineno}: .read_text outside "
                             "read_text")
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    return found


def test_only_write_atomic_writes_and_only_read_text_reads_text():
    found = []
    for path in sorted(SRC.glob("*.py")):
        found += _violations(ast.parse(path.read_text()), path.name)
    assert not found, found


def test_model_store_holds_no_temp_file_code():
    tree = ast.parse((SRC / "model_store.py").read_text())
    imported = {alias.name for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                for alias in node.names}
    assert not imported & {"os", "tempfile"}


def test_guard_flags_each_kind_of_write():
    source = """
def f(p):
    p.write_text("x")
    p.write_bytes(b"x")
    os.replace(p, p)
    tempfile.mkstemp()
    open(p, "w")
    open(p, mode="ab")
    p.open("r+")
    p.read_text()
    open(p)
    open(p, "rb")
    p.open()
"""
    found = _violations(ast.parse(source), "m.py")
    assert [line.split(": ", 1)[1] for line in found] == [
        "write_text outside write_atomic", "write_bytes outside write_atomic",
        "replace outside write_atomic", "mkstemp outside write_atomic",
        "open outside write_atomic", "open outside write_atomic",
        "open outside write_atomic", ".read_text outside read_text"]
