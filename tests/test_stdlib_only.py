"""The library is pure standard library: every absolute import in
``src/multialg`` names ``multialg``, ``__future__`` or a module of the
running Python's standard library."""

import ast
import os
import sys

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                   "src", "multialg")


def _absolute_imports(path: str) -> list:
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), path)
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out += [(alias.name, node.lineno) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            out.append((node.module, node.lineno))
    return out


def test_library_imports_only_the_standard_library():
    allowed = set(sys.stdlib_module_names) | {"multialg", "__future__"}
    modules = sorted(name for name in os.listdir(SRC) if name.endswith(".py"))
    assert "core.py" in modules
    foreign = [(name, line, module)
               for name in modules
               for module, line in _absolute_imports(os.path.join(SRC, name))
               if module.partition(".")[0] not in allowed]
    assert foreign == []
