"""Every private name the documentation cites exists in the library.

The docstrings of ``src/multialg`` cite private kernels as ````_name````
(or ````module._name````), and README.md and docs/*.md as ```_name```.
Each such name must be an attribute of a ``multialg`` module or of one of
its classes, so that a kernel deleted or renamed in the code does not live
on in the text that explains it.
"""

import ast
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import multialg

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "multialg").glob("*.py"))
DOCUMENTS = [ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md"))]


def _known_names() -> set:
    names = set()
    for info in pkgutil.iter_modules(multialg.__path__):
        if info.name == "__main__":  # importing it runs the CLI
            continue
        module = importlib.import_module(f"multialg.{info.name}")
        names.update(dir(module))
        for _, cls in inspect.getmembers(module, inspect.isclass):
            names.update(dir(cls))
    return names


def _docstrings(path: Path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)):
            text = ast.get_docstring(node, clean=False)
            if text:
                yield text


def _cited(texts, quote: str) -> set:
    pattern = re.compile(re.escape(quote) + r"(?:\w+\.)*(_\w+)")
    return {name for text in texts for name in pattern.findall(text)}


def test_cited_private_names_resolve():
    known = _known_names()
    cited = {
        "src": _cited((d for path in SOURCES for d in _docstrings(path)), "``"),
        "README.md": _cited([DOCUMENTS[0].read_text(encoding="utf-8")], "`"),
        "docs": _cited([p.read_text(encoding="utf-8") for p in DOCUMENTS[1:]], "`"),
    }
    for where, names in cited.items():
        assert names, where
        assert not names - known, (where, sorted(names - known))
