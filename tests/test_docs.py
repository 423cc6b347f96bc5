"""Docs cannot name code that is gone.

Every dotted ``repro.…`` name in README.md, DESIGN.md and docs/*.md
resolves: import its longest module prefix, then ``getattr`` the rest.
The one exception is the "removed" column of docs/API.md's
"Removed / changed in this release" table: a whole backticked dotted
name there must no longer be defined at that path (an import of
something defined elsewhere, like ``repro.api._facade_config``, is not
a definition).
"""

import importlib
import re
from pathlib import Path
from types import ModuleType

import pytest

ROOT = Path(__file__).resolve().parent.parent
DOCS = [ROOT / "README.md", ROOT / "DESIGN.md",
        *sorted((ROOT / "docs").glob("*.md"))]
NAME = re.compile(r"\brepro(?:\.[A-Za-z_]\w*)+")


def _resolve(dotted: str):
    """The object ``dotted`` names; ``LookupError`` when there is none."""
    parts = dotted.split(".")
    for i in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:i]))
        except ModuleNotFoundError:
            continue
        for attr in parts[i:]:
            try:
                obj = getattr(obj, attr)
            except AttributeError:
                raise LookupError(dotted) from None
        return obj
    raise LookupError(dotted)


def _defined_at(dotted: str) -> bool:
    """Whether ``dotted`` is where its object is defined."""
    try:
        obj = _resolve(dotted)
    except LookupError:
        return False
    if isinstance(obj, ModuleType):
        return obj.__name__ == dotted
    qualname = getattr(obj, "__qualname__", None)
    return qualname is None or f"{obj.__module__}.{qualname}" == dotted


def _removed_names() -> set[str]:
    """Whole backticked dotted names in the removed table's first column."""
    text = (ROOT / "docs" / "API.md").read_text()
    start = text.index("## Removed / changed in this release")
    section = text[start:text.index("\n## ", start)]
    names = set()
    for line in section.splitlines():
        if line.startswith("| ") and not line.startswith("| removed "):
            cell = line.split("|")[1]
            names.update(
                span for span in re.findall(r"`([^`]+)`", cell)
                if NAME.fullmatch(span)
            )
    return names


@pytest.mark.parametrize("doc", DOCS, ids=lambda p: p.name)
def test_named_objects_exist(doc):
    names = set(NAME.findall(doc.read_text())) - _removed_names()
    missing = []
    for name in sorted(names):
        try:
            _resolve(name)
        except LookupError:
            missing.append(name)
    assert not missing, f"{doc.name} names what does not exist: {missing}"


def test_removed_names_are_gone():
    removed = _removed_names()
    assert "repro.parallel.runtime" in removed
    still_defined = sorted(n for n in removed if _defined_at(n))
    assert not still_defined, f"listed as removed but defined: {still_defined}"
