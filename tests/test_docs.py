"""Docs cannot name code that is gone.

Every dotted ``repro.…`` name in README.md, DESIGN.md and docs/*.md
resolves: import its longest module prefix, then ``getattr`` the rest.
The one exception is the "removed" column of docs/API.md's
"Removed / changed in this release" table: a whole backticked dotted
name there must no longer be defined at that path (an import of
something defined elsewhere, like ``repro.api._facade_config``, is not
a definition).

In a fenced python block of README.md or docs/*.md, every name a
``from repro… import`` line brings in resolves, and so does every
attribute path read off such a name (``ExecutionOptions.workers``).

Every backticked repo-relative path in README.md and DESIGN.md (one
beginning ``examples/``, ``tests/``, ``benchmarks/`` or ``src/``) exists;
a ``::`` test id after it is ignored and a glob must match a file.

Outside that table, every ``--flag`` in an inline code span is accepted
by the ``repro`` parser or one of its subcommands (a span that names
another program — a ``.py`` script, ``pytest`` — is that program's),
and docs/API.md's ``ExecutionOptions`` table names exactly the fields of
the dataclass.  In fenced blocks, with backslash continuations joined,
every ``--flag`` of a ``repro …`` or ``python -m repro.cli …`` command
is accepted by ``repro`` or by the subcommand the command names.

docs/OBSERVABILITY.md's metrics table, its ``{a,b}`` brace groups
expanded, names exactly the series ``run_metrics`` emits for a pooled
run with a spill budget, and its span table names exactly the spans
whose ``span("…")`` literals appear under ``src/``.

EXPERIMENTS.md has exactly one generated block per section of
``benchmarks/paper.py`` and none for a section it lacks (checked
without running a sweep).
"""

import importlib
import importlib.util
import re
from pathlib import Path
from types import ModuleType

import pytest

ROOT = Path(__file__).resolve().parent.parent
DOCS = [ROOT / "README.md", ROOT / "DESIGN.md",
        *sorted((ROOT / "docs").glob("*.md"))]
NAME = re.compile(r"\brepro(?:\.[A-Za-z_]\w*)+")
REMOVED_TABLE = "## Removed / changed in this release"
FENCE = re.compile(r"^```.*?^```", re.S | re.M)
SPAN = re.compile(r"`([^`]+)`")
FLAG = re.compile(r"(?<![\w-])--[a-z][\w-]*")
OTHER_PROGRAM = re.compile(r"\.py\b|\bpytest\b")
#: a ``repro`` command in a fenced block (continuations joined): the
#: arguments after ``repro`` or ``python -m repro.cli``
COMMAND = re.compile(
    r"(?:^|[\s`$(])(?:python3? -m repro\.cli|repro)((?:[ \t]+[^\s`;&|)]+)*)",
    re.M,
)
PATH = re.compile(r"`((?:examples|tests|benchmarks|src)/[^`:\s]*)")
PYTHON_FENCE = re.compile(r"^```py(?:thon)?\n(.*?)^```", re.S | re.M)
#: ``from repro.x import a, b as c`` (parenthesized lists included)
FROM_IMPORT = re.compile(
    r"^\s*from\s+(repro(?:\.\w+)*)\s+import\s+(\([^)]*\)|[^\n]+)", re.M
)


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
    start = text.index(REMOVED_TABLE)
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


def _python_block_names(text: str) -> set[str]:
    """The dotted ``repro`` names the fenced python blocks import, and
    each attribute path they read off an imported name."""
    names = set()
    for block in PYTHON_FENCE.findall(text):
        for module, imported in FROM_IMPORT.findall(block):
            for item in imported.strip("()").split(","):
                name, _, alias = item.strip().partition(" as ")
                if not name:
                    continue
                names.add(f"{module}.{name}")
                for attrs in re.findall(
                    rf"(?<![\w.]){alias or name}((?:\.[A-Za-z_]\w*)+)", block
                ):
                    names.add(f"{module}.{name}{attrs}")
    return names


@pytest.mark.parametrize(
    "doc", [ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md"))],
    ids=lambda p: p.name,
)
def test_python_blocks_import_what_exists(doc):
    missing = []
    for name in sorted(_python_block_names(doc.read_text())):
        try:
            _resolve(name)
        except LookupError:
            missing.append(name)
    assert not missing, f"{doc.name} python blocks import what is gone: {missing}"


def test_removed_names_are_gone():
    removed = _removed_names()
    assert "repro.parallel.runtime" in removed
    still_defined = sorted(n for n in removed if _defined_at(n))
    assert not still_defined, f"listed as removed but defined: {still_defined}"


@pytest.mark.parametrize("doc", [ROOT / "README.md", ROOT / "DESIGN.md"],
                         ids=lambda p: p.name)
def test_named_paths_exist(doc):
    missing = sorted(
        path for path in set(PATH.findall(doc.read_text()))
        if not any(ROOT.glob(path))
    )
    assert not missing, f"{doc.name} names files that are gone: {missing}"


def _repro_flags() -> set[str]:
    """Every option string of ``repro`` and of each subcommand."""
    import argparse

    from repro.cli import build_parser

    parser = build_parser()
    flags = set(parser._option_string_actions)
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                flags.update(sub._option_string_actions)
    return flags


def _outside_removed_table(doc: Path) -> str:
    text = doc.read_text()
    if REMOVED_TABLE in text:
        start = text.index(REMOVED_TABLE)
        text = text[:start] + text[text.index("\n## ", start):]
    return text


@pytest.mark.parametrize("doc", DOCS, ids=lambda p: p.name)
def test_named_flags_are_accepted(doc):
    known = _repro_flags()
    text = FENCE.sub("", _outside_removed_table(doc))
    unknown = sorted({
        flag
        for span in SPAN.findall(text) if not OTHER_PROGRAM.search(span)
        for flag in FLAG.findall(span) if flag not in known
    })
    assert not unknown, f"{doc.name} names flags repro rejects: {unknown}"


def _subcommand_flags() -> dict[str | None, set[str]]:
    """Per subcommand (``None``: the bare ``repro``), the option strings
    a command line naming it accepts: its own and ``repro``'s."""
    import argparse

    from repro.cli import build_parser

    parser = build_parser()
    top = set(parser._option_string_actions)
    accepted: dict[str | None, set[str]] = {None: top}
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                accepted[name] = top | set(sub._option_string_actions)
    return accepted


@pytest.mark.parametrize("doc", DOCS, ids=lambda p: p.name)
def test_fenced_commands_take_their_flags(doc):
    accepted = _subcommand_flags()
    wrong = set()
    for block in FENCE.findall(doc.read_text()):
        for args in COMMAND.findall(block.replace("\\\n", " ")):
            words = args.split()
            sub = next((w for w in words if not w.startswith("-")), None)
            known = accepted.get(sub, accepted[None])
            wrong.update(
                f"{sub or 'repro'} {flag}"
                for word in words for flag in FLAG.findall(word)
                if flag not in known
            )
    assert not wrong, f"{doc.name} commands take no such flags: {sorted(wrong)}"


def test_options_table_names_the_fields():
    import dataclasses

    from repro.core.options import ExecutionOptions

    text = (ROOT / "docs" / "API.md").read_text()
    start = text.index("| field | default | meaning |")
    rows = text[start:text.index("\n\n", start)].splitlines()[2:]
    named = [re.match(r"\| `(\w+)` \|", row).group(1) for row in rows]
    fields = [f.name for f in dataclasses.fields(ExecutionOptions)]
    assert named == fields


def _expand_braces(name: str) -> list[str]:
    """``compute.{build,pack}_seconds`` -> one name per alternative."""
    group = re.search(r"\{([^{}]*)\}", name)
    if group is None:
        return [name]
    return [
        expanded
        for alternative in group.group(1).split(",")
        for expanded in _expand_braces(
            name[:group.start()] + alternative + name[group.end():]
        )
    ]


@pytest.mark.slow
def test_metrics_table_names_the_series():
    from repro import ExecutionOptions, compute
    from repro.data import gaussian_bumps_field

    text = (ROOT / "docs" / "OBSERVABILITY.md").read_text()
    start = text.index("| metric | kind | meaning |")
    rows = text[start:text.index("\n\n", start)].splitlines()[2:]
    documented = {
        name
        for row in rows
        for span in SPAN.findall(row.split("|")[1])
        for name in _expand_braces(span)
    }
    result = compute(
        gaussian_bumps_field((9, 9, 9), 2, seed=1), persistence=0.05,
        ranks=2,
        options=ExecutionOptions(workers=2, merge_spill_budget_bytes=0),
    )
    emitted = set(result.stats.metrics)
    assert sorted(documented - emitted) == [], "documented, not emitted"
    assert sorted(emitted - documented) == [], "emitted, not documented"


#: the first argument of a ``span(...)`` call, a plain string literal
SPAN_CALL = re.compile(r"\.span\(\s*\"([^\"]+)\"")


def test_span_names_are_emitted():
    text = (ROOT / "docs" / "OBSERVABILITY.md").read_text()
    start = text.index("| span | emitted by | arguments |")
    rows = text[start:text.index("\n\n", start)].splitlines()[2:]
    documented = {SPAN.search(row.split("|")[1]).group(1) for row in rows}
    emitted = {
        name
        for path in (ROOT / "src").rglob("*.py")
        for name in SPAN_CALL.findall(path.read_text())
    }
    assert sorted(documented - emitted) == [], "documented, not emitted"
    assert sorted(emitted - documented) == [], "emitted, not documented"


def test_experiments_blocks_are_the_paper_sections():
    spec = importlib.util.spec_from_file_location(
        "paper", ROOT / "benchmarks" / "paper.py"
    )
    paper = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(paper)
    text = (ROOT / "EXPERIMENTS.md").read_text()
    named = [m.group(2) for m in paper.BLOCK.finditer(text)]
    assert text.count("<!-- begin paper.py:") == len(named), "unclosed block"
    assert sorted(named) == sorted(paper.SECTIONS)
