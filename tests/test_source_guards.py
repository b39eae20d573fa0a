"""Static guards over the source tree.

* Runs are built in one place: outside ``repro/engine/`` only the
  simulation service (and the few modules that cannot name a scenario)
  import the engine classes; everything else compiles a
  :class:`~repro.scenario.ScenarioSpec` and runs it through the service.
* Nothing is defined that nothing uses: every function, method and class
  under ``src/repro`` must be named somewhere besides its definition.
"""

from __future__ import annotations

import ast
import functools
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"

ENGINE_CLASSES = {"FluidEngine", "DESEngine"}

#: Modules outside ``repro/engine/`` allowed to name the engine classes:
#: the service builds every scenario's engine; the package root
#: re-exports them; the scale-out builder and the advisor construct
#: platforms (and, for the advisor, calibrations) no scenario name
#: describes.
ENGINE_IMPORTERS = {
    "service.py",
    "__init__.py",
    "experiments/exp_scaleout.py",
    "analysis/advisor.py",
}

#: Where a definition may be used.
USE_DIRS = ("src", "tests", "perfbench", "examples", "benchmarks", ".github")

#: Definitions reached by name at run time, not by a word in the source:
#: the server's request handlers (``dispatch`` looks up ``_req_<type>``)
#: and the ``http.server`` handler overrides.
DYNAMIC_PREFIXES = ("_req_",)
DYNAMIC_NAMES = {"do_GET", "log_message"}


@functools.cache
def _modules() -> tuple[tuple[str, ast.AST], ...]:
    return tuple(
        (path.relative_to(PACKAGE).as_posix(), ast.parse(path.read_text(encoding="utf-8")))
        for path in sorted(PACKAGE.rglob("*.py"))
    )


def _names_engine_class(tree: ast.AST) -> bool:
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if any(alias.name in ENGINE_CLASSES for alias in node.names):
                return True
        elif isinstance(node, ast.Attribute) and node.attr in ENGINE_CLASSES:
            return True
    return False


def test_only_the_service_builds_engines():
    importers = {
        name
        for name, tree in _modules()
        if not name.startswith("engine/") and _names_engine_class(tree)
    }
    assert importers <= ENGINE_IMPORTERS, sorted(importers - ENGINE_IMPORTERS)


def _word_counts() -> Counter:
    words: Counter = Counter()
    this_file = Path(__file__).resolve()
    for top in USE_DIRS:
        for path in (ROOT / top).rglob("*"):
            if not path.is_file() or "__pycache__" in path.parts or path.resolve() == this_file:
                continue
            try:
                text = path.read_text(encoding="utf-8")
            except (UnicodeDecodeError, OSError):
                continue
            words.update(re.findall(r"\w+", text))
    return words


def test_every_definition_has_a_use():
    definitions: Counter = Counter()
    where: dict[str, str] = {}
    for name, tree in _modules():
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            ident = node.name
            if ident.startswith("__") and ident.endswith("__"):
                continue
            if ident in DYNAMIC_NAMES or ident.startswith(DYNAMIC_PREFIXES):
                continue
            definitions[ident] += 1
            where.setdefault(ident, f"{name}:{node.lineno}")
    words = _word_counts()
    unused = sorted(
        f"{ident} ({where[ident]})"
        for ident, count in definitions.items()
        if words[ident] <= count
    )
    assert not unused, "defined but never used: " + ", ".join(unused)
