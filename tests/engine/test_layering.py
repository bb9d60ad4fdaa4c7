"""The engine resolves names by itself: no module under
``src/repro/engine`` imports :mod:`repro.analysis`.  The sanitizer
``Database(sanitize=True)`` attaches comes through
``Database.sanitizer_hook``, which the analysis side installs.

The binder (:mod:`repro.engine.plan.bind`) is the one resolver;
``repro.analysis.semantic`` is a report over its findings, so the
dependency runs from the analysis down to the engine, never back up.
"""

import ast
import pathlib

import repro.engine

ENGINE = pathlib.Path(repro.engine.__file__).parent

#: ``(file relative to the engine package, imported module)``.
ALLOWED: set[tuple[str, str]] = set()


def analysis_imports(root: pathlib.Path, package: str) -> set[tuple[str, str]]:
    """Every ``repro.analysis`` import under ``root`` (the directory of
    ``package``), relative imports resolved."""
    found = set()
    for path in sorted(root.rglob("*.py")):
        relative = path.relative_to(root)
        # The package a relative import in this file starts from.
        here = [*package.split("."), *relative.parent.parts]
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                base = here[: len(here) - node.level + 1] if node.level else []
                modules = [".".join([*base, *filter(None, [node.module])])]
            else:
                continue
            for module in modules:
                if module == "repro.analysis" or module.startswith("repro.analysis."):
                    found.add((relative.as_posix(), module))
    return found


def test_the_engine_imports_no_analysis_module_to_bind():
    assert analysis_imports(ENGINE, "repro.engine") - ALLOWED == set()


def test_the_scan_sees_relative_and_absolute_imports(tmp_path):
    (tmp_path / "plan").mkdir()
    (tmp_path / "database.py").write_text(
        "def prepare():\n    from ..analysis.semantic import analyze_statement\n"
    )
    (tmp_path / "plan" / "bind.py").write_text("import repro.analysis.findings\n")
    (tmp_path / "plan" / "logical.py").write_text("from ..sql import ast\n")
    assert analysis_imports(tmp_path, "repro.engine") == {
        ("database.py", "repro.analysis.semantic"),
        ("plan/bind.py", "repro.analysis.findings"),
    }
