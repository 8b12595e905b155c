"""The reference semantics (``tests/reference/``) shares no code with
what it checks: an oracle built on the code generator or the operators
would agree with their bugs."""

import ast
from pathlib import Path

REFERENCE = Path(__file__).parent / "reference"
FORBIDDEN = ("repro.gsql.codegen", "repro.operators")


def imported_modules(path):
    """Every module ``path`` imports, ``from a import b`` as both ``a``
    and ``a.b`` (``b`` may be a submodule)."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield node.module
            yield from (f"{node.module}.{alias.name}" for alias in node.names)


def test_reference_imports_neither_codegen_nor_operators():
    sources = sorted(REFERENCE.glob("*.py"))
    assert REFERENCE / "evaluator.py" in sources
    for path in sources:
        for module in imported_modules(path):
            assert not any(module == banned or module.startswith(banned + ".")
                           for banned in FORBIDDEN), (path.name, module)


def test_the_check_sees_both_import_forms(tmp_path):
    source = tmp_path / "probe.py"
    source.write_text("import repro.operators.lfta\n"
                      "from repro.gsql import codegen\n")
    assert {"repro.operators.lfta", "repro.gsql.codegen"} <= set(
        imported_modules(source))
