"""The reference semantics (``tests/reference/``) shares no code with
what it checks: an oracle built on the code generator or the operators
would agree with their bugs.  The one engine object it touches is the
direct-mapped table a test hands it, through the per-key ``upsert``
that is the table's definition.  And no test builds an oracle by
subclassing the engine."""

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


#: engine classes no test may subclass: an oracle built by overriding
#: the engine shares everything it does not override
NEVER_SUBCLASSED = {"ExprCompiler", "AggregationNode", "DirectMappedTable"}


def _base_names(node):
    for base in node.bases:
        if isinstance(base, ast.Name):
            yield base.id
        elif isinstance(base, ast.Attribute):
            yield base.attr


def _pins_only_the_form(node):
    """A class body of a docstring, plain class attributes and a
    ``prefers_lean`` property: an LFTA pinned to one form of its loop."""
    for statement in node.body:
        if isinstance(statement, (ast.Assign, ast.AnnAssign)):
            continue
        if (isinstance(statement, ast.Expr)
                and isinstance(statement.value, ast.Constant)):
            continue
        if (isinstance(statement, ast.FunctionDef)
                and statement.name == "prefers_lean"):
            continue
        return False
    return True


def twins(path):
    """``(class, why)`` for each class in ``path`` that subclasses an
    engine class it may not, or ``LftaNode`` for more than its form."""
    lfta_classes = {"LftaNode"}
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if not isinstance(node, ast.ClassDef):
            continue
        bases = set(_base_names(node))
        if bases & NEVER_SUBCLASSED:
            yield node.name, sorted(bases & NEVER_SUBCLASSED)[0]
        elif bases & lfta_classes:
            lfta_classes.add(node.name)
            if not _pins_only_the_form(node):
                yield node.name, "LftaNode"


def test_no_test_subclasses_the_engine():
    """A frozen twin of the compiler, the aggregation or the table does
    not come back: tests hold the engine to ``tests/reference``."""
    found = [(path.name, *twin)
             for path in sorted(REFERENCE.parent.rglob("*.py"))
             for twin in twins(path)]
    assert found == []


def test_the_guard_sees_a_twin(tmp_path):
    source = tmp_path / "probe.py"
    source.write_text(
        "class Pinned(LftaNode):\n"
        "    lean = True\n"
        "    @property\n"
        "    def prefers_lean(self):\n"
        "        return self.lean\n"
        "class Leaner(Pinned):\n"
        "    '''pinned too'''\n"
        "class Twin(Pinned):\n"
        "    def accept_batch(self, packets):\n"
        "        pass\n"
        "class Compiler(codegen.ExprCompiler):\n"
        "    pass\n")
    assert list(twins(source)) == [("Twin", "LftaNode"),
                                   ("Compiler", "ExprCompiler")]
