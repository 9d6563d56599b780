"""The package's public surface: every exported name resolves, every
module-level name is read or exported, the import stays light, and no
value of a checked type skips its constructor."""

import ast
import copy
import os
import pickle
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import nestprohibitor
from nestprohibitor.ledger import LedgerError, OrientationLedger
from nestprohibitor.orevkov import OrevkovError, OrevkovTerms
from nestprohibitor.rules import VIOLATED, Evidence, RuleVerdict
from nestprohibitor.schemes import (
    MINUS,
    PLUS,
    ComplexType,
    CurveType,
    Jump,
    NestScheme,
    RealScheme,
    SchemeInvariantError,
)


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from nestprohibitor import *", namespace)
    for name in nestprohibitor.__all__:
        assert namespace[name] is getattr(nestprohibitor, name)


def _references(node: ast.AST) -> Counter:
    """The names `node` reads, as bare names or as attributes."""
    names = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and not isinstance(sub.ctx, ast.Store):
            names[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            names[sub.attr] += 1
    return names


def _unreferenced_module_names() -> list[str]:
    """The module-level functions, classes and variables of the package that
    no code in it reads, outside their own definition, and that `__all__`
    does not export."""
    package = Path(nestprohibitor.__file__).parent
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(package.glob("*.py"))}
    read = sum((_references(tree) for tree in trees.values()), Counter())
    unreferenced = []
    for module, tree in trees.items():
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                defined = [stmt.name]
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                defined = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            own = _references(stmt)
            for name in defined:
                exported = name in nestprohibitor.__all__ or name.startswith("__")
                if not exported and read[name] == own[name]:
                    unreferenced.append(f"{module}.{name}")
    return unreferenced


def test_every_module_level_name_is_read_or_exported():
    assert _unreferenced_module_names() == []


def _modules_the_import_adds(module: str = "nestprohibitor") -> list[str]:
    # Only what the import adds counts: the interpreter may load any module
    # at start-up (a site hook, say).
    script = (
        "import sys\n"
        "before = set(sys.modules)\n"
        f"import {module}\n"
        "print(' '.join(sorted(set(sys.modules) - before)))\n"
    )
    src = os.path.dirname(os.path.dirname(nestprohibitor.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    return subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    ).stdout.split()


def test_import_loads_no_dataclass_machinery():
    out = _modules_the_import_adds()
    assert "nestprohibitor.engine" in out
    assert {"dataclasses", "inspect", "copy"}.isdisjoint(out), out


def test_import_loads_no_rendering_module():
    # the tables are rendered on demand, by `tables` alone; the engine keeps
    # table 21's rows and the table numbers the CLI offers
    for module in ("nestprohibitor", "nestprohibitor.cli"):
        out = _modules_the_import_adds(module)
        assert "nestprohibitor.engine" in out
        assert "nestprohibitor.figures" not in out, (module, out)


_JUMPED = CurveType(
    (
        ComplexType(NestScheme(PLUS, 1, 1), "d"),
        ComplexType(NestScheme(MINUS, 0, 1), "s"),
        ComplexType(NestScheme(PLUS, 0, 2), "n"),
    ),
    Jump((1, 1, 1)),
)
_LEDGER = OrientationLedger(
    (1, 0, 0, 0, 1, 1, 1), (1, 1, 1, -1, -1, -1), 16, 12, 0, 0, (1, 0, 0, 0, 1, 1, 1)
)

# Each checked type: a valid value, the fields of an invalid one, and the
# constructor's error for them.
CHECKED = [
    (RealScheme((2, 2, 20), 1), ((1, 1, 1), 1), SchemeInvariantError),
    (NestScheme(PLUS, 1, 1), (PLUS, 3, 0), SchemeInvariantError),
    (ComplexType(NestScheme(PLUS, 1, 1), "d"), (NestScheme(PLUS, 1, 1), "s"), SchemeInvariantError),
    (Jump((1, 2, 1), True), ((1, 1, 1), 0), SchemeInvariantError),
    (_JUMPED, (_JUMPED.nests, None), SchemeInvariantError),
    (_LEDGER, (_LEDGER.lam, (1, 1, 1, -1, -1, 0), *_LEDGER[2:]), LedgerError),
    (OrevkovTerms(-1, 0, 1, 0), (0, 0, 1, 1), OrevkovError),
    (RuleVerdict("rm", VIOLATED, Evidence({"residual": 2})), ("rm", VIOLATED, None), ValueError),
]
IDS = [type(valid).__name__ for valid, _, _ in CHECKED]
COPIES = {
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "pickle": lambda value: pickle.loads(pickle.dumps(value)),
}


def _derived(value) -> dict:
    """The fields a constructor sets beside the tuple, if any."""
    return dict(getattr(value, "__dict__", {}))


class TestCheckedConstructors:
    @pytest.mark.parametrize("valid, invalid, error", CHECKED, ids=IDS)
    def test_make_and_replace_check(self, valid, invalid, error):
        cls = type(valid)
        assert cls._make(tuple(valid)) == valid and cls._make(valid) == valid
        assert valid._replace() == valid
        with pytest.raises(error):
            cls._make(invalid)
        with pytest.raises(error):
            valid._replace(**dict(zip(cls._fields, invalid)))

    @pytest.mark.parametrize("how", COPIES)
    @pytest.mark.parametrize("valid, invalid, error", CHECKED, ids=IDS)
    def test_copies_are_rebuilt_by_the_constructor(self, valid, invalid, error, how):
        cls = type(valid)
        derived = _derived(valid)
        # a copy of a value whose derived fields were overwritten gets its own
        tampered = tuple.__new__(cls, valid)
        for name in derived:
            object.__setattr__(tampered, name, None)
        for value in (valid, tampered):
            copied = COPIES[how](value)
            assert type(copied) is cls and copied == valid and copied is not valid
            assert _derived(copied) == derived
        with pytest.raises(error):
            COPIES[how](tuple.__new__(cls, invalid))

    @pytest.mark.parametrize("valid, invalid, error", CHECKED, ids=IDS)
    def test_values_are_immutable(self, valid, invalid, error):
        with pytest.raises(AttributeError):
            setattr(valid, type(valid)._fields[0], invalid[0])
        with pytest.raises(AttributeError):
            valid.extra = 1
        for name in _derived(valid):
            with pytest.raises(AttributeError):
                setattr(valid, name, None)
