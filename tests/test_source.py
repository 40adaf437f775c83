"""Checks on the package source itself."""

import ast
import inspect
import os
import subprocess
import sys
from pathlib import Path

import flopk

SOURCES = sorted(Path(flopk.__file__).parent.glob("*.py"))


def test_sources_found():
    assert len(SOURCES) >= 10


def test_no_assert_statements():
    # python -O strips assert statements, so every check must raise
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_no_source_imports_dataclasses():
    # dataclasses imports inspect, ast, dis and tokenize; the package's
    # values are partitions.Record and NamedTuple instead
    found = [
        path.name
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if (isinstance(node, ast.Import) and any(a.name == "dataclasses" for a in node.names))
        or (isinstance(node, ast.ImportFrom) and node.module == "dataclasses")
    ]
    assert found == []


def test_import_does_not_load_the_chow_ring():
    # the rational Chow ring is only the tests' oracle: importing the
    # package and its command line must load neither it nor fractions,
    # and its names are reached through flopk.chow alone
    code = (
        "import sys, flopk, flopk.cli\n"
        "loaded = 'flopk.chow' in sys.modules or 'fractions' in sys.modules\n"
        "import flopk.chow\n"
        "sys.exit(loaded or hasattr(flopk, 'chern_character') or not flopk.chow.chern_character)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(flopk.__file__).parent.parent))
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)


def test_only_tautological_ch_is_imported_from_chow():
    # module chow is the one home of the Chern character: elsewhere in the
    # package only TautClass.ch reaches into it, for tautological_ch
    found = []
    for path in SOURCES:
        if path.name == "chow.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom):
                names = tuple(alias.name for alias in node.names)
                if node.module in ("chow", "flopk.chow"):
                    found.append((path.name, names))
                elif node.module in (None, "flopk") and "chow" in names:
                    found.append((path.name, ("chow",)))
            elif isinstance(node, ast.Import):
                found += [(path.name, (a.name,)) for a in node.names if a.name == "flopk.chow"]
    assert found == [("kgroup.py", ("tautological_ch",))]


def test_package_root_holds_only_modules():
    # every name lives in its module: the package root re-exports nothing
    code = (
        "import sys, types, flopk\n"
        "public = [n for n, v in vars(flopk).items()\n"
        "          if not n.startswith('_') and not isinstance(v, types.ModuleType)]\n"
        "sys.exit(str(public) if public else 0)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(flopk.__file__).parent.parent))
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)


def test_test_only_oracles_stay_out_of_the_package():
    # these live in tests/oracles.py, or are gone; no package code calls them
    from flopk import acceptance, bott, flopgeom, kgroup

    moved = {
        bott: ("weyl_dimension", "gaussian_binomial", "exterior_cotangent_decomposition"),
        flopgeom: ("is_indeterminate", "determinantal_membership"),
        acceptance: ("_brute_force_lr", "_count_fillings"),
    }
    back = [
        f"{m.__name__}.{name}" for m, names in moved.items() for name in names if hasattr(m, name)
    ]
    assert back == []
    assert "__str__" not in vars(kgroup.KVector)


def test_second_routes_stay_out_of_the_package():
    # word -> permutation is read off apply_word; the transposition
    # product, the composition and positional action of permutations, the
    # part-wise complement and the matrix-vector product live in
    # tests/oracles.py, and the tests spell out the identity permutation,
    # a permutation's value and a weight's h; classes multiply as weights
    # in kgroup._multiply, with no product of basis pairs and no table of
    # them; the flop matrix is the compound of an h x h matrix, and the
    # twist by O(1) on the whole basis, its walk and the complement
    # indices are the oracles'
    from flopk import bott, kgroup, partitions, weyl

    gone = {
        weyl.Permutation: ("adjacent", "h", "apply", "identity", "__call__", "__mul__"),
        bott.Weight: ("h",),
        partitions.BoxShape: ("complement",),
        kgroup.IntegerMatrix: ("apply",),
        kgroup.TautClass: ("__neg__",),
        kgroup: ("_product", "_products", "schur_twist", "_apply_twist", "_apply_dense_twist",
                 "_complement_indices"),
    }
    back = [f"{cls.__name__}.{name}" for cls, names in gone.items() for name in names
            if name in vars(cls)]
    assert back == []


def test_flop_engine_names_have_one_home():
    # kgroup reaches the flop engine only as flop.<name>, so a monkeypatch
    # of flop reaches every caller: kgroup binds no name that flop defines,
    # under that name or another
    from flopk import flop, kgroup

    tree = ast.parse(Path(flop.__file__).read_text())
    defined = {node.name for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    assert {"_column", "_flop_rows", "flop_certificate", "CertificateError"} <= defined
    bound = [name for name, value in vars(kgroup).items()
             if name in defined or getattr(value, "__module__", None) == flop.__name__]
    assert bound == []


def test_strict_int_rule_is_written_once():
    # partitions.require_ints is the one type check on integers; every
    # other strict-integer check calls it, so "is not int" is written there
    # and nowhere else in the package
    found = [
        (path.name, number)
        for path in SOURCES
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if "is not int" in line
    ]
    partitions = next(path for path in SOURCES if path.name == "partitions.py")
    guard = next(node for node in ast.parse(partitions.read_text()).body
                 if isinstance(node, ast.FunctionDef) and node.name == "require_ints")
    assert len(found) == 1
    name, number = found[0]
    assert name == "partitions.py" and guard.lineno < number <= guard.end_lineno


def test_classes_are_built_only_from_atoms():
    # TautClass() is the zero class and takes no raw terms, so every atom
    # of a class was made, and checked, by one of the five atom
    # constructors, and no branch is left for an atom of unknown kind
    from flopk import kgroup

    assert list(inspect.signature(kgroup.TautClass.__init__).parameters) == ["self"]
    assert [path.name for path in SOURCES if "unknown atom" in path.read_text()] == []
