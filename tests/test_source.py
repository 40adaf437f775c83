"""Checks on the package source itself."""

import ast
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


def test_import_does_not_load_the_chow_ring():
    # the rational Chow ring is only the tests' oracle: importing the
    # package and its command line must not load it, and its names are
    # reached through flopk.chow alone
    code = (
        "import sys, flopk, flopk.cli\n"
        "loaded = 'flopk.chow' in sys.modules\n"
        "import flopk.chow\n"
        "sys.exit(loaded or hasattr(flopk, 'chern_character') or not flopk.chow.chern_character)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(flopk.__file__).parent.parent))
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)
