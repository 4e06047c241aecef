"""Cyclic GC state around a command: off inside ``cli.main``, the caller's
setting restored on every way out, and left alone by the library."""

from __future__ import annotations

import ast
import gc
import shutil
from pathlib import Path

import pytest

import mialib
from conftest import CORPUS
from mialib import cli
from mialib.model import NotComposableError

SOURCES = sorted(Path(mialib.__file__).parent.glob("*.py"))


@pytest.fixture()
def gc_setting():
    """Run with GC on, and put back whatever the test found."""
    enabled = gc.isenabled()
    gc.enable()
    yield
    if enabled:
        gc.enable()
    else:
        gc.disable()


@pytest.fixture()
def corpus_file(tmp_path):
    def copy(name: str) -> str:
        shutil.copy(CORPUS / name, tmp_path / name)
        return str(tmp_path / name)
    return copy


def _write(tmp_path, name: str, text: str) -> str:
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def _argv(code: int, corpus_file, tmp_path) -> list[str]:
    """A command line that exits with ``code``."""
    if code == 0:
        return ["validate", corpus_file("fig08_p.mia")]
    if code == 1:
        one = _write(tmp_path, "one.ia", "ia One { inputs: a; outputs: ; initial s; s -a-> t; }")
        return ["refine", one, corpus_file("blackhole.ia")]
    if code == 2:
        return ["validate", corpus_file("invalid_nondet.ia")]
    a = _write(tmp_path, "a.mia", "mia A { inputs: ; outputs: o; initial s; "
               "must s -o-> s; may s -o-> s; }")
    b = _write(tmp_path, "b.mia", "mia B { inputs: ; outputs: o; initial t; }")
    return ["conjoin", a, b]


@pytest.mark.parametrize("code", [0, 1, 2, 3])
@pytest.mark.parametrize("caller_gc", [True, False])
def test_main_restores_the_callers_gc_setting(code, caller_gc, gc_setting,
                                               corpus_file, tmp_path, capsys):
    argv = _argv(code, corpus_file, tmp_path)
    if not caller_gc:
        gc.disable()
    assert cli.main(argv) == code
    assert gc.isenabled() is caller_gc


@pytest.mark.parametrize("argv", [["--help"], ["frobnicate"], []])
@pytest.mark.parametrize("caller_gc", [True, False])
def test_gc_restored_after_an_argparse_exit(argv, caller_gc, gc_setting, capsys):
    if not caller_gc:
        gc.disable()
    assert cli.main(argv) == (0 if argv == ["--help"] else 2)
    assert gc.isenabled() is caller_gc


def _raise(error: Exception):
    def command(args):
        raise error
    return command


@pytest.mark.parametrize("caller_gc", [True, False])
def test_gc_restored_after_a_library_error(caller_gc, gc_setting, monkeypatch,
                                           corpus_file, capsys):
    # the handler is looked up when the command runs, so it picks up the patch
    monkeypatch.setattr(cli, "_cmd_validate", _raise(NotComposableError("x")))
    if not caller_gc:
        gc.disable()
    assert cli.main(["validate", corpus_file("fig08_p.mia")]) == 2
    assert "shared action 'x'" in capsys.readouterr().err
    assert gc.isenabled() is caller_gc


@pytest.mark.parametrize("caller_gc", [True, False])
def test_gc_restored_after_an_unexpected_exception(caller_gc, gc_setting,
                                                   monkeypatch, corpus_file):
    monkeypatch.setattr(cli, "_cmd_validate", _raise(KeyError("boom")))
    if not caller_gc:
        gc.disable()
    with pytest.raises(KeyError):
        cli.main(["validate", corpus_file("fig08_p.mia")])
    assert gc.isenabled() is caller_gc


def test_a_command_runs_with_gc_off(gc_setting, monkeypatch, corpus_file):
    seen = []

    def record(args):
        seen.append(gc.isenabled())
        return cli.OK
    monkeypatch.setattr(cli, "_cmd_validate", record)
    assert cli.main(["validate", corpus_file("fig08_p.mia")]) == 0
    assert seen == [False]
    assert gc.isenabled()


def test_only_the_cli_imports_gc():
    importers = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = []
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                names = [node.module]
            if any(name.split(".")[0] == "gc" for name in names):
                importers.append(path.name)
    assert Path(mialib.__file__).parent / "cli.py" in SOURCES
    assert sorted(set(importers)) == ["cli.py"]
