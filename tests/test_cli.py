from __future__ import annotations

import contextlib
import errno
import io
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from conftest import CORPUS, golden_text
from mialib import dmts_ops, ia_ops, mia_ops, refinement
from mialib.cli import main
from mialib.frontend import parse, serialize
from mialib.model import restrict_reachable


@pytest.fixture()
def files(tmp_path):
    def copy(name: str) -> str:
        dst = tmp_path / name
        shutil.copy(CORPUS / name, dst)
        return str(dst)
    return copy


def write(tmp_path, name, text) -> str:
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return str(p)


# ---------------------------------------------------------------------------
# Exit code 0: holds / defined / compatible / success


def test_refine_blackhole_exit_0(files, tmp_path, capsys):
    bh = files("blackhole.ia")
    any_ia = write(tmp_path, "any.ia",
                   "ia Any { inputs: a; outputs: ; initial s; s -a-> t; }")
    assert main(["refine", bh, any_ia]) == 0
    assert "refinement holds" in capsys.readouterr().out
    assert main(["refine", bh, bh]) == 0


def test_refine_witness_output(files, capsys):
    bh = files("blackhole.ia")
    assert main(["refine", bh, bh, "--witness"]) == 0
    out = capsys.readouterr().out
    assert "b <= b" in out


def test_validate_exit_0(files, capsys):
    assert main(["validate", files("fig08_q.mia")]) == 0
    assert "valid mia" in capsys.readouterr().out


def test_conjoin_writes_output(files, tmp_path, capsys):
    out = tmp_path / "out.mia"
    assert main(["conjoin", files("fig06_p.mia"), files("fig06_q.mia"),
                 "-o", str(out)]) == 0
    parsed = parse(out.read_text(encoding="utf-8"))
    assert parsed.flavor == "mia"


def test_compose_exit_0_and_emits(files, capsys):
    code = main(["compose", files("fig08_p.mia"), files("fig08_q.mia"),
                 "--emit-product", "--emit-pruned-set"])
    assert code == 0
    out = capsys.readouterr().out
    assert "mia fig08_p_x_fig08_q {" in out      # the raw product
    assert "(p0,q1)" in out                       # the pruned set
    assert "error-(b)" in out
    assert "mia fig08_p_par_fig08_q {" in out     # the composition itself


def test_embed_and_dot(files, tmp_path, capsys):
    out = tmp_path / "e.mia"
    assert main(["embed", "--into", "mia", files("blackhole.ia"),
                 "-o", str(out)]) == 0
    assert parse(out.read_text(encoding="utf-8")).flavor == "mia"
    assert main(["embed", "--into", "dmts", files("blackhole.ia")]) == 0
    assert "u@B" in capsys.readouterr().out
    assert main(["dot", files("blackhole.ia")]) == 0
    assert "digraph" in capsys.readouterr().out


def test_equiv_exit_0(files):
    a = files("fig06_q.mia")
    assert main(["equiv", a, a]) == 0


def test_disjoin_reachable_flag(files, capsys):
    assert main(["disjoin", files("fig10_p.mia"), files("fig10_q.mia"),
                 "--reachable"]) == 0
    text = capsys.readouterr().out
    aut = parse(text)
    assert aut.initial.text == "p0|q0"


@pytest.mark.parametrize("left, right, conjoin", [
    ("fig01_p.ia", "fig01_q.ia", ia_ops.ia_conjoin),
    ("fig04_p.dmts", "fig04_q.dmts",
     lambda a, b: dmts_ops.dmts_conjoin(a, b).automaton),
    ("fig11_p.mia", "fig11_q.mia",
     lambda a, b: mia_ops.mia_conjoin(a, b).automaton),
], ids=["ia", "dmts", "mia"])
def test_conjoin_reachable_flag(left, right, conjoin, files, capsys):
    a, b = files(left), files(right)
    assert main(["conjoin", a, b, "--reachable"]) == 0
    reachable = capsys.readouterr().out
    assert main(["conjoin", a, b]) == 0
    full = capsys.readouterr().out
    expected = restrict_reachable(conjoin(parse(Path(a).read_text()),
                                          parse(Path(b).read_text())))
    assert reachable == serialize(expected)
    assert reachable != full


# ---------------------------------------------------------------------------
# Exit code 1: refinement or equivalence fails


def test_refine_fails_exit_1(files, tmp_path, capsys):
    impl = write(tmp_path, "impl.mia",
                 "mia I { inputs: ; outputs: o; initial s; }")
    spec = write(tmp_path, "spec.mia",
                 "mia S { inputs: ; outputs: o; initial t; "
                 "must t -o-> t; may t -o-> t; }")
    assert main(["refine", impl, spec]) == 1
    assert "clause (i)" in capsys.readouterr().err


def test_equiv_fails_exit_1(files, tmp_path):
    a = write(tmp_path, "a.mia", "mia A { inputs: ; outputs: o; initial s; }")
    b = write(tmp_path, "b.mia", "mia B { inputs: ; outputs: o; initial t; "
              "must t -o-> t; may t -o-> t; }")
    assert main(["equiv", a, b]) == 1


def test_equiv_builds_a_witness_only_where_one_is_printed(files, tmp_path,
                                                          capsys, monkeypatch):
    checkers = []  # one per witness run, i.e. per ``refines`` call
    witness = refinement._Checker.witness

    def counted(self):
        checkers.append(self.root)
        witness(self)

    monkeypatch.setattr(refinement._Checker, "witness", counted)
    a = files("fig08_p.mia")
    assert main(["equiv", a, a]) == 0
    assert capsys.readouterr() == ("equivalent\n", "")
    assert len(checkers) == 1

    checkers.clear()
    assert main(["equiv", files("fig02_p.ia"), files("fig02_q.ia")]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == [
        "fig02_p does not refine fig02_q: pair p1 <= q1 violates clause (i) "
        "on spec must q1 -j-> {q2}",
        "fig02_q does not refine fig02_p: pair q1 <= p1 violates clause (i) "
        "on spec must p1 -i-> {p2}"]
    assert len(checkers) == 2

    # the way there holds and the way back fails: its certificate is printed
    checkers.clear()
    must = write(tmp_path, "must.mia", "mia M { inputs: ; outputs: o; "
                 "initial t; must t -o-> t; may t -o-> t; }")
    may = write(tmp_path, "may.mia", "mia N { inputs: ; outputs: o; "
                "initial t; may t -o-> t; }")
    assert main(["equiv", must, may]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == [
        "N does not refine M: pair t <= t violates clause (i) "
        "on spec must t -o-> {t}"]
    assert len(checkers) == 2


def test_refine_with_states(files, tmp_path):
    spec = write(tmp_path, "s.mia", "mia S { inputs: ; outputs: o; initial t; "
                 "must t -o-> u; may t -o-> u; }")
    impl = write(tmp_path, "i.mia", "mia I { inputs: ; outputs: o; initial s; }")
    # from the dead spec state the dead impl refines
    assert main(["refine", impl, spec, "--spec-state", "u"]) == 0
    assert main(["refine", impl, spec, "--spec-state", "t"]) == 1


def test_refine_from_other_start_states(files, capsys):
    impl, spec = files("fig06_q.mia"), files("fig06_p.mia")
    assert main(["refine", impl, spec, "--impl-state", "q1", "--spec-state", "p1",
                 "--witness"]) == 0
    assert capsys.readouterr() == ("q1 <= p1\nq2 <= p1\nq2 <= p2\nrefinement holds\n", "")
    assert main(["refine", impl, spec, "--impl-state", "q1", "--spec-state", "p0"]) == 1
    assert capsys.readouterr() == (
        "", "refinement fails: pair q1 <= p0 violates clause (i) on spec must p0 -a-> {p1}\n")


# ---------------------------------------------------------------------------
# Exit code 2: usage, parse or validation errors


def test_parse_error_exit_2(tmp_path, capsys):
    bad = write(tmp_path, "bad.mia", "mia M { initial s; s -a-> t; }")
    assert main(["validate", bad]) == 2
    assert "may" in capsys.readouterr().err


def test_validation_error_exit_2(files, capsys):
    assert main(["validate", files("invalid_nondet.ia")]) == 2
    assert "ia-input-determinism" in capsys.readouterr().err


def test_violation_on_an_implied_may_has_its_must_position(files, capsys):
    # line 6 declares ``s -a-> t;``, the input must that implies the may
    path = files("invalid_nondet.ia")
    assert main(["validate", path]) == 2
    assert capsys.readouterr().err.startswith(
        f"{path}:6:3: [ia-input-determinism] s has 2 transitions on input a")


def test_violation_without_a_subject_has_no_position(tmp_path, capsys):
    path = write(tmp_path, "overlap.ia",
                 "ia M {\n  inputs: a;\n  outputs: a;\n  initial s;\n}\n")
    assert main(["validate", path]) == 2
    assert capsys.readouterr().err.startswith(
        f"{path}: [alphabet-disjoint] actions both input and output: ['a']")


def test_flavor_mismatch_exit_2(files, capsys):
    assert main(["conjoin", files("fig06_p.mia"), files("fig06_q.dmts")]) == 2
    assert "flavor mismatch" in capsys.readouterr().err


def test_missing_file_exit_2(tmp_path):
    assert main(["validate", str(tmp_path / "nope.ia")]) == 2


def test_undecodable_file_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.mia"
    bad.write_bytes(b"\xff\xfe")
    assert main(["validate", str(bad)]) == 2
    assert "not UTF-8" in capsys.readouterr().err


def test_deeply_nested_state_exit_2(tmp_path, capsys):
    deep = write(tmp_path, "deep.mia",
                 "mia M { initial " + "(" * 5000 + "s" + ")" * 5000 + "; }")
    assert main(["validate", deep]) == 2
    assert "nested deeper" in capsys.readouterr().err


def test_overlong_state_name_exit_2(tmp_path, capsys):
    chain = write(tmp_path, "chain.mia",
                  "mia M {\n  initial a" + "&a" * 8000 + ";\n}\n")
    assert main(["validate", chain]) == 2
    assert capsys.readouterr().err == (
        f"{chain}:2:412: state name built with more than 200 operators\n")


def test_unwritable_output_exit_2(files, tmp_path, capsys):
    assert main(["embed", "--into", "mia", files("fig01_p.ia"),
                 "-o", str(tmp_path)]) == 2
    assert str(tmp_path) in capsys.readouterr().err


class _FullStdout(io.StringIO):
    def write(self, text):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


@pytest.mark.parametrize("command", ["dot", "validate"])
def test_failed_stdout_write_exit_2(command, files, monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdout", _FullStdout())
    assert main([command, files("fig08_p.mia")]) == 2
    assert capsys.readouterr().err == f"<stdout>: {os.strerror(errno.ENOSPC)}\n"


class _CountingStdout(io.StringIO):
    """A stdout that counts the writes it is given."""

    writes = 0

    def write(self, text):
        self.writes += 1
        return super().write(text)


@pytest.mark.parametrize("argv, code", [
    (["compose", "refused_sender.mia", "refused_receiver.mia",
      "--emit-pruned-set"], 3),
    (["refine", "fig06_q.mia", "fig06_p.mia", "--witness"], 0),
])
def test_listings_are_written_once(argv, code, monkeypatch, capsys):
    command, *paths = argv
    args = [command] + [a if a.startswith("--") else str(CORPUS / a) for a in paths]
    stdout = _CountingStdout()
    monkeypatch.setattr(sys, "stdout", stdout)
    assert main(args) == code
    assert stdout.writes == 1 and stdout.getvalue().count("\n") > 2
    capsys.readouterr()
    monkeypatch.setattr(sys, "stdout", _FullStdout())
    assert main(args) == 2
    assert capsys.readouterr().err == f"<stdout>: {os.strerror(errno.ENOSPC)}\n"


def test_failed_stderr_write_keeps_exit_code(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stderr", _FullStdout())
    assert main(["validate", "no-such-file.mia"]) == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("argv", [["--help"], ["refine", "--help"]])
def test_failed_help_write_exit_2(argv, monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdout", _FullStdout())
    assert main(argv) == 2
    assert capsys.readouterr().err == f"<stdout>: {os.strerror(errno.ENOSPC)}\n"


class _FullStderr(io.StringIO):
    """A stderr that keeps every text it is given and then fails."""

    def write(self, text):
        super().write(text)
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


def test_failed_usage_error_write_is_not_a_stdout_error(monkeypatch, capsys):
    stderr = _FullStderr()
    monkeypatch.setattr(sys, "stderr", stderr)
    assert main(["--no-such-flag"]) == 2
    assert "mia: error: " in stderr.getvalue()
    assert "<stdout>" not in stderr.getvalue()
    assert capsys.readouterr().out == ""


def _cli_env(buffered: bool) -> dict[str, str]:
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src + os.pathsep
           + os.environ.get("PYTHONPATH", "")}
    env.pop("PYTHONUNBUFFERED", None)
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    return env


# A buffered stdout fails only at the flush and keeps its bytes; the
# interpreter's exit-time flush must not fail a second time.
@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("buffered", [True, False],
                         ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("command", ["dot", "validate"])
def test_stdout_to_a_full_device_exit_2(command, buffered, files):
    with open("/dev/full", "w") as full:
        run = subprocess.run([sys.executable, "-m", "mialib.cli", command,
                              files("fig08_p.mia")], stdout=full,
                             stderr=subprocess.PIPE, text=True,
                             env=_cli_env(buffered))
    assert run.returncode == 2
    assert run.stderr == f"<stdout>: {os.strerror(errno.ENOSPC)}\n"


# argparse drops a failed help write from Python 3.11 on; the CLI does not.
@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("buffered", [True, False],
                         ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", [["--help"], ["refine", "--help"]],
                         ids=["help", "refine-help"])
def test_help_to_a_full_device_exit_2(argv, buffered):
    with open("/dev/full", "w") as full:
        run = subprocess.run([sys.executable, "-m", "mialib.cli", *argv],
                             stdout=full, stderr=subprocess.PIPE, text=True,
                             env=_cli_env(buffered))
    assert run.returncode == 2
    assert run.stderr == f"<stdout>: {os.strerror(errno.ENOSPC)}\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("buffered", [True, False],
                         ids=["buffered", "unbuffered"])
def test_stdout_and_stderr_to_a_full_device_exit_2(buffered, files):
    with open("/dev/full", "w") as full:
        run = subprocess.run([sys.executable, "-m", "mialib.cli", "dot",
                              files("fig08_p.mia")], stdout=full,
                             stderr=full, env=_cli_env(buffered))
    assert run.returncode == 2


def test_unknown_subcommand_exit_2(capsys):
    assert main(["frobnicate"]) == 2


def test_compose_dmts_rejected(files):
    assert main(["compose", files("fig06_p.dmts"), files("fig06_q.dmts")]) == 2


def test_not_composable_exit_2(files, tmp_path, capsys):
    a = write(tmp_path, "a.mia", "mia A { inputs: x; outputs: ; initial s; }")
    b = write(tmp_path, "b.mia", "mia B { inputs: x; outputs: ; initial t; }")
    assert main(["compose", a, b]) == 2
    assert "shared action 'x'" in capsys.readouterr().err


def test_embed_non_ia_exit_2(files):
    assert main(["embed", "--into", "mia", files("fig06_p.mia")]) == 2


def test_refine_unknown_state_exit_2(files):
    bh = files("blackhole.ia")
    assert main(["refine", bh, bh, "--impl-state", "nope"]) == 2


def test_invalid_input_rejected_before_refine(files):
    bad = files("invalid_fig12_p.mia")
    good = files("fig12_q.mia")
    assert main(["refine", bad, good]) == 2


# ---------------------------------------------------------------------------
# Exit code 3: inconsistent conjunction / incompatible composition


def test_inconsistent_conjunction_exit_3(tmp_path, capsys):
    p = write(tmp_path, "p.mia", "mia P { inputs: ; outputs: o; initial s; "
              "must s -o-> t; may s -o-> t; }")
    q = write(tmp_path, "q.mia", "mia Q { inputs: ; outputs: o; initial u; }")
    assert main(["conjoin", p, q]) == 3
    assert "inconsistent" in capsys.readouterr().err


def test_incompatible_composition_exit_3(tmp_path, capsys):
    p = write(tmp_path, "p.mia", "mia P { inputs: ; outputs: a; initial s; "
              "may s -a-> s; }")
    q = write(tmp_path, "q.mia", "mia Q { inputs: a; outputs: ; initial t; }")
    assert main(["compose", p, q]) == 3
    assert "incompatible" in capsys.readouterr().err


def test_incompatible_still_emits_diagnostics(tmp_path, capsys):
    p = write(tmp_path, "p.mia", "mia P { inputs: ; outputs: a; initial s; "
              "may s -a-> s; }")
    q = write(tmp_path, "q.mia", "mia Q { inputs: a; outputs: ; initial t; }")
    assert main(["compose", p, q, "--emit-pruned-set"]) == 3
    out = capsys.readouterr().out
    assert "error-(a)" in out


def test_undefined_corpus_pairs_print_one_line(files, capsys):
    # The composition is refused three autonomous steps from its initial
    # pair; the conjunction is inconsistent at its initial pair through F3
    # alone.  Both are decided before their product is built.
    cases = [(["compose", files("refused_sender.mia"), files("refused_receiver.mia")],
              "automata are incompatible (initial state pruned)\n")]
    cases += [(["conjoin", files("conj_f3_p.mia"), files("conj_f3_q.mia"), *flag],
               "conjunction is inconsistent (no common implementation)\n")
              for flag in ([], ["--reachable"])]
    for argv, err in cases:
        assert main(argv) == 3
        assert capsys.readouterr() == ("", err)
    assert main(cases[0][0] + ["--emit-pruned-set"]) == 3
    assert capsys.readouterr() == (golden_text("cli/refused_compose_pruned.out"),
                                   cases[0][1])


@pytest.mark.parametrize("argv, golden", [
    (["conjoin", "golden/fig06_conj.mia", "fig06_q.mia"], "fig06_conj_and_q.out"),
    (["conjoin", "golden/fig06_conj.mia", "fig06_q.mia", "--reachable"],
     "fig06_conj_and_q_reachable.out"),
    (["disjoin", "golden/fig10_disj.mia", "fig10_q.mia", "--reachable"],
     "fig10_disj_or_q_reachable.out"),
])
def test_products_of_results_print_their_golden(argv, golden, capsys):
    # The left operand is an earlier result, whose state names hold the
    # operator's own character, so both operands are tagged apart.
    command, *paths = argv
    args = [command] + [a if a.startswith("--") else str(CORPUS / a) for a in paths]
    assert main(args) == 0
    assert capsys.readouterr() == (golden_text(f"cli/{golden}"), "")


@pytest.mark.parametrize("left, right, golden, err", [
    ("refused_sender.mia", "refused_receiver.mia", "refused_compose_product.out",
     "automata are incompatible (initial state pruned)\n"),
    ("fig08_p.mia", "fig08_q.mia", "fig08_compose_product.out", ""),
])
def test_compose_emits_its_golden_product(left, right, golden, err, capsys):
    # refused: the product a refused composition builds on from its
    # stopped walk; fig08: the product, then the pruned composition.
    argv = ["compose", str(CORPUS / left), str(CORPUS / right), "--emit-product"]
    assert main(argv) == (3 if err else 0)
    assert capsys.readouterr() == (golden_text(f"cli/{golden}"), err)


@pytest.mark.parametrize("path, golden", [
    ("golden/fig10_disj.mia", "fig10_disj_dot.out"),
    ("fig11_r.mia", "fig11_r_dot.out"),
])
def test_dot_prints_its_golden(path, golden, capsys):
    # fig10_disj: a disjunctive input must, input mays it covers, and ``|``
    # in state names; fig11_r: an output disjunctive must over its mays.
    assert main(["dot", str(CORPUS / path)]) == 0
    assert capsys.readouterr() == (golden_text(f"cli/{golden}"), "")


# ---------------------------------------------------------------------------
# Arbitrary bytes: never a traceback, never a verdict code


_CORPUS_BYTES = [path.read_bytes() for path in sorted(CORPUS.glob("*.*"))]


@st.composite
def _mutated_corpus_file(draw) -> bytes:
    data = draw(st.sampled_from(_CORPUS_BYTES))
    start = draw(st.integers(0, len(data)))
    cut = draw(st.integers(0, 16))
    return data[:start] + draw(st.binary(max_size=16)) + data[start + cut:]


# Every command on one file, or on the file twice: a self-refinement holds,
# a self-conjunction is consistent and a self-composition shares no matched
# action, so a readable file can only lead to 0 and an unreadable one to 2.
_COMMANDS = (["validate"], ["dot"], ["embed", "--into", "mia"],
             ["embed", "--into", "dmts"], ["refine", None], ["equiv", None],
             ["conjoin", None], ["disjoin", None], ["compose", None])


@settings(max_examples=150, deadline=None)
@given(st.one_of(st.binary(max_size=200), _mutated_corpus_file()))
def test_cli_on_arbitrary_bytes_exits_0_or_2(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input.mia"
        path.write_bytes(data)
        for command in _COMMANDS:
            argv = [str(path) if arg is None else arg for arg in command]
            argv.append(str(path))
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = main(argv)
            assert code in (0, 2), (argv[0], code)
