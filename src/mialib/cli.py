"""Command line interface.

Exit codes: 0 when a check holds or an operation succeeds, 1 when a
refinement or equivalence query fails, 2 for usage, parse or validation
errors and for output that cannot be written, 3 when a conjunction is
inconsistent or a composition incompatible.

A command runs with cyclic garbage collection switched off (see
:func:`main`); the library itself never touches the collector.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import os
import sys
from pathlib import Path

from . import dmts_ops, embeddings, ia_ops, mia_ops
from .frontend import (ParseError, export_dot, parse_document, serialize,
                       validate_document)
from .model import DMTS, IA, MIA, MialibError, ModalAutomaton
from .refinement import holds, refines

OK = 0
CHECK_FAILED = 1
USAGE = 2
UNDEFINED = 3


class _CliError(Exception):
    def __init__(self, message: str, code: int = USAGE):
        super().__init__(message)
        self.code = code


def _err(text: str, end: str = "\n") -> None:
    try:
        print(text, file=sys.stderr, end=end)
    except OSError:  # nowhere left to report it
        _discard(sys.stderr)


def _discard(stream) -> None:
    """Point *stream* at the null device, so the flush at exit cannot fail."""
    with contextlib.suppress(AttributeError, OSError, ValueError):
        fd = stream.fileno()  # an in-process capture has none
        null = os.open(os.devnull, os.O_WRONLY)
        os.dup2(null, fd)
        os.close(null)


def _load_valid(path: str) -> ModalAutomaton:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise _CliError(f"{path}: {exc.strerror or exc}")
    except UnicodeDecodeError as exc:
        raise _CliError(f"{path}: not UTF-8 text: byte {exc.start} "
                        f"({exc.object[exc.start]:#04x}) {exc.reason}")
    try:
        doc = parse_document(text)
    except ParseError as exc:
        raise _CliError(f"{path}:{exc.line}:{exc.col}: {exc.message}")
    problems = validate_document(doc)
    if problems:
        lines = []
        for violation, span in problems:
            where = f"{path}:{span[0]}:{span[1]}: " if span else f"{path}: "
            lines.append(where + str(violation))
        raise _CliError("\n".join(lines))
    return doc.automaton


def _emit(text: str, out: str | None) -> None:
    if out:
        try:
            Path(out).write_text(text, encoding="utf-8")
        except OSError as exc:
            raise _CliError(f"{out}: {exc.strerror or exc}")
    else:
        sys.stdout.write(text)


def _load_two(left: str, right: str) -> tuple[ModalAutomaton, ModalAutomaton, str]:
    """Both operands, valid and of one flavor, and that flavor."""
    a = _load_valid(left)
    b = _load_valid(right)
    if a.flavor != b.flavor:
        raise _CliError(f"flavor mismatch: {a.name} is {a.flavor}, {b.name} is {b.flavor}")
    return a, b, a.flavor


def _find_state(aut: ModalAutomaton, text: str | None):
    if text is None:
        return aut.initial
    for state in aut.states:
        if state.text == text:
            return state
    raise _CliError(f"no state named {text!r} in {aut.name}")


def _cmd_validate(args) -> int:
    aut = _load_valid(args.file)
    print(f"{args.file}: valid {aut.flavor} ({len(aut.states)} states)")
    return OK


def _cmd_refine(args) -> int:
    impl, spec, _ = _load_two(args.impl, args.spec)
    witness = refines(impl, spec,
                      _find_state(impl, args.impl_state),
                      _find_state(spec, args.spec_state))
    if witness.verdict:
        pairs = sorted(witness.pairs) if args.witness else ()
        sys.stdout.write("".join([f"{p.text} <= {q.text}\n" for p, q in pairs])
                         + "refinement holds\n")
        return OK
    _err(f"refinement fails: {witness.failure}")
    return CHECK_FAILED


def _cmd_conjoin(args) -> int:
    a, b, flavor = _load_two(args.left, args.right)
    if flavor == IA:
        result = ia_ops.ia_conjoin(a, b, reachable=args.reachable)
    else:
        op = {DMTS: dmts_ops.dmts_conjoin, MIA: mia_ops.mia_conjoin}[flavor]
        conj = op(a, b, reachable=args.reachable)
        if not conj.defined:
            _err("conjunction is inconsistent (no common implementation)")
            return UNDEFINED
        result = conj.automaton
    _emit(serialize(result), args.output)
    return OK


def _cmd_disjoin(args) -> int:
    a, b, flavor = _load_two(args.left, args.right)
    op = {IA: ia_ops.ia_disjoin, DMTS: dmts_ops.dmts_disjoin,
          MIA: mia_ops.mia_disjoin}[flavor]
    _emit(serialize(op(a, b, reachable=args.reachable)), args.output)
    return OK


def _cmd_compose(args) -> int:
    a, b, flavor = _load_two(args.left, args.right)
    if flavor == DMTS:
        raise _CliError("parallel composition is not defined for dmts")
    op = ia_ops.ia_parallel_compose if flavor == IA else mia_ops.mia_parallel_compose
    comp = op(a, b)
    if args.emit_product:
        sys.stdout.write(serialize(comp.product))
    if args.emit_pruned_set:
        incompat = comp.incompatibility
        sys.stdout.write("".join([f"{state.text}  [{rule}: {detail}]\n"
                                  for state in sorted(incompat.incompatible)
                                  for rule, detail in [incompat.provenance[state]]]))
    if not comp.compatible:
        _err("automata are incompatible (initial state pruned)")
        return UNDEFINED
    _emit(serialize(comp.automaton), args.output)
    return OK


def _cmd_embed(args) -> int:
    a = _load_valid(args.file)
    if a.flavor != IA:
        raise _CliError(f"embed expects an ia automaton, got {a.flavor}")
    embed = {DMTS: embeddings.embed_ia_to_dmts, MIA: embeddings.embed_ia_to_mia}
    _emit(serialize(embed[args.into](a)), args.output)
    return OK


def _cmd_dot(args) -> int:
    a = _load_valid(args.file)
    _emit(export_dot(a), args.output)
    return OK


def _cmd_equiv(args) -> int:
    a, b, _ = _load_two(args.left, args.right)
    forward = refines(a, b)
    # the way back needs its certificate only if it fails
    if forward.verdict and holds(b, a):
        print("equivalent")
        return OK
    backward = refines(b, a)
    if not forward.verdict:
        _err(f"{a.name} does not refine {b.name}: {forward.failure}")
    if not backward.verdict:
        _err(f"{b.name} does not refine {a.name}: {backward.failure}")
    return CHECK_FAILED


class _Parser(argparse.ArgumentParser):
    """Help and usage on stdout fail like any other stdout write (argparse
    drops the error from Python 3.11 on); text for stderr goes to :func:`_err`."""

    def _print_message(self, message, file=None):
        if file is sys.stdout:
            file.write(message)
        elif message:
            _err(message, end="")


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command line parser, built once per process on first use.

    Each subcommand stores only its name; :func:`_run` looks its handler
    up when the command runs.
    """
    parser = _Parser(
        prog="mia",
        description="Interface automata and modal interface automata toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help, *positionals):
        p = sub.add_parser(name, help=help)
        for arg in positionals:
            p.add_argument(arg)
        return p

    command("validate", "check a file against its flavor rules", "file")

    p = command("refine", "check refinement IMPL <= SPEC", "impl", "spec")
    p.add_argument("--impl-state")
    p.add_argument("--spec-state")
    p.add_argument("--witness", action="store_true",
                   help="print the relation pairs on success")

    for name in ("conjoin", "disjoin"):
        p = command(name, f"{name} two automata of one flavor",
                    "left", "right")
        p.add_argument("-o", "--output")
        p.add_argument("--reachable", action="store_true",
                       help="drop states unreachable from the initial state")

    p = command("compose", "parallel composition with pruning",
                "left", "right")
    p.add_argument("-o", "--output")
    p.add_argument("--emit-product", action="store_true",
                   help="print the unpruned product to stdout")
    p.add_argument("--emit-pruned-set", action="store_true",
                   help="print the incompatible states with provenance")

    p = command("embed", "embed an ia into dmts or mia")
    p.add_argument("--into", choices=(DMTS, MIA), required=True)
    p.add_argument("file")
    p.add_argument("-o", "--output")

    p = command("dot", "export Graphviz", "file")
    p.add_argument("-o", "--output")
    command("equiv", "check mutual refinement", "left", "right")
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command with cyclic GC off; the caller's GC setting returns.

    A command allocates millions of tuples and state ids that never form
    cycles, so the collector would scan them for nothing.  The little
    cyclic garbage a command leaves (what argparse's parsing leaves) is
    collected once GC is back on.  The parser itself is built once per
    process and kept, so it is not garbage; a ``mia`` process runs one
    command and builds it once either way, so this spares only callers
    that run many commands in one process.

    Standard output is flushed before returning, so a failed write to it
    (a full disk, a closed pipe) is one error line and exit code 2. It is the
    only ``OSError`` to get here: :func:`_err` and the file errors never do.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        code = _run(argv)
        sys.stdout.flush()
        return code
    except OSError as exc:
        _discard(sys.stdout)
        _err(f"<stdout>: {exc.strerror or exc}")
        return USAGE
    finally:
        if enabled:
            gc.enable()


def _run(argv: list[str] | None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return USAGE if exc.code else OK
    try:
        return globals()[f"_cmd_{args.command}"](args)
    except _CliError as exc:
        _err(str(exc))
        return exc.code
    except MialibError as exc:
        _err(str(exc))
        return USAGE


if __name__ == "__main__":
    sys.exit(main())
