"""Command line interface.

Exit codes: 0 when a check holds or an operation succeeds, 1 when a
refinement or equivalence query fails, 2 for usage, parse or validation
errors, 3 when a conjunction is inconsistent or a composition incompatible.

A command runs with cyclic garbage collection switched off (see
:func:`main`); the library itself never touches the collector.
"""

from __future__ import annotations

import argparse
import gc
import sys
from pathlib import Path

from . import dmts_ops, embeddings, ia_ops, mia_ops
from .frontend import (ParseError, SourceDocument, export_dot, parse_document,
                       serialize, validate_document)
from .model import (DMTS, IA, MIA, MialibError, ModalAutomaton,
                    restrict_reachable)
from .refinement import refines

OK = 0
CHECK_FAILED = 1
USAGE = 2
UNDEFINED = 3


class _CliError(Exception):
    def __init__(self, message: str, code: int = USAGE):
        super().__init__(message)
        self.code = code


def _load(path: str) -> SourceDocument:
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
    return doc


def _load_valid(path: str) -> ModalAutomaton:
    doc = _load(path)
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


def _same_flavor(a: ModalAutomaton, b: ModalAutomaton) -> str:
    if a.flavor != b.flavor:
        raise _CliError(f"flavor mismatch: {a.name} is {a.flavor}, {b.name} is {b.flavor}")
    return a.flavor


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
    impl = _load_valid(args.impl)
    spec = _load_valid(args.spec)
    _same_flavor(impl, spec)
    witness = refines(impl, spec,
                      _find_state(impl, args.impl_state),
                      _find_state(spec, args.spec_state))
    if witness.verdict:
        if args.witness:
            for p, q in sorted(witness.pairs):
                print(f"{p.text} <= {q.text}")
        print("refinement holds")
        return OK
    print(f"refinement fails: {witness.failure}", file=sys.stderr)
    return CHECK_FAILED


def _cmd_conjoin(args) -> int:
    a = _load_valid(args.left)
    b = _load_valid(args.right)
    flavor = _same_flavor(a, b)
    if flavor == IA:
        result = ia_ops.ia_conjoin(a, b)
    else:
        op = {DMTS: dmts_ops.dmts_conjoin, MIA: mia_ops.mia_conjoin}[flavor]
        conj = op(a, b)
        if not conj.defined:
            print("conjunction is inconsistent (no common implementation)",
                  file=sys.stderr)
            return UNDEFINED
        result = conj.automaton
    if args.reachable:
        result = restrict_reachable(result)
    _emit(serialize(result), args.output)
    return OK


def _cmd_disjoin(args) -> int:
    a = _load_valid(args.left)
    b = _load_valid(args.right)
    flavor = _same_flavor(a, b)
    op = {IA: ia_ops.ia_disjoin, DMTS: dmts_ops.dmts_disjoin,
          MIA: mia_ops.mia_disjoin}[flavor]
    result = op(a, b)
    if args.reachable:
        result = restrict_reachable(result)
    _emit(serialize(result), args.output)
    return OK


def _cmd_compose(args) -> int:
    a = _load_valid(args.left)
    b = _load_valid(args.right)
    flavor = _same_flavor(a, b)
    if flavor == DMTS:
        raise _CliError("parallel composition is not defined for dmts")
    op = ia_ops.ia_parallel_compose if flavor == IA else mia_ops.mia_parallel_compose
    comp = op(a, b)
    if args.emit_product:
        sys.stdout.write(serialize(comp.product))
    if args.emit_pruned_set:
        for state in sorted(comp.incompatibility.incompatible):
            rule, detail = comp.incompatibility.provenance[state]
            print(f"{state.text}  [{rule}: {detail}]")
    if not comp.compatible:
        print("automata are incompatible (initial state pruned)", file=sys.stderr)
        return UNDEFINED
    _emit(serialize(comp.automaton), args.output)
    return OK


def _cmd_embed(args) -> int:
    a = _load_valid(args.file)
    if a.flavor != IA:
        raise _CliError(f"embed expects an ia automaton, got {a.flavor}")
    if args.into == DMTS:
        result = embeddings.embed_ia_to_dmts(a)
    else:
        result = embeddings.embed_ia_to_mia(a)
    _emit(serialize(result), args.output)
    return OK


def _cmd_dot(args) -> int:
    a = _load_valid(args.file)
    _emit(export_dot(a), args.output)
    return OK


def _cmd_equiv(args) -> int:
    a = _load_valid(args.left)
    b = _load_valid(args.right)
    _same_flavor(a, b)
    forward = refines(a, b)
    backward = refines(b, a)
    if forward.verdict and backward.verdict:
        print("equivalent")
        return OK
    if not forward.verdict:
        print(f"{a.name} does not refine {b.name}: {forward.failure}",
              file=sys.stderr)
    if not backward.verdict:
        print(f"{b.name} does not refine {a.name}: {backward.failure}",
              file=sys.stderr)
    return CHECK_FAILED


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mia",
        description="Interface automata and modal interface automata toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a file against its flavor rules")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_validate)

    p = sub.add_parser("refine", help="check refinement IMPL <= SPEC")
    p.add_argument("impl")
    p.add_argument("spec")
    p.add_argument("--impl-state")
    p.add_argument("--spec-state")
    p.add_argument("--witness", action="store_true",
                   help="print the relation pairs on success")
    p.set_defaults(fn=_cmd_refine)

    for name, fn in (("conjoin", _cmd_conjoin), ("disjoin", _cmd_disjoin)):
        p = sub.add_parser(name, help=f"{name} two automata of one flavor")
        p.add_argument("left")
        p.add_argument("right")
        p.add_argument("-o", "--output")
        p.add_argument("--reachable", action="store_true",
                       help="drop states unreachable from the initial state")
        p.set_defaults(fn=fn)

    p = sub.add_parser("compose", help="parallel composition with pruning")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("-o", "--output")
    p.add_argument("--emit-product", action="store_true",
                   help="print the unpruned product to stdout")
    p.add_argument("--emit-pruned-set", action="store_true",
                   help="print the incompatible states with provenance")
    p.set_defaults(fn=_cmd_compose)

    p = sub.add_parser("embed", help="embed an ia into dmts or mia")
    p.add_argument("--into", choices=(DMTS, MIA), required=True)
    p.add_argument("file")
    p.add_argument("-o", "--output")
    p.set_defaults(fn=_cmd_embed)

    p = sub.add_parser("dot", help="export Graphviz")
    p.add_argument("file")
    p.add_argument("-o", "--output")
    p.set_defaults(fn=_cmd_dot)

    p = sub.add_parser("equiv", help="check mutual refinement")
    p.add_argument("left")
    p.add_argument("right")
    p.set_defaults(fn=_cmd_equiv)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command with cyclic GC off; the caller's GC setting returns.

    A command allocates millions of tuples and state ids that never form
    cycles, so the collector would scan them for nothing; the little cyclic
    garbage a command leaves (argparse's) is collected once GC is back on.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _run(argv)
    finally:
        if enabled:
            gc.enable()


def _run(argv: list[str] | None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE if exc.code else OK
    try:
        return args.fn(args)
    except _CliError as exc:
        print(str(exc), file=sys.stderr)
        return exc.code
    except MialibError as exc:
        print(str(exc), file=sys.stderr)
        return USAGE


if __name__ == "__main__":
    sys.exit(main())
