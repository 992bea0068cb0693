"""Command-line front end.

Subcommands: kernelize, solve, verify, gen.  Exit codes: 0 success/yes,
1 no/verify-fail, 2 format error, 3 precondition error, 4 internal error
(a failed consistency check, which is a bug; `verify` reports a trace
that fails one as FAIL with exit 1 instead), 5 resource limit (valid
input too large to finish, such as a kernel beyond the exact oracle's
size guard whose target its bounds leave open, or a run that runs out of
memory, reported as `resource limit: out of memory`), 141 (128 + SIGPIPE)
when stdout closes before the output is written, as in
`mist kernelize ... | head -1`.
"""

from __future__ import annotations

import argparse
import os
import sys

from .fileformats import (
    FormatError,
    parse_edge_list,
    serialize_edge_list,
    trace_from_json,
    trace_to_json,
    verify_trace,
)
from .generate import FAMILIES, generate
from .graph import (
    InvariantError,
    PreconditionError,
    ResourceLimitError,
    internal_count,
)
from .kernelizer import kernelize
from .oracle import decide_pist

EXIT_OK = 0
EXIT_NO = 1
EXIT_FORMAT = 2
EXIT_PRECONDITION = 3
EXIT_INTERNAL = 4
EXIT_RESOURCE = 5
EXIT_PIPE = 141  # 128 + SIGPIPE, what a shell reports for a writer killed by it


def _read(path: str) -> str:
    # utf-8-sig drops the byte-order mark some editors write at the start
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise FormatError(f"cannot read {path}: {exc}") from None


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise FormatError(f"cannot write {path}: {exc}") from None


def _print_tree(tree) -> None:
    for u, v in sorted(tree.edges):
        print(f"e {u} {v}")


def cmd_kernelize(args) -> int:
    g = parse_edge_list(_read(args.infile))
    result = kernelize(g, args.k)
    if args.out_trace:
        _write(args.out_trace, trace_to_json(result, args.k))
    if result.outcome == "kernel":
        if args.out_graph:
            _write(args.out_graph, serialize_edge_list(result.graph))
        print(f"KERNEL {result.graph.n} {result.graph.m} {result.k_prime}")
    elif result.outcome == "solved":
        print(f"SOLVED {internal_count(result.witness)}")
        _print_tree(result.witness)
    else:
        print("TRIVIAL-NO")
        print(f"no: {result.reason}", file=sys.stderr)
    return EXIT_OK


def cmd_solve(args) -> int:
    g = parse_edge_list(_read(args.infile))
    yes, witness = decide_pist(g, args.k)
    if yes:
        print("YES")
        _print_tree(witness)
        return EXIT_OK
    print("NO")
    return EXIT_NO


def cmd_verify(args) -> int:
    g = parse_edge_list(_read(args.graph))
    meta, records = trace_from_json(_read(args.trace))
    kernel = parse_edge_list(_read(args.kernel))
    try:
        verify_trace(g, meta, records, kernel)
    except InvariantError as exc:
        print(f"FAIL {exc}")
        return EXIT_NO
    print("OK")
    return EXIT_OK


def cmd_gen(args) -> int:
    try:
        g = generate(args.family, args.n, m=args.m, seed=args.seed)
    except PreconditionError as exc:
        # inadmissible generator parameters count as a format error
        raise FormatError(str(exc)) from None
    sys.stdout.write(serialize_edge_list(g))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mist",
        description="Kernelize and solve internal-spanning-tree instances.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("kernelize", help="reduce an instance to a small kernel")
    p.add_argument("--in", dest="infile", required=True, help="edge-list file")
    p.add_argument("--k", type=int, required=True, help="target internal count")
    p.add_argument("--out-graph", help="path for the kernel graph")
    p.add_argument("--out-trace", help="path for the reduction trace (JSON)")
    p.set_defaults(func=cmd_kernelize)

    p = sub.add_parser("solve", help="decide the instance (kernel + exact solve)")
    p.add_argument("--in", dest="infile", required=True, help="edge-list file")
    p.add_argument("--k", type=int, required=True, help="target internal count")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("verify", help="replay a trace and check the kernel")
    p.add_argument("--graph", required=True, help="original edge-list file")
    p.add_argument("--trace", required=True, help="trace JSON file")
    p.add_argument("--kernel", required=True, help="kernel edge-list file")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("gen", help="generate a seeded connected instance")
    p.add_argument("--family", required=True, choices=FAMILIES)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_gen)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except FormatError as exc:
        print(f"format error: {exc}", file=sys.stderr)
        return EXIT_FORMAT
    except PreconditionError as exc:
        print(f"precondition error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except InvariantError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except MemoryError:
        # Report after the handler: until it ends, the exception's traceback
        # keeps the failed call's frames, and the data they hold, alive.
        pass
    except BrokenPipeError:
        # The reader has gone.  Point stdout at devnull, so that flushing
        # what is still buffered at interpreter exit fails quietly.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_PIPE
    print("resource limit: out of memory", file=sys.stderr)
    return EXIT_RESOURCE


if __name__ == "__main__":
    sys.exit(main())
