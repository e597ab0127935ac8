"""Command-line interface.

Exit status contract: 0 = success/verified, 1 = checked-false (not GBH, no
equivalence, empty search), 2 = usage error, malformed input, exhausted
search budget or memory. Reports are stable key: value text for diffing.
"""

from __future__ import annotations

import argparse
import functools
import sys

from . import catalog, fileio, gbh, jacket, ring as ringmod, transform
from .matrix import MatrixError, star, within_limit
from .ring import RingError


def parse_ring_spec(text):
    """rationals | cyclotomic:w | gf:p | gf:p:c0,c1,c2 | complex[:tol]"""
    name, _, rest = text.partition(":")
    if name == "rationals":
        return ringmod.rationals()
    if name == "cyclotomic":
        return ringmod.cyclotomic(within_limit(int(rest), "cyclotomic w"))
    if name == "gf":
        p, _, poly = rest.partition(":")
        if poly:
            coeffs = tuple(int(c) for c in poly.split(","))
            return ringmod.quadratic_field(int(p), coeffs)
        return ringmod.prime_field(int(p))
    if name == "complex":
        return ringmod.complex_ring(float(rest)) if rest else ringmod.complex_ring()
    raise RingError(f"unknown ring spec {text!r}")


def _cmd_gen(args):
    ring = parse_ring_spec(args.ring) if args.ring else None
    M = catalog.from_token(args.token, ring)
    fileio.save_matrix(M, args.output)
    print(f"token: {args.token}")
    print(f"order: {M.order}")
    print(f"ring: {M.ring!r}")
    return 0


def _cmd_verify(args):
    M = fileio.load_matrix(args.matrix)
    report = gbh.verify_gbh(M)
    print(report.to_text())
    return 0 if report.is_gbh else 1


def _cmd_width(args):
    M = fileio.load_matrix(args.matrix)
    report = jacket.jacket_width(M)
    print(report.to_text())
    return 0


def _cmd_equiv(args):
    A = fileio.load_matrix(args.matrix_a)
    B = fileio.load_matrix(args.matrix_b)
    if args.normalize:
        from .matrix import normalize

        A = normalize(A)[0]
        B = normalize(B)[0]
    try:
        found = jacket.perm_equivalent(A, B, node_budget=args.budget)
    except jacket.SearchBudgetExceeded as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 2
    if found is None:
        print("equivalent: false")
        return 1
    rowp, colp = found
    print("equivalent: true")
    print(f"row-witness: {list(rowp.image)}")
    print(f"col-witness: {list(colp.image)}")
    return 0


def _cmd_apply(args, inverse=False):
    M = fileio.load_matrix(args.matrix)
    x = fileio.load_signal(args.signal)
    if inverse:
        tree, y = transform._route(star(M)), transform.ight(M, x)
    elif args.fast:
        tree, (y, count) = M.as_tree(), transform.fast_apply(M.as_tree(), x)
        print(f"multiplications: {count.mul}")
        print(f"additions: {count.add}")
    else:
        tree, y = transform._route(M), transform.ght(M, x)
    fileio.save_signal(y, args.output)
    print(f"length: {y.length}")
    print(f"method: {'tree-walk' if len(tree.leaves()) > 1 else 'table'}")
    return 0


def _cmd_seqsearch(args):
    found = catalog.search_perfect_quadriphase(args.length)
    total = 4 ** (args.length - 1)
    print(f"length: {args.length}")
    print(f"candidates: {total}")
    print(f"perfect-count: {len(found)}")
    for s in found:
        print("sequence: " + "".join(str(p) for p in s.phases))
    return 0 if found else 1


def _cmd_enumerate2x2(args):
    within_limit(args.group_order, "group order")
    ring = (
        parse_ring_spec(args.ring)
        if args.ring
        else ringmod.cyclotomic(args.group_order)
    )
    found = catalog.enumerate_jackets_2x2(ring, args.group_order)
    print(f"group-order: {args.group_order}")
    print(f"count: {len(found)}")
    for M in found:
        for i in range(M.order):
            print("row: " + " ".join(repr(M.entry(i, j)) for j in range(M.order)))
    return 0


@functools.cache
def build_parser():
    """The argument parser, built once per process; parse_args leaves it as it was."""
    p = argparse.ArgumentParser(
        prog="ght",
        description="Generalised Hadamard transforms and jacket matrix tools",
    )
    sub = p.add_subparsers(dest="verb", required=True)

    g = sub.add_parser("gen", help="write a catalog matrix to a file")
    g.add_argument("token", help=f"one of: {catalog.CATALOG_TOKENS}")
    g.add_argument("-o", "--output", required=True)
    g.add_argument("--ring", help="override the token's natural ring")
    g.set_defaults(func=_cmd_gen)

    g = sub.add_parser(
        "verify", help="GBH check on a matrix file: its factor tree's leaves, or M M*"
    )
    g.add_argument("matrix")
    g.set_defaults(func=_cmd_verify)

    g = sub.add_parser("width", help="jacket width report for a matrix file")
    g.add_argument("matrix")
    g.set_defaults(func=_cmd_width)

    g = sub.add_parser("equiv", help="search for a permutation equivalence")
    g.add_argument("matrix_a")
    g.add_argument("matrix_b")
    g.add_argument("--normalize", action="store_true")
    g.add_argument("--budget", type=int, default=10_000_000)
    g.set_defaults(func=_cmd_equiv)

    g = sub.add_parser("apply", help="forward transform of a signal file")
    g.add_argument("matrix")
    g.add_argument("signal")
    g.add_argument("-o", "--output", required=True)
    g.add_argument("--fast", action="store_true", help="use the factor tree")
    g.set_defaults(func=_cmd_apply)

    g = sub.add_parser("invert", help="inverse transform of a signal file")
    g.add_argument("matrix")
    g.add_argument("signal")
    g.add_argument("-o", "--output", required=True)
    g.set_defaults(func=lambda a: _cmd_apply(a, inverse=True))

    g = sub.add_parser("seqsearch", help="perfect quadriphase sequence search")
    g.add_argument("length", type=int)
    g.set_defaults(func=_cmd_seqsearch)

    g = sub.add_parser(
        "enumerate2x2", help="exhaust 2x2 jacket matrices over a root group"
    )
    g.add_argument("--group-order", type=int, required=True)
    g.add_argument("--ring")
    g.set_defaults(func=_cmd_enumerate2x2)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as ex:
        return 2 if ex.code not in (0, None) else 0
    try:
        return args.func(args)
    except (RingError, MatrixError, OSError, ValueError, MemoryError) as ex:
        print(f"error: {str(ex) or type(ex).__name__}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
