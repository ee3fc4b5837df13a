"""Command-line interface.

Exit codes: 0 on success, 1 when a verification or expected equality fails,
2 on usage errors, 3 when a request exceeds the active size cap.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys

from . import bijections, catalog
from .distribution import (
    DEFAULT_MAX_N,
    CapExceededError,
    avoidance_sequence,
    bell,
    catalan,
    distribution,
    effective_cap,
    first_divergence,
    joint_distribution,
    scan_symmetric_pairs,
    stirling_first_kind,
)
from .mesh import count_occurrences, parse_pattern, pattern_literal
from .perms import Perm, format_perm, is_perm, parse_perm

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_USAGE = 2
EXIT_CAP = 3


def _pattern_arg(text: str):
    try:
        return parse_pattern(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _perm_arg(text: str):
    try:
        return parse_perm(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and shared by every
    later :func:`main` call in the process."""
    parser = argparse.ArgumentParser(prog="meshperm", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dist", help="occurrence-count distribution of a pattern over S_n")
    p.add_argument("--pattern", type=_pattern_arg, required=True, help='literal like "123|0/0,0/1"')
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=_cmd_dist, n_arg="n")

    p = sub.add_parser("joint", help="joint distribution of two patterns over S_n")
    p.add_argument("--pattern", type=_pattern_arg, required=True)
    p.add_argument("--pattern2", type=_pattern_arg, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=_cmd_joint, n_arg="n")

    p = sub.add_parser("avoid", help="avoidance counts for n = 0..max_n")
    p.add_argument("--pattern", type=_pattern_arg, required=True)
    p.add_argument("--max-n", type=int, required=True)
    p.set_defaults(func=_cmd_avoid, n_arg="max_n")

    p = sub.add_parser("check-pair", help="search for the first size where a pair's distributions differ")
    p.add_argument("--pair-id", type=int)
    p.add_argument("--pattern", type=_pattern_arg)
    p.add_argument("--pattern2", type=_pattern_arg)
    p.add_argument("--max-n", type=int, required=True)
    p.add_argument("--expect-equal", action="store_true", help="exit 1 if the pair diverges")
    p.set_defaults(func=_cmd_check_pair, n_arg="max_n")

    p = sub.add_parser("scan", help="scan all 1024 inverse-symmetric shadings of length 3")
    p.add_argument("--max-n", type=int, default=DEFAULT_MAX_N)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--long", action="store_true", help="confirm a long run (n >= 9)")
    p.add_argument("--out", help="write the JSON-lines report here instead of stdout")
    p.set_defaults(func=_cmd_scan, n_arg="max_n")

    p = sub.add_parser("apply", help="apply a catalog entry's bijection to a permutation")
    p.add_argument("--pair-id", type=int, required=True)
    p.add_argument("--perm", type=_perm_arg, required=True, help='comma-separated, like "3,1,2"')
    p.set_defaults(func=_cmd_apply, n_arg=None)

    p = sub.add_parser("verify", help="exhaustively verify a catalog entry's bijection on S_n")
    p.add_argument("--pair-id", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=_cmd_verify, n_arg="n")

    p = sub.add_parser("catalog-validate", help="check the shipped catalog's structure")
    p.set_defaults(func=_cmd_catalog_validate, n_arg=None)

    p = sub.add_parser("sequences", help="print a reference sequence")
    p.add_argument("--name", choices=("catalan", "bell", "stirling1"), required=True)
    p.add_argument("--max-n", type=int, required=True)
    p.set_defaults(func=_cmd_sequences, n_arg="max_n")

    return parser


class _UsageError(Exception):
    """A usage error found after parsing; :func:`main` reports it through the parser."""


def _catalog_entry(pair_id: int, *, with_family: bool = False) -> catalog.CatalogEntry:
    """Catalog entry ``pair_id``; with ``with_family`` it must carry a bijection."""
    try:
        entry = catalog.entry_by_id(pair_id)
    except KeyError as exc:
        raise _UsageError(str(exc)) from None
    if with_family and entry.family is None:
        raise _UsageError(f"catalog entry {entry.id} has status {entry.status} and no bijection")
    return entry


def _cmd_dist(args) -> int:
    table = distribution(args.pattern, args.n)
    if args.format == "json":
        print(json.dumps({"pattern": pattern_literal(args.pattern), **table.to_json()}))
    else:
        print("n,k,count")
        for row in table.csv_rows():
            print(",".join(map(str, row)))
    return EXIT_OK


def _cmd_joint(args) -> int:
    table = joint_distribution(args.pattern, args.pattern2, args.n)
    if args.format == "json":
        print(
            json.dumps(
                {
                    "pattern1": pattern_literal(args.pattern),
                    "pattern2": pattern_literal(args.pattern2),
                    **table.to_json(),
                }
            )
        )
    else:
        print("n,k,l,count")
        for row in table.csv_rows():
            print(",".join(map(str, row)))
    return EXIT_OK


def _cmd_avoid(args) -> int:
    values = avoidance_sequence(args.pattern, args.max_n)
    print("n,count")
    for n, v in enumerate(values):
        print(f"{n},{v}")
    return EXIT_OK


def _cmd_check_pair(args) -> int:
    if args.pair_id is not None:
        p1, p2 = _catalog_entry(args.pair_id).patterns()
    elif args.pattern is not None and args.pattern2 is not None:
        p1, p2 = args.pattern, args.pattern2
    else:
        raise _UsageError("check-pair needs --pair-id or both --pattern and --pattern2")
    n = first_divergence(p1, p2, args.max_n)
    verdict = "equidistributed" if n is None else "diverges"
    print(json.dumps({"verdict": verdict, "first_divergence_n": n, "max_n": args.max_n}))
    if args.expect_equal and n is not None:
        return EXIT_FAILED
    return EXIT_OK


def _cmd_scan(args) -> int:
    if args.jobs < 1:
        raise _UsageError(f"--jobs must be at least 1, got {args.jobs}")
    results = scan_symmetric_pairs(args.max_n, jobs=args.jobs, long_running=args.long)
    lines = [json.dumps(r.to_json()) for r in results]
    if args.out:
        with open(args.out, "w") as fh:
            fh.write("\n".join(lines) + "\n")
    else:
        for line in lines:
            print(line)
    survivors = sum(r.equidistributed for r in results)
    print(f"equidistributed shadings: {survivors} / {len(results)} (n <= {args.max_n})", file=sys.stderr)
    return EXIT_OK


def _cmd_apply(args) -> int:
    entry = _catalog_entry(args.pair_id, with_family=True)
    # a shading the family does not support is a usage error; a map that
    # fails on a valid host is a defect
    transform = bijections.transform_for(entry.family, entry.patterns()[0].shading)
    try:
        image = transform(args.perm)
    except Exception as exc:
        print(f"error: the map of entry {entry.id} failed on {format_perm(args.perm)}: {_describe(exc)}", file=sys.stderr)
        return EXIT_FAILED
    print(format_perm(image))
    return EXIT_OK


def _describe(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def _cmd_verify(args) -> int:
    entry = _catalog_entry(args.pair_id, with_family=True)
    report = bijections.verify_entry(entry, args.n)
    print(json.dumps({"pair_id": entry.id, **report.to_json()}))
    if report.ok():
        return EXIT_OK
    print(_counterexample_line(entry, report.counterexample), file=sys.stderr)
    return EXIT_FAILED


def _counterexample_line(entry: catalog.CatalogEntry, host: Perm) -> str:
    """The failing host and the image verification checked, each with its
    counts of the entry's two patterns, recomputed with the pure-Python
    occurrence finder, or the error the map raised on the host."""
    p1, p2 = entry.patterns()

    def counts(p: Perm) -> str:
        return f"({count_occurrences(p, p1)}, {count_occurrences(p, p2)})"

    line = f"counterexample: host {json.dumps(list(host))} has counts {counts(host)}; "
    try:
        image = bijections.verified_image(entry, host)
    except Exception as exc:
        return line + f"the map raised {_describe(exc)}"
    if len(image) == len(host) and is_perm(image):
        return line + f"its image {json.dumps(list(image))} has counts {counts(image)}"
    return line + f"its image {json.dumps(list(image))} is outside S_{len(host)}"


def _cmd_catalog_validate(args) -> int:
    problems = catalog.validate_catalog()
    if problems:
        for problem in problems:
            print(problem)
        return EXIT_FAILED
    print(f"catalog OK ({len(catalog.load_catalog())} entries)")
    return EXIT_OK


def _cmd_sequences(args) -> int:
    if args.name == "stirling1":
        print("n,k,value")
        for n in range(args.max_n + 1):
            for k in range(max(n, 1)):
                print(f"{n},{k},{stirling_first_kind(n, k)}")
        return EXIT_OK
    fn = catalan if args.name == "catalan" else bell
    print("n,value")
    for n in range(args.max_n + 1):
        print(f"{n},{fn(n)}")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    # n_arg names the subcommand's size argument, if it has one
    if args.n_arg is not None and getattr(args, args.n_arg) < 0:
        parser.error("n must be non-negative")
    try:
        effective_cap()
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args)
    except _UsageError as exc:
        parser.error(str(exc))
    except CapExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except bijections.UnsupportedShadingError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
