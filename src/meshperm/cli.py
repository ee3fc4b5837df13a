"""Command-line interface.

Exit codes: 0 on success, 1 when a verification or expected equality fails,
2 on usage errors, 3 when a request exceeds the active size cap.
"""
from __future__ import annotations

import argparse
import json
import sys

from . import bijections, catalog
from .distribution import (
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
from .mesh import parse_pattern, pattern_literal
from .perms import EnumerationCapError, format_perm, parse_perm

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


def _build_parser() -> argparse.ArgumentParser:
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
    p.add_argument("--max-n", type=int, default=8)
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
    values = avoidance_sequence(args.pattern, args.max_n, cap=min(args.max_n, effective_cap()))
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
    cap = min(args.max_n, effective_cap())
    n = first_divergence(p1, p2, args.max_n, cap=cap)
    verdict = "equidistributed" if n is None else "diverges"
    print(json.dumps({"verdict": verdict, "first_divergence_n": n, "max_n": args.max_n}))
    if args.expect_equal and n is not None:
        return EXIT_FAILED
    return EXIT_OK


def _cmd_scan(args) -> int:
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
    print(format_perm(bijections.apply_family(entry, args.perm)))
    return EXIT_OK


def _cmd_verify(args) -> int:
    entry = _catalog_entry(args.pair_id, with_family=True)
    limit = min(effective_cap(), bijections.VERIFY_MAX_N)
    if args.n > limit:
        raise CapExceededError(f"n = {args.n} exceeds the verification cap of {limit}")
    report = bijections.verify_entry(entry, args.n)
    print(json.dumps({"pair_id": entry.id, **report.to_json()}))
    return EXIT_OK if report.ok() else EXIT_FAILED


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
        return args.func(args)
    except _UsageError as exc:
        parser.error(str(exc))
    except (CapExceededError, EnumerationCapError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except bijections.UnsupportedShadingError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
