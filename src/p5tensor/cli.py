"""Command-line front end: regenerate the summary tables, verify the
catalog against the engine, inspect a single group, or list errata."""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import os
import sys

from . import families, invariants
from .abelian import format_type
from .pcgroup import InconsistentPresentation, word

_STRUCTURE_COLUMNS = ("row", "class", "multiplier", "center", "derived",
                      "ab", "nabla", "j2")
_TENSOR_COLUMNS = ("row", "class", "multiplier", "wedge", "wedge_center",
                   "tensor", "tensor_center", "capable")
_GROUP_COLUMNS = ("class", "exponent", "center", "derived", "ab",
                  "multiplier", "nabla", "j2", "wedge", "tensor",
                  "wedge center", "tensor center", "capable")


def _table_rows(p, columns):
    """One dict per catalog row: column name -> recorded value."""
    recorded = (families.expected_record(row, p)
                for row in families.list_families())
    return [{c: invariants.column(e, c) for c in columns} for e in recorded]


def _text_cell(value, prime):
    """A table value as text; `prime` is None for orders written in p."""
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, (str, int)):
        return str(value)
    if isinstance(value, tuple):
        return format_type(value, prime=prime)
    return value.format(prime)


def _print_aligned(columns, rows, out):
    widths = {c: max(len(c), *(len(r[c]) for r in rows)) for c in columns}
    header = "  ".join(c.ljust(widths[c]) for c in columns)
    print(header, file=out)
    print("-" * len(header), file=out)
    for r in rows:
        print("  ".join(r[c].ljust(widths[c]) for c in columns), file=out)


def cmd_table(args, out):
    which = args.which
    columns = (_STRUCTURE_COLUMNS if which == "structure"
               else _TENSOR_COLUMNS)
    rows = _table_rows(args.prime, columns)
    if args.format == "json":
        doc = {"prime": args.prime, "which": which,
               "rows": [{c: invariants.json_value(v) for c, v in r.items()}
                        for r in rows]}
        json.dump(doc, out, indent=1)
        out.write("\n")
        return 0
    prime = args.prime if args.numeric else None
    rows = [{c: _text_cell(v, prime) for c, v in r.items()} for r in rows]
    if args.format == "csv":
        writer = csv.DictWriter(out, fieldnames=columns)
        writer.writeheader()
        writer.writerows(rows)
        return 0
    title = ("structure" if which == "structure" else "wedge and tensor")
    print(f"{title} table at p = {args.prime}"
          + ("" if args.numeric else " (symbolic)"), file=out)
    _print_aligned(columns, rows, out)
    return 0


def _verify_row(row, p, out):
    rec = invariants.compute_record(row, p)
    invariants.validate(rec)
    failed = [v for v in rec.verdicts if not v.passed]
    if not failed:
        print(f"  row {rec.family}: {len(rec.verdicts)} checks pass",
              file=out)
        return True
    for v in failed:
        note = f" (errata: {', '.join(v.errata)})" if v.errata else ""
        print(f"  row {rec.family}: FAIL {v.check}: {v.detail}{note}",
              file=out)
    return False


def cmd_verify(args, out):
    p = args.prime
    rows = ([families.row_id(args.family)] if args.family
            else families.list_families())
    families.check_prime(p)
    print(f"verifying catalog at p = {p}", file=out)
    ok = all([_verify_row(row, p, out) for row in rows])

    print("raw index conflict scan:", file=out)
    conflicts = families.raw_index_conflicts()
    for c in conflicts:
        status = (f"documented by erratum {c.erratum}" if c.erratum
                  else "UNDOCUMENTED")
        print(f"  {c.index} index, row {c.row}: {c.kind} "
              f"(listed {list(c.listed)}, resolved {list(c.resolved)}) "
              f"-- {status}", file=out)
    documented = all(c.erratum for c in conflicts)
    ok = ok and documented
    consulted = sorted({c.erratum for c in conflicts if c.erratum})
    print(f"  {len(conflicts)} conflicts, all documented: "
          f"{', '.join(consulted)}" if consulted and documented else
          f"  {len(conflicts)} conflicts", file=out)

    print("PASS" if ok else "FAIL", file=out)
    return 0 if ok else 1


def _parse_params(pairs):
    params = {}
    for item in pairs or ():
        if "=" not in item:
            raise families.BadParam(
                f"--param expects name=value, got {item!r}")
        name, _, value = item.partition("=")
        params[name.strip()] = value.strip()
    return params


def cmd_group(args, out):
    if args.format == "json" and args.show != "invariants":
        raise families.BadParam(f"--format json applies to --show "
                                f"invariants only, not --show {args.show}")
    params = _parse_params(args.param)
    p = args.prime
    if args.show == "invariants":
        rec = invariants.compute_record(args.family, p, params)
        resolved = rec.expected
    else:
        P = families.build(args.family, p, params)
        resolved = families.expected_record(args.family, p, params)
    label = ", ".join(f"{k} = {v}" for k, v in resolved.params.items())
    header = f"family {resolved.row} at p = {p}"
    if label:
        header += f" ({label})"
    # json output must stay parseable on its own, so no banner there
    if args.format != "json":
        print(header, file=out)

    if args.show == "presentation":
        lines = P.relations_text()
        print("\n".join(lines) if lines
              else "(free of relations: elementary abelian)", file=out)
        return 0
    if args.show == "elements":
        # construction refused an inconsistent presentation, and
        # collection is total, so G has the p^5 normal forms
        print("consistency: ok", file=out)
        print(f"order: {p ** 5} = {p}^5", file=out)
        # every exponent vector is a normal form, so these are the least
        sample = list(itertools.islice(
            itertools.product(range(p), repeat=5), 8))
        for el in sample:
            print(f"  {el} = {word(el)}", file=out)
        print(f"  ... {p ** 5 - len(sample)} more", file=out)
        return 0

    invariants.validate(rec)
    if args.format == "json":
        json.dump(rec.to_json_dict(), out, indent=1)
        out.write("\n")
        return 0 if rec.ok else 1
    sym = None if not args.numeric else p
    width = max(len(name) for name in _GROUP_COLUMNS)
    for name in _GROUP_COLUMNS:
        expected = invariants.column(rec.expected, name, None)
        computed = invariants.column(rec, name, None)
        if computed is None:
            # a recorded column: shown as recorded, with nothing to compare
            computed, expected = expected, None
        text = _text_cell(computed, sym)
        line = f"  {name.ljust(width)}  {text}"
        if expected is not None and _text_cell(expected, sym) != text:
            line += f"  (expected {_text_cell(expected, sym)})"
        print(line, file=out)
    failed = [v for v in rec.verdicts if not v.passed]
    print(f"checks: {len(rec.verdicts) - len(failed)}/{len(rec.verdicts)} "
          "pass", file=out)
    for v in failed:
        print(f"  FAIL {v.check}: {v.detail}", file=out)
    return 0 if rec.ok else 1


def cmd_errata(args, out):
    for entry in families.errata():
        rows = ", ".join(entry.rows)
        srcs = ", ".join(entry.sources)
        print(f"{entry.slug} (rows {rows}; sources: {srcs})", file=out)
        print(f"  {entry.description}", file=out)
        print(f"  resolution: {entry.resolution}", file=out)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="p5tensor",
        description="Summary tables, verification, and group inspection "
                    "for the order-p^5 catalog.")
    sub = parser.add_subparsers(dest="command", required=True)

    t = sub.add_parser("table", help="print a summary table")
    t.add_argument("--prime", type=int, required=True,
                   help="prime p > 3 to instantiate at")
    t.add_argument("--which", choices=("structure", "tensor"),
                   default="structure",
                   help="structure: class/multiplier/center/derived/ab/"
                        "nabla/j2; tensor: wedge and tensor squares with "
                        "their centers")
    t.add_argument("--format", choices=("text", "csv", "json"),
                   default="text")
    t.add_argument("--numeric", action="store_true",
                   help="render orders numerically instead of in p")
    t.set_defaults(func=cmd_table)

    v = sub.add_parser("verify", help="check the catalog against the "
                                      "engine and scan the raw indexes")
    v.add_argument("--prime", type=int, required=True)
    v.add_argument("--family", help="restrict to one row")
    v.add_argument("--seed", type=int,
                   help="has no effect: verify draws nothing at random; "
                        "accepted so that older command lines still run")
    v.set_defaults(func=cmd_verify)

    g = sub.add_parser("group", help="inspect one group")
    g.add_argument("--family", required=True)
    g.add_argument("--prime", type=int, required=True)
    g.add_argument("--param", action="append", metavar="NAME=VALUE",
                   help="family parameter, repeatable")
    g.add_argument("--show", choices=("presentation", "elements",
                                      "invariants"),
                   default="invariants")
    g.add_argument("--format", choices=("text", "json"), default="text")
    g.add_argument("--numeric", action="store_true")
    g.set_defaults(func=cmd_group)

    e = sub.add_parser("errata", help="list documented source defects")
    e.set_defaults(func=cmd_errata)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    out = sys.stdout
    try:
        return args.func(args, out)
    except families.BadParam as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InconsistentPresentation as exc:
        print(f"error: inconsistent presentation: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # downstream pager closed early; suppress the shutdown flush noise
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
