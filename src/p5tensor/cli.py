"""Command-line front end: regenerate the summary tables, verify the
catalog against the engine, inspect a single group, or list errata."""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import os
import sys

from . import families, invariants, oracles
from .abelian import format_type
from .pcgroup import InconsistentPresentation, generator, subgroup_closure

DEFAULT_SEED = 1105

_STRUCTURE_COLUMNS = ("row", "class", "multiplier", "center", "derived",
                      "ab", "nabla", "j2")
_TENSOR_COLUMNS = ("row", "class", "multiplier", "wedge", "wedge_center",
                   "tensor", "tensor_center", "capable")


def _table_rows(p, columns):
    """One dict per catalog row: column name -> recorded value."""
    rows = []
    for spec in families.list_families():
        e = families.expected_record(spec, p)
        rows.append({c: getattr(e, "cl" if c == "class" else c)
                     for c in columns})
    return rows


def _text_cell(value, prime):
    """A table value as text; `prime` is None for orders written in p."""
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, (str, int)):
        return str(value)
    if isinstance(value, tuple):
        return format_type(value, prime=prime)
    return value.format(prime)


def _json_cell(value):
    if isinstance(value, tuple):
        return list(value)
    if isinstance(value, invariants.TensorStructure):
        return {"abelian_part": list(value.abelian_part),
                "e1_factor": value.e1_factor}
    return value


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
               "rows": [{c: _json_cell(v) for c, v in r.items()}
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


# recorded values that break an identity of compute_record: the check
# each one fails
_RECORD_FAULTS = {invariants.OrderIdentityViolation: "wedge-order",
                  invariants.MultiplierMismatch: "multiplier",
                  invariants.ExponentViolation: "exponent-p-entries"}


def _verify_row(spec, p, out):
    try:
        rec = invariants.compute_record(spec, p)
    except tuple(_RECORD_FAULTS) as exc:
        print(f"  row {spec.id}: FAIL {_RECORD_FAULTS[type(exc)]}: {exc}",
              file=out)
        return False
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
    seed = args.seed
    ok = True
    print(f"verifying catalog at p = {p} (seed {seed})", file=out)

    if args.family:
        specs = [families.family_spec(args.family)]
    else:
        specs = list(families.list_families())
    for spec in specs:
        ok = _verify_row(spec, p, out) and ok

    print("raw index conflict scan:", file=out)
    conflicts = families.raw_index_conflicts()
    for c in conflicts:
        status = (f"documented by erratum {c.erratum}" if c.erratum
                  else "UNDOCUMENTED")
        print(f"  {c.index} index, row {c.row}: {c.kind} "
              f"(listed {list(c.listed)}, resolved {list(c.resolved)}) "
              f"-- {status}", file=out)
        if not c.erratum:
            ok = False
    consulted = sorted({c.erratum for c in conflicts if c.erratum})
    print(f"  {len(conflicts)} conflicts, all documented: "
          f"{', '.join(consulted)}" if consulted and ok else
          f"  {len(conflicts)} conflicts", file=out)

    print("oracle spot checks:", file=out)
    rep = oracles.gamma_relation_check(oracles.QuadraticModel((p,)),
                                       trials=2000, seed=seed)
    print(f"  quadratic map on Z_{p}: "
          f"{'ok' if rep.ok else 'FAIL'} ({rep.checked} checks)", file=out)
    ok = ok and rep.ok
    rep = oracles.gamma_relation_check(
        oracles.QuadraticModel((p * p, p)), trials=2000, seed=seed + 1)
    print(f"  quadratic map on Z_{p * p} x Z_{p}: "
          f"{'ok' if rep.ok else 'FAIL'} ({rep.checked} checks)", file=out)
    ok = ok and rep.ok
    rep = oracles.counting_vs_snf(trials=40, seed=seed + 2)
    print(f"  census vs normal form: "
          f"{'ok' if rep.ok else 'FAIL'} ({rep.checked} instances)",
          file=out)
    ok = ok and rep.ok

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
    params = _parse_params(args.param)
    p = args.prime
    spec = families.family_spec(args.family)
    P = families.build(spec, p, params)
    resolved = families.expected_record(spec, p, params)
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
        # the closure refuses an inconsistent presentation
        n = subgroup_closure([generator(i) for i in range(1, 6)], P).order
        print("consistency: ok", file=out)
        print(f"order: {n} = {p}^5" if n == p ** 5 else f"order: {n}",
              file=out)
        # every exponent vector is a normal form, so these are the least
        sample = list(itertools.islice(
            itertools.product(range(p), repeat=5), 8))
        for el in sample:
            word = " ".join(f"g{i + 1}^{e}" if e > 1 else f"g{i + 1}"
                            for i, e in enumerate(el) if e) or "1"
            print(f"  {el} = {word}", file=out)
        remaining = n - len(sample)
        if remaining > 0:
            print(f"  ... {remaining} more", file=out)
        return 0 if n == p ** 5 else 1

    rec = invariants.compute_record(spec, p, params)
    invariants.validate(rec)
    if args.format == "json":
        json.dump(rec.to_json_dict(), out, indent=1)
        out.write("\n")
        return 0 if rec.ok else 1
    sym = None if not args.numeric else p
    pairs = (
        ("class", str(rec.cl), str(rec.expected.cl)),
        ("exponent", str(rec.exponent), "-"),
        ("center", format_type(rec.center_type, prime=sym),
         format_type(rec.expected.center, prime=sym)),
        ("derived", format_type(rec.derived_type, prime=sym),
         format_type(rec.expected.derived, prime=sym)),
        ("ab", format_type(rec.ab_type, prime=sym),
         format_type(rec.expected.ab, prime=sym)),
        ("multiplier", format_type(rec.expected.multiplier, prime=sym),
         "-"),
        ("nabla", format_type(rec.nabla, prime=sym),
         format_type(rec.expected.nabla, prime=sym)),
        ("j2", format_type(rec.j2, prime=sym),
         format_type(rec.expected.j2, prime=sym)),
        ("wedge", rec.wedge.format(sym), rec.expected.wedge.format(sym)),
        ("tensor", rec.tensor.format(sym), rec.expected.tensor.format(sym)),
        ("wedge center", format_type(rec.expected.wedge_center, prime=sym),
         "-"),
        ("tensor center",
         format_type(rec.expected.tensor_center, prime=sym), "-"),
        ("capable", "yes" if rec.capable else "no", "-"),
    )
    width = max(len(name) for name, _, _ in pairs)
    for name, computed, expected in pairs:
        line = f"  {name.ljust(width)}  {computed}"
        if expected != "-" and expected != computed:
            line += f"  (expected {expected})"
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


def _env_seed():
    raw = os.environ.get("P5TENSOR_SEED")
    if raw is None:
        return DEFAULT_SEED
    try:
        return int(raw, 10)
    except ValueError:
        raise families.BadParam(
            f"P5TENSOR_SEED must be a base-10 integer, got {raw!r}") \
            from None


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
    v.add_argument("--seed", type=int, default=None,
                   help="oracle seed (default: P5TENSOR_SEED or "
                        f"{DEFAULT_SEED})")
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
        if getattr(args, "seed", None) is None and args.command == "verify":
            args.seed = _env_seed()
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
