"""Acceptance gate: one labelled PASS/FAIL line per criterion.

The lines are printed outside the capture so they always reach the
terminal; each test also asserts, so a FAIL line comes with a red test.
"""

import io
import itertools
import json
import time

from p5tensor import (
    InconsistentPresentation,
    build,
    families,
    list_families,
    raw_index_conflicts,
)
from p5tensor.abelian import canon, direct_sum, tensor_ab, wedge_ab
from p5tensor.cli import _verify_row
from p5tensor.cli import main as cli_main
from p5tensor.oracles import (
    QuadraticModel,
    bilinear_tensor_oracle,
    counting_vs_cokernel_type,
    gamma_relation_check,
)

PRIMES = (5, 7)
ALL_ROWS = list(list_families())

ABELIAN_ROWS = {"1", "13", "26", "43", "51", "66", "70"}
TRIVIAL_MULTIPLIER_ROWS = {"1", "7", "8", "9", "11,1", "12", "24", "27"}
CAPABLE_ROWS = {
    "2", "3", "10", "11,2", "17", "18", "28", "31", "34", "40", "41",
    "43", "45", "48,2", "49", "54", "59", "64", "70",
}


def report(capsys, num, label, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    line = f"[acceptance] criterion {num} ({label}): {tag}"
    if detail:
        line += f"  [{detail}]"
    with capsys.disabled():
        print(("\n" if num == 1 else "") + line)
    assert ok, line


def failed_checks(rec, names):
    by_name = {v.check: v for v in rec.verdicts}
    return [(rec.family, rec.p, n, by_name[n].detail)
            for n in names if not by_name[n].passed]


def test_criterion_1_construction(collector_mismatches, capsys):
    t0 = time.time()
    problems = []
    groups = [(row, p, None) for p in PRIMES for row in ALL_ROWS]
    groups += [(fam, 5, {"k": k}) for fam in ("11", "12", "48", "50")
               for k in (1, 2)]
    for row, p, params in groups:
        where = f" at {params}" if params else ""
        try:
            P = build(row, p, params)
        except InconsistentPresentation as exc:
            problems.append((row, p, f"inconsistent{where}: {exc}"))
            continue
        bad = collector_mismatches(P)
        if bad:
            problems.append((row, p, f"collector != table{where}", bad))
    elapsed = time.time() - t0
    ok = not problems and elapsed < 60.0
    report(capsys, 1, "presentation consistency and collector = tables",
           ok, f"{len(groups)} groups, {elapsed:.1f}s"
           + (f"; first failure {problems[0]}" if problems else ""))


def test_criterion_2_structure_columns(records, capsys):
    bad = []
    for p in PRIMES:
        for row in ALL_ROWS:
            bad += failed_checks(records(row, p),
                                 ("class", "center", "derived", "ab"))
    report(capsys, 2, "structure columns (class, center, derived, "
           "abelianization)", not bad,
           "72 rows x 2 primes" + (f"; first {bad[0]}" if bad else ""))


def test_criterion_3_quadratic_functor_columns(records, capsys):
    bad = []
    for p in PRIMES:
        for row in ALL_ROWS:
            bad += failed_checks(records(row, p), ("nabla", "j2"))
    report(capsys, 3, "quadratic functor columns", not bad,
           "72 rows x 2 primes" + (f"; first {bad[0]}" if bad else ""))


def test_criterion_4_tensor_decomposition(records, capsys):
    bad = []
    for p in PRIMES:
        for row in ALL_ROWS:
            rec = records(row, p)
            bad += failed_checks(rec, ("wedge", "tensor", "wedge-order",
                                       "tensor-order-nabla",
                                       "tensor-order-j2"))
            recomposed = canon(direct_sum(rec.nabla,
                                          rec.wedge.abelian_part))
            if recomposed != rec.tensor.abelian_part or \
                    rec.wedge.e1_factor != rec.tensor.e1_factor:
                bad.append((row, p, "recomposition", recomposed))
    report(capsys, 4, "tensor decomposition and order identities", not bad,
           "5 identities per row" + (f"; first {bad[0]}" if bad else ""))


def test_criterion_5_multiplier_free_routes(records, capsys):
    bad = []
    for p in PRIMES:
        for row in TRIVIAL_MULTIPLIER_ROWS:
            rec = records(row, p)
            if rec.expected.multiplier != ():
                bad.append((row, p, "multiplier not trivial"))
            if rec.derived != rec.expected.wedge.abelian_part \
                    or rec.expected.wedge.e1_factor:
                bad.append((row, p, "wedge is not the derived type"))
        for row in ABELIAN_ROWS:
            rec = records(row, p)
            w = wedge_ab(rec.ab)
            if not (w == rec.expected.wedge.abelian_part
                    == rec.expected.multiplier):
                bad.append((row, p, "wedge_ab disagrees", w))
    report(capsys, 5, "multiplier-free and abelian wedge routes", not bad,
           f"{len(TRIVIAL_MULTIPLIER_ROWS)} + {len(ABELIAN_ROWS)} rows"
           + (f"; first {bad[0]}" if bad else ""))


def test_criterion_6_exponent_p_tensor_entries(records, capsys):
    bad = []
    seen = set()
    for p in PRIMES:
        for row in ALL_ROWS:
            rec = records(row, p)
            if rec.exponent != p:
                continue
            seen.add(row)
            if rec.tensor.e1_factor:
                continue
            if any(part != 1 for part in rec.tensor.abelian_part):
                bad.append((row, p, rec.tensor.abelian_part))
    missing = {"3", "34", "54", "59", "64"} - seen
    ok = not bad and not missing
    report(capsys, 6, "exponent-p families have elementary tensor entries",
           ok, f"rows {sorted(seen, key=lambda r: (len(r), r))}"
           + (f"; first {bad[0]}" if bad else "")
           + (f"; missing {sorted(missing)}" if missing else ""))


def test_criterion_7_center_chain_and_capability(records, capsys):
    bad = []
    for p in PRIMES:
        capable = set()
        for row in ALL_ROWS:
            rec = records(row, p)
            bad += failed_checks(rec, ("center-chain",
                                       "abelian-tensor-center"))
            if rec.capable:
                capable.add(row)
            if row in ABELIAN_ROWS and rec.expected.tensor_center != ():
                bad.append((row, p, "abelian row with nontrivial "
                            "tensor center"))
        if capable != CAPABLE_ROWS:
            bad.append((p, "capable set", sorted(capable ^ CAPABLE_ROWS)))
    report(capsys, 7, "center chain, tensor-trivial center, capability",
           not bad, f"{len(CAPABLE_ROWS)} capable rows"
           + (f"; first {bad[0]}" if bad else ""))


def test_criterion_8_raw_index_conflicts(capsys):
    expected = {
        ("multiplier", "duplicate", "12"),
        ("multiplier", "missing", "14"),
        ("multiplier", "missing", "26"),
        ("epicenter", "duplicate", "70"),
        ("epicenter", "duplicate", "10"),
        ("epicenter", "repeated-listing", "17"),
        ("epicenter", "missing", "1"),
        ("epicenter", "missing", "13"),
        ("epicenter", "missing", "19"),
        ("epicenter", "missing", "24"),
        ("epicenter", "missing", "60"),
        ("epicenter", "type-mismatch", "20"),
    }
    conflicts = raw_index_conflicts()
    got = {(c.index, c.kind, c.row) for c in conflicts}
    undocumented = [c for c in conflicts if not c.erratum]
    cli_ok = True
    for p in PRIMES:
        rc = cli_main(["verify", "--prime", str(p)])
        out = capsys.readouterr().out
        if rc != 0 or "UNDOCUMENTED" in out:
            cli_ok = False
        if out.count("documented by erratum") != len(expected):
            cli_ok = False
    ok = got == expected and not undocumented and cli_ok
    report(capsys, 8, "raw index conflict scan", ok,
           f"{len(got)} conflicts, all documented"
           + ("" if got == expected
              else f"; diff {sorted(got ^ expected)}"))


def test_criterion_9_oracle_agreement(capsys):
    t0 = time.time()
    failures = []

    types = [()]
    for n in range(1, 5):
        types.extend(tuple(sorted(c, reverse=True))
                     for c in itertools.combinations_with_replacement(
                         (3, 2, 1), n))
    pairs = 0
    for p in (3, 5, 7):
        for a in types:
            for b in types:
                if bilinear_tensor_oracle(a, b, p) != tensor_ab(a, b):
                    failures.append(("bilinear", a, b, p))
                pairs += 1

    moduli = list(range(3, 50, 2))
    models = [(m,) for m in moduli]
    models += list(itertools.combinations_with_replacement(moduli, 2))
    triples = 0
    for ms in models:
        rep = gamma_relation_check(QuadraticModel(ms), trials=10_000,
                                   seed=sum(ms))
        triples += 10_000
        if not rep.ok:
            failures.append(("gamma", ms, rep.failures[:1]))

    rep = counting_vs_cokernel_type(trials=1000, seed=2026)
    if not rep.ok:
        failures.append(("counting", rep.failures[:1]))

    elapsed = time.time() - t0
    ok = not failures and elapsed < 30.0
    report(capsys, 9, "independent oracle agreement", ok,
           f"{pairs} tensor pairs, {len(models)} quadratic models x 1e4 "
           f"triples, 1000 census draws, {elapsed:.1f}s"
           + (f"; first {failures[0]}" if failures else ""))


CENSUS_COLUMNS = ("multiplier", "center", "derived", "ab", "nabla", "j2",
                  "wedge", "tensor", "wedge_center", "tensor_center")

# the lies at p = 5 that their own row misses (it prints "15 checks
# pass"), by kind; every other lie of the census makes its row FAIL
CENSUS_MISSED = {
    "add multiplier+wedge+tensor+j2":
        "2 3 4 5 6 7 8 9 10 11,1 11,2 12 14 15 16 17 18 19 20 21 22 23 24 "
        "25 27 28 29 30 31 32 33 34 35 36 37 38 39 40 41 42 44 45 46 47 "
        "48,1 48,2 49 50 52 53 54 55 56 57 58 59 60 61 62 63 64 65 67 68 69",
    "add tensor_center": "15 16 19 20 21 22 23 25 27 35 37 47 52 53",
    "add wedge_center":
        "2 3 4 5 6 10 11,2 13 14 15 16 17 18 20 25 26 28 31 34 35 36 37 38 "
        "39 40 41 43 45 47 48,2 49 51 52 53 54 55 56 57 58 59 64 66 67 68 "
        "70",
    "reshape multiplier+j2":
        "2 3 15 16 17 18 20 28 31 34 35 36 37 38 39 40 41 45 47 48,2 49 52 "
        "53 54 55 56 57 58 59 60 61 62 63 64 65 67 68 69",
    "reshape tensor_center": "7 8 9 11,1 12 42 44 46 48,1 50",
    "reshape wedge+tensor":
        "2 4 5 6 10 11,2 14 15 16 17 18 19 20 21 22 23 25 29 30 32 33 35 36 "
        "37 38 39 40 41 42 44 45 46 47 48,1 48,2 49 50 52 53 55 56 57 58 60 "
        "61 62 63 67 68 69",
    "reshape wedge_center":
        "1 7 8 9 11,1 12 15 19 21 22 23 26 27 42 44 46 47 48,1 50 51 52 53",
}

# of those, the lies that the raw-index scan does not catch either: with
# one of them in the catalog, verify --prime 5 prints PASS
CENSUS_PASSED = {
    "add multiplier+wedge+tensor+j2": "12 14",
    "add tensor_center": CENSUS_MISSED["add tensor_center"],
    "add wedge_center": "10 13 17 18 20 54 70",
    "reshape tensor_center": CENSUS_MISSED["reshape tensor_center"],
    "reshape wedge+tensor": CENSUS_MISSED["reshape wedge+tensor"],
    "reshape wedge_center": "1 19",
}


def _plus_zp(t):
    return canon(tuple(t) + (1,))


def _reshape(t):
    """Another type of the same order: the largest part l > 1 split
    into (l - 1, 1), else two parts 1 merged into a 2; None below p^2."""
    t = canon(t)
    if sum(t) < 2:
        return None
    if t[0] > 1:
        return canon((t[0] - 1, 1) + t[1:])
    return canon((2,) + t[2:])


def census_lies(row):
    """(kind, changed columns) for every lie the census tells about one
    catalog row."""
    for col in CENSUS_COLUMNS:
        yield f"add {col}", {col: _plus_zp(row[col])}
    for col in CENSUS_COLUMNS:
        new = _reshape(row[col])
        if new is not None:
            yield f"reshape {col}", {col: new}
    new = _reshape(row["wedge"])
    if new is not None:
        yield "reshape wedge+tensor", {
            "wedge": new, "tensor": canon(direct_sum(row["nabla"], new))}
    yield "add multiplier+wedge+tensor+j2", {
        c: _plus_zp(row[c]) for c in ("multiplier", "wedge", "tensor", "j2")}
    new = _reshape(row["multiplier"])
    if new is not None:
        yield "reshape multiplier+j2", {
            "multiplier": new, "j2": canon(direct_sum(row["nabla"], new))}


# each census prime with the lies pinned for it, (missed, passed); the
# census runs at p = 5, 7 and 1009, and the three give the same sets
CENSUS_PINNED = {p: (CENSUS_MISSED, CENSUS_PASSED) for p in (5, 7, 1009)}


def test_criterion_10_mutation_census(capsys):
    t0 = time.time()
    rows = families._data()["rows"]

    def pinned(by_kind):
        return {(k, r) for k, ids in by_kind.items() for r in ids.split()}

    found, diff = [], []
    for p, (pin_missed, pin_passed) in CENSUS_PINNED.items():
        total, missed, passed = 0, set(), set()
        for rid in list_families():
            row = rows[rid]
            for kind, change in census_lies(row):
                total += 1
                saved = {c: row[c] for c in change}
                row.update(change)
                try:
                    if _verify_row(rid, p, io.StringIO()):
                        missed.add((kind, rid))
                        if all(c.erratum for c in raw_index_conflicts()):
                            passed.add((kind, rid))
                finally:
                    row.update(saved)
        found.append(f"p = {p}: {total} lies, {len(missed)} missed by "
                     f"their row, {len(passed)} pass verify")
        if total != 1442:
            diff.append((p, "total", total))
        diff += [(p, *d) for d in sorted(missed ^ pinned(pin_missed))]
        diff += [(p, *d) for d in sorted(passed ^ pinned(pin_passed))]
    elapsed = time.time() - t0
    report(capsys, 10, "mutation census at p = 5, 7 and 1009", not diff,
           "; ".join(found) + f", {elapsed:.1f}s"
           + (f"; first difference {diff[0]}" if diff else ""))
