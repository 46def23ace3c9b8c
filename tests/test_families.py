"""Catalog layer: family ids, parameter handling, recorded columns,
raw index reconciliation."""

import json

import numpy as np
import pytest

from p5tensor import (
    BadParam,
    build,
    compute_record,
    epicenter_index_raw,
    errata,
    errata_for,
    expected_record,
    families,
    list_families,
    multiplier_index_raw,
    primitive_root,
    raw_index_conflicts,
    row_id,
)

ALL_ROWS = list(list_families())


def test_row_inventory():
    assert len(ALL_ROWS) == 72
    assert ALL_ROWS == families._data()["row_order"]
    assert all(type(r) is str for r in ALL_ROWS)
    assert ALL_ROWS[0] == "1"
    assert "11,1" in ALL_ROWS and "11,2" in ALL_ROWS
    assert "48,1" in ALL_ROWS and "48,2" in ALL_ROWS
    assert ALL_ROWS[-1] == "70"


@pytest.mark.parametrize("alias, fid", [
    ("G29a", "29"), ("29a", "29"), ("12k", "12"), ("g33b", "33"),
    ("48.1", "48,1"), ("G11,2", "11,2"), (" 7 ", "7"), (" 29 ", "29"),
    (11, "11"),
])
def test_family_id_normalization(alias, fid):
    assert row_id(alias) == fid


@pytest.mark.parametrize("bogus", ["71", "0", "twelve", "11,3", "29k",
                                   "1 1", "4 8.2"])
def test_unknown_family_rejected(bogus):
    with pytest.raises(BadParam):
        row_id(bogus)
    with pytest.raises(BadParam):
        errata_for(bogus)


def test_bare_row_resolves_by_parameter():
    assert expected_record("11", 5, {"k": 1}).row == "11,1"
    assert expected_record("11", 5, {"k": 2}).row == "11,2"
    assert expected_record("48", 7, {"k": 3}).row == "48,2"
    assert expected_record("48", 7).row == "48,1"


def test_subcase_guards():
    with pytest.raises(BadParam, match="11,2"):
        expected_record("11,1", 5, {"k": 2})
    with pytest.raises(BadParam, match="k"):
        expected_record("11,2", 5, {"k": 1})


@pytest.mark.parametrize("params", [
    {"k": 0}, {"k": 3}, {"q": 1},
    {"a": -1}, {"a": 4}, {"a": 9}, {"b": -1}, {"b": 4}, {"b": 9}])
def test_parameter_domain_enforced(params):
    # k on row 12; a and b, exponents of the primitive root taken in
    # 0..p-2, on rows 29 and 33
    row = {"a": "29", "b": "33"}.get(next(iter(params)), "12")
    with pytest.raises(BadParam):
        build(row, 5, params)


def test_parameter_values_change_tails_not_the_row():
    one = build("12", 5, {"k": 1})
    two = build("12", 5, {"k": 2})
    assert one != two
    assert expected_record("12", 5, {"k": 2}).row == "12"


def test_build_worked_examples():
    assert build("24", 5).comm_tails[4, 2] == (0, 0, 0, 0, 4)
    assert "[g3,g1] = g4 g5^2" in build("9", 5).relations_text()
    assert "[g3,g1] = g4 g5^3" in build("9", 7).relations_text()


def test_primitive_roots():
    for p in (5, 7, 11, 13, 23):
        w = primitive_root(p)
        assert pow(w, p - 1, p) == 1
        assert all(pow(w, (p - 1) // q, p) != 1
                   for q in (2, 3, 5, 7, 11) if (p - 1) % q == 0)
    with pytest.raises(BadParam):
        primitive_root(9)


def test_prime_is_taken_through_operator_index():
    # a numpy integer is a prime like any int, and the records keep the
    # plain int; a float or a bool is refused
    assert build("14", np.int64(7)) == build("14", 7)
    assert type(expected_record("14", np.int64(7)).p) is int
    record = compute_record("14", np.int64(7)).to_json_dict()
    assert json.loads(json.dumps(record)) == \
        compute_record("14", 7).to_json_dict()
    assert primitive_root(np.int64(7)) == 3
    for bad, message in ((7.0, "integer"), (True, "prime")):
        with pytest.raises(BadParam, match=message):
            build("14", bad)
        with pytest.raises(BadParam):
            primitive_root(bad)


def test_expected_record_spot_values():
    r13 = expected_record("13", 5)
    assert r13.ab == (3, 2)
    assert r13.multiplier == (2,)
    assert r13.j2 == (3, 2, 2, 2)
    r25 = expected_record("25", 7)
    assert r25.wedge.abelian_part == (2,)
    assert r25.tensor.abelian_part == (3, 2, 1, 1)
    r3 = expected_record("3", 5)
    assert r3.tensor.abelian_part == (1,) * 9 and not r3.tensor.e1_factor
    r64 = expected_record("64", 5)
    assert r64.multiplier == (1,) * 7
    assert r64.wedge.abelian_part == (1,) * 8


def test_extraspecial_factor_flag():
    r = expected_record("28", 5)
    assert r.wedge.e1_factor and r.tensor.e1_factor
    # the nonabelian factor accounts for three exponent units
    assert r.wedge.order_exponent == len(r.wedge.abelian_part) + 3


def test_capability_flag():
    assert expected_record("28", 5).capable
    assert not expected_record("4", 5).capable


def test_sources_name_errata():
    assert "center-type-68" in expected_record("68", 5).sources["center"]
    assert "gamma-ab-listing-43" in expected_record("43", 5).sources["nabla"]


def test_errata_inventory():
    slugs = {e.slug for e in errata()}
    assert len(errata()) == 13
    assert {
        "multiplier-index-duplicate-12", "multiplier-index-missing-14-26",
        "epicenter-index-duplicate-70", "epicenter-index-duplicate-10",
        "epicenter-index-duplicate-17", "epicenter-index-missing",
        "epicenter-index-type-20", "class-column-65-69", "center-type-68",
        "gamma-ab-listing-43", "param-49", "capable-list-18-54",
        "tensor-center-list-omissions",
    } == slugs
    assert any(e.slug == "multiplier-index-missing-14-26"
               for e in errata_for("14"))


def test_raw_multiplier_index_keeps_the_defects():
    listed = [row for _, rows in multiplier_index_raw() for row in rows]
    assert listed.count("12") == 2
    assert "14" not in listed and "26" not in listed
    assert len(listed) == len(ALL_ROWS) - 2 + 1


def test_raw_epicenter_index_keeps_the_defects():
    listed = [row for _, rows in epicenter_index_raw() for row in rows]
    assert listed.count("17") == 2
    assert listed.count("70") == 2
    assert listed.count("10") == 2
    for absent in ("1", "13", "19", "24", "60"):
        assert absent not in listed


def test_conflict_scan_is_exact():
    got = {(c.index, c.kind, c.row) for c in raw_index_conflicts()}
    assert got == {
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
    assert all(c.erratum for c in raw_index_conflicts())


def test_larger_prime_consistency():
    # construction raises InconsistentPresentation on a failing overlap
    for row in ALL_ROWS:
        build(row, 11)


@pytest.mark.slow
def test_larger_prime_collector_matches_tables(collector_mismatches):
    for row in ALL_ROWS:
        assert collector_mismatches(build(row, 11)) is None, row
