"""Homological invariants and the per-row validation verdicts."""

import dataclasses
import json
from pathlib import Path

import pytest

from p5tensor import (
    ExponentViolation,
    MultiplierMismatch,
    OrderIdentityViolation,
    TensorStructure,
    build,
    capability,
    compute_record,
    expected_record,
    exterior_square,
    j2,
    list_families,
    nabla,
    tensor_square,
    validate,
)
from p5tensor.abelian import canon, direct_sum, order_exponent
from p5tensor.invariants import record_dict
from p5tensor.pcgroup import _is_prime

SCHEMA = Path(__file__).resolve().parents[1] / (
    "src/p5tensor/schema/invariant_record.schema.json")


def test_tensor_structure_basics():
    t = TensorStructure((1, 2, 2))
    assert t.abelian_part == (2, 2, 1)
    assert t.order_exponent == 5
    assert str(t) == "Z_{p^2}^2 + Z_p"
    e = TensorStructure((1,), e1_factor=True)
    assert e.order_exponent == 4
    assert e.format(prime=5) == "E1 x Z_5"
    assert TensorStructure((), e1_factor=True).format() == "E1"


def test_nabla_is_gamma_of_abelianization():
    assert nabla(build("13", 5)) == (3, 2, 2)
    assert nabla(build("1", 7)) == (5,)


def test_j2_worked_example():
    assert j2(build("13", 5), (2,)) == (3, 2, 2, 2)


def test_exterior_square_abelian_route():
    P = build("13", 5)
    assert exterior_square(P, (2,)).abelian_part == (2,)
    with pytest.raises(MultiplierMismatch):
        exterior_square(P, (1, 1))


def test_exterior_square_trivial_multiplier_route():
    P = build("24", 5)
    w = exterior_square(P, ())
    assert w.abelian_part == expected_record("24", 5).wedge_parts
    assert not w.e1_factor


def test_exterior_square_guards():
    P = build("3", 5)
    r = expected_record("3", 5)
    with pytest.raises(OrderIdentityViolation):
        exterior_square(P, r.multiplier, expected=TensorStructure((2, 2)))
    # right order, but carries an element of order p^2 in an exponent-p group
    with pytest.raises(ExponentViolation):
        exterior_square(P, r.multiplier, expected=TensorStructure((2, 2, 2)))
    ok = exterior_square(P, r.multiplier, expected=r.wedge)
    assert ok.abelian_part == r.wedge_parts


def test_tensor_square_composition():
    P = build("17", 5)
    r = expected_record("17", 5)
    w = exterior_square(P, r.multiplier, expected=r.wedge)
    t = tensor_square(P, w)
    assert t.abelian_part == canon(direct_sum(nabla(P), w.abelian_part))
    assert t.e1_factor == w.e1_factor
    # |G (x) G| = |J2| * |G'|
    dt = expected_record("17", 5).derived
    assert t.order_exponent == order_exponent(j2(P, r.multiplier)) + \
        order_exponent(dt)


def test_extraspecial_factor_propagates():
    r = expected_record("28", 5)
    w = exterior_square(build("28", 5), r.multiplier, expected=r.wedge)
    assert w.e1_factor
    assert tensor_square(build("28", 5), w).e1_factor


def test_capability_reads_the_epicenter_column():
    assert capability(expected_record("34", 5))
    assert not capability(expected_record("35", 5))


@pytest.mark.parametrize("fam", ["2", "13", "20", "28", "43", "65", "68"])
def test_record_verdicts_all_pass(records, fam):
    rec = records(fam, 5)
    assert len(rec.verdicts) == 15
    assert rec.ok, [v for v in rec.verdicts if not v.passed]


def test_tampered_expected_value_fails_with_erratum_note():
    rec = compute_record("68", 5)
    rec.expected = dataclasses.replace(rec.expected, center=(3,))
    validate(rec)
    failed = [v for v in rec.verdicts if not v.passed]
    assert failed and failed[0].check == "center"
    assert "center-type-68" in failed[0].errata
    assert not rec.ok


def test_record_dict_shape():
    rec = compute_record("11,2", 5)
    validate(rec)
    d = record_dict(rec)
    assert d["family"] == "11,2"
    assert d["p"] == 5
    assert d["params"] == {"k": 2}
    assert d["computed"]["class"] == rec.cl
    assert d["computed"]["tensor"] == {
        "abelian_part": list(rec.tensor.abelian_part),
        "e1_factor": rec.tensor.e1_factor}
    assert len(d["verdicts"]) == 15
    assert all(set(v) == {"check", "passed", "detail", "errata"}
               for v in d["verdicts"])
    json.dumps(d)


def test_record_dict_matches_published_schema():
    schema = json.loads(SCHEMA.read_text())
    rec = compute_record("5", 7)
    validate(rec)
    d = record_dict(rec)
    assert set(schema["required"]) <= set(d)
    for key in ("computed", "expected"):
        allowed = set(schema["properties"][key]["properties"])
        assert set(d[key]) <= allowed


def test_every_row_passes_at_a_large_prime():
    for spec in list_families():
        rec = compute_record(spec.id, 101)
        validate(rec)
        assert rec.ok, spec.id


def parameter_values(spec, p):
    """Every value of each parameter that the row accepts at p: k over
    1..(p-1)/2 within the row's subcase, a and b (exponents of the
    primitive root) over 0..p-2."""
    half = (p - 1) // 2
    for name in spec.params:
        if name != "k":
            values = range(p - 1)
        elif spec.k_case == "half":
            values = [half]
        elif spec.k_case == "other":
            values = range(1, half)
        else:
            values = range(1, half + 1)
        for v in values:
            yield {name: v}


def test_every_parameter_value_passes_at_p13():
    count = 0
    for spec in list_families():
        for params in parameter_values(spec, 13):
            rec = compute_record(spec.id, 13, params)
            validate(rec)
            assert rec.ok, (spec.id, params)
            count += 1
    assert count == 66


@pytest.mark.slow
def test_every_row_passes_at_every_prime_up_to_101():
    for p in (q for q in range(5, 102) if _is_prime(q)):
        for spec in list_families():
            rec = compute_record(spec.id, p)
            validate(rec)
            assert rec.ok, (spec.id, p)
