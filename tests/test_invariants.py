"""Homological invariants and the per-row validation verdicts."""

import collections
import json
import random
from pathlib import Path

import pytest

from p5tensor import (
    TensorStructure,
    build,
    compute_record,
    expected_record,
    exterior_square,
    j2,
    list_families,
    nabla,
    tensor_square,
    validate,
)
from p5tensor import abelian, families, invariants, pcgroup
from p5tensor.abelian import canon, direct_sum, order_exponent
from p5tensor.pcgroup import (
    InconsistentPresentation,
    PcPresentation,
    _is_prime,
    ab_from_presentation,
    abelianization,
    center,
    commutator,
    derived_subgroup,
    exponent,
    generator,
    lower_central_series,
    nilpotency_class,
    normal_closure,
)

from tables import random_presentation_data

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
    assert j2(nabla(build("13", 5)), (2,)) == (3, 2, 2, 2)


def types_of(row, p):
    """The computed types of G^ab and G' of a catalog row."""
    P = build(row, p)
    return (ab_from_presentation(P),
            pcgroup.abelian_invariants_of(derived_subgroup(P), P))


def verdicts_with(monkeypatch, row, p, **columns):
    """Verdicts by name for `row` with the given catalog columns
    replaced; the catalog is restored when the test ends."""
    for name, value in columns.items():
        monkeypatch.setitem(families._data()["rows"][row], name, value)
    return {v.check: v for v in validate(compute_record(row, p))}


def test_exterior_square_abelian_route(monkeypatch):
    ab, derived = types_of("13", 5)
    # the pair-gcd formula, whatever the multiplier says
    assert exterior_square(ab, derived, (2,)).abelian_part == (2,)
    assert exterior_square(ab, derived, (1, 1)).abelian_part == (2,)
    # the multiplier verdict judges the recorded multiplier against it,
    # also when j2 was recorded consistently with the wrong multiplier
    nab = nabla(build("13", 5))
    got = verdicts_with(monkeypatch, "13", 5, multiplier=[1, 1],
                        j2=list(j2(nab, (1, 1))))
    assert [c for c, v in got.items() if not v.passed] == ["multiplier"]


def test_exterior_square_trivial_multiplier_route():
    ab, derived = types_of("24", 5)
    w = exterior_square(ab, derived, ())
    assert w.abelian_part == expected_record("24", 5).wedge.abelian_part
    assert not w.e1_factor


def test_exterior_square_guards(monkeypatch):
    ab, derived = types_of("3", 5)
    r = expected_record("3", 5)
    assert exterior_square(ab, derived, r.multiplier, r.wedge) == r.wedge
    with pytest.raises(ValueError, match="recorded exterior square"):
        exterior_square(ab, derived, r.multiplier)
    # the recorded value is returned as it is; validate judges it
    got = verdicts_with(monkeypatch, "3", 5, wedge=[2, 2])
    assert not got["wedge-order"].passed
    # right order, but an element of order p^2 in an exponent-p group
    got = verdicts_with(monkeypatch, "3", 5, wedge=[2, 2, 2])
    assert got["wedge-order"].passed
    assert not got["exponent-p-entries"].passed


def test_tensor_square_composition():
    P = build("17", 5)
    r = expected_record("17", 5)
    w = exterior_square(*types_of("17", 5), r.multiplier, r.wedge)
    t = tensor_square(nabla(P), w)
    assert t.abelian_part == canon(direct_sum(nabla(P), w.abelian_part))
    assert t.e1_factor == w.e1_factor
    # |G (x) G| = |J2| * |G'|
    dt = expected_record("17", 5).derived
    assert t.order_exponent == \
        order_exponent(j2(nabla(P), r.multiplier)) + order_exponent(dt)


def test_extraspecial_factor_propagates():
    r = expected_record("28", 5)
    w = exterior_square(*types_of("28", 5), r.multiplier, r.wedge)
    assert w.e1_factor
    assert tensor_square(nabla(build("28", 5)), w).e1_factor


def test_capability_reads_the_epicenter_column():
    assert expected_record("34", 5).capable
    assert not expected_record("35", 5).capable
    assert compute_record("34", 5).capable


@pytest.mark.parametrize("fam", ["2", "13", "20", "28", "43", "65", "68"])
def test_record_verdicts_all_pass(records, fam):
    rec = records(fam, 5)
    assert len(rec.verdicts) == 15
    assert rec.ok, [v for v in rec.verdicts if not v.passed]


def test_tampered_expected_value_fails_with_erratum_note():
    rec = compute_record("68", 5)
    rec.expected = expected_record("68", 5)
    rec.expected.center = (3,)
    validate(rec)
    failed = [v for v in rec.verdicts if not v.passed]
    assert failed and failed[0].check == "center"
    assert "center-type-68" in failed[0].errata
    assert not rec.ok


def test_tampered_class_names_the_class_erratum():
    # the "class" column is the field `cl`, which the erratum names
    rec = compute_record("65", 5)
    rec.expected = expected_record("65", 5)
    rec.expected.cl = rec.cl + 1
    validate(rec)
    failed = [v for v in rec.verdicts if not v.passed]
    assert [v.check for v in failed] == ["class"]
    assert failed[0].errata == ("class-column-65-69",)
    assert failed[0].detail == f"computed {rec.cl}, expected {rec.cl + 1}"


def test_a_column_has_one_name_on_both_records():
    rec = compute_record("28", 5)
    e = rec.expected
    for name in ("center", "derived", "ab", "class", "nabla", "j2",
                 "wedge", "tensor", "capable"):
        assert invariants.column(rec, name) == invariants.column(e, name)
    assert invariants.column(rec, "class") == rec.cl
    assert invariants.column(e, "wedge center") \
        == invariants.column(e, "wedge_center") == e.wedge_center
    assert invariants.column(rec, "exponent") == rec.exponent
    assert invariants.column(e, "exponent", None) is None
    assert invariants.column(rec, "multiplier", None) is None
    with pytest.raises(AttributeError):
        invariants.column(rec, "multiplier")
    assert invariants.json_value(e.wedge) == e.wedge.to_json_dict()
    assert invariants.json_value((2, 1)) == [2, 1]


def test_record_dict_shape():
    rec = compute_record("11,2", 5)
    validate(rec)
    d = rec.to_json_dict()
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
    d = rec.to_json_dict()
    assert set(schema["required"]) <= set(d)
    for key in ("computed", "expected"):
        allowed = set(schema["properties"][key]["properties"])
        assert set(d[key]) <= allowed


def test_generated_json_validates_against_the_schema(capsys, monkeypatch):
    import jsonschema
    from p5tensor.cli import main

    schema = json.loads(SCHEMA.read_text())
    validator = jsonschema.Draft7Validator(schema)
    validator.check_schema(schema)

    def check(doc):
        validator.validate(doc)
        # key order is the schema's, which keeps the output stable
        assert list(doc) == schema["required"]
        for key in ("computed", "expected"):
            assert list(doc[key]) == schema["properties"][key]["required"]

    for rid in list_families():
        rec = compute_record(rid, 5)
        validate(rec)
        check(rec.to_json_dict())
    # failing verdicts, one of them with an erratum note
    rows = families._data()["rows"]
    monkeypatch.setitem(rows["3"], "wedge", [1, 1, 1, 1, 1])
    monkeypatch.setitem(rows["68"], "center", [3])
    for row, failing, errata in (
            ("3", ["tensor", "wedge-order", "tensor-order-j2"], []),
            ("68", ["center"], ["center-type-68"])):
        assert main(["group", "--family", row, "--prime", "5",
                     "--format", "json"]) == 1
        doc = json.loads(capsys.readouterr().out)
        check(doc)
        failed = [v for v in doc["verdicts"] if not v["passed"]]
        assert [v["check"] for v in failed] == failing
        assert failed[0]["errata"] == errata


def test_every_row_passes_at_a_large_prime():
    for rid in list_families():
        rec = compute_record(rid, 101)
        validate(rec)
        assert rec.ok, rid


def _spans_the_same(a, b):
    """Equal subgroups, by sifting each sequence through the other."""
    return (a.order == b.order and all(s in b for s in a.generators)
            and all(s in a for s in b.generators))


@pytest.mark.parametrize("p", (5, 7))
def test_compute_record_computes_each_invariant_once(monkeypatch, p):
    # the constructor computes G' and exp(G); only calls on the fresh
    # presentation that compute_record gets count, not those of a build
    # that misses the cache
    calls, fresh = {}, []

    def counting(name, fn, at):
        def wrapped(*args):
            if fresh and args[at] is fresh[-1]:
                calls[name] = calls.get(name, 0) + 1
            return fn(*args)
        return wrapped

    closure = pcgroup._closure

    def counting_closure(seeds, P, normal=False):
        seeds = list(seeds)
        if (normal and fresh and P is fresh[-1]
                and seeds == list(P.comm_tails.values())):
            calls["derived"] = calls.get("derived", 0) + 1
        return closure(seeds, P, normal)

    class Fresh(PcPresentation):
        __slots__ = ()

        def __init__(self, *args):
            fresh.append(self)
            super().__init__(*args)

    def fresh_build(*args, **kwargs):
        # a new presentation, whose constructor the counts see
        P = build(*args, **kwargs)
        return Fresh(P.prime, P.power_tails, P.comm_tails)

    monkeypatch.setattr(families, "build", fresh_build)
    monkeypatch.setattr(invariants, "abelianization",
                        counting("ab", invariants.abelianization, 0))
    monkeypatch.setattr(pcgroup, "_closure", counting_closure)
    monkeypatch.setattr(pcgroup, "_order",
                        counting("order", pcgroup._order, 1))
    for rid in list_families():
        calls.clear()
        fresh.clear()
        compute_record(rid, p)
        assert len(fresh) == 1, rid
        assert calls.get("ab") == 1, rid
        assert calls.get("derived") == 1, rid
        # one exponent: the orders of the five power tails
        assert calls.get("order", 0) <= 5, rid


def _count_pops(monkeypatch):
    """Count collections and the syllables that they pop: every call of
    `_collect_into` gets a copy of its stack whose `pop` counts."""
    counts = {"collections": 0, "popped": 0}
    collect = pcgroup._collect_into

    class Counted(list):
        def pop(self):
            counts["popped"] += 1
            return super().pop()

    def counting(out, stack, P):
        counts["collections"] += 1
        return collect(out, Counted(stack), P)

    monkeypatch.setattr(pcgroup, "_collect_into", counting)
    return counts


def test_compute_record_collector_calls_stay_under_the_gate(monkeypatch):
    # a work gate without timing noise: every collection of the 72 rows
    # at p = 7 and at p = 1009, from fresh presentations.  At p = 7,
    # without the full-tail cut of `_closure` and with the exponent taken
    # from the generators it was 20 394 calls, 16 049 with them, and
    # 10 813 once every commutator of two pc generators is read from the
    # presentation's table (42 412 at p = 1009).  Commuting pairs that skip the
    # conjugate memo, the Burnside basis, orders that stop at exp(G) and
    # the overlaps' swaps in closed form take it to 9 296 (25 084), and
    # powers g_i^m, m <= p, of pc generators read from the presentation
    # to 6 586 (14 795), and the 13 overlaps that can fail, of the 35 of
    # the classical test, to 3 385 (11 473).  Conjugates of commuting
    # tails in closed form and no collection for the overlaps that no
    # relation can move take it to 1 598 (3 413)
    counts = _count_pops(monkeypatch)
    for p, gate in ((7, 1_680), (1009, 3_580)):
        counts["collections"] = 0
        families._build_cached.cache_clear()
        for rid in list_families():
            compute_record(rid, p)
        assert counts["collections"] <= gate, p


def test_compute_record_smith_forms_stay_under_the_gate(monkeypatch):
    # a work gate on the Smith forms of the 72 rows at p = 7 and at
    # p = 1009: one per row for G^ab and 21 for the types of the center
    # and G' made 93 at both primes; with G^ab read off |G : G'| and d(G)
    # where they force its type, 9 rows take the Smith form for it, and
    # 30 calls are left
    calls = []
    smith = abelian.cokernel_type

    def counting(rows, prime):
        calls.append(prime)
        return smith(rows, prime)

    monkeypatch.setattr(abelian, "cokernel_type", counting)
    monkeypatch.setattr(pcgroup, "cokernel_type", counting)
    for p in (7, 1009):
        calls.clear()
        for rid in list_families():
            compute_record(rid, p)
        assert len(calls) <= 32, p


def test_construction_work_stays_under_the_gate(monkeypatch):
    # the collections and syllables popped by the constructor alone, on
    # fresh presentations of the 72 rows at p = 7 and 1009.  The 35
    # overlaps of the classical test took 6 390 collections and 11 767
    # syllables at p = 7 (14 339 and 32 345 at p = 1009); the 13 that can
    # fail take 3 189 and 6 920 (11 017 and 27 234), and those of them
    # that can fail on the row, with conjugates of commuting tails in
    # closed form, 1 402 and 4 079 (2 957 and 10 233)
    counts = _count_pops(monkeypatch)
    for p, collections, popped in ((7, 1_470, 4_090),
                                   (1009, 3_100, 10_270)):
        rows = [build(rid, p) for rid in list_families()]
        counts.update(collections=0, popped=0)
        for P in rows:
            PcPresentation(P.prime, P.power_tails, P.comm_tails)
        assert counts["collections"] <= collections, (p, counts)
        assert counts["popped"] <= popped, (p, counts)


def _query_calls(rng, p, visit):
    """One burst of library calls in the mix of the query-mix benchmark:
    products, commutators, an inverse, a power, an order, words and one
    closure, which alternates between the kinds and cycles through 1-3
    (subgroup) or 1-2 (normal) seeds over a row's visits."""
    def element():
        return tuple(rng.randrange(p) for _ in range(5))

    calls = []
    for _ in range(4):
        calls.append((pcgroup.multiply, (element(), element())))
    for _ in range(3):
        calls.append((pcgroup.commutator, (element(), element())))
    calls.append((pcgroup.inverse, (element(),)))
    calls.append((pcgroup.power, (element(), rng.randint(-2 * p, 2 * p))))
    calls.append((pcgroup.order_of, (element(),)))
    for _ in range(5):
        calls.append((pcgroup.normalize, ([
            (rng.randint(1, 5), rng.choice((-1, 1)) * rng.randint(1, p - 1))
            for _ in range(rng.randint(4, 10))],)))
    if visit % 2 == 0:
        close, seeds = pcgroup.subgroup_closure, 1 + visit // 2 % 3
    else:
        close, seeds = pcgroup.normal_closure, 1 + visit // 2 % 2
    calls.append((close, ([element() for _ in range(seeds)],)))
    rng.shuffle(calls)
    return calls


def test_syllables_popped_stay_under_the_gate(monkeypatch):
    # a work gate that sees inside a collection, which the gate on
    # collections cannot: the syllables popped by a seeded query-mix-like
    # call set (six bursts on each of the 72 rows at p = 7, from fresh
    # presentations) and by compute_record on the 72 rows at p = 7.
    # Lifting every syllable at and above a blocker, wrapping every one
    # above g_j and collecting the closures that span G/Phi(G) popped
    # 185 780 and 15 318; the lift and wrap rules of `_collect_into` and
    # the closure exit take them to 142 516 and 14 803 (145 971 and
    # 14 893 without the wrap rule), and the powers of pc generators that
    # `_pow` reads from the presentation take them to 141 681 and 12 093.
    # The 13 overlaps of the constructor take the second to 7 246; the
    # first reads 141 753, as construction fills fewer memo entries that
    # the calls then fill themselves.  Conjugates of commuting tails in
    # closed form and the overlaps that cannot fail left uncollected take
    # them to 135 615 and 4 405
    counts = _count_pops(monkeypatch)
    families._build_cached.cache_clear()
    rng = random.Random(1)
    groups = [build(rid, 7) for rid in list_families()]
    counts.update(collections=0, popped=0)
    for visit in range(6):
        for P in groups:
            for call, args in _query_calls(rng, 7, visit):
                call(*args, P)
    assert counts["popped"] <= 137_000, counts
    families._build_cached.cache_clear()
    counts.update(collections=0, popped=0)
    for rid in list_families():
        compute_record(rid, 7)
    assert counts["popped"] <= 4_420, counts


@pytest.mark.parametrize("p", (5, 7))
def test_lower_central_series_starts_from_the_derived_subgroup(p):
    gens = [generator(i) for i in range(1, 6)]
    for rid in list_families():
        P = build(rid, p)
        # G' by another route: the normal closure of every [g_a, g_i]
        direct = normal_closure([commutator(a, b, P) for a in gens
                                 for b in gens], P)
        gamma2 = lower_central_series(P)[1]
        assert _spans_the_same(gamma2, derived_subgroup(P)), rid
        assert _spans_the_same(gamma2, direct), rid


def parameter_values(rid, p):
    """Every value of each parameter that the row accepts at p: k over
    1..(p-1)/2 within the row's subcase, a and b (exponents of the
    primitive root) over 0..p-2.  The catalog row gives the family's
    parameter names and the k-subcase."""
    data = families._data()
    row = data["rows"][rid]
    half = (p - 1) // 2
    for name in data["families"][row["family"]]["params"]:
        if name != "k":
            values = range(p - 1)
        elif row["k_case"] == "half":
            values = [half]
        elif row["k_case"] == "other":
            values = range(1, half)
        else:
            values = range(1, half + 1)
        for v in values:
            yield {name: v}


def test_every_parameter_value_passes_at_p13():
    count = 0
    for rid in list_families():
        for params in parameter_values(rid, 13):
            rec = compute_record(rid, 13, params)
            validate(rec)
            assert rec.ok, (rid, params)
            count += 1
    assert count == 66


def engine_key(P):
    """(Z(G), G', G^ab, class, exp(G)) of a presentation, by the engine."""
    return (pcgroup.abelian_invariants_of(center(P), P),
            pcgroup.abelian_invariants_of(derived_subgroup(P), P),
            abelianization(P), nilpotency_class(P), exponent(P))


def random_keys(p, seed, draws):
    """The engine keys of the catalog rows at every parameter value at p,
    and the count of each key among the consistent presentations of
    `draws` seeded random ones.  A key that no row has fails, with its
    presentation: a catalog gap or an engine error."""
    catalog = {engine_key(build(rid, p, params))
               for rid in list_families()
               for params in list(parameter_values(rid, p)) or [None]}
    rng = random.Random(seed)
    hits = collections.Counter()
    for _ in range(draws):
        Q = random_presentation_data(rng, p,
                                     rng.choice((0.1, 0.2, 0.35, 0.6)))
        try:
            P = PcPresentation(Q.prime, Q.power_tails, Q.comm_tails)
        except InconsistentPresentation:
            continue
        key = engine_key(P)
        assert key in catalog, (p, key, P.relations_text())
        hits[key] += 1
    return catalog, hits


@pytest.mark.parametrize("p, consistent, hit",
                         ((5, 1881, 32), (7, 1930, 32)))
def test_random_presentations_land_on_the_catalog(p, consistent, hit):
    # every group of order p^5 is a catalog row at some parameter value,
    # so a consistent presentation has the engine key of some row at the
    # same prime.  The catalog has 34 keys at each prime, and the seeded
    # sample hits all but those of rows 1 and 24
    catalog, hits = random_keys(p, 32, 6000)
    assert (sum(hits.values()), len(catalog), len(hits)) == \
        (consistent, 34, hit)


@pytest.mark.slow
@pytest.mark.parametrize("p", (5, 7))
def test_random_presentations_hit_every_catalog_key(p):
    # about 63 000 consistent presentations at each prime hit all 34
    # keys; the rarest, row 24's, once
    catalog, hits = random_keys(p, 33, 200_000)
    assert set(hits) == catalog, catalog - set(hits)


# one large prime of each class modulo 12 (1, 5, 11 and 7), with the
# number of instances that `parameter_values` gives there
@pytest.mark.slow
@pytest.mark.parametrize("p, instances", ((1009, 5544), (1013, 5566),
                                          (1019, 5599), (1039, 5709)))
def test_every_parameter_value_passes_at_a_large_prime(p, instances):
    count = 0
    for rid in list_families():
        for params in parameter_values(rid, p):
            rec = compute_record(rid, p, params)
            validate(rec)
            assert rec.ok, (rid, p, params)
            count += 1
    assert count == instances


@pytest.mark.slow
def test_every_row_passes_at_every_prime_up_to_101():
    for p in (q for q in range(5, 102) if _is_prime(q)):
        for rid in list_families():
            rec = compute_record(rid, p)
            validate(rec)
            assert rec.ok, (rid, p)
