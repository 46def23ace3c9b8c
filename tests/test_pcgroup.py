"""Collector, tables, and subgroup machinery on five-generator
power-commutator presentations."""

import math
import random
import types

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from p5tensor import (ab_from_presentation, build, compute_record,
                      list_families, pcgroup, validate)
from p5tensor.oracles import type_from_order_census
from p5tensor.pcgroup import (
    IDENTITY,
    InconsistentPresentation,
    NotAbelian,
    PcPresentation,
    Subgroup,
    abelian_invariants_of,
    center,
    commutator,
    conjugate,
    derived_subgroup,
    exponent,
    generator,
    inverse,
    lower_central_series,
    multiply,
    nilpotency_class,
    normal_closure,
    normalize,
    order_of,
    power,
    subgroup_closure,
    _as_vec,
    _basis,
    _center_seq,
    _conjugate,
)

from tables import (GroupTooLarge, NotNormal, TableGroup,
                    enumerate_elements, letter_consistency_ok,
                    order_census_type)

P5 = 5


def heisenberg(p=P5):
    return PcPresentation(p, comm_tails={(2, 1): (0, 0, 1, 0, 0)})


def cyclic_tower(p=P5):
    return PcPresentation(p, power_tails={
        1: (0, 1, 0, 0, 0), 2: (0, 0, 1, 0, 0),
        3: (0, 0, 0, 1, 0), 4: (0, 0, 0, 0, 1)})


elements = st.tuples(*[st.integers(0, P5 - 1)] * 5)


# --- collection -----------------------------------------------------------

def test_normalize_swaps_past_a_commutator():
    P = build("3", P5)
    assert normalize([(2, 1), (1, 1)], P) == (1, 1, 1, 0, 0)


def test_normalize_handles_negative_exponents():
    P = heisenberg()
    g1 = generator(1)
    assert normalize([(1, -1), (1, 1)], P) == IDENTITY
    assert multiply(normalize([(1, -1)], P), g1, P) == IDENTITY


@pytest.mark.parametrize("p", (5, 7))
def test_negative_generator_powers_invert_the_powers(p):
    # heisenberg() has trivial power tails; the catalog rows do not, so
    # a wrong inverse tail shows here
    for row in ALL_ROWS:
        P = build(row, p)
        for i in range(1, 6):
            for n in range(1, p):
                assert normalize([(i, -n)], P) == \
                    inverse(power(generator(i), n, P), P), (row, i, n)


def test_normal_form_is_fixed_point():
    P = build("14", P5)
    e = normalize([(2, 3), (1, 4), (3, 1)], P)
    again = normalize([(i + 1, e[i]) for i in range(5)], P)
    assert again == e


def test_commutator_worked_example():
    P = build("3", P5)
    assert commutator(generator(3), generator(1), P) == generator(4)


def test_power_worked_example():
    P = build("4", P5)
    assert power(generator(2), P5, P) == generator(5)


@given(elements, elements)
@settings(max_examples=40, deadline=None)
def test_product_of_inverse_is_identity(a, b):
    P = heisenberg()
    ab = multiply(a, b, P)
    assert multiply(ab, inverse(ab, P), P) == IDENTITY
    assert multiply(inverse(ab, P), ab, P) == IDENTITY


@given(elements, elements, elements)
@settings(max_examples=40, deadline=None)
def test_multiplication_associates(a, b, c):
    P = build("40", P5)
    lhs = multiply(multiply(a, b, P), c, P)
    rhs = multiply(a, multiply(b, c, P), P)
    assert lhs == rhs


@given(elements, elements)
@settings(max_examples=30, deadline=None)
def test_conjugate_and_commutator_definitions(a, b):
    P = build("17", P5)
    byhand = multiply(multiply(a, b, P), inverse(a, P), P)
    assert conjugate(a, b, P) == byhand
    word = multiply(
        multiply(inverse(a, P), inverse(b, P), P), multiply(a, b, P), P)
    assert commutator(a, b, P) == word


@given(elements)
@settings(max_examples=30, deadline=None)
def test_order_divides_group_order(a):
    P = build("10", P5)
    n = order_of(a, P)
    assert P5**5 % n == 0
    assert power(a, n, P) == IDENTITY
    if n > 1:
        assert power(a, n // P5, P) != IDENTITY


@pytest.mark.parametrize("p", (7, 17))
def test_normalize_takes_large_exponents(p):
    # at p = 17, p^5 - 1 is about 1.4 M units of exponent in one pair
    for row in ("1", "9", "14", "40"):
        P = build(row, p)
        for g in range(1, 6):
            assert normalize([(g, p)], P) == P.power_tails[g - 1], row
            for n in (p, p**2 + 3, p**5 - 1, -p - 1, -(p**5 - 1)):
                assert normalize([(g, n)], P) == \
                    power(generator(g), n, P), (row, g, n)


def word_of(e):
    return [(i + 1, x) for i, x in enumerate(e)]


def test_element_operations_at_p101():
    p = 101
    rng = random.Random(p)
    for row in ALL_ROWS:
        P = build(row, p)
        for _ in range(3):
            a, b, c = (tuple(rng.randrange(p) for _ in range(5))
                       for _ in range(3))
            ab = multiply(a, b, P)
            assert ab == normalize(word_of(a) + word_of(b), P), row
            assert multiply(ab, c, P) == multiply(a, multiply(b, c, P), P)
            assert multiply(a, inverse(a, P), P) == IDENTITY, row
            n = order_of(a, P)
            assert p**5 % n == 0, row
            assert power(a, n, P) == IDENTITY, row
        for bad in ((p, 0, 0, 0, 0), (0, 0, -1, 0, 0)):
            with pytest.raises(ValueError):
                multiply(bad, a, P)
            with pytest.raises(ValueError):
                order_of(bad, P)


# --- enumeration and consistency ------------------------------------------

def test_enumerate_full_group():
    P = heisenberg()
    elems = enumerate_elements(P)
    assert len(elems) == P5**5
    assert IDENTITY in elems


def test_consistency_catches_bad_power_tail():
    # [g2,g1] = g3 with g3^p = g4 forces g4 = 1 on collection of g2*g1^p,
    # so the presentation defines a smaller group
    with pytest.raises(InconsistentPresentation) as exc:
        PcPresentation(P5, power_tails={3: (0, 0, 0, 1, 0)},
                       comm_tails={(2, 1): (0, 0, 1, 0, 0)})
    assert exc.value.failures == (
        "overlap g2^p g1 != g2^(p-1)(g2 g1): "
        "(1, 0, 0, 0, 0) vs (1, 0, 0, 1, 0)",
        "overlap g2 g1^p != (g2 g1)g1^(p-1): "
        "(0, 1, 0, 0, 0) vs (0, 1, 0, 1, 0)")
    assert str(exc.value) == exc.value.failures[0]


def test_exponents_and_generator_indices_must_be_integers():
    # operator.index semantics: a float is refused, not truncated; ints
    # of any integral type pass
    P = heisenberg()
    with pytest.raises(ValueError, match="must be integers"):
        multiply((1.9, 0, 0, 0, 0), (0, 2.2, 0, 0, 0), P)
    for pair in ((1.5, 2), (1, 2.7)):
        with pytest.raises(ValueError, match="must be integers"):
            normalize([pair], P)
    with pytest.raises(ValueError, match="must be integers"):
        PcPresentation(7, power_tails={1: (0, 0.5, 0, 0, 0)})
    assert multiply((np.int64(1), 0, 0, 0, 0), (0, True, 0, 0, 0), P) == \
        normalize([(np.int64(1), 1), (2, np.int8(1))], P) == (1, 1, 0, 0, 0)


@pytest.mark.parametrize("value, got", (
    ((1, 2, 3, 4, 0), (1, 2, 3, 4, 0)),
    ([1, 2, 3, 4, 0], (1, 2, 3, 4, 0)),
    ((True, False, 0, 0, 1), (1, 0, 0, 0, 1)),
    ((np.int64(4), 0, np.int8(1), 0, 0), (4, 0, 1, 0, 0)),
    (np.array([0, 0, 0, 0, 2]), (0, 0, 0, 0, 2)),
    (None, IDENTITY)))
def test_exponent_vectors_are_read_as_int_tuples(value, got):
    # the exact tuple of five ints in [0, p) is returned as it is; every
    # other integral input is read into one
    vec = _as_vec(value, P5)
    assert vec == got and type(vec) is tuple
    assert all(type(x) is int for x in vec)


@pytest.mark.parametrize("value, message", (
    ((1.0, 0, 0, 0, 0), "exponents must be integers"),
    ([0, 0, 0.5, 0, 0], "exponents must be integers"),
    (("1", 0, 0, 0, 0), "exponents must be integers"),
    (7, "exponents must be integers"),
    ((1, 0, 0, 0), "exponent vector must have length 5"),
    ((1, 0, 0, 0, 0, 0), "exponent vector must have length 5"),
    *((IDENTITY[:k] + (x,) + IDENTITY[k + 1:],
       rf"exponent {x} outside \[0, 5\)") for k in range(5) for x in (-1, 5)),
    ([0, 0, 0, 0, 9], r"exponent 9 outside \[0, 5\)"),
    ((np.int64(6), 0, 0, 0, 0), r"exponent 6 outside \[0, 5\)"),
    ((True, 0, 0, 0, 5), r"exponent 5 outside \[0, 5\)")))
def test_exponent_vectors_are_refused_with_the_reason(value, message):
    with pytest.raises(ValueError, match=message):
        _as_vec(value, P5)
    with pytest.raises(ValueError, match=message):
        multiply(value, IDENTITY, heisenberg())


def test_power_tail_keys_are_generator_indices():
    v = (0, 0, 0, 1, 0)
    for key in (0, 6):
        with pytest.raises(ValueError, match=f"bad power tail index {key}"):
            PcPresentation(P5, power_tails={key: (0, 0, 0, 0, 1)})
    assert PcPresentation(P5, power_tails={"3": v}) == \
        PcPresentation(P5, power_tails={3: v})
    with pytest.raises(ValueError, match="index must be an integer"):
        PcPresentation(P5, power_tails={3.0: v})


def test_power_refuses_a_float_exponent():
    # a float exponent is refused, not truncated to the square
    with pytest.raises(ValueError, match="must be integers"):
        power(generator(1), 2.5, heisenberg())
    assert power(generator(1), np.int64(2), heisenberg()) == (2, 0, 0, 0, 0)


def test_prime_must_be_an_integer():
    for prime in (7.9, 7.0, "7"):
        with pytest.raises(ValueError, match="must be an integer"):
            PcPresentation(prime)
    assert PcPresentation(np.int64(7)) == PcPresentation(7)


def test_commutator_pairs_must_be_integers():
    # (2.6, 1.2) is not read as the pair (2, 1)
    with pytest.raises(ValueError, match="must be integers"):
        PcPresentation(P5, comm_tails={(2.6, 1.2): (0, 0, 1, 0, 0)})
    assert PcPresentation(P5, comm_tails={(np.int64(2), 1): (0, 0, 1, 0, 0)})\
        == heisenberg()


def test_tables_stop_at_the_table_limit():
    assert TableGroup(PcPresentation(13)).n == 13**5
    big = PcPresentation(17)
    with pytest.raises(GroupTooLarge):
        TableGroup(big)


def perturbed(P, rng):
    """The raw data of P with one tail exponent changed: in the power
    tail of one of g1..g4 or the tail of one [g_j, g_i] with j < 5, at a
    position above g_i or g_j, to a new value.  It may not define a
    group, so it is not a PcPresentation."""
    p = P.prime
    power_tails, comm_tails = list(P.power_tails), dict(P.comm_tails)
    slots = [(power_tails, i - 1, i) for i in range(1, 5)] + \
        [(comm_tails, (j, i), j) for j, i in comm_tails if j < 5]
    tails, key, low = rng.choice(slots)
    vec = list(tails[key])
    m = rng.randrange(low, 5)
    vec[m] = rng.choice([x for x in range(p) if x != vec[m]])
    tails[key] = tuple(vec)
    return types.SimpleNamespace(prime=p, power_tails=power_tails,
                                 comm_tails=comm_tails)


def constructs(Q) -> bool:
    try:
        PcPresentation(Q.prime, Q.power_tails, Q.comm_tails)
    except InconsistentPresentation:
        return False
    return True


@pytest.mark.parametrize("p", (5, 7))
def test_consistency_verdict_matches_the_letter_collector(p):
    rng = random.Random(p)
    verdicts = []
    for row in ALL_ROWS:
        P = build(row, p)
        for _ in range(8):
            Q = perturbed(P, rng)
            ok = constructs(Q)
            assert ok == letter_consistency_ok(Q), (row, Q)
            verdicts.append(ok)
    # the sample holds both verdicts in number
    assert 50 < verdicts.count(False) < len(verdicts) - 50


def test_consistency_clean_on_good_presentations():
    # construction raises on a failing overlap
    for fam in ("1", "9", "24", "40", "64"):
        build(fam, P5)


# --- subgroups, quotients, invariants --------------------------------------

def test_closure_worked_examples():
    P = build("3", P5)
    assert subgroup_closure([generator(3)], P).order == 5
    assert normal_closure([generator(3)], P).order == 125


def test_center_and_derived_of_heisenberg():
    P = heisenberg()
    z = center(P)
    assert z.order == 125
    assert abelian_invariants_of(z, P) == (1, 1, 1)
    d = derived_subgroup(P)
    assert d.order == 5
    assert generator(3) in d


def test_center_of_an_odd_rank_commutator_form():
    # [g2,g1] = [g3,g1] = [g3,g2] = g4: the form on <g1, g2, g3> modulo
    # <g4, g5> is alternating of rank 2, and its radical g1 g2^-1 g3 is
    # central though no pc generator below g4 is; the layer map needs
    # [g_a, g_i] for a < i, the inverse of a tail
    g4 = (0, 0, 0, 1, 0)
    P = PcPresentation(P5, comm_tails={(2, 1): g4, (3, 1): g4, (3, 2): g4})
    g = TableGroup(P)
    z = center(P)
    assert (as_mask(g, z) == center_mask(g)).all()
    assert z.order == 5**3
    assert normalize([(1, 1), (2, -1), (3, 1)], P) in z


def test_quotient_of_cyclic_tower():
    P = cyclic_tower()
    q = TableGroup(P).quotient(subgroup_closure([generator(5)], P))
    assert q.order == P5**4
    assert q.abelian_invariants() == (4,)


def test_quotient_rejects_non_normal_subgroup():
    P = heisenberg()
    with pytest.raises(NotNormal):
        TableGroup(P).quotient(subgroup_closure([generator(1)], P))


def whole_group(P):
    return subgroup_closure([generator(i) for i in range(1, 6)], P)


def test_census_of_full_abelian_group():
    P = build("13", P5)
    assert abelian_invariants_of(whole_group(P), P) == (3, 2)


def test_census_rejects_nonabelian_set():
    P = heisenberg()
    with pytest.raises(NotAbelian):
        abelian_invariants_of(whole_group(P), P)


def test_center_type_worked_example():
    P = build("14", P5)
    assert abelian_invariants_of(center(P), P) == (2, 1)


def test_abelian_invariants_refuse_another_presentation():
    # Z(G) of row 70 is abelian, but its sequence means nothing in row 14
    with pytest.raises(ValueError, match="another presentation") as exc:
        abelian_invariants_of(center(build("70", P5)), build("14", 7))
    assert not isinstance(exc.value, NotAbelian)


def power_census_type(P, gens, relators=()):
    """Type of the abelian A = <gens, relators>^G / <relators>^G, from the
    census |A / p^k A| = |<gens, relators>^G| / |<gens^(p^k), relators>^G|,
    k = 0, 1, ... (^G is the normal closure; p^k A is generated by the
    images of the gens^(p^k) since A is abelian).  Closures and powers
    only, no relation matrix."""
    p, relators = P.prime, list(relators)
    whole = normal_closure(list(gens) + relators, P).order
    counts = [1]
    while len(counts) < 2 or counts[-1] != counts[-2]:
        q = p ** len(counts)
        powers = [power(g, q, P) for g in gens]
        counts.append(whole // normal_closure(powers + relators, P).order)
    return type_from_order_census(counts, p)


@pytest.mark.parametrize("p", (1009, 100003))
def test_structure_types_match_a_power_census_at_large_p(p):
    gens = [generator(i) for i in range(1, 6)]
    for row in list_families():
        P = build(row, p)
        comms = [commutator(a, b, P) for a in gens for b in gens]
        assert ab_from_presentation(P) == power_census_type(P, gens,
                                                            comms), row
        for sub in (center(P), derived_subgroup(P)):
            assert (abelian_invariants_of(sub, P)
                    == power_census_type(P, sub.generators)), row


def test_series_and_class():
    assert nilpotency_class(cyclic_tower()) == 1
    assert nilpotency_class(heisenberg()) == 2
    series = lower_central_series(build("17", P5))
    assert [s.order for s in series] == [5**5, 5**2, 5, 1]
    series = lower_central_series(build("10", P5))
    assert [s.order for s in series] == [5**5, 5**3, 5**2, 1]


def test_exponent_values():
    assert exponent(cyclic_tower()) == P5**5
    assert exponent(heisenberg()) == P5
    assert exponent(build("14", P5)) == P5**3
    assert exponent(build("17", P5)) == P5**2


# --- reference routes (test oracles, not runtime routes) ------------------

ALL_ROWS = list(list_families())
VARIANTS_P7 = [("11", {"k": 2}), ("12", {"k": 2}), ("48", {"k": 2}),
               ("50", {"k": 2}), ("29", {"a": 2}), ("33", {"b": 2})]


def groups_at(p):
    """The 72 rows at p, plus the parameter variants at p = 7."""
    groups = [(row, None) for row in ALL_ROWS]
    if p == 7:
        groups += VARIANTS_P7
    return groups


def times_every(g, a):
    """a[x] * x for every element x: apply R[m] as often as x's m-th
    exponent, on all p^5 elements at once."""
    every = np.arange(g.n)
    for m in range(1, 6):
        digit = every // g.strides[m - 1] % g.p
        for d in range(1, g.p):
            a = np.where(digit >= d, g.R[m][a], a)
    return a


def pth_brute_force(g):
    """x -> x^p on every element at once, as p - 1 passes of times_every."""
    every = np.arange(g.n)
    pth = every
    for _ in range(g.p - 1):
        pth = times_every(g, pth)
    return pth


def largest_order_brute_force(pth, p):
    """Largest element order, iterating the p-th power map `pth` on all
    p^5 elements until every element has reached the identity."""
    steps, cur = 0, np.arange(pth.size)
    while cur.any():
        cur = pth[cur]
        steps += 1
    return p**steps


@pytest.mark.parametrize("p", (5, 7))
def test_exponent_matches_brute_force_element_orders(p):
    for row, params in groups_at(p):
        P = build(row, p, params)
        g = TableGroup(P)
        pth = pth_brute_force(g)
        assert (g.pth(np.arange(g.n)) == pth).all(), (row, params)
        assert exponent(P) == largest_order_brute_force(pth, p), (row, params)


def table_order(g, x):
    """The order of element index x, by the tables' p-th power map."""
    n, y = 1, np.array([x])
    while y[0]:
        y, n = g.pth(y), n * g.p
    return n


@pytest.mark.parametrize("p", (5, 7))
def test_burnside_basis_and_orders_match_the_tables(p):
    # |G : Phi(G)| = p^|basis|, with Phi(G) = G^p G' the normal closure
    # of the tails formed on the tables; the basis generates G; and
    # order_of, which stops at exp(G), against the p-th power map
    rng = random.Random(p)
    for row, params in groups_at(p):
        P = build(row, p, params)
        g = TableGroup(P)
        where = (row, params)
        tails = P.power_tails + tuple(P.comm_tails.values())
        phi = normal_closure_mask(g, np.array([g.idx_of(t) for t in tails]))
        basis = _basis(P)
        assert p ** (5 - len(basis)) == phi.sum(), where
        assert subgroup_closure(basis, P).order == p**5, where
        xs = [g.idx_of(generator(i)) for i in range(1, 6)]
        xs += [rng.randrange(g.n) for _ in range(20)]
        for x in xs:
            assert order_of(g.exps_of(x), P) == table_order(g, x), (where, x)


@pytest.mark.parametrize("p", (5, 7))
def test_left_inverse_and_conjugation_tables_on_every_element(p):
    for row, params in groups_at(p):
        g = TableGroup(build(row, p, params))
        every = np.arange(g.n)
        L, Linv = g.left
        for i in range(1, 6):
            gi = np.full(g.n, g.strides[i - 1])
            assert (L[i] == times_every(g, gi)).all(), (row, params, i)
            assert (Linv[i][L[i]] == every).all(), (row, params, i)
            assert (g.conj[i] == g.R[i][Linv[i]]).all(), (row, params, i)
        assert not times_every(g, g.inv).any(), (row, params)


@pytest.mark.parametrize("p", (5, 7))
def test_element_operations_match_the_oracle_tables(p):
    # inverse on every element; commutator on the 25 pairs of pc
    # generators (the presentation's table) and, with conjugate, on
    # seeded pairs, against inv[ba] ab and ab inv[a] formed with R
    rng = random.Random(p)
    for row, params in groups_at(p):
        P = build(row, p, params)
        g = TableGroup(P)
        inv = g.inv
        got = [g.solve_idx(x, 0) for x in range(g.n)]
        assert (np.array(got) == inv).all(), (row, params)
        gens = [g.idx_of(generator(i)) for i in range(1, 6)]
        for a in gens:
            for b in gens:
                ab, ba = g.mult_idx(a, b), g.mult_idx(b, a)
                assert commutator(g.exps_of(a), g.exps_of(b), P) == \
                    g.exps_of(g.mult_idx(int(inv[ba]), ab)), (row, params)
        for _ in range(20):
            a, b = rng.randrange(g.n), rng.randrange(g.n)
            ea, eb = g.exps_of(a), g.exps_of(b)
            ab, ba = g.mult_idx(a, b), g.mult_idx(b, a)
            assert inverse(ea, P) == g.exps_of(inv[a]), (row, params)
            assert commutator(ea, eb, P) == \
                g.exps_of(g.mult_idx(int(inv[ba]), ab)), (row, params)
            assert conjugate(ea, eb, P) == \
                g.exps_of(g.mult_idx(ab, int(inv[a]))), (row, params)


@pytest.mark.parametrize("p, fresh", (
    pytest.param(5, False, id="5"), pytest.param(7, False, id="7"),
    pytest.param(5, True, id="5-fresh"), pytest.param(7, True, id="7-fresh")))
def test_conjugate_memo_matches_the_tables(p, fresh):
    # memo entry (j, m, e, c) against g_j^-e g_m^c g_j^e: the table
    # conj[j] applied e times to g_m^c, for every entry of a pair in
    # `_blockers`; for a commuting pair the collector pushes g_m^c back
    # as it is, so the table must fix it.  `fresh` asks a new
    # presentation, whose memo is empty, for the entries from e = p - 1
    # down, so each entry is checked as the recursion first builds it
    entries = 0
    for row, params in groups_at(p):
        P = build(row, p, params)
        g = TableGroup(P)
        if fresh:
            # the constructor's overlaps fill some entries; start empty
            P = PcPresentation(p, P.power_tails, P.comm_tails)
            P._conj.clear()
        memo = P._conj
        for j in range(1, 5):
            for m in range(j + 1, 6):
                x = [np.arange(1, p) * g.strides[m - 1]]
                for e in range(1, p):
                    x.append(g.conj[j][x[-1]])
                for e in range(p - 1, 0, -1) if fresh else range(1, p):
                    for c in range(1, p):
                        if m in P._blockers[j]:
                            syl = (memo.get((j, m, e, c))
                                   or _conjugate(P, j, m, e, c))
                        else:
                            syl = [(m, c)]
                        got = [0, 0, 0, 0, 0]
                        for l, v in syl:
                            got[l - 1] = v
                        assert tuple(got) == g.exps_of(x[e][c - 1]), \
                            (row, params, j, m, e, c)
                        entries += 1
        assert all(m in P._blockers[j] for j, m, _, _ in memo), (row, params)
    assert entries == len(groups_at(p)) * 10 * (p - 1)**2


@pytest.mark.parametrize("p", (1009, 100003))
def test_conjugate_memo_of_one_row_stays_small(p):
    # phi_e = phi_(e-h) o phi_h: an entry rests on O(log p) others, so
    # the overlaps of row 59, which need the conjugates by g_j^(p-1),
    # fill O(log^2 p) entries for each pair (j, m) with [g_m, g_j] != 1;
    # a commuting pair never enters the memo.  A new presentation holds
    # the constructor's entries only
    Q = build("59", p)
    P = PcPresentation(p, Q.power_tails, Q.comm_tails)
    pairs = sum(map(len, P._blockers[1:]))
    assert all(m in P._blockers[j] for j, m, _, _ in P._conj)
    assert 0 < len(P._conj) <= pairs * math.log2(p)**2


@pytest.mark.parametrize("p", (5, 7))
def test_coset_reps_are_least_coset_elements(p):
    # rep[x]^-1 x in N puts rep[x] in x N; constant under N's generators
    # and rep[x] <= x make it the least element there
    for row, params in groups_at(p):
        P = build(row, p, params)
        g = TableGroup(P)
        for N in (derived_subgroup(P), center(P)):
            gen_idxs = [g.idx_of(s) for s in N.generators]
            rep = g.coset_reps(gen_idxs or [0])
            inside = as_mask(g, N)
            assert inside[times_every(g, g.inv[rep])].all(), (row, params)
            assert (rep <= np.arange(g.n)).all(), (row, params)
            for h in gen_idxs:
                assert (rep[g._perm_of(h)] == rep).all(), (row, params)


def closure_mask(g, seeds, normal=False):
    """Table route: the subgroup the element indices `seeds` generate, or
    with `normal` their normal closure, as a mask over the indices, by
    breadth-first search under right multiplication by the seeds (and
    conjugation by g1..g5)."""
    perms = [g._perm_of(int(s)) for s in seeds]
    if normal:
        perms += g.conj[1:]
    mask = np.zeros(g.n, dtype=bool)
    mask[0] = True
    frontier = np.array([0])
    while frontier.size and perms:
        img = np.concatenate([perm[frontier] for perm in perms])
        frontier = np.unique(img[~mask[img]])
        mask[frontier] = True
    return mask


def normal_closure_mask(g, candidates):
    """Table route: the normal closure of the index array `candidates`,
    adding as seed each candidate that the closure so far misses."""
    mask = np.zeros(g.n, dtype=bool)
    mask[0] = True
    seeds = []
    for c in np.unique(candidates):
        if not mask[c]:
            seeds.append(c)
            mask = closure_mask(g, seeds, normal=True)
    return mask


def center_mask(g):
    """Table route: x is central when x g_i = g_i x for every i."""
    L = g.left[0]
    mask = np.ones(g.n, dtype=bool)
    for i in range(1, 6):
        mask &= g.R[i] == L[i]
    return mask


def centralizing_masks(g):
    """Table route: mask d, for d = 2, 3, 4, holds the x whose commutators
    [x, g_i] = x^-1 (g_i^-1 x g_i) all have depth >= d, i.e. an index
    below p^(5-d)."""
    deepest = np.zeros(g.n, dtype=np.int64)
    for i in range(1, 6):
        deepest = np.maximum(deepest, g.mult_arrays(g.inv, g.conj[i]))
    return {d: deepest < g.p ** (5 - d) for d in (2, 3, 4)}


def lower_central_masks(g):
    """Table route: gamma_(c+1) is the normal closure of [x, g_i] =
    x^-1 (g_i^-1 x g_i) over every x in gamma_c."""
    series = [np.ones(g.n, dtype=bool)]
    while series[-1].sum() > 1:
        x = np.flatnonzero(series[-1])
        comms = [g.mult_arrays(g.inv[x], g.conj[i][x]) for i in range(1, 6)]
        series.append(normal_closure_mask(g, np.concatenate(comms)))
    return series


def as_mask(g, sub):
    """The products s_1^e_1 ... s_m^e_m of a pc sequence, formed with the
    tables, as a mask; they must be p^m distinct elements."""
    prods = np.zeros(1, dtype=np.int64)
    for s in reversed(sub.generators):
        powers = [0]
        for _ in range(g.p - 1):
            powers.append(g.mult_idx(powers[-1], g.idx_of(s)))
        prods = g.mult_arrays(np.repeat(powers, prods.size),
                              np.tile(prods, g.p))
    mask = np.zeros(g.n, dtype=bool)
    mask[prods] = True
    assert mask.sum() == sub.order
    return mask


def census_type(g, mask):
    idxs = np.flatnonzero(mask)
    return order_census_type(idxs, g.pth(idxs), g.p)


@pytest.mark.parametrize(
    "p", (5, 7, pytest.param(11, marks=pytest.mark.slow)))
def test_pc_sequences_match_the_table_route(p):
    rng, tail_rng = random.Random(p), random.Random(-p)
    for row, params in groups_at(p):
        P = build(row, p, params)
        g = TableGroup(P)
        where = (row, params)
        z, d = center(P), derived_subgroup(P)
        assert (as_mask(g, z) == center_mask(g)).all(), where
        for stop, mask in centralizing_masks(g).items():
            sub = Subgroup(P, _center_seq(P, stop))
            assert (as_mask(g, sub) == mask).all(), (where, stop)
        assert abelian_invariants_of(z, P) == census_type(g, as_mask(g, z))
        series = lower_central_masks(g)
        assert (as_mask(g, d) == series[1]).all(), where
        assert abelian_invariants_of(d, P) == census_type(g, series[1])
        got = lower_central_series(P)
        assert len(got) == len(series), where
        for sub, mask in zip(got, series):
            assert (as_mask(g, sub) == mask).all(), where
        for k in (1, 2, 3):
            seeds = [rng.randrange(g.n) for _ in range(k)]
            elems = [g.exps_of(s) for s in seeds]
            sub = subgroup_closure(elems, P)
            assert (as_mask(g, sub) == closure_mask(g, seeds)).all(), where
            sub = normal_closure(elems, P)
            assert (as_mask(g, sub) ==
                    closure_mask(g, seeds, normal=True)).all(), where
            assert all(e in sub for e in elems), where
        # closures whose tail fills first: the deep seeds (depth >= 2, an
        # index below p^3) are popped first, so the closure stops at a
        # full tail while the shallow seed's powers and commutators remain
        for deep in ([g.idx_of(generator(i)) for i in (3, 4, 5)],
                     [tail_rng.randrange(p**3) for _ in range(3)]):
            seeds = [tail_rng.randrange(p**3, g.n)] + deep
            elems = [g.exps_of(s) for s in seeds]
            for close, normal in ((subgroup_closure, False),
                                  (normal_closure, True)):
                assert (as_mask(g, close(elems, P)) ==
                        closure_mask(g, seeds, normal)).all(), (where, seeds)


def test_subgroup_elements_are_the_pc_products():
    for row in ("2", "14", "40", "43", "70"):
        P = build(row, P5)
        g = TableGroup(P)
        for sub in (center(P), derived_subgroup(P)):
            mask = as_mask(g, sub)
            inside = [g.exps_of(x) in sub for x in range(g.n)]
            assert (np.array(inside) == mask).all(), row


def test_subgroup_routes_build_no_tables(monkeypatch):
    # records and element operations run on the collector alone: pcgroup
    # holds no numpy, and no table oracle is built on the way
    def refuse(self, P):
        raise AssertionError("TableGroup built")

    monkeypatch.setattr(TableGroup, "__init__", refuse)
    assert not [name for name, value in vars(pcgroup).items()
                if isinstance(value, types.ModuleType)
                and value.__name__.partition(".")[0] == "numpy"]
    for row in ALL_ROWS:
        rec = compute_record(row, 7)
        validate(rec)
        assert rec.ok, row
        P = build(row, 7)
        assert commutator(generator(2), generator(1), P) == \
            P.comm_tail(2, 1), row


def test_quotient_by_derived_subgroup_is_the_abelianization():
    for row in ALL_ROWS:
        P = build(row, P5)
        got = TableGroup(P).quotient(derived_subgroup(P)).abelian_invariants()
        assert got == ab_from_presentation(P), row
