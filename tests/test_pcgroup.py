"""Collector, tables, and subgroup machinery on five-generator
power-commutator presentations."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from p5tensor import ab_from_presentation, build, list_families
from p5tensor.pcgroup import (
    IDENTITY,
    GroupTooLarge,
    InconsistentPresentation,
    NotAbelian,
    NotNormal,
    PcGroup,
    PcPresentation,
    abelian_invariants_of,
    center,
    commutator,
    conjugate,
    consistency_check,
    derived_subgroup,
    enumerate_elements,
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
    quotient,
    subgroup_closure,
    _group,
)

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


# --- enumeration and consistency ------------------------------------------

def test_enumerate_full_group():
    P = heisenberg()
    elems = enumerate_elements(P)
    assert len(elems) == P5**5
    assert IDENTITY in elems


def test_consistency_catches_bad_power_tail():
    # [g2,g1] = g3 with g3^p = g4 forces g4 = 1 on collection of g2*g1^p,
    # so the presentation defines a smaller group
    bad = PcPresentation(P5, power_tails={3: (0, 0, 0, 1, 0)},
                         comm_tails={(2, 1): (0, 0, 1, 0, 0)})
    rep = consistency_check(bad)
    assert not rep.ok
    assert rep.failures
    with pytest.raises(InconsistentPresentation):
        center(bad)


def test_tables_stop_at_the_table_limit():
    assert PcGroup(PcPresentation(13)).n == 13**5
    big = PcPresentation(17)
    with pytest.raises(GroupTooLarge):
        PcGroup(big)
    with pytest.raises(GroupTooLarge):
        enumerate_elements(big)


def test_consistency_clean_on_good_presentations():
    for fam in ("1", "9", "24", "40", "64"):
        assert consistency_check(build(fam, P5)).ok


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


def test_quotient_of_cyclic_tower():
    P = cyclic_tower()
    q = quotient(P, subgroup_closure([generator(5)], P))
    assert q.order == P5**4
    assert q.abelian_invariants() == (4,)


def test_quotient_rejects_non_normal_subgroup():
    P = heisenberg()
    with pytest.raises(NotNormal):
        quotient(P, subgroup_closure([generator(1)], P))


def test_census_of_full_abelian_group():
    P = build("13", P5)
    assert abelian_invariants_of(enumerate_elements(P), P) == (3, 2)


def test_census_rejects_nonabelian_set():
    P = heisenberg()
    with pytest.raises(NotAbelian):
        abelian_invariants_of(enumerate_elements(P), P)


def test_census_rejects_unclosed_set():
    P = heisenberg()
    with pytest.raises(ValueError):
        abelian_invariants_of([IDENTITY, generator(1)], P)
    # closed as a set, but one element twice would double its count
    z = subgroup_closure([generator(3)], P).elements
    with pytest.raises(ValueError, match="repeats"):
        abelian_invariants_of(list(z) + [generator(3)], P)


def test_center_type_worked_example():
    P = build("14", P5)
    assert abelian_invariants_of(center(P), P) == (2, 1)


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

ALL_ROWS = [s.id for s in list_families()]
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
        g = _group(P)
        pth = pth_brute_force(g)
        assert (g.pth(np.arange(g.n)) == pth).all(), (row, params)
        assert exponent(P) == largest_order_brute_force(pth, p), (row, params)


@pytest.mark.parametrize("p", (5, 7))
def test_left_inverse_and_conjugation_tables_on_every_element(p):
    for row, params in groups_at(p):
        g = _group(build(row, p, params))
        every = np.arange(g.n)
        L, Linv = g.left
        for i in range(1, 6):
            gi = np.full(g.n, g.strides[i - 1])
            assert (L[i] == times_every(g, gi)).all(), (row, params, i)
            assert (Linv[i][L[i]] == every).all(), (row, params, i)
            assert (g.conj[i] == g.R[i][Linv[i]]).all(), (row, params, i)
        assert not times_every(g, g.inv).any(), (row, params)


@pytest.mark.parametrize("p", (5, 7))
def test_coset_reps_are_least_coset_elements(p):
    # rep[x]^-1 x in N puts rep[x] in x N; constant under N's generators
    # and rep[x] <= x make it the least element there
    for row, params in groups_at(p):
        P = build(row, p, params)
        g = _group(P)
        for N in (derived_subgroup(P), center(P)):
            rep = g.coset_reps(N.gen_idxs or [0])
            inside = np.zeros(g.n, dtype=bool)
            inside[N.idxs] = True
            assert inside[times_every(g, g.inv[rep])].all(), (row, params)
            assert (rep <= np.arange(g.n)).all(), (row, params)
            for h in N.gen_idxs:
                assert (rep[g._perm_of(h)] == rep).all(), (row, params)


def test_quotient_by_derived_subgroup_is_the_abelianization():
    for row in ALL_ROWS:
        P = build(row, P5)
        got = quotient(P, derived_subgroup(P)).abelian_invariants()
        assert got == ab_from_presentation(P), row
