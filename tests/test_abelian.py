"""Partition calculus: canonical forms, functors, SNF, census recovery."""

import doctest

import pytest
from hypothesis import given, settings, strategies as st

from p5tensor import abelian
from p5tensor.abelian import (
    EvenOrderUnsupported,
    ab_from_presentation,
    canon,
    direct_sum,
    format_type,
    gamma,
    order_exponent,
    p_type_from_factors,
    snf,
    tensor_ab,
    type_from_order_census,
    wedge_ab,
)
from p5tensor.pcgroup import PcPresentation

# small partitions, exponents at most 4, at most 4 parts
partitions = st.lists(st.integers(1, 4), max_size=4).map(canon)


def test_canon_sorts_and_drops_zeros():
    assert canon([1, 3, 0, 2, 0]) == (3, 2, 1)
    assert canon([]) == ()
    assert canon((2, 2)) == (2, 2)


def test_direct_sum_merges():
    assert direct_sum((3, 1), (2,), ()) == (3, 2, 1)
    assert direct_sum() == ()


def test_order_exponent_adds_parts():
    assert order_exponent(()) == 0
    assert order_exponent((3, 2, 2)) == 7


@given(partitions, partitions)
def test_tensor_symmetric(a, b):
    assert tensor_ab(a, b) == tensor_ab(b, a)


@given(partitions)
def test_tensor_with_trivial(a):
    assert tensor_ab(a, ()) == ()


def test_tensor_cyclic_pairs():
    # Z_{p^a} (x) Z_{p^b} = Z_{p^min(a,b)}
    assert tensor_ab((3,), (2,)) == (2,)
    assert tensor_ab((3, 2), (2, 1)) == (2, 2, 1, 1)


@given(partitions, partitions, partitions)
@settings(max_examples=60)
def test_tensor_distributes_over_sum(a, b, c):
    lhs = tensor_ab(a, direct_sum(b, c))
    rhs = direct_sum(tensor_ab(a, b), tensor_ab(a, c))
    assert lhs == rhs


def test_wedge_examples():
    assert wedge_ab(()) == ()
    assert wedge_ab((4,)) == ()
    assert wedge_ab((3, 2)) == (2,)
    assert wedge_ab((1, 1, 1)) == (1, 1, 1)


@given(partitions)
def test_gamma_is_type_plus_wedge(a):
    assert gamma(a) == direct_sum(a, wedge_ab(a))


def test_gamma_examples():
    assert gamma(()) == ()
    assert gamma((5,)) == (5,)
    assert gamma((3, 2)) == (3, 2, 2)


@given(partitions, partitions)
@settings(max_examples=60)
def test_gamma_of_sum_expansion(a, b):
    # Whitehead's functor is quadratic: the cross term is the tensor.
    lhs = gamma(direct_sum(a, b))
    rhs = direct_sum(gamma(a), gamma(b), tensor_ab(a, b))
    assert lhs == rhs


def test_gamma_rejects_even_order():
    with pytest.raises(EvenOrderUnsupported):
        gamma((1,), prime=2)
    assert gamma((1,), prime=7) == (1,)


def test_snf_of_diagonal():
    assert snf([[4, 0], [0, 6]]) == [2, 12]
    assert snf([[0, 0], [0, 0]]) == [0, 0]


def test_snf_divisibility_and_cokernel():
    d = snf([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
    assert len(d) == 3
    for i in range(2):
        if d[i + 1] != 0:
            assert d[i] != 0 and d[i + 1] % d[i] == 0


@given(st.lists(st.lists(st.integers(-9, 9), min_size=3, max_size=3),
                min_size=1, max_size=4))
@settings(max_examples=80)
def test_snf_chain_divides(rows):
    d = snf(rows)
    assert all(x >= 0 for x in d)
    for i in range(len(d) - 1):
        if d[i] == 0:
            assert d[i + 1] == 0
        elif d[i + 1] != 0:
            assert d[i + 1] % d[i] == 0


def test_p_type_from_factors():
    assert p_type_from_factors([1, 5, 25], 5) == (2, 1)
    assert p_type_from_factors([], 7) == ()
    with pytest.raises(ValueError):
        p_type_from_factors([10], 5)
    with pytest.raises(ValueError):
        p_type_from_factors([0], 5)


@given(partitions, st.sampled_from([3, 5, 7]))
def test_census_round_trip(a, p):
    top = a[0] if a else 0
    counts = [p ** sum(min(part, k) for part in a) for k in range(top + 2)]
    assert type_from_order_census(counts, p) == a


def test_census_rejects_garbage():
    with pytest.raises(ValueError):
        type_from_order_census([1, 5], 5)  # not stabilized
    with pytest.raises(ValueError):
        type_from_order_census([5, 5, 5], 5)  # k=0 count must be 1
    with pytest.raises(ValueError):
        type_from_order_census([1, 5, 125, 125], 5)  # concave violation


def test_ab_from_presentation_cyclic_tower():
    chain = PcPresentation(5, power_tails={
        1: (0, 1, 0, 0, 0), 2: (0, 0, 1, 0, 0),
        3: (0, 0, 0, 1, 0), 4: (0, 0, 0, 0, 1)})
    assert ab_from_presentation(chain) == (5,)


def test_ab_from_presentation_kills_commutator_tails():
    heis = PcPresentation(5, comm_tails={(2, 1): (0, 0, 1, 0, 0)})
    assert ab_from_presentation(heis) == (1, 1, 1, 1)


def test_format_type_symbolic_and_numeric():
    assert format_type(()) == "1"
    assert format_type((2, 2, 1, 1, 1)) == "Z_{p^2}^2 + Z_p^3"
    assert format_type((2, 2, 1, 1, 1), prime=5) == "Z_25^2 + Z_5^3"
    assert format_type((1,), prime=7) == "Z_7"


def test_docstring_examples():
    result = doctest.testmod(abelian)
    assert result.failed == 0
    assert result.attempted == 21
