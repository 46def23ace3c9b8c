"""Partition calculus: canonical forms, functors, the Smith form modulo
p^6, census recovery."""

import doctest
import time
import types

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from p5tensor import abelian, oracles
from p5tensor.abelian import (
    EvenOrderUnsupported,
    ab_from_presentation,
    canon,
    cokernel_type,
    direct_sum,
    format_type,
    gamma,
    order_exponent,
    tensor_ab,
    wedge_ab,
)
from p5tensor.oracles import cokernel_order, type_from_order_census
from p5tensor.pcgroup import PcPresentation

# small partitions, exponents at most 4, at most 4 parts
partitions = st.lists(st.integers(1, 4), max_size=4).map(canon)


def test_canon_sorts_and_drops_zeros():
    assert canon([1, 3, 0, 2, 0]) == (3, 2, 1)
    assert canon([]) == ()
    assert canon((2, 2)) == (2, 2)


@pytest.mark.parametrize("bad", ([2.7, 1], [1, 2.0], ["2", 1], [1, "x"]))
def test_canon_refuses_non_integers(bad):
    # a float is never truncated, and a string is never parsed
    with pytest.raises(ValueError, match="must be integers"):
        canon(bad)


def test_canon_accepts_numpy_integers():
    parts = canon(np.array([1, 0, 3], dtype=np.int64))
    assert parts == (3, 1)
    assert all(type(e) is int for e in parts)


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


def census_type(rows, p):
    """Type of C = Z^n / <rows> from the census |C / p^k C|, k = 0, 1, ...,
    each count the order of the cokernel of the rows stacked on p^k I."""
    n = len(rows[0])
    counts = [1]
    while len(counts) < 2 or counts[-1] != counts[-2]:
        q = p ** len(counts)
        ambient = [[q * (i == j) for j in range(n)] for i in range(n)]
        counts.append(cokernel_order(list(rows) + ambient, n))
    return type_from_order_census(counts, p)


@st.composite
def p_group_relations(draw):
    """Dense rows with entries in [-60, 60] stacked on a diagonal of
    p^1..p^3: the cokernel is a finite p-group."""
    p = draw(st.sampled_from([3, 5, 7]))
    n = draw(st.integers(2, 5))
    entry = st.integers(-60, 60)
    dense = draw(st.lists(st.lists(entry, min_size=n, max_size=n),
                          min_size=1, max_size=4))
    diag = [p ** draw(st.integers(1, 3)) for _ in range(n)]
    return p, dense + [[d * (i == j) for j in range(n)]
                       for i, d in enumerate(diag)]


@given(p_group_relations())
@settings(max_examples=150, deadline=None)
def test_cokernel_type_matches_census(case):
    p, rows = case
    assert cokernel_type(rows, p) == census_type(rows, p)


# dense rows on which an integer Smith form with Euclidean steps blows up:
# its entries grow without bound, and it finished neither in 30 s
HARD_CASES = [
    (5, [[38, -13, 40, -6], [53, -57, 43, 37], [125, 0, 0, 0],
         [0, 25, 0, 0], [0, 0, 125, 0], [0, 0, 0, 125]], (3, 2)),
    (7, [[32, 3, -41, -24, 32], [19, 22, -42, -55, 45],
         [46, 31, 54, 5, 20], [49, 0, 0, 0, 0], [0, 343, 0, 0, 0],
         [0, 0, 343, 0, 0], [0, 0, 0, 343, 0], [0, 0, 0, 0, 7]], (2, 1)),
]


@pytest.mark.parametrize("p, rows, expected", HARD_CASES,
                         ids=["p5", "p7"])
def test_cokernel_type_on_dense_rows_is_fast(p, rows, expected):
    t0 = time.perf_counter()
    assert cokernel_type(rows, p) == expected
    assert time.perf_counter() - t0 < 1.0
    assert census_type(rows, p) == expected


def test_cokernel_type_examples():
    assert cokernel_type([[4, 0], [0, 6]], 3) == (1,)
    assert cokernel_type([[25, 0], [0, 5], [0, 0]], 5) == (2, 1)
    assert cokernel_type([[1, 3], [2, 1]], 5) == (1,)
    assert cokernel_type([], 7) == ()
    # a free column and a factor of order p^6 both read as 6
    assert cokernel_type([[1, 0]], 5) == (6,)
    assert cokernel_type([[5**7]], 5) == (6,)


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
    for counts in ([1, 0], [1, -5, -5]):  # p^k divides 0 for every k
        with pytest.raises(ValueError, match="below 1"):
            type_from_order_census(counts, 5)


def test_ab_from_presentation_cyclic_tower():
    chain = PcPresentation(5, power_tails={
        1: (0, 1, 0, 0, 0), 2: (0, 0, 1, 0, 0),
        3: (0, 0, 0, 1, 0), 4: (0, 0, 0, 0, 1)})
    assert ab_from_presentation(chain) == (5,)


def test_ab_from_presentation_kills_commutator_tails():
    heis = PcPresentation(5, comm_tails={(2, 1): (0, 0, 1, 0, 0)})
    assert ab_from_presentation(heis) == (1, 1, 1, 1)


def test_ab_from_presentation_refuses_an_infinite_cokernel():
    # tails g_i^p = g_i^p relate nothing, so the cokernel is Z^5
    units = [tuple(5 * (i == j) for j in range(5)) for i in range(5)]
    pres = types.SimpleNamespace(prime=5, power_tails=units, comm_tails={})
    with pytest.raises(ValueError, match="infinite cokernel"):
        ab_from_presentation(pres)


def test_format_type_symbolic_and_numeric():
    assert format_type(()) == "1"
    assert format_type((2, 2, 1, 1, 1)) == "Z_{p^2}^2 + Z_p^3"
    assert format_type((2, 2, 1, 1, 1), prime=5) == "Z_25^2 + Z_5^3"
    assert format_type((1,), prime=7) == "Z_7"


def test_docstring_examples():
    for module, attempted in ((abelian, 19), (oracles, 5)):
        result = doctest.testmod(module)
        assert result.failed == 0, module.__name__
        assert result.attempted == attempted, module.__name__
