"""Independent oracles: these validate the calculus from the outside,
so they get their own unit coverage before anything downstream leans
on them."""

import itertools
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from p5tensor.abelian import EvenOrderUnsupported, canon, tensor_ab
from p5tensor.oracles import (
    QuadraticModel,
    _random_points,
    _torsion_count,
    bilinear_tensor_oracle,
    counting_vs_cokernel_type,
    gamma_relation_check,
    subgroup_order,
)

partitions = st.lists(st.integers(1, 3), max_size=3).map(canon)


@given(partitions, partitions, st.sampled_from([3, 5, 7]))
@settings(max_examples=60, deadline=None)
def test_bilinear_oracle_matches_closed_form(a, b, p):
    assert bilinear_tensor_oracle(a, b, p) == tensor_ab(a, b)


def test_bilinear_oracle_spot_values():
    assert bilinear_tensor_oracle((2, 1), (1, 1), 5) == (1, 1, 1, 1)
    assert bilinear_tensor_oracle((3,), (2,), 7) == (2,)
    assert bilinear_tensor_oracle((), (3, 2), 5) == ()
    with pytest.raises(ValueError, match="above 5"):
        bilinear_tensor_oracle((6,), (1,), 5)


def test_subgroup_order_in_cyclic_groups():
    assert subgroup_order([(2,)], (10,)) == 5
    assert subgroup_order([(3,)], (9,)) == 3
    assert subgroup_order([], (9,)) == 1
    assert subgroup_order([(1, 0), (0, 3)], (5, 9)) == 15


def test_model_rejects_even_moduli():
    with pytest.raises(EvenOrderUnsupported):
        QuadraticModel((6,))


def test_model_component_values():
    m = QuadraticModel((9, 3))
    # squares per factor, then one cross term mod gcd(9, 3)
    assert m.value_moduli == (9, 3, 3)
    assert m.gamma_of((2, 1)) == (4, 1, 2)
    assert m.gamma_of((-2, 1)) == (4, 1, 1)
    assert m.expected_image_span() == 81


def test_model_array_route_agrees_pointwise():
    m = QuadraticModel((5, 3))
    xs = list(itertools.product(range(5), range(3)))
    arr = m.gamma_of_array(xs)
    for row, x in zip(arr, xs):
        assert tuple(row) == m.gamma_of(tuple(x))


@pytest.mark.parametrize("moduli", [(5,), (7,), (25,), (9, 3), (15, 5),
                                    (49, 7), (3, 3)])
def test_gamma_relation_check_passes(moduli):
    rep = gamma_relation_check(QuadraticModel(moduli), trials=2000, seed=11)
    assert rep.ok, rep.failures
    assert rep.checked == 2 * 2000 + 1
    assert bool(rep)


class _ScaledModel(QuadraticModel):
    """gamma times p: both laws still hold, but the image spans only a
    p-th of the value group, which the span check alone can see."""

    def __init__(self, moduli, p):
        super().__init__(moduli)
        self.p = p

    def gamma_of(self, x):
        return tuple(self.p * v % m for v, m in
                     zip(super().gamma_of(x), self.value_moduli))

    def gamma_of_array(self, xs):
        return self.p * super().gamma_of_array(xs) % self.value_moduli


@pytest.mark.parametrize("moduli, p, span", [((7,), 7, 1),
                                             ((49, 7), 7, 7),
                                             ((101**2, 101), 101, 101)])
def test_gamma_relation_check_fails_a_model_that_spans_too_little(
        moduli, p, span):
    model = _ScaledModel(moduli, p)
    expected = model.expected_image_span()
    rep = gamma_relation_check(model, trials=2000, seed=11)
    assert not rep.ok
    assert rep.failures == (
        f"image spans a subgroup of order {span}, expected {expected}",)


class _OddModel(QuadraticModel):
    """x^2 + x on one factor: the six-term law holds, evenness fails."""

    def gamma_of_array(self, xs):
        xs = np.asarray(xs, dtype=np.int64)
        return (super().gamma_of_array(xs) + xs) % self.value_moduli


def test_gamma_relation_check_failure_text_prints_plain_ints():
    rep = gamma_relation_check(_OddModel((7,)), trials=200, seed=1)
    assert len(rep.failures) == 1
    assert re.fullmatch(r"evenness fails at x=\(\d+,\): "
                        r"gamma\(-x\)=\(\d+,\) gamma\(x\)=\(\d+,\)",
                        rep.failures[0]), rep.failures


def test_gamma_relation_check_is_exact_past_int64_squares():
    # residues of 65537^2 square past 2^63, which int64 would wrap
    rep = gamma_relation_check(QuadraticModel((65537**2, 65537)),
                               trials=200, seed=1)
    assert rep.ok, rep.failures


@pytest.mark.parametrize("m, dtype", [(3037000499, np.int64),
                                      (3037000501, object)])
def test_array_route_turns_exact_at_the_int64_threshold(m, dtype):
    # (m - 1)^2 < 2^63 <= (m + 1)^2 for the smaller m
    model = QuadraticModel((m, m))
    xs = [(m - 1, m - 1), (m - 2, 1), (-1, m - 3)]
    arr = model.gamma_of_array(xs)
    assert arr.dtype == dtype
    for row, x in zip(arr, xs):
        assert tuple(int(v) for v in row) == model.gamma_of(x)
    rep = gamma_relation_check(model, trials=500, seed=2)
    assert rep.ok, rep.failures


def test_gamma_relation_check_mixed_primes():
    # gcd cross terms do real work when the moduli are not coprime
    rep = gamma_relation_check(QuadraticModel((45, 21)), trials=3000, seed=3)
    assert rep.ok, rep.failures


def test_counting_vs_snf_clean_and_reproducible():
    rep1 = counting_vs_cokernel_type(trials=120, seed=29)
    rep2 = counting_vs_cokernel_type(trials=120, seed=29)
    assert rep1.ok, rep1.failures
    assert rep1.checked == 120
    assert rep1.failures == rep2.failures
    assert rep1.checked == rep2.checked


@pytest.mark.parametrize("moduli, p", [((9,), 3), ((27, 9, 3), 3),
                                       ((125, 25), 5), ((49, 49, 7), 7)])
def test_torsion_count_matches_a_loop_over_the_elements(moduli, p):
    for k in range(1, 4):
        q = p**k
        expected = sum(all(q * x % m == 0 for x, m in zip(xs, moduli))
                       for xs in itertools.product(*map(range, moduli)))
        assert _torsion_count(moduli, q) == expected


def test_random_points_cover_each_modulus():
    pts = _random_points(random.Random(5), (7, 49), 20_000)
    assert pts.shape == (20_000, 2)
    for col, m in enumerate((7, 49)):
        assert sorted(set(pts[:, col].tolist())) == list(range(m))


# the spot checks `verify` no longer runs, at every prime tier-1 verifies
@pytest.mark.parametrize("p", (5, 7, 11, 13, 1009, 100003))
def test_quadratic_models_at_the_verified_primes(p):
    for moduli, seed in (((p,), 1105), ((p * p, p), 1106)):
        rep = gamma_relation_check(QuadraticModel(moduli), trials=2000,
                                   seed=seed)
        assert rep.ok, (moduli, rep.failures)
        assert rep.checked == 2 * 2000 + 1


def test_census_against_cokernel_type_at_small_primes():
    rep = counting_vs_cokernel_type(trials=40, seed=1107, primes=(3, 5, 7))
    assert rep.ok, rep.failures
    assert rep.checked == 40
