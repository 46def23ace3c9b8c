"""Independent cross-checks for the abelian calculus.

Nothing here reuses the closed-form rules it is meant to test.  The
tensor oracle grinds a relation matrix through Smith normal form; the
quadratic-map checks evaluate an explicit polynomial model on random
inputs and measure the subgroup its image generates; the census check
pits order counting against Smith normal form on scrambled relation
matrices of the same random group.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from .abelian import (
    AbelianType,
    EvenOrderUnsupported,
    canon,
    gamma,
    order_exponent,
    p_type_from_factors,
    snf,
    type_from_order_census,
)


@dataclass(frozen=True)
class OracleReport:
    ok: bool
    checked: int
    failures: tuple

    def __bool__(self):
        return self.ok


def bilinear_tensor_oracle(a: AbelianType, b: AbelianType,
                           prime: int) -> AbelianType:
    """Tensor product of two abelian p-groups from first principles.

    Generators e_ij for the pairs of cyclic factors, relations
    p^a_i e_ij and p^b_j e_ij; the cokernel of the relation matrix is
    read off its Smith normal form.  Slower than the min rule, and
    deliberately so.
    """
    a, b = canon(a), canon(b)
    if not a or not b:
        return ()
    pairs = [(i, j) for i in range(len(a)) for j in range(len(b))]
    cols = len(pairs)
    rows = []
    for c, (i, j) in enumerate(pairs):
        row = [0] * cols
        row[c] = prime**a[i]
        rows.append(row)
        row = [0] * cols
        row[c] = prime**b[j]
        rows.append(row)
    return p_type_from_factors(snf(rows), prime)


def subgroup_order(rows, moduli) -> int:
    """Order of the subgroup of ⊕ Z_m generated by the given value rows."""
    moduli = [int(m) for m in moduli]
    cols = len(moduli)
    mat = [list(int(x) for x in r) for r in rows]
    for c in range(cols):
        amb = [0] * cols
        amb[c] = moduli[c]
        mat.append(amb)
    ambient = math.prod(moduli)
    coker = math.prod(snf(mat)[:cols])
    if coker == 0:
        raise ValueError("ambient relations missing; subgroup not finite")
    return ambient // coker


class QuadraticModel:
    """Polynomial model of the universal quadratic map on ⊕_i Z_{n_i}.

    Components: one square x_i^2 mod n_i per factor and one cross
    product x_i x_j mod gcd(n_i, n_j) per pair i < j.  Only odd moduli
    are meaningful here; 2-torsion obeys different rules and is
    refused.
    """

    def __init__(self, moduli):
        moduli = tuple(int(m) for m in moduli)
        if not moduli:
            raise ValueError("need at least one modulus")
        for m in moduli:
            if m < 1:
                raise ValueError(f"modulus {m} is not positive")
            if m % 2 == 0:
                raise EvenOrderUnsupported(
                    f"modulus {m} is even; this model handles odd order only")
        self.moduli = moduli
        r = len(moduli)
        self.pairs = [(i, j) for i in range(r) for j in range(i + 1, r)]
        self.value_moduli = tuple(moduli) + tuple(
            math.gcd(moduli[i], moduli[j]) for i, j in self.pairs)

    def gamma_of(self, x) -> tuple:
        x = tuple(x)
        if len(x) != len(self.moduli):
            raise ValueError("wrong coordinate count")
        x = tuple(int(v) % m for v, m in zip(x, self.moduli))
        sq = [v * v % m for v, m in zip(x, self.moduli)]
        cr = [x[i] * x[j] % g
              for (i, j), g in zip(self.pairs,
                                   self.value_moduli[len(x):])]
        return tuple(sq + cr)

    def gamma_of_array(self, xs: np.ndarray) -> np.ndarray:
        """Vectorized gamma on a (N, r) array of coordinates."""
        xs = np.asarray(xs, dtype=np.int64)
        mod = np.array(self.moduli, dtype=np.int64)
        xs = xs % mod
        out = np.empty((xs.shape[0], len(self.value_moduli)), dtype=np.int64)
        out[:, :len(self.moduli)] = (xs * xs) % mod
        for c, (i, j) in enumerate(self.pairs, start=len(self.moduli)):
            out[:, c] = (xs[:, i] * xs[:, j]) % self.value_moduli[c]
        return out

    def all_elements(self) -> np.ndarray:
        n = math.prod(self.moduli)
        if n > 200_000:
            raise ValueError(f"group of order {n} too large to enumerate")
        grids = np.indices(self.moduli).reshape(len(self.moduli), n)
        return grids.T.astype(np.int64)

    def expected_image_span(self) -> int:
        """Order of the subgroup the image must generate: the full value
        group, since gamma(e_i) and gamma(e_i + e_j) already span it."""
        return math.prod(self.value_moduli)


def gamma_relation_check(model: QuadraticModel, trials: int = 10_000,
                         seed=None) -> OracleReport:
    """Random-input laws for the quadratic model, plus an exact span check.

    Laws tested componentwise in the value group:
      gamma(-x) = gamma(x)
      gamma(a+b+c) + gamma(a) + gamma(b) + gamma(c)
          = gamma(a+b) + gamma(b+c) + gamma(c+a)
    and the subgroup generated by the full image has the order the
    direct-sum expansion predicts.  For prime-power moduli that order
    is cross-checked against the partition-level gamma.
    """
    rng = random.Random(seed)
    mod = np.array(model.moduli, dtype=np.int64)
    vmod = np.array(model.value_moduli, dtype=np.int64)
    a = _random_points(rng, model.moduli, trials)
    b = _random_points(rng, model.moduli, trials)
    c = _random_points(rng, model.moduli, trials)
    g = model.gamma_of_array

    failures = []

    bad = np.nonzero((g((-a) % mod) != g(a)).any(axis=1))[0]
    if bad.size:
        i = int(bad[0])
        failures.append(
            f"evenness fails at x={tuple(a[i])}: "
            f"gamma(-x)={model.gamma_of(tuple(-a[i]))} "
            f"gamma(x)={model.gamma_of(tuple(a[i]))}")

    lhs = (g((a + b + c) % mod) + g(a) + g(b) + g(c)) % vmod
    rhs = (g((a + b) % mod) + g((b + c) % mod) + g((c + a) % mod)) % vmod
    bad = np.nonzero((lhs != rhs).any(axis=1))[0]
    if bad.size:
        i = int(bad[0])
        failures.append(
            f"six-term law fails at a={tuple(a[i])} b={tuple(b[i])} "
            f"c={tuple(c[i])}")

    # distinct image rows in sorted order; np.unique would do the same,
    # but its first call imports numpy.ma, which costs more than this
    image = sorted(set(map(tuple, g(model.all_elements()).tolist())))
    span = subgroup_order(image, model.value_moduli)
    expected = model.expected_image_span()
    if span != expected:
        failures.append(
            f"image spans a subgroup of order {span}, expected {expected}")

    # when every modulus is a power of one prime, the span must agree
    # with the partition-level gamma as well
    smallest = min(m for m in model.moduli if m > 1) if any(
        m > 1 for m in model.moduli) else 1
    if smallest > 1:
        p = min(f for f in range(2, smallest + 1) if smallest % f == 0)
        exps = []
        uniform = True
        for m in model.moduli:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            if m != 1:
                uniform = False
                break
            exps.append(e)
        if uniform:
            predicted = p**order_exponent(gamma(canon(exps), prime=p))
            if expected != predicted:
                failures.append(
                    f"direct-sum expansion ({expected}) disagrees with "
                    f"partition gamma ({predicted})")

    return OracleReport(ok=not failures, checked=2 * trials + 1,
                        failures=tuple(failures))


def _random_points(rng: random.Random, moduli, count: int) -> np.ndarray:
    """A (count, r) array whose column i is uniform modulo moduli[i], up
    to a bias below moduli[i] / 2^64.  The bits come from one call to
    the seeded generator; numpy's own generators would cost an import of
    numpy.random on first use, more than the draws themselves."""
    raw = np.frombuffer(rng.randbytes(8 * count * len(moduli)),
                        dtype=np.uint64).reshape(count, len(moduli))
    return (raw % np.array(moduli, dtype=np.uint64)).astype(np.int64)


def _random_unimodular(r: int, rng: random.Random) -> np.ndarray:
    m = np.eye(r, dtype=np.int64)
    for _ in range(4 * r):
        kind = rng.randrange(3)
        i, j = rng.randrange(r), rng.randrange(r)
        if kind == 0 and i != j:
            m[j] += rng.randint(-2, 2) * m[i]
        elif kind == 1:
            m[[i, j]] = m[[j, i]]
        else:
            m[i] = -m[i]
    return m


# census elements are enumerated this many at a time: the arrays stay
# small enough to be reused from the heap instead of freshly mapped
_CENSUS_BLOCK = 4096


def _torsion_count(moduli, q: int) -> int:
    """Number of element tuples x of Z_m1 x ... x Z_mr with q x = 0,
    checked one element at a time over blocks of consecutive indices
    (`zero[i][v]`: whether q v = 0 in Z_mi)."""
    n = math.prod(moduli)
    zero = [np.arange(m) * q % m == 0 for m in moduli]
    count = 0
    for lo in range(0, n, _CENSUS_BLOCK):
        coords = np.unravel_index(np.arange(lo, min(n, lo + _CENSUS_BLOCK)),
                                  moduli)
        killed = np.ones(coords[0].shape, dtype=bool)
        for x, z in zip(coords, zero):
            killed &= z[x]
        count += int(killed.sum())
    return count


def counting_vs_snf(trials: int = 200, seed=None,
                    primes=(3, 5, 7)) -> OracleReport:
    """Order census versus Smith normal form on random abelian p-groups.

    Each trial draws a partition, then recovers it twice: by counting
    p^k-torsion over the explicit element tuples, and by reducing a
    unimodularly scrambled relation matrix.  Both must return the
    partition that built the group.
    """
    rng = random.Random(seed)
    failures = []
    for t in range(trials):
        p = rng.choice(primes)
        r = rng.randint(1, 3)
        while True:
            lam = sorted((rng.randint(1, 3) for _ in range(r)),
                         reverse=True)
            if p**sum(lam) <= 200_000:
                break
        target = canon(lam)
        moduli = tuple(p**e for e in lam)

        n = math.prod(moduli)
        counts = [1]
        k = 1
        while True:
            counts.append(_torsion_count(moduli, p**k))
            if counts[-1] == n:
                counts.append(n)
                break
            k += 1
        by_census = type_from_order_census(counts, p)

        diag = np.diag(moduli).astype(np.int64)
        scrambled = _random_unimodular(r, rng) @ diag @ \
            _random_unimodular(r, rng)
        by_snf = p_type_from_factors(snf(scrambled.tolist()), p)

        if by_census != target or by_snf != target:
            failures.append(
                f"trial {t}: target {target}, census {by_census}, "
                f"snf {by_snf}")
    return OracleReport(ok=not failures, checked=trials,
                        failures=tuple(failures))
