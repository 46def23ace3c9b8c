"""Independent cross-checks for the abelian calculus, run by the test
suite only.

The module stays under `src/` only because the benchmark's tracer
(`perfbench/tracer.py`) imports it by name as one of its layers; no
runtime module imports it.  It needs numpy, which the `test` extra
installs.

Nothing here reuses the closed-form rules it is meant to test, and
nothing enumerates a group, so every check runs at any prime.  The
tensor oracle reduces a relation matrix with `cokernel_type`; the
quadratic-map checks evaluate an explicit polynomial model on random
inputs and measure the subgroup that the images of a spanning witness
set generate, by `cokernel_order`, an echelon form over Z that shares
no step with `cokernel_type`; the census check pits order counting,
one cyclic factor at a time, against `cokernel_type` on scrambled
relation matrices of the same random group, and reads the counts with
`type_from_order_census`.
"""

from __future__ import annotations

import math
import random
from collections.abc import Sequence

import numpy as np

from .abelian import (
    AbelianType,
    EvenOrderUnsupported,
    _Value,
    canon,
    cokernel_type,
    gamma,
    order_exponent,
)


# the largest modulus whose residues multiply within int64
_INT64_MODULUS = math.isqrt(2**63 - 1) + 1


class OracleReport(_Value):
    """A value record for one oracle run: whether every case agreed, how
    many cases ran, and a description of each failing case."""

    __slots__ = _fields = ("ok", "checked", "failures")

    def __init__(self, ok, checked, failures):
        object.__setattr__(self, "ok", ok)
        object.__setattr__(self, "checked", checked)
        object.__setattr__(self, "failures", failures)

    def __bool__(self):
        return self.ok


def bilinear_tensor_oracle(a: AbelianType, b: AbelianType,
                           prime: int) -> AbelianType:
    """Tensor product of two abelian p-groups from first principles.

    Generators e_ij for the pairs of cyclic factors, relations
    p^a_i e_ij and p^b_j e_ij; the cokernel of the relation matrix is
    read off `cokernel_type`.  Slower than the min rule, and
    deliberately so.  That reads parts up to 5, so a larger part of a
    or b raises ValueError.
    """
    a, b = canon(a), canon(b)
    if max(a + b, default=0) > 5:
        raise ValueError("a part above 5 is beyond cokernel_type")
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
    return cokernel_type(rows, prime)


def cokernel_order(rows, cols: int) -> int:
    """|Z^cols / <rows>|, or 0 when the quotient is infinite.

    Row operations only: Euclid's algorithm down each column leaves one
    row with a nonzero entry there, the pivot, and the order is the
    product of the pivots of that echelon form over Z.

    >>> cokernel_order([[2, 4], [6, 3]], 2)
    18
    >>> cokernel_order([[45, 0], [0, 21], [3, 7]], 2)
    63
    >>> cokernel_order([[1, 2]], 2)
    0
    """
    live = [[int(x) for x in row] for row in rows]
    order = 1
    for c in range(cols):
        while True:
            hits = [row for row in live if row[c]]
            if not hits:
                return 0
            pivot = min(hits, key=lambda row: abs(row[c]))
            if len(hits) == 1:
                break
            for row in hits:
                if row is not pivot:
                    k = row[c] // pivot[c]
                    row[:] = [x - k * y for x, y in zip(row, pivot)]
        live.remove(pivot)
        order *= abs(pivot[c])
    return order


def subgroup_order(rows, moduli) -> int:
    """Order of the subgroup of ⊕ Z_m generated by the given value rows.

    >>> subgroup_order([(3, 7)], (45, 21))
    15
    """
    moduli = [int(m) for m in moduli]
    cols = len(moduli)
    mat = [list(int(x) for x in r) for r in rows]
    for c in range(cols):
        amb = [0] * cols
        amb[c] = moduli[c]
        mat.append(amb)
    return math.prod(moduli) // cokernel_order(mat, cols)


class QuadraticModel:
    """Polynomial model of the universal quadratic map on ⊕_i Z_{n_i}.

    Components: one square x_i^2 mod n_i per factor and one cross
    product x_i x_j mod gcd(n_i, n_j) per pair i < j.  Only odd moduli
    are meaningful here; 2-torsion obeys different rules and is
    refused.  The array route computes in int64 while a product of two
    residues fits, and in exact Python ints once a modulus passes
    sqrt(2^63).
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
        self._dtype = (np.int64 if max(moduli) <= _INT64_MODULUS
                       else object)

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
        xs = np.asarray(xs, dtype=self._dtype)
        mod = np.array(self.moduli, dtype=self._dtype)
        xs = xs % mod
        out = np.empty((xs.shape[0], len(self.value_moduli)),
                       dtype=self._dtype)
        out[:, :len(self.moduli)] = (xs * xs) % mod
        for c, (i, j) in enumerate(self.pairs, start=len(self.moduli)):
            out[:, c] = (xs[:, i] * xs[:, j]) % self.value_moduli[c]
        return out

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
    and the images of the witnesses e_i and e_i + e_j generate a
    subgroup of the order the direct-sum expansion predicts.  For
    prime-power moduli that order is cross-checked against the
    partition-level gamma.

    The witness span decides the span of the whole image: with S the
    witnesses and V the value group, span(gamma(S)) <= span(gamma(G))
    <= |V|, so a pass on S is a pass on the whole image and a failure
    on the whole image is a failure on S.  A correct model passes,
    since gamma(e_i) and gamma(e_i + e_j) span V.
    """
    rng = random.Random(seed)
    dtype = model._dtype
    mod = np.array(model.moduli, dtype=dtype)
    vmod = np.array(model.value_moduli, dtype=dtype)
    a, b, c = (_random_points(rng, model.moduli, trials)
               .astype(dtype, copy=False) for _ in range(3))
    g = model.gamma_of_array

    def point(x, i):
        return tuple(x[i].tolist())

    failures = []

    bad = np.nonzero((g((-a) % mod) != g(a)).any(axis=1))[0]
    if bad.size:
        x = point(a, int(bad[0]))
        failures.append(
            f"evenness fails at x={x}: "
            f"gamma(-x)={model.gamma_of(tuple(-v for v in x))} "
            f"gamma(x)={model.gamma_of(x)}")

    lhs = (g((a + b + c) % mod) + g(a) + g(b) + g(c)) % vmod
    rhs = (g((a + b) % mod) + g((b + c) % mod) + g((c + a) % mod)) % vmod
    bad = np.nonzero((lhs != rhs).any(axis=1))[0]
    if bad.size:
        i = int(bad[0])
        failures.append(
            f"six-term law fails at a={point(a, i)} b={point(b, i)} "
            f"c={point(c, i)}")

    r = len(model.moduli)
    # the witnesses e_i and e_i + e_j
    witnesses = [tuple(int(k in ij) for k in range(r))
                 for ij in [(i,) for i in range(r)] + model.pairs]
    span = subgroup_order([model.gamma_of(w) for w in witnesses],
                          model.value_moduli)
    expected = model.expected_image_span()
    if span != expected:
        failures.append(
            f"image spans a subgroup of order {span}, expected {expected}")

    # when every modulus is a power of one prime, the span must agree
    # with the partition-level gamma as well
    smallest = min(m for m in model.moduli if m > 1) if any(
        m > 1 for m in model.moduli) else 1
    if smallest > 1:
        p = next((f for f in range(2, math.isqrt(smallest) + 1)
                  if smallest % f == 0), smallest)
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


def type_from_order_census(counts: Sequence[int], prime: int) -> AbelianType:
    """Recover a p-type from the census #{x : x^(p^k) = 1}, k = 0, 1, ...

    For type (l1, l2, ...) the k-th count is p^(sum_i min(l_i, k)), so the
    successive log differences are the conjugate partition.  `counts` must
    start at k=0 (always 1) and continue until it stabilizes at |A|.

    >>> type_from_order_census([1, 25, 125, 125], 5)
    (2, 1)
    """
    logs = []
    for c in counts:
        c = int(c)
        if c < 1:
            raise ValueError(f"census count {c} is below 1")
        s = 0
        while c % prime == 0:
            c //= prime
            s += 1
        if c != 1:
            raise ValueError("census count not a power of the prime")
        logs.append(s)
    if logs[0] != 0:
        raise ValueError("census must start at k=0 with count 1")
    if len(logs) < 2 or logs[-1] != logs[-2]:
        raise ValueError("census did not stabilize; extend the range")
    # m_k = #{i : l_i >= k}; the partition is its conjugate
    mults = [logs[k] - logs[k - 1] for k in range(1, len(logs))]
    if any(mults[k] < mults[k + 1] for k in range(len(mults) - 1)):
        raise ValueError("census counts are not those of an abelian p-group")
    exps = []
    for j in range(mults[0] if mults else 0):
        exps.append(sum(1 for m in mults if m > j))
    return canon(exps)


def _random_unimodular(r: int, rng: random.Random) -> list:
    m = [[int(i == j) for j in range(r)] for i in range(r)]
    for _ in range(4 * r):
        kind = rng.randrange(3)
        i, j = rng.randrange(r), rng.randrange(r)
        if kind == 0 and i != j:
            k = rng.randint(-2, 2)
            m[j] = [y + k * x for x, y in zip(m[i], m[j])]
        elif kind == 1:
            m[i], m[j] = m[j], m[i]
        else:
            m[i] = [-x for x in m[i]]
    return m


def _torsion_count(moduli, q: int) -> int:
    """Number of element tuples x of Z_m1 x ... x Z_mr with q x = 0.

    q x = 0 holds coordinate by coordinate, so the count is the product
    over the factors of #{v in Z_m : q v = 0}, each counted by a loop
    over Z_m."""
    return math.prod(sum(q * v % m == 0 for v in range(m)) for m in moduli)


def counting_vs_cokernel_type(trials: int = 200, seed=None,
                              primes=(3, 5, 7)) -> OracleReport:
    """Order census versus `cokernel_type` on random abelian p-groups.

    Each trial draws a partition of at most three parts, each at most
    3, then recovers it twice: by counting p^k-torsion, and by reducing
    a unimodularly scrambled relation matrix.  Both must return the
    partition that built the group.
    """
    rng = random.Random(seed)
    failures = []
    for t in range(trials):
        p = rng.choice(primes)
        r = rng.randint(1, 3)
        lam = sorted((rng.randint(1, 3) for _ in range(r)), reverse=True)
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

        # u diag(moduli) v
        u, v = _random_unimodular(r, rng), _random_unimodular(r, rng)
        scrambled = [[sum(x * m * y for x, m, y in zip(row, moduli, col))
                      for col in zip(*v)] for row in u]
        by_form = cokernel_type(scrambled, p)

        if by_census != target or by_form != target:
            failures.append(
                f"trial {t}: target {target}, census {by_census}, "
                f"normal form {by_form}")
    return OracleReport(ok=not failures, checked=trials,
                        failures=tuple(failures))
