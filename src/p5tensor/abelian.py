"""Calculus of finite abelian p-group types.

Everything here manipulates isomorphism types, not group elements.  A type
is a partition: the non-increasing tuple of exponents (l1, l2, ...) standing
for Z_{p^l1} + Z_{p^l2} + ..., with the prime left symbolic.  The empty
tuple is the trivial group.  Partitions are the natural canonical form in a
single-prime setting; two types are isomorphic iff the tuples are equal.

The quadratic functor `gamma` is the structural workhorse: for odd n it
satisfies gamma(Z_n) = Z_n, and it distributes over direct sums with a
tensor cross-term,

    gamma(A + B) = gamma(A) + gamma(B) + (A tensor B).

Iterating that identity over the cyclic factors of A gives the closed form
implemented below.  Everything is cross-checked by the independent oracles
in `oracles` (relation matrix SNF for the tensor, a concrete quadratic model
for gamma, order counting for the invariant-factor extraction).
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

AbelianType = tuple  # non-increasing tuple of positive ints


class EvenOrderUnsupported(ValueError):
    """gamma is only implemented for odd-order groups.

    The even case obeys a different rule (gamma(Z_2n) has an extra factor),
    and this artifact never needs it; rejecting beats silently lying.
    """


def canon(exponents: Iterable[int]) -> AbelianType:
    """Canonical form: drop zero parts, sort non-increasing.

    >>> canon([1, 2, 0, 2])
    (2, 2, 1)
    >>> canon([])
    ()
    """
    parts = []
    for e in exponents:
        e = int(e)
        if e < 0:
            raise ValueError(f"negative exponent {e} in abelian type")
        if e > 0:
            parts.append(e)
    return tuple(sorted(parts, reverse=True))


def order_exponent(a: AbelianType) -> int:
    """log_p of the group order: just the partition weight."""
    return sum(a)


def direct_sum(*types: AbelianType) -> AbelianType:
    """Multiset union of cyclic factors.

    >>> direct_sum((2, 2), (1, 1))
    (2, 2, 1, 1)
    >>> direct_sum((), (3,))
    (3,)
    """
    parts: list[int] = []
    for t in types:
        parts.extend(t)
    return canon(parts)


def tensor_ab(a: AbelianType, b: AbelianType) -> AbelianType:
    """Tensor product of abelian p-types.

    Bilinear expansion over the cyclic factors; each pair contributes
    Z_{p^min} by the cyclic gcd rule.

    >>> tensor_ab((3,), (2,))
    (2,)
    >>> tensor_ab((1, 1), (1, 1))
    (1, 1, 1, 1)
    >>> tensor_ab((), (3, 2))
    ()
    """
    return canon(min(x, y) for x in a for y in b)


def wedge_ab(a: AbelianType) -> AbelianType:
    """Exterior square of an abelian p-type: one gcd term per factor pair.

    >>> wedge_ab((5,))
    ()
    >>> wedge_ab((3, 2))
    (2,)
    >>> wedge_ab((1, 1, 1, 1, 1))
    (1, 1, 1, 1, 1, 1, 1, 1, 1, 1)
    """
    n = len(a)
    return canon(min(a[i], a[j]) for i in range(n) for j in range(i + 1, n))


def gamma(a: AbelianType, prime: int | None = None) -> AbelianType:
    """Whitehead's quadratic functor on an odd abelian p-type.

    Closed form: each cyclic factor survives unchanged and each unordered
    pair adds its tensor term, so gamma(A) = A + wedge_ab(A) as partitions.

    `prime` is only consulted for the oddness guard; the type itself is
    symbolic.  Passing an even prime raises EvenOrderUnsupported.

    >>> gamma((5,))
    (5,)
    >>> gamma((1, 1))
    (1, 1, 1)
    >>> gamma((3, 2))
    (3, 2, 2)
    """
    if prime is not None and prime % 2 == 0:
        raise EvenOrderUnsupported(
            f"gamma of a 2-group is not implemented (prime={prime})"
        )
    return direct_sum(a, wedge_ab(a))


def snf(matrix: Sequence[Sequence[int]]) -> list[int]:
    """Smith normal form diagonal of an integer matrix.

    Returns the invariant-factor chain d1 | d2 | ... (non-negative,
    length min(rows, cols)); the cokernel of the matrix as a map on
    column vectors is  Z^cols / rows  =  sum of Z_{d_i}  plus a free
    summand for each zero.  Plain integer row/column reduction; Python
    ints make overflow a non-issue.

    >>> snf([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    [1, 1, 1]
    >>> snf([[2, 0], [0, 3]])
    [1, 6]
    >>> snf([[5, 0], [0, 25], [0, 0]])
    [5, 25]
    """
    a = [[int(x) for x in row] for row in matrix]
    m = len(a)
    n = len(a[0]) if m else 0
    t = 0
    while t < m and t < n:
        # pivot: nonzero entry of least magnitude in the trailing block
        pivot = None
        best = None
        for i in range(t, m):
            for j in range(t, n):
                v = abs(a[i][j])
                if v and (best is None or v < best):
                    best = v
                    pivot = (i, j)
        if pivot is None:
            break
        pi, pj = pivot
        a[t], a[pi] = a[pi], a[t]
        for row in a:
            row[t], row[pj] = row[pj], row[t]
        # clear row and column t by euclidean steps; the pivot magnitude
        # strictly drops every time a remainder appears, so this terminates
        while True:
            dirty = False
            for i in range(t + 1, m):
                if a[i][t]:
                    q = a[i][t] // a[t][t]
                    for j in range(t, n):
                        a[i][j] -= q * a[t][j]
                    if a[i][t]:
                        a[t], a[i] = a[i], a[t]
                        dirty = True
            for j in range(t + 1, n):
                if a[t][j]:
                    q = a[t][j] // a[t][t]
                    for i in range(t, m):
                        a[i][j] -= q * a[i][t]
                    if a[t][j]:
                        for i in range(t, m):
                            a[i][t], a[i][j] = a[i][j], a[i][t]
                        dirty = True
            if not dirty:
                break
        # divisibility fix-up: fold any non-multiple into column t and redo
        bad = None
        for i in range(t + 1, m):
            for j in range(t + 1, n):
                if a[i][j] % a[t][t]:
                    bad = i
                    break
            if bad is not None:
                break
        if bad is not None:
            for j in range(t, n):
                a[t][j] += a[bad][j]
            continue
        if a[t][t] < 0:
            for j in range(t, n):
                a[t][j] = -a[t][j]
        t += 1
    diag = [a[i][i] if i < n else 0 for i in range(min(m, n))]
    return [abs(d) for d in diag]


def p_type_from_factors(factors: Iterable[int], prime: int) -> AbelianType:
    """Partition of p-exponents from an invariant-factor chain.

    Units are dropped; every remaining factor must be a power of `prime`
    (zero would mean an infinite cokernel and is rejected).

    >>> p_type_from_factors([1, 5, 25], 5)
    (2, 1)
    """
    exps = []
    for d in factors:
        d = int(d)
        if d == 0:
            raise ValueError("infinite cokernel: zero invariant factor")
        e = 0
        while d % prime == 0:
            d //= prime
            e += 1
        if d != 1:
            raise ValueError(f"invariant factor not a power of {prime}")
        if e:
            exps.append(e)
    return canon(exps)


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


def ab_from_presentation(pres) -> AbelianType:
    """Abelianization of a power-commutator presentation, via SNF.

    Each power relation g_i^p = tail contributes the row p*e_i - tail;
    each commutator relation forces its tail to vanish.  The cokernel of
    the stacked matrix is the abelianized group.
    """
    p = pres.prime
    rows = []
    for i in range(5):
        row = [0] * 5
        row[i] = p
        tail = pres.power_tails[i]
        for j in range(5):
            row[j] -= tail[j]
        rows.append(row)
    for tail in pres.comm_tails.values():
        if any(tail):
            rows.append(list(tail))
    return p_type_from_factors((d for d in snf(rows) if d != 1), p)


def format_type(a: AbelianType, prime: int | None = None) -> str:
    """Human-readable rendering, symbolic by default.

    >>> format_type((2, 2, 1, 1, 1))
    'Z_{p^2}^2 + Z_p^3'
    >>> format_type((2, 2, 1, 1, 1), prime=5)
    'Z_25^2 + Z_5^3'
    >>> format_type(())
    '1'
    """
    if not a:
        return "1"
    pieces = []
    i = 0
    while i < len(a):
        e = a[i]
        run = 1
        while i + run < len(a) and a[i + run] == e:
            run += 1
        if prime is None:
            base = "Z_p" if e == 1 else "Z_{p^%d}" % e
        else:
            base = "Z_%d" % (prime**e)
        pieces.append(base if run == 1 else f"{base}^{run}")
        i += run
    return " + ".join(pieces)


class _Record:
    """Base of the package's records: `_fields` names the fields in
    order, and equality and the repr `Name(field=value, ...)` go by their
    values.  A mutable record is unhashable."""

    __slots__ = ()
    _fields = ()
    __hash__ = None

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        # field by field, not two built tuples: `validate` compares the
        # squares of every row, and this is four times faster
        for name in self._fields:
            if getattr(self, name) != getattr(other, name):
                return False
        return True

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self._fields)
        return f"{type(self).__qualname__}({fields})"


class _Value(_Record):
    """Base of the frozen value records: the fields are the __slots__,
    which __init__ sets once through object.__setattr__; the record
    hashes by value, and assigning or deleting a field raises
    AttributeError."""

    __slots__ = ()

    def _values(self):
        return tuple(getattr(self, name) for name in self._fields)

    def __hash__(self):
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values()


class TensorStructure(_Value):
    """A value record for a wedge or tensor square: abelian part
    (canonicalised), plus an optional extraspecial factor of order p^3
    and exponent p that two families pick up."""

    __slots__ = _fields = ("abelian_part", "e1_factor")

    def __init__(self, abelian_part, e1_factor=False):
        object.__setattr__(self, "abelian_part", canon(abelian_part))
        object.__setattr__(self, "e1_factor", e1_factor)

    @property
    def order_exponent(self):
        return sum(self.abelian_part) + (3 if self.e1_factor else 0)

    def format(self, prime=None):
        body = format_type(self.abelian_part, prime=prime)
        if not self.e1_factor:
            return body
        if body == "1":
            return "E1"
        return f"E1 x {body}"

    def __str__(self):
        return self.format()

    def to_json_dict(self):
        return {"abelian_part": list(self.abelian_part),
                "e1_factor": bool(self.e1_factor)}
