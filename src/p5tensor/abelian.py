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
implemented below.  The test suite cross-checks it with the independent
oracles in `oracles` (a relation matrix for the tensor, a concrete
quadratic model for gamma).  `cokernel_type` is the one Smith form of the
package: a sparse elimination over Z/p^6, which suffices because every
group it reads has order dividing p^5.
"""

from __future__ import annotations

import operator
from collections.abc import Iterable, Sequence

AbelianType = tuple  # non-increasing tuple of positive ints


class EvenOrderUnsupported(ValueError):
    """gamma is only implemented for odd-order groups.

    The even case obeys a different rule (gamma(Z_2n) has an extra factor),
    and this artifact never needs it; rejecting beats silently lying.
    """


def _integer(value, message: str) -> int:
    """operator.index(value): an int, never a truncated float."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{message}, got {value!r}") from None


def canon(exponents: Iterable[int]) -> AbelianType:
    """Canonical form: drop zero parts, sort non-increasing.

    >>> canon([1, 2, 0, 2])
    (2, 2, 1)
    >>> canon([])
    ()
    """
    parts = []
    for e in exponents:
        e = _integer(e, "abelian type exponents must be integers")
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


def cokernel_type(rows: Sequence[Sequence[int]], prime: int) -> AbelianType:
    """Type of Z^n / <rows>, computed modulo p^6 (n is the row length).

    Sparse elimination over Z/p^6.  The rows are reduced modulo p^6,
    and each distinct nonzero one is kept once, as a dict of its nonzero
    entries.  Pivot on an entry of least p-valuation v, scale its row so
    the pivot is p^v, clear the pivot's column from the other rows, and
    drop the row and the column; the pivot gives a part v.  No column
    operation is needed, since every other entry of the pivot row is a
    multiple of p^v.  A row that reaches zero relates nothing and is
    dropped, and a column that never gets a pivot gives a part 6.  The
    entries are read as `canon` reads exponents: an integral type is
    taken, and a float or a string raises ValueError.  So do rows of
    unequal length; `rows` may be a 2-D array.

    The result is the type of C / p^6 C for the cokernel C: its p-part
    with every part capped at 6, and a free factor read as 6.  Every
    cokernel reduced in this package (G^ab and the abelian subgroups of
    G) has order dividing p^5, so a part of 6 means the relations do not
    present such a group.  Entries stay below p^6, so nothing grows, and
    a row update touches only the pivot row's nonzero entries.

    >>> cokernel_type([[5, 0], [0, 25]], 5)
    (2, 1)
    >>> cokernel_type([[2, 4], [6, 3]], 3)
    (2,)
    >>> cokernel_type([[1, 0, 5]], 5)
    (6, 6)
    """
    q = prime**6
    n = len(rows[0]) if len(rows) else 0
    distinct = {}
    for row in rows:
        if len(row) != n:
            raise ValueError("relation rows must have equal length")
        r = {}
        for j, x in enumerate(row):
            x = _integer(x, "relation entries must be integers") % q
            if x:
                r[j] = x
        if r:
            distinct[tuple(r.items())] = r
    live = list(distinct.values())
    parts = []
    while live:
        # an entry prime does not divide is a unit and ends the search;
        # otherwise keep the entry of least valuation so far
        v = 6
        for i, row in enumerate(live):
            for j, x in row.items():
                w, m = 0, prime
                while w < v and not x % m:
                    w += 1
                    m *= prime
                if w < v:
                    v, hit = w, (i, j)
                    if not w:
                        break
            if not v:
                break
        i, j = hit
        pv = prime**v
        pivot = live.pop(i)
        scale = pow(pivot[j] // pv, -1, q)
        pivot = [(k, x * scale % q) for k, x in pivot.items()]
        rest = []
        for row in live:
            c = row.get(j)
            if c:
                c //= pv
                for k, y in pivot:
                    x = (row.get(k, 0) - c * y) % q
                    if x:
                        row[k] = x
                    else:
                        row.pop(k, None)
                if not row:
                    continue
            rest.append(row)
        live = rest
        parts.append(v)
    return canon(parts + [6] * (n - len(parts)))


def ab_from_presentation(pres) -> AbelianType:
    """Abelianization of a power-commutator presentation, via
    `cokernel_type`.

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
    parts = cokernel_type(rows, p)
    if 6 in parts:
        raise ValueError("infinite cokernel: relations miss a generator")
    return parts


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
