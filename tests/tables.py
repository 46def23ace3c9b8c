"""Oracles for the tests: the p^5 multiplication table and the letter
collector, two routes independent of the syllable collector in
`p5tensor.pcgroup`.

`TableGroup` builds the right multiplication table R of a presentation
by its own recursion (peeling the highest generator letter and composing
tables already built), and adds the left tables, the inverse and
conjugation tables, vectorised products and p-th powers on index arrays,
coset representatives and quotients G/N with an order census.  Every one
of them is built from R, and the tests check R against the collector on
every element (`_rmul1`), so each table oracle rests on that one
comparison.  The table holds p^5 entries per generator, so TableGroup
refuses p > 13.

`LetterCollector` collects one letter per unit of exponent, lifting with
the single conjugates g_k [g_k, g_j]; `letter_overlaps` runs the 35
overlaps of the classical consistency test on it (the constructor runs
at most 13 of them), from raw presentation data that need not define a
group, such as the seeded draws of `random_presentation_data`.
"""

import types

import numpy as np

from p5tensor.abelian import AbelianType
from p5tensor.oracles import type_from_order_census
from p5tensor.pcgroup import (
    IDENTITY,
    Element,
    NotAbelian,
    PcPresentation,
    Subgroup,
    _collect_into,
)

# the largest group whose tables are built
TABLE_LIMIT = 400_000


class GroupTooLarge(ValueError):
    """p^5 exceeds the entries that the tables may hold."""


def _letters(vec) -> list:
    """Expand an exponent vector into generator letters, low index first."""
    out = []
    for i in range(5):
        out.extend([i + 1] * vec[i])
    return out


class LetterCollector:
    """Collection from the left, one letter g_j at a time.

    A letter lands in place once every generator above it in the normal
    form commutes with it (and, when g_j^p wraps to its tail, once
    nothing is above it).  Otherwise the part w of the normal form from
    the lowest such generator up is lifted off, and out * g_j =
    (out / w) * g_j * w^(g_j) goes back on the stack, with w^(g_j) the
    product of the letters of g_k [g_k, g_j].
    """

    def __init__(self, P):
        self.pm1 = P.prime - 1
        # lift[j][k]: letters of g_j^-1 g_k g_j = g_k [g_k, g_j], reversed
        # for stack.extend; blockers[j]: the k > j with [g_k, g_j] != 1
        self.lift = [[None] * 6 for _ in range(6)]
        self.blockers = [()] * 6
        self.suffix = [None] * 6
        for j in range(1, 6):
            for k in range(j + 1, 6):
                tail = P.comm_tails[(k, j)]
                self.lift[j][k] = tuple(reversed([k] + _letters(tail)))
                if any(tail):
                    self.blockers[j] += (k,)
            self.suffix[j] = list(P.power_tails[j - 1][j:])

    def collect(self, letters) -> Element:
        pm1, lift, blockers, suffix = (self.pm1, self.lift, self.blockers,
                                       self.suffix)
        out = [0, 0, 0, 0, 0]
        stack = list(reversed(letters))
        while stack:
            j = stack.pop()
            for k in blockers[j]:
                if out[k - 1]:
                    break
            else:
                if out[j - 1] != pm1:
                    out[j - 1] += 1
                    continue
                if not any(out[j:]):
                    out[j - 1] = 0
                    out[j:] = suffix[j]  # g_j^p = tail
                    continue
                k = j + 1
            for m in range(5, k - 1, -1):
                e = out[m - 1]
                if e:
                    stack.extend(lift[j][m] * e)
                    out[m - 1] = 0
            stack.append(j)
        return tuple(out)


def classical_overlaps(P, product):
    """The 35 overlaps of the classical consistency test, as (label, left,
    right), with the labels of the constructor's failure lines: for
    k > j > i the triples g_k (g_j g_i) = (g_k g_j) g_i; for each pair
    j > i, g_j^p g_i = g_j^(p-1) (g_j g_i) and
    g_j g_i^p = (g_j g_i) g_i^(p-1); and g_i^p g_i = g_i g_i^p.  Each side
    is collected as a product of normal forms, `product(u, v)` the normal
    form of u v.  `P` needs only `prime` and the five `power_tails`."""
    q = P.prime - 1
    g = [None] + [tuple(int(m == i) for m in range(5)) for i in range(5)]
    last = [None] + [tuple(q * x for x in v) for v in g[1:]]
    tails = [None] + list(P.power_tails)
    for k in range(3, 6):
        for j in range(2, k):
            for i in range(1, j):
                yield (f"g{k}(g{j} g{i}) != (g{k} g{j})g{i}",
                       product(g[k], product(g[j], g[i])),
                       product(product(g[k], g[j]), g[i]))
    for j in range(2, 6):
        for i in range(1, j):
            ji = product(g[j], g[i])
            yield (f"g{j}^p g{i} != g{j}^(p-1)(g{j} g{i})",
                   product(tails[j], g[i]), product(last[j], ji))
            yield (f"g{j} g{i}^p != (g{j} g{i})g{i}^(p-1)",
                   product(g[j], tails[i]), product(ji, last[i]))
    for i in range(1, 6):
        yield (f"g{i}^p g{i} != g{i} g{i}^p",
               product(tails[i], g[i]), product(g[i], tails[i]))


def letter_overlaps(P):
    """`classical_overlaps` collected letter by letter.  `P` needs only
    `prime`, the five `power_tails` and the ten `comm_tails`, so it may
    be data that fails them."""
    collect = LetterCollector(P).collect
    return list(classical_overlaps(
        P, lambda u, v: collect(_letters(u) + _letters(v))))


def random_presentation_data(rng, p, density):
    """Raw presentation data with each tail exponent above its generator
    nonzero with probability `density`; it need not define a group."""
    def tail(low):
        return tuple(rng.randrange(1, p) if m >= low
                     and rng.random() < density else 0 for m in range(5))
    return types.SimpleNamespace(
        prime=p, power_tails=[tail(i) for i in range(1, 6)],
        comm_tails={(j, i): tail(j) for j in range(2, 6)
                    for i in range(1, j)})


def _rmul1(P: PcPresentation, e: Element, j: int) -> Element:
    """e g_j by the collector."""
    out = list(e)
    _collect_into(out, [(j, 1)], P)
    return tuple(out)


def enumerate_elements(P: PcPresentation) -> frozenset:
    """Closure of the generators under right multiplication (collector
    route): all p^5 normal forms of a presentation, which the
    constructor made sure is consistent."""
    seen = {IDENTITY}
    frontier = [IDENTITY]
    while frontier:
        fresh = []
        for e in frontier:
            for j in (1, 2, 3, 4, 5):
                y = _rmul1(P, e, j)
                if y not in seen:
                    seen.add(y)
                    fresh.append(y)
        frontier = fresh
    assert len(seen) == P.prime**5, \
        f"closure reached {len(seen)} elements, expected {P.prime**5}"
    return frozenset(seen)


class NotNormal(Exception):
    """Quotient requested by a subgroup that conjugation does not preserve."""


def order_census_type(handles: np.ndarray, powers: np.ndarray, p: int) \
        -> AbelianType:
    """Isomorphism type of an abelian group by order counting.

    `handles` is the sorted index array of its elements (the identity 0
    first) and `powers[i]` the handle of handles[i]^p.  Iterating that
    map counts the elements of order dividing p, p^2, ...
    """
    f1 = np.searchsorted(handles, powers)
    counts = [1]
    cur = f1
    total = int(handles.size)
    for _ in range(7):
        counts.append(int(np.count_nonzero(cur == 0)))
        if counts[-1] == total:
            counts.append(total)
            break
        cur = f1[cur]
    return type_from_order_census(counts, p)


class Quotient:
    """G/N as canonical coset representatives with induced multiplication."""

    def __init__(self, g: "TableGroup", rep: np.ndarray):
        self._g = g
        self.rep = rep
        self.reps = np.flatnonzero(rep == np.arange(rep.size))
        self.gen_reps = [int(rep[g.strides[i]]) for i in range(5)]

    @property
    def order(self) -> int:
        return int(self.reps.size)

    def mult(self, a: int, b: int) -> int:
        return int(self.rep[self._g.mult_idx(a, b)])

    def abelian_invariants(self) -> AbelianType:
        gens = [r for r in self.gen_reps if r]
        for a, x in enumerate(gens):
            for y in gens[a + 1:]:
                if self.mult(x, y) != self.mult(y, x):
                    raise NotAbelian(f"generators {x} and {y} do not commute")
        g, reps = self._g, self.reps
        return order_census_type(reps, self.rep[g.pth(reps)], g.p)


class TableGroup:
    """The table route of one presentation.

    Construction refuses a group whose p^5 elements exceed the table
    limit.  The presentation is consistent by construction; the tables
    would silently build nonsense otherwise.
    R[j][x] = x g_j is one numpy int64 array per generator over the
    element indices sum e_i p^(5-i), filled in peel order by `_peel`.
    The lazy tables L[i][x] = g_i x, its inverse permutation
    x -> g_i^-1 x, the inverse table and conj[i][x] = g_i^-1 x g_i are
    built from R the same way.
    """

    def __init__(self, P: PcPresentation):
        if P.prime**5 > TABLE_LIMIT:
            raise GroupTooLarge(
                f"p = {P.prime}: the {P.prime**5} elements of a group of "
                f"order p^5 exceed the table limit of {TABLE_LIMIT}")
        self.P = P
        p = self.p = P.prime
        self.n = p**5
        self.strides = (p**4, p**3, p**2, p, 1)
        self.R = [None] * 6
        for j in range(5, 0, -1):
            self.R[j] = self._build_r(j)
        self._left = None
        self._inv = None
        self._conj = None

    def _peel(self, tab: np.ndarray, step, above: int = 0) -> np.ndarray:
        """Fill tab[x] = step(k, tab[x / g_k]) for every x whose highest
        letter g_k lies above g_`above`; `tab` must already hold the rest.

        Level (k, e) holds the x that end in g_k^e.  Their parents x / g_k
        end in g_k^(e-1), or for e = 1 in a lower letter, so the levels
        are filled in order (k, e) = (above+1, 1) ... (5, p-1), each by
        one gather over all its entries.
        """
        p = self.p
        for k in range(above + 1, 6):
            level = tab.reshape(-1, p, self.strides[k - 1])[:, :, 0]
            for e in range(1, p):
                level[:, e] = step(k, level[:, e - 1])
        return tab

    def _build_r(self, j: int) -> np.ndarray:
        """x g_j; for x = y g_k with k > j, x g_j = (y g_j) g_k [g_k, g_j]
        reads tables already built."""
        p, s = self.p, self.strides[j - 1]
        tail = sum(t * st for t, st in zip(self.P.power_tails[j - 1],
                                           self.strides))
        tab = np.empty(self.n, dtype=np.int64)
        # no letter above g_j: raise e_j, wrapping g_j^p to its tail
        x = np.arange(0, self.n, s)
        tab[::s] = np.where(x // s % p == p - 1, x - (p - 1) * s + tail,
                            x + s)
        R = self.R
        chain = {k: [k] + _letters(self.P.comm_tails[(k, j)])
                 for k in range(j + 1, 6)}

        def step(k, v):
            for t in chain[k]:
                v = R[t][v]
            return v

        return self._peel(tab, step, above=j)

    def idx_of(self, e) -> int:
        s = self.strides
        return (e[0] * s[0] + e[1] * s[1] + e[2] * s[2]
                + e[3] * s[3] + e[4])

    def exps_of(self, idx: int) -> Element:
        p, x = self.p, int(idx)
        s1, s2, s3, s4, _ = self.strides
        return (x // s1, x // s2 % p, x // s3 % p, x // s4 % p, x % p)

    def mult_idx(self, a: int, b: int) -> int:
        p = self.p
        for tab, s in zip(self.R[1:], self.strides):
            for _ in range(b // s % p):
                a = tab.item(a)
        return a

    def solve_idx(self, u: int, w: int) -> int:
        """The x with u x = w, one exponent at a time: once u agrees with
        w below g_k, the k-th exponent of x is their difference at g_k,
        which `w // s - u // s` reads modulo p."""
        p, x = self.p, 0
        for tab, s in zip(self.R[1:], self.strides):
            e = (w // s - u // s) % p
            x += e * s
            for _ in range(e):
                u = tab.item(u)
        return x

    @property
    def left(self):
        """(L, Linv): L[i][x] = g_i x, and Linv[i][x] = g_i^-1 x, its
        inverse permutation; g_i (y g_k) = (g_i y) g_k."""
        if self._left is None:
            R, n = self.R, self.n
            L, Linv = [None] * 6, [None] * 6
            for i in range(1, 6):
                tab = np.empty(n, dtype=np.int64)
                tab[0] = self.strides[i - 1]
                L[i] = self._peel(tab, lambda k, v: R[k][v])
                Linv[i] = np.empty(n, dtype=np.int64)
                Linv[i][L[i]] = np.arange(n)
            self._left = (L, Linv)
        return self._left

    @property
    def inv(self) -> np.ndarray:
        """x^-1; (y g_k)^-1 = g_k^-1 y^-1."""
        if self._inv is None:
            Linv = self.left[1]
            tab = np.zeros(self.n, dtype=np.int64)
            self._inv = self._peel(tab, lambda k, v: Linv[k][v])
        return self._inv

    @property
    def conj(self):
        """conj[i][x] = g_i^-1 x g_i."""
        if self._conj is None:
            Linv = self.left[1]
            self._conj = [None] + [self.R[i][Linv[i]] for i in range(1, 6)]
        return self._conj

    def _perm_of(self, gidx: int) -> np.ndarray:
        """Right multiplication by a fixed element, as a full permutation."""
        p = self.p
        perm = np.arange(self.n, dtype=np.int64)
        for tab, s in zip(self.R[1:], self.strides):
            for _ in range(gidx // s % p):
                perm = tab[perm]
        return perm

    def mult_arrays(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """a[i] b[i] for index arrays: R[m] is applied to a[i] as often
        as b[i]'s m-th exponent."""
        p = self.p
        for tab, s in zip(self.R[1:], self.strides):
            digit = b // s % p
            for d in range(1, p):
                sel = digit >= d
                if not sel.any():
                    break
                a = np.where(sel, tab[a], a)
        return a

    def pth(self, x: np.ndarray) -> np.ndarray:
        """x[i]^p for an index array, by square-and-multiply."""
        acc, base, m = None, x, self.p
        while True:
            if m & 1:
                acc = base if acc is None else self.mult_arrays(acc, base)
            m >>= 1
            if not m:
                return acc
            base = self.mult_arrays(base, base)

    def coset_reps(self, sub_gen_idxs) -> np.ndarray:
        """rep[x] = least element of the coset x*<gens> (gens normal or not,
        the propagation only relies on orbit partitioning).

        Each pass lowers every label to the least label one generator step
        away, then jumps each label to its own label; the labels stay
        inside the orbit and stop changing once each orbit carries its
        least element.
        """
        perms = [self._perm_of(int(g)) for g in sub_gen_idxs if int(g) != 0]
        rep = np.arange(self.n, dtype=np.int64)
        while True:
            new = rep
            for perm in perms:
                new = np.minimum(new, new[perm])
            new = new[new]
            if np.array_equal(new, rep):
                return rep
            rep = new

    def quotient(self, N: Subgroup) -> Quotient:
        """G/N; NotNormal unless conjugation by g1..g5 keeps N."""
        nidxs = [self.idx_of(s) for s in N.generators]
        for i in range(1, 6):
            for h in nidxs:
                img = self.exps_of(self.conj[i][h])
                if img not in N:
                    raise NotNormal(
                        f"conjugation by g{i} maps the subgroup outside "
                        f"itself (element {img})")
        return Quotient(self, self.coset_reps(nidxs or [0]))
