"""Table oracles: the p^5 table route that the tests hold the collector,
the pc sequences and the element operations against.

`TableGroup` adds to a `PcGroup`'s right multiplication table R the
left tables, the inverse and conjugation tables, vectorised products
and p-th powers on index arrays, coset representatives and quotients
G/N with an order census.  Every one of them is built from R, and the
tests check R against the collector on every element (`_rmul1`), so
each oracle rests on that one comparison.
"""

import numpy as np

from p5tensor.abelian import AbelianType, type_from_order_census
from p5tensor.pcgroup import (
    IDENTITY,
    Element,
    InconsistentPresentation,
    PcGroup,
    PcPresentation,
    Subgroup,
    _collect_into,
    _require_commuting,
)


def _rmul1(P: PcPresentation, e: Element, j: int) -> Element:
    """e g_j by the collector."""
    out = list(e)
    _collect_into(out, [j], P)
    return tuple(out)


def enumerate_elements(P: PcPresentation) -> frozenset:
    """Closure of the generators under right multiplication (collector
    route).  Returns all p^5 normal forms; anything else raises
    InconsistentPresentation."""
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
    if len(seen) != P.prime**5:
        raise InconsistentPresentation(
            f"closure reached {len(seen)} elements, expected {P.prime**5}")
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
        _require_commuting(self.mult, [r for r in self.gen_reps if r])
        g, reps = self._g, self.reps
        return order_census_type(reps, self.rep[g.pth(reps)], g.p)


class TableGroup(PcGroup):
    """A PcGroup with the lazy tables and array routines of the oracles:
    L[i][x] = g_i x, its inverse permutation x -> g_i^-1 x, the inverse
    table and conj[i][x] = g_i^-1 x g_i.  L and the inverse are filled
    in peel order by `_peel`, like R."""

    def __init__(self, P: PcPresentation):
        super().__init__(P)
        self._left = None
        self._inv = None
        self._conj = None

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
