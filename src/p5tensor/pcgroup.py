"""Exact arithmetic in finite p-groups of order p^5 given by
power-commutator presentations.

A presentation has generators g1..g5 and relations

    g_i^p     = tail_i      (word in generators of index > i)
    [g_j,g_i] = tail_ji     (j > i, word in generators of index > j)

with every omitted tail trivial.  Commutators are [x,y] = x^-1 y^-1 x y,
so the defining relations give the swap rule  g_j g_i = g_i g_j [g_j,g_i]
for j > i, and every element has a unique normal form

    g1^e1 g2^e2 g3^e3 g4^e4 g5^e5,   0 <= e_i < p,

reached by collection from the left.  Elements are plain 5-tuples of
exponents; the identity is (0,0,0,0,0).

Two independent multiplication routes coexist on purpose.  `normalize`
is a direct stack-based collector working from the relations alone.
The PcGroup tables are built by a different recursion (peeling the
highest generator letter and composing previously built tables) and
power all the bulk machinery: subgroup closures, centers, series,
quotients, order censuses.  They are numpy arrays over the p^5 element
indices, filled in peel order one level (letter, exponent) at a time.
A group whose p^5 elements exceed the table limit (p > 13) is refused
with GroupTooLarge before anything of that size is allocated.
Tests compare the two routes on every element, so a bug in either is
caught by the other.

Each invariant has one runtime route.  The exponent is the largest
order of the five generators, which is exact because every group here
is regular (see `exponent`).  `quotient` builds G/N from coset
representatives; no invariant uses it, and it stays public as the
independent route to G^ab that the tests hold against the abelian
calculus.

Because collection is total, the closure of the generators always
produces exactly p^5 normal forms; detecting a *bad* presentation is
therefore the job of the consistency triples (the classical
well-definedness conditions), not of element counting.
"""

from __future__ import annotations

import collections
import itertools

import numpy as np

from .abelian import AbelianType, canon, type_from_order_census

Element = tuple  # 5 exponents, each in [0, p)

IDENTITY: Element = (0, 0, 0, 0, 0)

_PAIRS = ((2, 1), (3, 1), (3, 2), (4, 1), (4, 2), (4, 3),
          (5, 1), (5, 2), (5, 3), (5, 4))


# element slots of the group cache; also the largest group with tables
_CACHE_SLOTS = 400_000


class GroupTooLarge(ValueError):
    """p^5 exceeds the element slots that the tables may hold."""


def _refuse_large(p: int) -> None:
    if p**5 > _CACHE_SLOTS:
        raise GroupTooLarge(
            f"p = {p}: the {p**5} elements of a group of order p^5 exceed "
            f"the table limit of {_CACHE_SLOTS}")


class InconsistentPresentation(Exception):
    """The presentation fails a consistency triple (no group of order p^5)."""


class NotNormal(Exception):
    """Quotient requested by a subgroup that conjugation does not preserve."""


class NotAbelian(Exception):
    """An order census was requested for a non-commuting element set."""


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _as_vec(value, prime: int) -> tuple:
    if value is None:
        return (0, 0, 0, 0, 0)
    vec = tuple(int(x) for x in value)
    if len(vec) != 5:
        raise ValueError(f"tail vector must have length 5, got {value!r}")
    for x in vec:
        if not 0 <= x < prime:
            raise ValueError(f"tail exponent {x} outside [0, {prime})")
    return vec


def _letters(vec: tuple) -> list:
    """Expand an exponent vector into generator letters, low index first."""
    out = []
    for i in range(5):
        out.extend([i + 1] * vec[i])
    return out


class PcPresentation:
    """Immutable presentation data: prime plus power and commutator tails.

    `power_tails` may be a dict {i: vector} on 1-based generator indices
    or a full 5-sequence; `comm_tails` a dict {(j, i): vector} with j > i.
    Both accept length-5 exponent vectors; missing entries mean trivial.
    """

    __slots__ = ("prime", "ngens", "power_tails", "comm_tails", "_key",
                 "_inv_letters", "_cctx")

    def __init__(self, prime: int, power_tails=None, comm_tails=None):
        prime = int(prime)
        if prime < 5 or not _is_prime(prime):
            raise ValueError(f"prime must be a prime >= 5, got {prime}")
        self.prime = prime
        self.ngens = 5

        if power_tails is None:
            power_tails = {}
        if isinstance(power_tails, dict):
            pt = [_as_vec(power_tails.get(i + 1), prime) for i in range(5)]
        else:
            seq = list(power_tails)
            if len(seq) != 5:
                raise ValueError("power_tails sequence must have length 5")
            pt = [_as_vec(v, prime) for v in seq]
        for i in range(5):
            for m in range(5):
                if pt[i][m] and m + 1 <= i + 1:
                    raise ValueError(
                        f"power tail of g{i+1} uses g{m+1}; "
                        "support must lie strictly above the base generator")
        self.power_tails = tuple(pt)

        ct = {}
        if comm_tails:
            for (j, i), v in comm_tails.items():
                j, i = int(j), int(i)
                if not (1 <= i < j <= 5):
                    raise ValueError(f"bad commutator pair ({j},{i})")
                vec = _as_vec(v, prime)
                for m in range(5):
                    if vec[m] and m + 1 <= j:
                        raise ValueError(
                            f"tail of [g{j},g{i}] uses g{m+1}; "
                            "support must lie strictly above g_j")
                ct[(j, i)] = vec
        full = {}
        for pair in _PAIRS:
            full[pair] = ct.get(pair, (0, 0, 0, 0, 0))
        self.comm_tails = full
        self._key = (prime, self.power_tails,
                     tuple(full[pair] for pair in _PAIRS))
        self._inv_letters = None
        self._cctx = None

    def __eq__(self, other):
        return isinstance(other, PcPresentation) and self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        rels = ", ".join(self.relations_text()) or "free of relations"
        return f"PcPresentation(p={self.prime}: {rels})"

    def comm_tail(self, j: int, i: int) -> tuple:
        return self.comm_tails[(j, i)]

    def relations_text(self) -> list:
        """Nontrivial relations as display strings, commutators first."""

        def word(vec):
            if not any(vec):
                return "1"
            parts = []
            for m in range(5):
                if vec[m] == 1:
                    parts.append(f"g{m+1}")
                elif vec[m]:
                    parts.append(f"g{m+1}^{vec[m]}")
            return " ".join(parts)

        lines = []
        for (j, i) in _PAIRS:
            vec = self.comm_tails[(j, i)]
            if any(vec):
                lines.append(f"[g{j},g{i}] = {word(vec)}")
        for i in range(5):
            vec = self.power_tails[i]
            if any(vec):
                lines.append(f"g{i+1}^p = {word(vec)}")
        return lines


# ---------------------------------------------------------------------------
# collection (the presentation-level route)

def _collect_ctx(P: PcPresentation):
    """Precompiled conjugates, blockers and power-tail suffixes for the
    collector."""
    ctx = P._cctx
    if ctx is None:
        # lift[j][k]: letters of g_j^-1 g_k g_j = g_k [g_k, g_j], already
        # reversed for stack.extend; blockers[j]: the k > j with
        # [g_k, g_j] != 1, ascending
        lift = [[None] * 6 for _ in range(6)]
        blockers = [()] * 6
        suffix = [None] * 6
        for j in range(1, 6):
            for k in range(j + 1, 6):
                tail = P.comm_tails[(k, j)]
                lift[j][k] = tuple(reversed([k] + _letters(tail)))
                if any(tail):
                    blockers[j] += (k,)
            suffix[j] = list(P.power_tails[j - 1][j:])
        ctx = (P.prime - 1, lift, blockers, suffix)
        P._cctx = ctx
    return ctx


def _collect_into(out: list, stack: list, P: PcPresentation) -> None:
    """Absorb the letters on `stack` (top = next) into normal form `out`.

    Collection from the left: a letter g_j lands in place once every
    generator above it in `out` commutes with it (and, when g_j^p
    wraps to its tail, once nothing is above it).  Otherwise the part w
    of `out` from the lowest such generator up is lifted off, and
    out * g_j = (out / w) * g_j * w^(g_j) goes back on the stack, with
    w^(g_j) the product of the conjugates g_k [g_k, g_j].
    """
    pm1, lift, blockers, suffix = _collect_ctx(P)
    pop = stack.pop
    extend = stack.extend
    while stack:
        j = pop()
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
            # the power tail must land below the part above g_j: lift it
            k = j + 1
        for m in range(5, k - 1, -1):
            e = out[m - 1]
            if e:
                extend(lift[j][m] * e)
                out[m - 1] = 0
        stack.append(j)


def _gen_inverse_letters(P: PcPresentation, i: int) -> list:
    """Letters of g_i^-1, namely g_i^(p-1) followed by the tail inverse."""
    if P._inv_letters is None:
        P._inv_letters = {}
    memo = P._inv_letters
    if i not in memo:
        letters = [i] * (P.prime - 1)
        tail = P.power_tails[i - 1]
        for m in range(5, i, -1):
            if tail[m - 1]:
                letters = letters + _gen_inverse_letters(P, m) * tail[m - 1]
        memo[i] = letters
    return memo[i]


def normalize(word, P: PcPresentation) -> Element:
    """Collect a word of (generator index, signed exponent) pairs.

    Negative exponents go through the generator inverses
    g_i^-1 = g_i^(p-1) (tail of g_i^p)^-1.  The result is the unique
    normal form; normalizing again is a no-op.
    """
    n5 = P.prime**5
    letters: list = []
    for gen, exp in word:
        gen = int(gen)
        if not 1 <= gen <= 5:
            raise ValueError(f"generator index {gen} outside 1..5")
        exp = int(exp)
        if exp >= 0:
            letters.extend([gen] * (exp % n5))
        else:
            letters.extend(_gen_inverse_letters(P, gen) * ((-exp) % n5))
    out = [0, 0, 0, 0, 0]
    _collect_into(out, list(reversed(letters)), P)
    return tuple(out)


def _rmul1(P: PcPresentation, e: Element, j: int) -> Element:
    out = list(e)
    _collect_into(out, [j], P)
    return tuple(out)


def enumerate_elements(P: PcPresentation) -> frozenset:
    """Closure of the generators under right multiplication (collector route).

    Returns all p^5 normal forms; anything else raises
    InconsistentPresentation.  Groups above the table limit raise
    GroupTooLarge.
    """
    _refuse_large(P.prime)
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


class ConsistencyReport:
    __slots__ = ("failures",)

    def __init__(self, failures):
        self.failures = tuple(failures)

    @property
    def ok(self) -> bool:
        return not self.failures

    def __bool__(self):
        return self.ok

    def __repr__(self):
        if self.ok:
            return "ConsistencyReport(ok)"
        return f"ConsistencyReport({len(self.failures)} failures: " \
               f"{self.failures[0]} ...)"


def consistency_check(P: PcPresentation) -> ConsistencyReport:
    """Evaluate the classical consistency triples for relative order p.

    For k > j > i the two collection orders of g_k g_j g_i must agree,
    and the power relations must commute with the swaps:
    g_j^p g_i = g_j^(p-1) (g_j g_i), g_j g_i^p = (g_j g_i) g_i^(p-1),
    g_i^p g_i = g_i g_i^p.  The report lists every failing word pair.
    """
    p = P.prime

    def collect(letters):
        out = [0, 0, 0, 0, 0]
        _collect_into(out, list(reversed(letters)), P)
        return tuple(out)

    failures = []
    for k in range(3, 6):
        for j in range(2, k):
            for i in range(1, j):
                lhs = collect([k] + _letters(collect([j, i])))
                rhs = collect(_letters(collect([k, j])) + [i])
                if lhs != rhs:
                    failures.append(
                        f"overlap g{k}(g{j} g{i}) != (g{k} g{j})g{i}: "
                        f"{lhs} vs {rhs}")
    for j in range(2, 6):
        for i in range(1, j):
            lhs = collect(_letters(P.power_tails[j - 1]) + [i])
            rhs = collect([j] * (p - 1) + _letters(collect([j, i])))
            if lhs != rhs:
                failures.append(
                    f"overlap g{j}^p g{i} != g{j}^(p-1)(g{j} g{i}): "
                    f"{lhs} vs {rhs}")
            lhs = collect([j] + _letters(P.power_tails[i - 1]))
            rhs = collect(_letters(collect([j, i])) + [i] * (p - 1))
            if lhs != rhs:
                failures.append(
                    f"overlap g{j} g{i}^p != (g{j} g{i})g{i}^(p-1): "
                    f"{lhs} vs {rhs}")
    for i in range(1, 6):
        lhs = collect(_letters(P.power_tails[i - 1]) + [i])
        rhs = collect([i] + _letters(P.power_tails[i - 1]))
        if lhs != rhs:
            failures.append(
                f"overlap g{i}^p g{i} != g{i} g{i}^p: {lhs} vs {rhs}")
    return ConsistencyReport(failures)


# ---------------------------------------------------------------------------
# table-backed group machinery

class Subgroup:
    """A subgroup as an explicit element set plus the generators found."""

    __slots__ = ("_g", "gen_idxs", "idxs", "_set", "_elements")

    def __init__(self, g: "PcGroup", gen_idxs, idxs):
        self._g = g
        self.gen_idxs = tuple(int(x) for x in gen_idxs)
        self.idxs = np.asarray(idxs, dtype=np.int64)
        self._set = None
        self._elements = None

    @property
    def order(self) -> int:
        return int(self.idxs.size)

    def __len__(self):
        return int(self.idxs.size)

    @property
    def generators(self) -> tuple:
        return tuple(self._g.exps_of(i) for i in self.gen_idxs)

    @property
    def elements(self) -> tuple:
        if self._elements is None:
            self._elements = tuple(self._g.exps_of(int(i))
                                   for i in self.idxs)
        return self._elements

    def __contains__(self, e) -> bool:
        if self._set is None:
            self._set = set(int(i) for i in self.idxs)
        return self._g.idx_of(e) in self._set

    def __repr__(self):
        return f"Subgroup(order={self.order}, ngens={len(self.gen_idxs)})"


class Quotient:
    """G/N as canonical coset representatives with induced multiplication."""

    __slots__ = ("_g", "rep", "reps", "gen_reps")

    def __init__(self, g: "PcGroup", rep: np.ndarray):
        self._g = g
        self.rep = rep
        self.reps = [int(x) for x in np.flatnonzero(
            rep == np.arange(rep.size))]
        self.gen_reps = [int(rep[g.strides[i]]) for i in range(5)]

    @property
    def order(self) -> int:
        return len(self.reps)

    def mult(self, a: int, b: int) -> int:
        return int(self.rep[self._g.mult_idx(a, b)])

    def element_of(self, ridx: int) -> Element:
        return self._g.exps_of(ridx)

    def abelian_invariants(self) -> AbelianType:
        gens = [r for r in self.gen_reps if r != 0]
        return _census_type(self.reps, self.mult, gens, self._g.p)

    def __repr__(self):
        return f"Quotient(order={self.order})"


def _census_type(elems, mult, gens, p) -> AbelianType:
    """Isomorphism type of an abelian group by order counting.

    `elems` lists the element handles (identity = 0 must be present),
    `mult` is the group operation on handles, `gens` a generating set.
    The p-power map is extended from the generators by the homomorphism
    property, which is exactly where commutativity is needed; generator
    pairs are checked first.
    """
    for a in range(len(gens)):
        for b in range(a + 1, len(gens)):
            if mult(gens[a], gens[b]) != mult(gens[b], gens[a]):
                raise NotAbelian(
                    f"generators {gens[a]} and {gens[b]} do not commute")

    def pw(x, m):
        acc, base = 0, x
        while m:
            if m & 1:
                acc = mult(acc, base)
            base = mult(base, base)
            m >>= 1
        return acc

    fgen = {g: pw(g, p) for g in gens}
    fmap = {0: 0}
    disc = [0]
    head = 0
    while head < len(disc):
        x = disc[head]
        head += 1
        for g in gens:
            y = mult(x, g)
            if y not in fmap:
                fmap[y] = mult(fmap[x], fgen[g])
                disc.append(y)
    if len(disc) != len(elems):
        raise ValueError(
            f"generators span {len(disc)} of {len(elems)} elements; "
            "input is not the closed set they generate")
    pos = {e: i for i, e in enumerate(disc)}
    f1 = np.array([pos[fmap[e]] for e in disc], dtype=np.int64)
    counts = [1]
    cur = f1
    total = len(disc)
    for _ in range(7):
        counts.append(int(np.count_nonzero(cur == 0)))
        if counts[-1] == total:
            counts.append(total)
            break
        cur = f1[cur]
    return type_from_order_census(counts, p)


class PcGroup:
    """Multiplication tables and bulk machinery for one presentation.

    Construction refuses a group whose p^5 elements exceed the table
    limit, then runs the consistency triples and refuses a bad
    presentation; the tables below would silently build nonsense
    otherwise.  Every table is one numpy int64 array per generator over
    the element indices: R[j][x] = x g_j, and lazily L[i][x] = g_i x,
    its inverse permutation x -> g_i^-1 x, the inverse table and
    conj[i][x] = g_i^-1 x g_i.  R, L and the inverse are filled in peel
    order by `_peel`.
    """

    def __init__(self, P: PcPresentation):
        _refuse_large(P.prime)
        report = consistency_check(P)
        if not report.ok:
            raise InconsistentPresentation(report.failures[0])
        self.P = P
        p = self.p = P.prime
        self.n = p**5
        self.strides = (p**4, p**3, p**2, p, 1)
        self.digs = list(itertools.product(range(p), repeat=5))

        self.R = [None] * 6
        for j in range(5, 0, -1):
            self.R[j] = self._build_r(j)
        self._left = None
        self._inv = None
        self._conj = None
        self._center = None
        self._derived = None

    # -- table construction ------------------------------------------------

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

    # -- element plumbing ----------------------------------------------------

    def idx_of(self, e) -> int:
        s = self.strides
        return (e[0] * s[0] + e[1] * s[1] + e[2] * s[2]
                + e[3] * s[3] + e[4])

    def exps_of(self, idx: int) -> Element:
        return self.digs[int(idx)]

    def mult_idx(self, a: int, b: int) -> int:
        R = self.R
        for m, d in enumerate(self.digs[b], start=1):
            tab = R[m]
            for _ in range(d):
                a = tab[a]
        return int(a)

    def inv_idx(self, a: int) -> int:
        return int(self.inv[a])

    def pow_idx(self, a: int, m: int) -> int:
        m %= self.n  # element orders divide p^5
        acc = 0
        base = a
        while m:
            if m & 1:
                acc = self.mult_idx(acc, base)
            base = self.mult_idx(base, base)
            m >>= 1
        return acc

    def comm_idx(self, a: int, b: int) -> int:
        ab = self.mult_idx(a, b)
        ba = self.mult_idx(b, a)
        return self.mult_idx(self.inv_idx(ba), ab)

    def _perm_of(self, gidx: int) -> np.ndarray:
        """Right multiplication by a fixed element, as a full permutation."""
        perm = np.arange(self.n, dtype=np.int64)
        for m, d in enumerate(self.digs[gidx], start=1):
            for _ in range(d):
                perm = self.R[m][perm]
        return perm

    # -- subgroup machinery --------------------------------------------------

    def closure_idxs(self, gen_idxs) -> np.ndarray:
        mask = np.zeros(self.n, dtype=bool)
        mask[0] = True
        gen_idxs = [int(g) for g in gen_idxs if int(g) != 0]
        perms = [self._perm_of(g) for g in gen_idxs]
        frontier = np.array([0], dtype=np.int64)
        while frontier.size:
            nxt = []
            for perm in perms:
                img = perm[frontier]
                new = img[~mask[img]]
                if new.size:
                    mask[new] = True
                    nxt.append(np.unique(new))
            frontier = (np.unique(np.concatenate(nxt))
                        if nxt else np.array([], dtype=np.int64))
        return np.flatnonzero(mask)

    def subgroup(self, gen_idxs) -> Subgroup:
        gen_idxs = [int(g) for g in gen_idxs]
        return Subgroup(self, gen_idxs, self.closure_idxs(gen_idxs))

    def normal_closure_subgroup(self, seed_idxs) -> Subgroup:
        gens = [int(g) for g in seed_idxs if int(g) != 0]
        idxs = self.closure_idxs(gens)
        while True:
            mask = np.zeros(self.n, dtype=bool)
            mask[idxs] = True
            escaped = []
            for i in range(1, 6):
                img = self.conj[i][idxs]
                out = img[~mask[img]]
                if out.size:
                    escaped.extend(int(x) for x in np.unique(out)[:4])
            if not escaped:
                return Subgroup(self, gens, idxs)
            gens = gens + escaped
            idxs = self.closure_idxs(gens)

    def greedy_gens(self, idxs) -> list:
        """Generators of the closed set `idxs`: each element, in the given
        order, that the earlier picks do not yet generate.

        A subgroup of order p^5 needs at most five.  Raises ValueError
        when a picked span leaves the set, i.e. the set is not closed
        under multiplication.
        """
        inside = np.zeros(self.n, dtype=bool)
        inside[idxs] = True
        have = np.zeros(self.n, dtype=bool)
        have[0] = True
        gens = []
        for x in idxs:
            x = int(x)
            if not have[x]:
                gens.append(x)
                span = self.closure_idxs(gens)
                if not inside[span].all():
                    raise ValueError("set is not closed under multiplication")
                have[span] = True
        return gens

    def center_data(self):
        """Z(G) as (element indices, generators)."""
        if self._center is None:
            L = self.left[0]
            mask = np.ones(self.n, dtype=bool)
            for i in range(1, 6):
                mask &= self.R[i] == L[i]
            idxs = np.flatnonzero(mask)
            self._center = (idxs, self.greedy_gens(idxs))
        return self._center

    def derived_data(self):
        """G' as (element indices, generators): the normal closure of the
        generator commutators."""
        if self._derived is None:
            strides = self.strides
            seeds = [self.comm_idx(strides[j], strides[i])
                     for j in range(1, 5) for i in range(j)]
            d = self.normal_closure_subgroup([c for c in seeds if c])
            self._derived = (d.idxs, d.gen_idxs)
        return self._derived

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


_GROUP_CACHE: "collections.OrderedDict[PcPresentation, PcGroup]" = \
    collections.OrderedDict()


def _group(P: PcPresentation) -> PcGroup:
    g = _GROUP_CACHE.get(P)
    if g is None:
        g = PcGroup(P)
        _GROUP_CACHE[P] = g
        while sum(x.n for x in _GROUP_CACHE.values()) > _CACHE_SLOTS \
                and len(_GROUP_CACHE) > 1:
            _GROUP_CACHE.popitem(last=False)
    else:
        _GROUP_CACHE.move_to_end(P)
    return g


# ---------------------------------------------------------------------------
# public operations

def multiply(a: Element, b: Element, P: PcPresentation) -> Element:
    g = _group(P)
    return g.exps_of(g.mult_idx(g.idx_of(a), g.idx_of(b)))


def inverse(a: Element, P: PcPresentation) -> Element:
    g = _group(P)
    return g.exps_of(g.inv_idx(g.idx_of(a)))


def conjugate(a: Element, b: Element, P: PcPresentation) -> Element:
    """Left conjugation a b a^-1."""
    g = _group(P)
    ai = g.idx_of(a)
    return g.exps_of(g.mult_idx(g.mult_idx(ai, g.idx_of(b)),
                                g.inv_idx(ai)))


def commutator(a: Element, b: Element, P: PcPresentation) -> Element:
    """[a, b] = a^-1 b^-1 a b."""
    g = _group(P)
    return g.exps_of(g.comm_idx(g.idx_of(a), g.idx_of(b)))


def power(a: Element, n: int, P: PcPresentation) -> Element:
    g = _group(P)
    return g.exps_of(g.pow_idx(g.idx_of(a), int(n)))


def order_of(a: Element, P: PcPresentation) -> int:
    g = _group(P)
    x = g.idx_of(a)
    order = 1
    while x != 0:
        x = g.pow_idx(x, g.p)
        order *= g.p
    return order


def generator(i: int) -> Element:
    e = [0, 0, 0, 0, 0]
    e[i - 1] = 1
    return tuple(e)


def subgroup_closure(gens, P: PcPresentation) -> Subgroup:
    g = _group(P)
    return g.subgroup([g.idx_of(e) for e in gens])


def normal_closure(gens, P: PcPresentation) -> Subgroup:
    g = _group(P)
    return g.normal_closure_subgroup([g.idx_of(e) for e in gens])


def derived_subgroup(P: PcPresentation) -> Subgroup:
    g = _group(P)
    idxs, gens = g.derived_data()
    return Subgroup(g, gens, idxs)


def center(P: PcPresentation) -> Subgroup:
    g = _group(P)
    idxs, gens = g.center_data()
    return Subgroup(g, gens, idxs)


def lower_central_series(P: PcPresentation) -> list:
    g = _group(P)
    whole = Subgroup(g, [g.strides[i] for i in range(5)],
                     np.arange(g.n, dtype=np.int64))
    series = [whole]
    current = derived_subgroup(P)
    series.append(current)
    while current.order > 1:
        seeds = []
        for h in current.gen_idxs:
            for i in range(5):
                c = g.comm_idx(h, g.strides[i])
                if c:
                    seeds.append(c)
        nxt = g.normal_closure_subgroup(seeds)
        series.append(nxt)
        if nxt.order == current.order:
            raise AssertionError("lower central series stalled")
        current = nxt
    return series


def nilpotency_class(P: PcPresentation) -> int:
    return len(lower_central_series(P)) - 1


def exponent(P: PcPresentation) -> int:
    """Largest element order, read off the five pc generators.

    Every group of order p^5 has class <= 4 < p (PcPresentation refuses
    p < 5), so it is regular (P. Hall, Proc. LMS 36, 1934); in a regular
    p-group the elements of order dividing p^k form a subgroup, and exp G
    is the largest order among any generating set.
    """
    return max(order_of(generator(i), P) for i in range(1, 6))


def quotient(P: PcPresentation, N: Subgroup) -> Quotient:
    g = _group(P)
    nidxs = N.idxs
    mask = np.zeros(g.n, dtype=bool)
    mask[nidxs] = True
    for i in range(1, 6):
        img = g.conj[i][nidxs]
        if not mask[img].all():
            bad = int(img[~mask[img]][0])
            raise NotNormal(
                f"conjugation by g{i} maps the subgroup outside itself "
                f"(element {g.exps_of(bad)})")
    rep = g.coset_reps(N.gen_idxs if N.gen_idxs else [0])
    return Quotient(g, rep)


def abelian_invariants_of(elements, P: PcPresentation) -> AbelianType:
    """Isomorphism type of a closed abelian subset, by order counting."""
    g = _group(P)
    if isinstance(elements, Subgroup):
        idxs = [int(x) for x in elements.idxs]
        gens = list(elements.gen_idxs)
    else:
        idxs = sorted(g.idx_of(e) for e in elements)
        if not idxs or idxs[0] != 0:
            raise ValueError("element set lacks the identity")
        gens = g.greedy_gens(idxs)
    gens = [x for x in gens if x != 0]
    return _census_type(idxs, g.mult_idx, gens, g.p)
