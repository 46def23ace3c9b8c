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
exponents; the identity is (0,0,0,0,0).  Inside a PcGroup an element is
only its integer index sum e_i p^(5-i); its exponents are read back by
arithmetic, idx // p^(5-i) % p.

A subgroup is an induced pc sequence: at most five normal forms of
distinct depths (the position of the first nonzero exponent), each with
leading exponent 1, whose products s_1^e_1 ... s_m^e_m (0 <= e_i < p)
are its p^m elements.  Closures, normal closures, the center, G', the
lower central series, the class, the exponent and the abelian
invariants of a subgroup all work on these sequences through the
collector, at a cost polynomial in log|G|.  The pc series is central
(every tail of [g_j, g_i] lies above g_j), which keeps the algebra
small: a normal closure needs only p-th powers and commutators with
g1..g5, and the center is cut out layer by layer as the kernel of a
linear map to F_p^5.  The type of an abelian subgroup is the Smith
normal form of its relative power relations.

The element operations (`multiply`, `inverse`, `conjugate`,
`commutator`, `power`, `order_of`) run on one PcGroup table, R[j][x] =
x g_j, a numpy array per generator over the p^5 element indices built by
a different recursion (peeling the highest generator letter and
composing previously built tables), filled in peel order one level
(letter, exponent) at a time.  Products apply R once per exponent;
inverses and commutators solve u x = w on R one exponent at a time, as
the collector does.  A group whose p^5 elements exceed the table limit
(p > 13) is refused there with GroupTooLarge before anything of that
size is allocated.  Quotients, order censuses and the enumeration of
all p^5 normal forms are test oracles built on the same R; the tests
compare the collector with R on every element, and the pc sequences
with the table route's subgroups, so a bug in either route is caught by
the other.

Because collection is total, the closure of the generators always
produces exactly p^5 normal forms; detecting a *bad* presentation is
therefore the job of the consistency triples (the classical
well-definedness conditions), not of element counting.  Every subgroup
routine and PcGroup run them first (the report is memoised), so a bad
presentation raises InconsistentPresentation.
"""

from __future__ import annotations

import collections

import numpy as np

from .abelian import AbelianType, p_type_from_factors, snf

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


class NotAbelian(Exception):
    """Abelian invariants were requested for a non-commuting element set."""


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

    __slots__ = ("prime", "power_tails", "comm_tails", "_key",
                 "_inv_letters", "_cctx", "_report")

    def __init__(self, prime: int, power_tails=None, comm_tails=None):
        prime = int(prime)
        if prime < 5 or not _is_prime(prime):
            raise ValueError(f"prime must be a prime >= 5, got {prime}")
        self.prime = prime

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
        self._report = None

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
    g_i^p g_i = g_i g_i^p.  The report lists every failing word pair;
    it is computed once per presentation.
    """
    if P._report is not None:
        return P._report
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
    P._report = ConsistencyReport(failures)
    return P._report


def _require_consistent(P: PcPresentation) -> None:
    report = consistency_check(P)
    if not report.ok:
        raise InconsistentPresentation(report.failures[0])


# ---------------------------------------------------------------------------
# subgroups as induced pc sequences (collector route)

_GENS = ((1, 0, 0, 0, 0), (0, 1, 0, 0, 0), (0, 0, 1, 0, 0),
         (0, 0, 0, 1, 0), (0, 0, 0, 0, 1))


def _mul(a: Element, b: Element, P: PcPresentation) -> Element:
    """a b, by collecting the letters of b into a."""
    out = list(a)
    stack = []
    for i in range(4, -1, -1):
        stack += [i + 1] * b[i]
    _collect_into(out, stack, P)
    return tuple(out)


def _pow(x: Element, m: int, P: PcPresentation) -> Element:
    """x^m for m >= 0, by square-and-multiply."""
    acc = IDENTITY
    while m:
        if m & 1:
            acc = _mul(acc, x, P)
        m >>= 1
        if m:
            x = _mul(x, x, P)
    return acc


def _solve(u: Element, w: Element, P: PcPresentation) -> Element:
    """The x with u x = w, one exponent at a time.

    Right multiplication by g_k^e keeps the exponents below g_k and adds
    e to the k-th one modulo p, so once u agrees with w below g_k, the
    k-th exponent of x is their difference at g_k.
    """
    p = P.prime
    u = list(u)
    x = [0, 0, 0, 0, 0]
    for k in range(5):
        e = (w[k] - u[k]) % p
        if e:
            x[k] = e
            _collect_into(u, [k + 1] * e, P)
    return tuple(x)


def _comm(a: Element, b: Element, P: PcPresentation) -> Element:
    """[a, b], solved from (b a) [a, b] = a b."""
    return _solve(_mul(b, a, P), _mul(a, b, P), P)


def _depth(x: Element) -> int:
    """Position of the first nonzero exponent; 5 for the identity."""
    for d in range(5):
        if x[d]:
            return d
    return 5


def _by_depth(seq) -> list:
    slots = [None] * 5
    for s in seq:
        slots[_depth(s)] = s
    return slots


def _sift(x: Element, slots: list, P: PcPresentation):
    """Strip the leading exponents of x that the sequence covers.

    `slots[d]` is the sequence element of depth d, or None.  Returns the
    residue, its depth, and the leading exponent e_d stripped at each
    depth d.  Each step multiplies by slots[d]^(p - e_d), so x is the
    residue times the slots[d]^(e_d - p), deepest first.
    """
    p = P.prime
    lead = [0, 0, 0, 0, 0]
    for d in range(5):
        e = x[d]
        if e:
            s = slots[d]
            if s is None:
                return x, d, lead
            lead[d] = e
            x = _mul(x, _pow(s, p - e, P), P)
    return x, 5, lead


def _closure(seeds, P: PcPresentation, normal: bool = False) -> tuple:
    """Induced pc sequence of the subgroup the seeds generate, or with
    `normal` of their normal closure: elements of distinct depths, each
    with leading exponent 1, by increasing depth.

    Each element s that sifts to a new depth is scaled to leading
    exponent 1 and puts s^p and its commutators with the sequence so far
    (with g1..g5 for a normal closure) on the queue.  Once everything
    sifts to 1, s_j^p and the commutators involving s_j lie in
    <s_(j+1), ...>, because the pc series is central and a commutator
    with s_j lies deeper than s_j.  Going up from the deepest element,
    each s_j then normalises <s_(j+1), ...> (for a normal closure, so
    does every g_i), so the products s_1^e_1 ... s_m^e_m, 0 <= e_i < p,
    form the subgroup.
    """
    p = P.prime
    slots = [None] * 5
    queue = list(seeds)
    while queue:
        x, d, _ = _sift(queue.pop(), slots, P)
        if d == 5:
            continue
        x = _pow(x, pow(x[d], -1, p), P)
        others = _GENS if normal else [s for s in slots if s is not None]
        slots[d] = x
        queue.append(_pow(x, p, P))
        queue.extend(_comm(x, y, P) for y in others)
    return tuple(s for s in slots if s is not None)


def _center_seq(P: PcPresentation, stop: int = 5) -> tuple:
    """C_stop, where C_d = {x : [x, G] <= G_d} and G_d holds the elements
    of depth >= d; C_5 = Z(G).  Found layer by layer down the pc series.

    On C_d, x -> ([x, g_i] at depth d)_i is a homomorphism to F_p^5
    whose kernel is C_(d+1).  The kernel is normal in G and contains the
    elements that eliminate to a zero row and the p-th powers of the
    pivots; those generate it as a normal subgroup.  The zero rows take
    in the sequence of G_d <= C_d, which holds [C_d, C_d], so modulo
    them C_d is elementary abelian of rank at most the number of pivots.
    C_2 = G: every tail of [g_j, g_i] lies above g_j with j >= 2.
    """
    p = P.prime
    seq = _GENS
    for d in range(2, stop):
        pivots, seeds = [], []
        for x in seq:
            v = [_comm(x, g, P)[d] for g in _GENS]
            for y, w, c in pivots:
                if v[c]:
                    f = v[c] * pow(w[c], -1, p) % p
                    x = _mul(x, _pow(y, p - f, P), P)
                    v = [(a - f * b) % p for a, b in zip(v, w)]
            c = next((i for i in range(5) if v[i]), None)
            if c is None:
                seeds.append(x)
            else:
                seeds.append(_pow(x, p, P))
                pivots.append((x, v, c))
        if pivots:
            seq = _closure(seeds, P, normal=True)
    return seq


class Subgroup:
    """A subgroup as an induced pc sequence `generators`: elements of
    distinct depths with leading exponent 1, whose products
    s_1^e_1 ... s_m^e_m (0 <= e_i < p) are the subgroup."""

    __slots__ = ("_P", "generators", "_elements")

    def __init__(self, P: PcPresentation, generators):
        self._P = P
        self.generators = tuple(generators)
        self._elements = None

    @property
    def order(self) -> int:
        return self._P.prime ** len(self.generators)

    @property
    def elements(self) -> tuple:
        """Every element, in increasing exponent order."""
        if self._elements is None:
            P = self._P
            elems = [IDENTITY]
            for s in reversed(self.generators):
                powers = [IDENTITY]
                for _ in range(P.prime - 1):
                    powers.append(_mul(powers[-1], s, P))
                elems = [_mul(t, y, P) for t in powers for y in elems]
            self._elements = tuple(sorted(elems))
        return self._elements

    def __contains__(self, e) -> bool:
        x = _as_vec(e, self._P.prime)
        return _sift(x, _by_depth(self.generators), self._P)[1] == 5

    def __repr__(self):
        return f"Subgroup(order={self.order}, ngens={len(self.generators)})"


# ---------------------------------------------------------------------------
# the right multiplication table (element operations)

class PcGroup:
    """The right multiplication table of one presentation, for the
    element operations.

    Construction refuses a group whose p^5 elements exceed the table
    limit, then runs the consistency triples and refuses a bad
    presentation; the table would silently build nonsense otherwise.
    R[j][x] = x g_j is one numpy int64 array per generator over the
    element indices, filled in peel order by `_peel`.
    """

    def __init__(self, P: PcPresentation):
        _refuse_large(P.prime)
        _require_consistent(P)
        self.P = P
        p = self.p = P.prime
        self.n = p**5
        self.strides = (p**4, p**3, p**2, p, 1)

        self.R = [None] * 6
        for j in range(5, 0, -1):
            self.R[j] = self._build_r(j)

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

    # -- element plumbing ----------------------------------------------------

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

    def solve_idx(self, u: int, w: int) -> int:
        """The x with u x = w, one exponent at a time, as in `_solve`:
        once u agrees with w below g_k, the k-th exponent of x is their
        difference at g_k, which `w // s - u // s` reads modulo p."""
        p, x = self.p, 0
        for tab, s in zip(self.R[1:], self.strides):
            e = (w // s - u // s) % p
            x += e * s
            for _ in range(e):
                u = tab.item(u)
        return x


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
    return g.exps_of(g.solve_idx(g.idx_of(a), 0))


def conjugate(a: Element, b: Element, P: PcPresentation) -> Element:
    """Left conjugation a b a^-1."""
    g = _group(P)
    ai = g.idx_of(a)
    return g.exps_of(g.mult_idx(g.mult_idx(ai, g.idx_of(b)),
                                g.solve_idx(ai, 0)))


def commutator(a: Element, b: Element, P: PcPresentation) -> Element:
    """[a, b] = a^-1 b^-1 a b, solved from (b a) [a, b] = a b."""
    g = _group(P)
    ai, bi = g.idx_of(a), g.idx_of(b)
    return g.exps_of(g.solve_idx(g.mult_idx(bi, ai), g.mult_idx(ai, bi)))


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
    _require_consistent(P)
    return Subgroup(P, _closure([_as_vec(e, P.prime) for e in gens], P))


def normal_closure(gens, P: PcPresentation) -> Subgroup:
    _require_consistent(P)
    return Subgroup(P, _closure([_as_vec(e, P.prime) for e in gens], P,
                                normal=True))


def derived_subgroup(P: PcPresentation) -> Subgroup:
    """G': the normal closure of the commutator tails [g_j, g_i]."""
    _require_consistent(P)
    return Subgroup(P, _closure(P.comm_tails.values(), P, normal=True))


def center(P: PcPresentation) -> Subgroup:
    _require_consistent(P)
    return Subgroup(P, _center_seq(P))


def lower_central_series(P: PcPresentation) -> list:
    """G = gamma_1 > gamma_2 > ... > 1, with gamma_(c+1) the normal closure
    of the [s, g_i] over the sequence s of gamma_c."""
    _require_consistent(P)
    series = [_GENS]
    while series[-1]:
        series.append(_closure([_comm(s, g, P) for s in series[-1]
                                for g in _GENS], P, normal=True))
    return [Subgroup(P, seq) for seq in series]


def nilpotency_class(P: PcPresentation) -> int:
    return len(lower_central_series(P)) - 1


def exponent(P: PcPresentation) -> int:
    """Largest element order, read off the five pc generators.

    Every group of order p^5 has class <= 4 < p (PcPresentation refuses
    p < 5), so it is regular (P. Hall, Proc. LMS 36, 1934); in a regular
    p-group the elements of order dividing p^k form a subgroup, and exp G
    is the largest order among any generating set.
    """
    _require_consistent(P)
    p, best = P.prime, 1
    for x in _GENS:
        order = 1
        while any(x):
            x = _pow(x, p, P)
            order *= p
        best = max(best, order)
    return best


def _require_commuting(mult, gens) -> None:
    """Raise NotAbelian unless the generators commute pairwise under
    `mult`; a closed set they generate is then abelian."""
    for a, x in enumerate(gens):
        for y in gens[a + 1:]:
            if mult(x, y) != mult(y, x):
                raise NotAbelian(f"generators {x} and {y} do not commute")


def abelian_invariants_of(elements, P: PcPresentation) -> AbelianType:
    """Isomorphism type of an abelian subgroup, or of a closed abelian
    element set, from the SNF of its relative power relations.

    With s_j^p = prod_(l > j) s_l^c_l over the pc sequence s_1..s_m, the
    rows p e_j - c span the relations among the s_j: they lie in the
    relation lattice and their triangular matrix has determinant p^m,
    the order of the subgroup.
    """
    _require_consistent(P)
    p = P.prime
    if isinstance(elements, Subgroup):
        seq = elements.generators
    else:
        elems = [_as_vec(e, p) for e in elements]
        distinct = set(elems)
        if IDENTITY not in distinct:
            raise ValueError("element set lacks the identity")
        if len(distinct) < len(elems):
            raise ValueError("element set repeats an element")
        seq = _closure(elems, P)
        if p ** len(seq) != len(elems):
            raise ValueError("set is not closed under multiplication")
    _require_commuting(lambda x, y: _mul(x, y, P), seq)
    slots = _by_depth(seq)
    column = {_depth(s): j for j, s in enumerate(seq)}
    rows = []
    for j, s in enumerate(seq):
        row = [0] * len(seq)
        row[j] = p
        for d, e in enumerate(_sift(_pow(s, p, P), slots, P)[2]):
            if e:
                row[column[d]] -= e - p
        rows.append(row)
    return p_type_from_factors(snf(rows), p)
