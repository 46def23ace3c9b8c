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

The collector works on syllables g_j^e, 1 <= e < p, and moves only
what must move.  A syllable that meets a part w of the normal form it
does not commute with lifts w off and pushes the conjugate w^(g_j^e)
back as syllables, read from a memo that each presentation fills on
demand: the dict entry (j, m, e, c) holds g_j^-e g_m^c g_j^e in normal
form.  A syllable g_m^c of w with [g_m, g_j] = 1 is its own conjugate
and goes back unchanged, so the memo holds entries of the pairs with
[g_m, g_j] != 1 only.  Two rules of `_collect_into`, with their proofs
there, keep syllables that need not move in the normal form; both read
the movers `moving` of `PcPresentation`:

1. rule 1, the lift: g_m^c stays when [g_m, g_j] = 1 and g_m is not
   in `moving[k]`, g_k the lowest generator of w, since it then
   commutes with g_j and with w, and can be moved in front of g_j^e;
2. rule 2, the wrap: when g_j^p wraps to its tail t_j, the syllables
   above t_j and above `moving[j + 1]` stay, since they commute with
   t_j and with the rest.

g5 is central in every presentation, so it never moves.  Conjugation by
g_j^e is an automorphism phi_e of <g_(j+1), ...>, and
phi_e = phi_(e-h) o phi_h, so an entry rests on O(log p) others
(`_conjugate`), collected inside <g_(j+1), ...>, which reads only
conjugates by higher generators: the memo fills itself without a cycle.
The entries of a pair whose commutator commutes with both generators
and with itself, with trivial power tails (`_closed`), are written down
in closed form, with no collection.  The work per syllable does not
grow with p, and the memo holds only the entries that collection
reaches (the overlaps of row 59 fill 48 at p = 1009 and 99 at
p = 100003), so an in-process `verify` peaks at 17 MB at p = 20011 and
18 MB at p = 100003 (Python 3.11, x86_64).

The element operations (`multiply`, `inverse`, `conjugate`,
`commutator`, `power`, `order_of`) run on the collector: a product
collects the syllables of its right factor, inverses and commutators
solve u x = w one exponent at a time, and powers square and multiply.
A negative power g_i^-n, 0 < n < p, in a word is the normal form
g_i^(p-n) (g_i^p)^-1: the inverse of the power tail lies above g_i,
and the five inverse tails are solved once per presentation.  Nothing
of size p^5 is built.

A subgroup is an induced pc sequence: at most five normal forms of
distinct depths (the position of the first nonzero exponent), each with
leading exponent 1, whose products s_1^e_1 ... s_m^e_m (0 <= e_i < p)
are its p^m elements.  Closures, normal closures, the center, G', the
lower central series, the class, the exponent and the abelian
invariants of a subgroup all work on these sequences through the
collector, at a cost polynomial in log|G|.  The pc series is central
(every tail of [g_j, g_i] lies above g_j), which keeps the algebra
small: a normal closure needs only p-th powers and commutators with a
Burnside basis (`_basis`: the pc generators that map to a basis of
G/Phi(G), 2 or 3 of them on most rows), a closure stops at a full tail
(once its slots of depths d..4 are filled it holds every element of
depth >= d, so a new slot of depth d - 1 queues nothing), and the
center is cut out layer by layer as the kernel of a linear map to
F_p^d, d the size of the basis.  A commutator [g_a, g_i] of
two pc generators is never collected: the presentation keeps them in
one table, read by `_comm`, the only route to a commutator (G' is the
normal closure of the tails, built with the presentation).  The
exponent is p times the largest order of the five power tails, since
g_i^p = tail_i; the constructor computes it too, and an element order
stops at it.  The same relation makes g_i^p a read of the power tail,
not a collection, wherever a closure, the center or a subgroup type
takes it, and g_i^m for m < p is a normal form already (`_pow`).
An abelian group of order p^n with d cyclic factors has the type
(n - d + 1, 1^(d-1)) when d >= n - 1 or d = 1, and G^ab (|G : G'| = p^n,
d = d(G); `abelianization`) and a subgroup of exponent p (d = n) are
read so.  Otherwise the Smith form reads the relations: the subgroup's,
or the presentation's (`ab_from_presentation`; no other module does).

Rule 3, the closure exit: `subgroup_closure` and `normal_closure`
return G without collecting when their seeds span G/Phi(G) (`_spans`).
By the Burnside basis theorem HPhi(G) = G gives H = G, and a normal
closure holds the subgroup that its seeds generate.  The seeds span
G/Phi(G) when they and the tails, exponents modulo p, have rank 5 over
F_p: `_echelon` extends the tails' echelon rows `_phi`, which the
constructor keeps and reads `_basis` from.  The closures
inside the package (G', the center, the lower central series) start
from seeds in Phi(G), so the test sits at the two public entry points
only.

The tests hold all of this against an independent p^5 multiplication
table, built by a different recursion: the collector against the table
on every element, and the pc sequences against the table's subgroups.

Because collection is total, the closure of the generators always
produces exactly p^5 normal forms; detecting a *bad* presentation is
therefore the job of the 13 overlaps of `_overlaps`, not of element
counting.  The classical well-definedness conditions are 35 overlaps,
but 22 of them agree on every presentation whose tails lie above their
generators: g5 is then central of order p and <g4, g5> is abelian, with
g4^p and every [g4, g_i] in <g5>, so the 15 overlaps with g5 and the 7
that only test how g1..g3 act on <g4, g5> hold by the shape of the
tails (the proof is in `_overlaps`).  Of the 13, the constructor
collects once those that the blockers and tails of the presentation
leave able to fail, and a presentation that fails one raises
InconsistentPresentation, so every PcPresentation is consistent.
"""

from __future__ import annotations

import operator
from types import MappingProxyType

from .abelian import AbelianType, _integer, cokernel_type

Element = tuple  # 5 exponents, each in [0, p)

IDENTITY: Element = (0, 0, 0, 0, 0)

_GENS = ((1, 0, 0, 0, 0), (0, 1, 0, 0, 0), (0, 0, 1, 0, 0),
         (0, 0, 0, 1, 0), (0, 0, 0, 0, 1))

_GEN_INDEX = {g: i for i, g in enumerate(_GENS)}

_PAIRS = ((2, 1), (3, 1), (3, 2), (4, 1), (4, 2), (4, 3),
          (5, 1), (5, 2), (5, 3), (5, 4))


class InconsistentPresentation(Exception):
    """The presentation fails an overlap (no group of order p^5).
    `failures` holds one line per failing overlap; the message is the
    first."""

    def __init__(self, failures):
        super().__init__(failures[0])
        self.failures = tuple(failures)


class NotAbelian(Exception):
    """Abelian invariants were requested for a non-abelian subgroup."""


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
    # a tuple of five ints in [0, p) is already a normal form; anything
    # else is read, and refused, below
    if type(value) is tuple and len(value) == 5:
        a, b, c, d, e = value
        if (type(a) is type(b) is type(c) is type(d) is type(e) is int
                and 0 <= a < prime and 0 <= b < prime and 0 <= c < prime
                and 0 <= d < prime and 0 <= e < prime):
            return value
    if value is None:
        return IDENTITY
    try:
        vec = tuple(map(operator.index, value))
    except TypeError:
        raise ValueError(
            f"exponents must be integers, got {value!r}") from None
    if len(vec) != 5:
        raise ValueError(
            f"exponent vector must have length 5, got {value!r}")
    if min(vec) < 0 or max(vec) >= prime:
        x = next(x for x in vec if not 0 <= x < prime)
        raise ValueError(f"exponent {x} outside [0, {prime})")
    return vec


def _tail(value, prime: int, key) -> tuple:
    """The tail of a relation read as a normal form: of g_i^p for
    key = (i,), of [g_j, g_i] for key = (j, i).  Every generator that it
    holds must lie strictly above g_i, or g_j: the shape that the
    collector and the 13 overlaps of `_overlaps` rest on."""
    vec = _as_vec(value, prime)
    low = key[0]
    if any(vec[:low]):
        m = 1 + next(m for m in range(low) if vec[m])
        name, base = ((f"power tail of g{low}", "the base generator")
                      if len(key) == 1 else
                      (f"tail of [g{low},g{key[1]}]", "g_j"))
        raise ValueError(f"{name} uses g{m}; "
                         f"support must lie strictly above {base}")
    return vec


def word(vec) -> str:
    """A normal form as display text, "g1 g3^2" for (1, 0, 2, 0, 0)."""
    return " ".join(f"g{m}^{e}" if e > 1 else f"g{m}"
                    for m, e in enumerate(vec, 1) if e) or "1"


def _stack(vec) -> list:
    """The syllables (generator, exponent) of a normal form, in stack
    order: the lowest generator last, so that it is popped first."""
    return [(m, vec[m - 1]) for m in (5, 4, 3, 2, 1) if vec[m - 1]]


class PcPresentation:
    """Immutable presentation data: prime plus power and commutator tails.

    `power_tails` may be a dict {i: vector} on 1-based generator indices
    or a full 5-sequence; `comm_tails` a dict {(j, i): vector} with j > i.
    Both accept length-5 exponent vectors; missing entries mean trivial.
    The attributes hold every relation: `power_tails` a 5-tuple, and
    `comm_tails` a read-only mapping of all ten pairs (j, i).
    Construction runs the overlaps of `_overlaps` and raises
    InconsistentPresentation if any fails.

    The collector's state is built here too: `_conj`, the conjugate
    memo, maps (j, m, e, c), m > j, to the syllables of
    g_j^-e g_m^c g_j^e in stack order, filled by `_conjugate`;
    `_blockers[j]` holds the k > j with [g_k, g_j] != 1, ascending;
    `_closed` the pairs (j, m), m in `_blockers[j]`, whose entries
    `_conjugate` writes down: the letters of t_mj commute with g_j, with
    g_m and with each other, and have trivial power tails;
    `_inv_tails[i - 1]` the syllables of (g_i^p)^-1; and
    `_comms[a - 1][i - 1]` the commutator [g_a, g_i]: the tail of (a, i)
    for a > i, its inverse for a < i, the identity for a = i.  A trivial
    tail is its own inverse, so only the others are solved.  The keys
    of `_conj` are those of the pairs in `_blockers` alone: a commuting
    pair is never looked up.

    Rules 1 and 2 of `_collect_into` read the movers, built here and not
    kept: `moving[k]` holds the g_m, m >= k, that fail to commute with
    some g_i, i >= k, the members of the pairs (i, `_blockers[i]`).
    `_lifts[j][k]`, k in `_blockers[j]`, holds the m >= k in
    `_blockers[j]` or `moving[k]`, descending, and `_suffix[j]` the
    exponents of t_j = g_j^p from g_(j+1) up to the highest of j,
    `moving[j + 1]` and the support of t_j, or () when t_j = 1.

    The constructor then reads off what the presentation knows, in this
    order: `_phi`, an echelon form over F_p of the nontrivial power and
    commutator tails as (pivot, row) pairs; `_basis`, a Burnside basis of
    G, the pc generators at the positions that are not pivots of `_phi`;
    `_derived`, G' as the normal closure of the commutator tails (it acts
    with `_basis` and `_comms`); and `_exponent`, exp(G) (`exponent`).
    After that only `_conj` grows.

    `_basis` generates G: G/Phi(G) is the largest elementary abelian
    quotient of G, so it is F_p^5 modulo the relations of the
    presentation read there: g_i^p = tail_i says tail_i = 0 and
    [g_j, g_i] = tail_ji says tail_ji = 0, exponents modulo p.  The rows
    of `_phi` and the unit vectors at the other positions form a basis of
    F_p^5, so those generators map to a basis of G/Phi(G), and by the
    Burnside basis theorem (HPhi(G) = G gives H = G) they generate G.
    """

    __slots__ = ("prime", "power_tails", "comm_tails", "_key", "_conj",
                 "_blockers", "_lifts", "_suffix", "_closed", "_inv_tails",
                 "_comms", "_derived", "_phi", "_basis", "_exponent")

    def __init__(self, prime: int, power_tails=None, comm_tails=None):
        prime = _integer(prime, "prime must be an integer")
        if prime < 5 or not _is_prime(prime):
            raise ValueError(f"prime must be a prime >= 5, got {prime}")
        self.prime = prime

        if power_tails is None:
            power_tails = {}
        if isinstance(power_tails, dict):
            pt = [IDENTITY] * 5
            for i, v in power_tails.items():
                i = _integer(int(i) if isinstance(i, str) else i,
                             "power tail index must be an integer")
                if not 1 <= i <= 5:
                    raise ValueError(f"bad power tail index {i}")
                pt[i - 1] = _tail(v, prime, (i,))
        else:
            seq = list(power_tails)
            if len(seq) != 5:
                raise ValueError("power_tails sequence must have length 5")
            pt = [_tail(v, prime, (i,)) for i, v in enumerate(seq, 1)]
        self.power_tails = tuple(pt)

        ct = {}
        if comm_tails:
            for (j, i), v in comm_tails.items():
                j, i = (_integer(k, "commutator pair entries must be integers")
                        for k in (j, i))
                if not (1 <= i < j <= 5):
                    raise ValueError(f"bad commutator pair ({j},{i})")
                ct[(j, i)] = _tail(v, prime, (j, i))
        full = {}
        for pair in _PAIRS:
            full[pair] = ct.get(pair, (0, 0, 0, 0, 0))
        self.comm_tails = MappingProxyType(full)
        self._key = (prime, self.power_tails,
                     tuple(full[pair] for pair in _PAIRS))
        self._conj = {}
        self._blockers = blockers = (None,) + tuple(
            tuple(k for k in range(j + 1, 6) if any(full[(k, j)]))
            for j in range(1, 6))
        moving, lifts = [set()] * 7, [None] * 6
        for j in range(5, 0, -1):
            above = blockers[j]
            moving[j] = moving[j + 1].union(above, (j,) if above else ())
            if above:
                row = [None] * 6
                for i, k in enumerate(above):  # above[i:]: from g_k up
                    row[k] = tuple(sorted(moving[k].union(above[i:]),
                                          reverse=True))
                lifts[j] = tuple(row)
        self._lifts = tuple(lifts)
        self._suffix = (None,) + tuple(
            t[j:max(j, *moving[j + 1], *(m for m, x in enumerate(t, 1)
                                         if x))]
            if any(t) else () for j, t in enumerate(pt, 1))
        closed = []
        for j in range(1, 5):
            for m in blockers[j]:
                letters = [l for l, x in enumerate(full[m, j], 1) if x]
                if not any(l in blockers[j] or l in blockers[m]
                           or any(pt[l - 1])
                           or set(letters).intersection(blockers[l])
                           for l in letters):
                    closed.append((j, m))
        self._closed = frozenset(closed)
        failures = [f"overlap {label}: {x} vs {y}"
                    for label, x, y in _overlaps(self) if x != y]
        if failures:
            raise InconsistentPresentation(failures)
        self._inv_tails = tuple(_stack(_solve(t, IDENTITY, self)) if any(t)
                                else [] for t in pt)
        comms = [[IDENTITY] * 5 for _ in range(5)]
        for j in range(1, 5):
            for k in blockers[j]:
                comms[k - 1][j - 1] = full[k, j]
                comms[j - 1][k - 1] = _solve(full[k, j], IDENTITY, self)
        self._comms = tuple(map(tuple, comms))
        self._phi = tuple(_echelon(
            [t for t in self.power_tails + tuple(full.values()) if any(t)],
            prime, []))
        pivots = {c for c, _ in self._phi}
        self._basis = tuple(g for i, g in enumerate(_GENS) if i not in pivots)
        self._derived = _closure(full.values(), self, normal=True)
        self._exponent = prime * max(_order(t, self, prime**4) for t in pt)

    def __eq__(self, other):
        return isinstance(other, PcPresentation) and self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        rels = ", ".join(self.relations_text()) or "free of relations"
        return f"PcPresentation(p={self.prime}: {rels})"

    def relations_text(self) -> list:
        """Nontrivial relations as display strings, commutators first."""
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
# collection

def _conjugate(P: PcPresentation, j: int, m: int, e: int, c: int) -> list:
    """The memo entry (j, m, e, c): the syllables of g_j^-e g_m^c g_j^e,
    filled with the entries that it rests on, by phi_e = phi_(e-h) o phi_h.

    g_j^-1 g_m g_j = g_m [g_m, g_j] is a normal form, since the tail lies
    above g_m.  With h = e // 2, each syllable g_l^v of the entry for
    (h, 1) goes to the one for (e - h, v) of g_l; with h = c // 2, the
    entry for (e, c) is the one for (e, h) times the one for (e, c - h).
    All these products lie in <g_(j+1), ...> and are collected there.
    A syllable g_l^v with [g_l, g_j] = 1 is fixed by phi_(e-h) and is
    taken as it is, so the entries that the collector and this recursion
    fill are those of the pairs of `_blockers` alone.

    The pairs of `_closed` skip the recursion: with t = [g_m, g_j] and S
    the letters of t, each g_l in S commutes with g_j, with g_m and with
    the rest of S, and has g_l^p = 1.  Their entry (e, c) is written down
    as g_m^c t^(ec): c at g_m and e c t_l mod p at each g_l in S.  That is
    the normal form that the recursion collects, on every presentation,
    consistent or not, by induction along it.  The entry (1, 1) is g_m t.
    Every product that the recursion collects for the pair is of entries
    of that shape, whose syllables lie on g_m and S.  A syllable g_m^v or
    g_l^v (l in S) popped onto such a normal form meets no blocker in it,
    since S lies above g_m and commutes with g_m and with itself.  So
    nothing is lifted, and the syllable adds its exponent in place.  At
    g_m the sum is h + (c - h) = c < p, or 1 for c = 1.  At g_l a sum
    past p wraps to the trivial tail g_l^p = 1, so it is read mod p.  For
    c = 1 and e > 1, the syllable g_m of the entry (h, 1) goes to the
    entry (e - h, 1), and the g_l^v, l in S, go as they are (g_l commutes
    with g_j).  Either way the exponents add: c at g_m, and at g_l
    e h t_l + e (c - h) t_l, or h t_l + (e - h) t_l, mod p.
    """
    conj = P._conj
    x = [0, 0, 0, 0, 0]
    if (j, m) in P._closed:  # g_m^c t^(ec), t = [g_m, g_j]
        n, p = e * c, P.prime
        x = [n * v % p for v in P.comm_tails[m, j]]
        x[m - 1] = c
    elif c > 1:
        h = c // 2
        for l, v in conj.get((j, m, e, h)) or _conjugate(P, j, m, e, h):
            x[l - 1] = v
        _collect_into(x, list(conj.get((j, m, e, c - h))
                              or _conjugate(P, j, m, e, c - h)), P)
    elif e == 1:
        x = list(P.comm_tails[(m, j)])
        x[m - 1] = 1
    else:
        h = e // 2
        above = P._blockers[j]
        stack = []
        for l, v in conj.get((j, m, h, 1)) or _conjugate(P, j, m, h, 1):
            if l in above:
                stack += (conj.get((j, l, e - h, v))
                          or _conjugate(P, j, l, e - h, v))
            else:  # g_l commutes with g_j
                stack.append((l, v))
        _collect_into(x, stack, P)
    syllables = conj[j, m, e, c] = _stack(x)
    return syllables


def _mul(a: Element, b: Element, P: PcPresentation) -> Element:
    """a b, by collecting the syllables of b into a (the stack of
    `_stack`, built inline: `_mul` is the hottest caller)."""
    b1, b2, b3, b4, b5 = b
    stack = []
    if b5:
        stack.append((5, b5))
    if b4:
        stack.append((4, b4))
    if b3:
        stack.append((3, b3))
    if b2:
        stack.append((2, b2))
    if b1:
        stack.append((1, b1))
    out = list(a)
    _collect_into(out, stack, P)
    return tuple(out)


def _collect_into(out: list, stack: list, P: PcPresentation) -> None:
    """Absorb the syllables on `stack` (top = next) into normal form `out`.

    Collection from the left.  A syllable g_j^e finds its lowest blocker
    g_k in `out` (the lowest k in blockers[j] with a nonzero exponent),
    lifts the syllables of `out` at and above g_k that must move, and
    pushes their conjugates by g_j^e back on the stack, read from the
    memo; everything left above g_j then commutes with it, so g_j^e
    lands in place.  A lifted syllable g_m^c with [g_m, g_j] = 1 is its
    own conjugate and goes back unchanged, so the memo is read, and
    filled, for the pairs of `_blockers` only.

    Rule 1, the lift: g_m^c stays in `out` when g_m is in neither
    `_blockers[j]` nor `moving[k]`: [g_m, g_j] = 1 and g_m commutes with
    every g_i, i >= k (`_lifts[j][k]` holds the positions that move).
    Write the part of `out` at and above g_k as w.  Each staying
    syllable commutes with every syllable of w, so w = S L, with S the
    staying syllables and L the lifted ones in their order, and S
    commutes with g_j.  Hence out g_j^e = u S L g_j^e = u g_j^e S
    L^(g_j^e), u the part below g_k, where u g_j^e is u with e added at
    g_j (the syllables of u between g_j and g_k commute with g_j; rule 2
    takes over if that reaches p), and (u g_j^e) S is still a normal
    form, now followed by L^(g_j^e) on the stack.  g5 is central, so it
    never moves.

    Rule 2, the wrap: when the exponent s = out[j] + e reaches p,
    g_j^p wraps to its tail t_j, which goes right above g_j; the part V
    of `out` above g_j is lifted off and collected after it, up to
    `top`, the highest generator that t_j or `moving[j + 1]` holds
    (`_suffix[j]` holds t_j up to `top`).  The syllables above `top`
    stay: they commute with all of G_(j+1), which holds t_j and V, so
    V = L S with S those syllables, t_j L S = t_j S L, and t_j S is the
    normal form of t_j with S in its place, as t_j has nothing above
    `top`.
    """
    p, conj, blockers, lifts, suffix = (P.prime, P._conj, P._blockers,
                                        P._lifts, P._suffix)
    pop = stack.pop
    push = stack.append
    extend = stack.extend
    while stack:
        j, e = pop()
        above = blockers[j]
        for k in above:
            if out[k - 1]:
                for m in lifts[j][k]:
                    c = out[m - 1]
                    if c:
                        if m in above:
                            extend(conj.get((j, m, e, c))
                                   or _conjugate(P, j, m, e, c))
                        else:  # g_m commutes with g_j
                            push((m, c))
                        out[m - 1] = 0
                break
        s = out[j - 1] + e
        if s < p:
            out[j - 1] = s
            continue
        out[j - 1] = s - p
        tail = suffix[j]
        if tail:  # g_j^p = tail
            top = j + len(tail)
            for m in range(top, j, -1):
                c = out[m - 1]
                if c:
                    push((m, c))
            out[j:top] = tail


def _gen_power(P: PcPresentation, i: int, n: int) -> list:
    """The syllables of g_i^n.  For -p < n < 0 that is the normal form
    g_i^(p+n) (g_i^p)^-1, since the inverse of the power tail lies above
    g_i; the constructor solves the five inverse tails.  Other exponents
    square and multiply, with n taken modulo p^5."""
    p = P.prime
    if 0 < n < p:
        return [(i, n)]
    if -p < n < 0:
        return P._inv_tails[i - 1] + [(i, p + n)]
    return _stack(_pow(generator(i), n % p**5, P))


def normalize(word, P: PcPresentation) -> Element:
    """Collect a word of (generator index, signed exponent) pairs.

    The whole word goes on the stack at once, each pair as the syllables
    of that power of the generator.  The result is the unique normal
    form; normalizing again is a no-op.
    """
    parts = []
    for gen, exp in word:
        try:
            gen, exp = operator.index(gen), operator.index(exp)
        except TypeError:
            raise ValueError(f"generator index and exponent must be "
                             f"integers, got {(gen, exp)!r}") from None
        if not 1 <= gen <= 5:
            raise ValueError(f"generator index {gen} outside 1..5")
        if exp:
            parts.append(_gen_power(P, gen, exp))
    stack = []
    for part in reversed(parts):
        stack += part
    out = [0, 0, 0, 0, 0]
    _collect_into(out, stack, P)
    return tuple(out)


# The 13 overlaps that decide consistency, in the order of their failure
# lines: (label, kind, generator indices), with the kinds of `_overlaps`.
# The other 22 overlaps of the classical test agree on every presentation
# (the proof is in `_overlaps`), so they are not collected.
_LABELS = {"triple": "g{0}(g{1} g{2}) != (g{0} g{1})g{2}",
           "left": "g{0}^p g{1} != g{0}^(p-1)(g{0} g{1})",
           "right": "g{0} g{1}^p != (g{0} g{1})g{1}^(p-1)",
           "power": "g{0}^p g{0} != g{0} g{0}^p"}
_OVERLAPS = tuple((_LABELS[kind].format(*ix), kind, ix) for kind, ix in (
    ("triple", (3, 2, 1)), ("triple", (4, 2, 1)),
    ("left", (2, 1)), ("right", (2, 1)), ("left", (3, 1)), ("right", (3, 1)),
    ("left", (3, 2)), ("right", (3, 2)), ("right", (4, 1)), ("right", (4, 2)),
    ("power", (1,)), ("power", (2,)), ("power", (3,))))


def _overlaps(P: PcPresentation):
    """The overlaps of `_OVERLAPS` that can fail on P, as (label, left,
    right): two collections of one word.  The 13 agree on every
    presentation exactly when it is consistent, and those left out agree
    on P (below).

    The classical test (Sims, *Computation with Finitely Presented
    Groups*, CUP 1994, section 9.8) has 35 overlaps: for k > j > i the
    triples g_k (g_j g_i) = (g_k g_j) g_i ("triple"); for each pair
    j > i, g_j^p g_i = g_j^(p-1) (g_j g_i) ("left") and
    g_j g_i^p = (g_j g_i) g_i^(p-1) ("right"); and g_i^p g_i = g_i g_i^p
    ("power").  Each side is a product of normal forms.  g_j g_i is the
    normal form g_i g_j t_ji, since g_i^-1 g_j g_i = g_j t_ji (the rule
    e = 1 of `_conjugate`) and t_ji lies above g_j: the form that the
    collector reaches for it, so it is written down, not collected.

    The other 22 agree, as collections, on every presentation that the
    constructor accepts, so the 13 give the verdict and the failure lines
    of the 35.  By position from the top, with n = 5 and
    N = <g_(n-1), g_n>, the 22 are the 15 overlaps that hold g_n,
    g_(n-1)^p g_i for i <= n - 1, g_(n-1) g_(n-2)^p, and
    g_(n-1) (g_(n-2) g_i) for i < n - 2.  Every tail lies strictly above
    its generator, so g_n has trivial tails and blocks nothing: a
    syllable of it adds to the last exponent, modulo p, wherever it
    stands, and no other exponent depends on that one.  g_(n-1) meets no
    blocker, and t_(n-1) and every t_(n-1,i) lie in <g_n>, so syllables
    at and above g_(n-1) are multiplied exactly in N, abelian of order
    p^2, and move nothing below.  A lifted g_(n-1)^c goes back past g_i^e
    as the memo entry g_(n-1)^c t_(n-1,i)^(ec), and it is lifted alone
    when g_(n-1) is the lowest blocker.  Hence:

    1. with g_n: both sides hold the same g_n letters, modulo p, and
       without them they are one normal form, g_j g_i, g_i, t_i or 1;
    2. g_(n-1)^p g_(n-1) is a word in N, and g_(n-1)^p g_i is
       g_i t_(n-1) on both sides, as g_(n-1)^p t_(n-1,i)^p = t_(n-1);
    3. g_(n-1) g_(n-2)^p is g_(n-1) t_(n-2) on both sides: the lift and
       the swap add t_(n-1,n-2)^(p-1) and t_(n-1,n-2);
    4. g_(n-1) (g_(n-2) g_i) is g_i g_(n-2) on both sides, times the
       product in N of g_(n-1), t_(n-1,i), t_(n-1,n-2) and t_(n-2,i):
       g_(n-2) lands after g_i with nothing above it that it fails to
       commute with (rule 1 lifts g_(n-1) along with g_(n-2) when it
       must), so each side meets each factor once.

    As groups (the top-down cyclic extensions G_k = <g_k, ..., g_n>),
    the 22 ask that N is a group on which each g_i acts by an
    automorphism that respects [g_(n-1), g_(n-2)] = t_(n-1,n-2), with
    g_(n-2)^p acting as t_(n-2) does; the shapes of the tails force it.
    The 13 are the rest: g_k (g_j g_i) with j < n - 2 and k < n,
    g_j^p g_i with j < n - 1, g_j g_i^p with i < n - 2 and j < n, and
    g_i^p g_i with i < n - 1.

    One of the 13 is left out when its two sides collect to one normal
    form on P, consistent or not, so `failures` does not change.  A word
    v fixes g_i (`fixed`) when each letter of v commutes with g_i, that
    is, forms no pair of `_blockers` with it; g_j fixes g_i exactly when
    t_ji = 1, and then g_j g_i is g_i g_j.  A syllable g_l^v popped onto
    a normal form x lands in place, adding v at g_l, when x holds no
    blocker of g_l and x_l + v < p: rule 1 lifts nothing and rule 2 does
    not fire.  That holds in particular when x holds nothing at or above
    g_l.  An overlap is left out when:

    - power i: t_i fixes g_i.  t_i g_i lands g_i, and g_i t_i lands the
      letters of t_i, one by one: both are g_i t_i.
    - left (j, i): g_j and t_j fix g_i.  t_j g_i lands g_i: g_i t_j.
      g_j^(p-1) (g_i g_j) lands g_i, then g_j wraps g_j^p to t_j with
      nothing above g_j: g_i t_j again.
    - triple (k, j, i): g_j, g_k and t_kj fix g_i.  (g_j g_k t_kj) g_i
      lands g_i.  g_k (g_i g_j) lands g_i, then g_j lifts g_k if it is a
      blocker, which goes back as the entry g_k t_kj and lands above g_j:
      both are g_i g_j g_k t_kj.
    - right (j, i): g_j fixes g_i and t_i fixes g_j.  (g_i g_j) g_i^(p-1)
      wraps g_i^p to t_i, and g_j stays if it lies above the top of
      `_suffix[i]`, or is pushed back onto t_i, which holds no blocker of
      it.  g_j t_i lands the letters of t_i, which g_j does not block.
      Both are t_i with 1 added at g_j, unless t_i has p - 1 there.  Then
      both wrap g_j^p to t_j: the right side on t_i, pushing its letters
      up to c, the top of `_suffix[j]`, and keeping those above c; the
      left side with nothing above g_j, before the letters of t_i above
      g_j.  So both go on from one state at and below c, with the letters
      of t_i in (j, c] to pop, and those above c are in place on the
      right and popped last on the left.  The generators above c lie
      outside `moving[j + 1]`: they block nothing, no lift at g_k, k > j,
      moves them, and each wraps to a power tail above it.  So no step at
      or below c reads the exponents above c (a wrap that overwrites them
      pushes them back first), the part at and below c takes the same
      steps on both sides, and the syllables that reach the part above c
      are the same.  There each step keeps the sum of the syllables in
      the abelian group that those generators and their power relations
      define, of order p^r for r generators (a triangular relation
      matrix with p on its diagonal), so both sides end at the normal
      form of one sum.
    """
    g = (None,) + _GENS
    tails = (None,) + P.power_tails
    q = P.prime - 1
    last = (None,) + tuple(tuple(q * x for x in v) for v in _GENS)

    clash = [set() for _ in range(6)]
    for j, above in enumerate(P._blockers[1:], 1):
        for k in above:
            clash[j].add(k)
            clash[k].add(j)

    def swap(j, i):
        x = list(P.comm_tails[j, i])
        x[i - 1] = x[j - 1] = 1
        return tuple(x)

    def fixed(v, i):  # every letter of v commutes with g_i
        return not any(v[l - 1] for l in clash[i])

    for label, kind, ix in _OVERLAPS:
        if kind == "triple":
            k, j, i = ix
            if not fixed(swap(k, j), i):
                yield (label, _mul(g[k], swap(j, i), P),
                       _mul(swap(k, j), g[i], P))
        elif kind == "left":
            j, i = ix
            if j in clash[i] or not fixed(tails[j], i):
                yield (label, _mul(tails[j], g[i], P),
                       _mul(last[j], swap(j, i), P))
        elif kind == "right":
            j, i = ix
            if j in clash[i] or not fixed(tails[i], j):
                yield (label, _mul(g[j], tails[i], P),
                       _mul(swap(j, i), last[i], P))
        else:
            i, = ix
            if not fixed(tails[i], i):
                yield label, _mul(tails[i], g[i], P), _mul(g[i], tails[i], P)


# ---------------------------------------------------------------------------
# subgroups as induced pc sequences (collector route)

def _pow(x: Element, m: int, P: PcPresentation) -> Element:
    """x^m for m >= 0.  A power g_i^m, 0 <= m <= p, of a pc generator is
    read from the presentation; every other one is square-and-multiply.

    For 0 <= m < p, g_i^m is the exponent vector with m at position i,
    which is already a normal form, since its exponents lie in [0, p).
    g_i^p is the power tail t_i, by the defining relation g_i^p = t_i,
    and the constructor stores t_i as a normal form.
    """
    i = _GEN_INDEX.get(x)
    if i is not None and m <= P.prime:
        if m == P.prime:
            return P.power_tails[i]
        v = [0, 0, 0, 0, 0]
        v[i] = m
        return tuple(v)
    acc = IDENTITY
    while m:
        if m & 1:
            acc = _mul(acc, x, P) if any(acc) else x
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
            _collect_into(u, [(k + 1, e)], P)
    return tuple(x)


def _comm(a: Element, b: Element, P: PcPresentation) -> Element:
    """[a, b]: read off `P._comms` when both are pc generators, otherwise
    solved from (b a) [a, b] = a b."""
    i = _GEN_INDEX.get(a)
    if i is not None and b in _GEN_INDEX:
        return P._comms[i][_GEN_INDEX[b]]
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
    (with the Burnside basis `_basis` for a normal closure) on the
    queue.  Once everything sifts to 1, s_j^p and the commutators
    involving s_j lie in <s_(j+1), ...>, because the pc series is central
    and a commutator with s_j lies deeper than s_j.  Going up from the
    deepest element, each s_j then normalises <s_(j+1), ...> (for a
    normal closure, so does every element of the basis, and with it the
    group that the basis generates, G), so the products
    s_1^e_1 ... s_m^e_m, 0 <= e_i < p, form the subgroup.

    The closure stops at a full tail.  `full` is the least depth from
    which every slot is filled; filled slots of depths d+1..4 generate
    G_(d+1), the elements of depth >= d+1, by the same induction (their
    products are p^(4-d) distinct elements of G_(d+1)).  The series is
    central, so a slot s of depth d has s^p and every [s, y] in G_(d+1).
    Once slots d+1..4 are filled, a new slot of depth d queues none of
    them and takes no commutator.  A popped element of depth >= `full`
    is dropped unsifted.  Every skipped element would sift to 1, so the
    sequence is that of the closure without the cut.
    """
    p = P.prime
    slots = [None] * 5
    acting = P._basis if normal else slots
    full = 5
    queue = list(seeds)
    while queue:
        x = queue.pop()
        if _depth(x) >= full:
            continue
        x, d, _ = _sift(x, slots, P)
        if d == 5:
            continue
        x = _pow(x, pow(x[d], -1, p), P)
        if d + 1 < full:
            queue.append(_pow(x, p, P))
            queue += [_comm(x, y, P) for y in acting if y is not None]
        slots[d] = x
        while full and slots[full - 1] is not None:
            full -= 1
    return tuple(s for s in slots if s is not None)


def _echelon(vectors, p: int, rows: list) -> list:
    """`rows`, an echelon form over F_p as (pivot, row) pairs, extended
    by the vectors: each is reduced by the rows so far and, if anything
    is left, scaled to 1 at its first nonzero entry and appended."""
    for t in vectors:
        for c, w in rows:
            f = t[c]
            if f:
                t = [(a - f * b) % p for a, b in zip(t, w)]
        c = next((i for i in range(5) if t[i]), None)
        if c is not None:
            u = pow(t[c], -1, p)
            rows.append((c, tuple(a * u % p for a in t)))
    return rows


def _spans(seeds, P: PcPresentation) -> bool:
    """Whether the seeds generate G, read off G/Phi(G) = F_p^5/<tails>:
    the seeds span it exactly when they and the tails' echelon rows
    (`_phi`) have rank 5 over F_p, and then the subgroup they generate is
    G by the Burnside basis theorem."""
    rows = P._phi
    return (len(seeds) + len(rows) >= 5
            and len(_echelon(seeds, P.prime, list(rows))) == 5)


def _center_seq(P: PcPresentation, stop: int = 5) -> tuple:
    """C_stop, where C_d = {x : [x, G] <= G_d} and G_d holds the elements
    of depth >= d; C_5 = Z(G).  Found layer by layer down the pc series.

    For x in C_d, g -> [x, g] modulo G_(d+1) is a homomorphism from G to
    G_d/G_(d+1) = F_p, since [x, gh] = [x, h] [x, g]^h and G_d/G_(d+1) is
    central, so [x, G] <= G_(d+1) once [x, b] is for each b of the
    Burnside basis `_basis`, which generates G.  On C_d, x -> ([x, b] at
    depth d)_b is a homomorphism to F_p^n, n the size of the basis, by
    the same identity in x, and its kernel is C_(d+1).  The kernel is
    normal in G and contains the elements that eliminate to a zero row
    and the p-th powers of the pivots; those generate it as a normal
    subgroup.  The zero rows take in the sequence of G_d <= C_d, which
    holds [C_d, C_d], so modulo them C_d is elementary abelian of rank at
    most the number of pivots.
    C_2 = G: every tail of [g_j, g_i] lies above g_j with j >= 2.  The
    rows of pc generators are read off the commutator table by `_comm`.
    """
    p, basis = P.prime, P._basis
    seq = _GENS
    for d in range(2, stop):
        pivots, seeds = [], []
        for x in seq:
            v = [_comm(x, b, P)[d] for b in basis]
            for y, w, c in pivots:
                if v[c]:
                    f = v[c] * pow(w[c], -1, p) % p
                    x = _mul(x, _pow(y, p - f, P), P)
                    v = [(a - f * b) % p for a, b in zip(v, w)]
            c = next((i for i, a in enumerate(v) if a), None)
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

    __slots__ = ("_P", "generators")

    def __init__(self, P: PcPresentation, generators):
        self._P = P
        self.generators = tuple(generators)

    @property
    def order(self) -> int:
        return self._P.prime ** len(self.generators)

    def __contains__(self, e) -> bool:
        x = _as_vec(e, self._P.prime)
        return _sift(x, _by_depth(self.generators), self._P)[1] == 5

    def __repr__(self):
        return f"Subgroup(order={self.order}, ngens={len(self.generators)})"


# ---------------------------------------------------------------------------
# public operations

def multiply(a: Element, b: Element, P: PcPresentation) -> Element:
    return _mul(_as_vec(a, P.prime), _as_vec(b, P.prime), P)


def inverse(a: Element, P: PcPresentation) -> Element:
    return _solve(_as_vec(a, P.prime), IDENTITY, P)


def conjugate(a: Element, b: Element, P: PcPresentation) -> Element:
    """Left conjugation a b a^-1."""
    a, b = _as_vec(a, P.prime), _as_vec(b, P.prime)
    return _mul(_mul(a, b, P), _solve(a, IDENTITY, P), P)


def commutator(a: Element, b: Element, P: PcPresentation) -> Element:
    """[a, b] = a^-1 b^-1 a b, solved from (b a) [a, b] = a b."""
    return _comm(_as_vec(a, P.prime), _as_vec(b, P.prime), P)


def power(a: Element, n: int, P: PcPresentation) -> Element:
    """a^n; element orders divide p^5, so n counts modulo p^5, and past
    half of that a^n is the (p^5 - n)-th power of a^-1."""
    a, top = _as_vec(a, P.prime), P.prime**5
    n = _integer(n, "exponents must be integers") % top
    if 2 * n > top:
        a, n = _solve(a, IDENTITY, P), top - n
    return _pow(a, n, P)


def _order(x, P: PcPresentation, top: int) -> int:
    """The order of x, given a power `top` of p that it divides: once
    x^(p^k) != 1 and p^(k+1) = top, the order is top, and the p-th power
    that would show it is not taken."""
    p, order = P.prime, 1
    while any(x):
        order *= p
        if order == top:
            break
        x = _pow(x, p, P)
    return order


def order_of(a: Element, P: PcPresentation) -> int:
    """The order of a; it divides exp(G), where the p-th powers stop."""
    return _order(_as_vec(a, P.prime), P, exponent(P))


def generator(i: int) -> Element:
    return _GENS[i - 1]


def subgroup_closure(gens, P: PcPresentation) -> Subgroup:
    """The subgroup that `gens` generate; G itself, uncollected, when
    they span G/Phi(G) (`_spans`)."""
    seeds = [_as_vec(e, P.prime) for e in gens]
    return Subgroup(P, _GENS if _spans(seeds, P) else _closure(seeds, P))


def normal_closure(gens, P: PcPresentation) -> Subgroup:
    """The normal closure of `gens`; G itself, uncollected, when they
    span G/Phi(G), since it holds the subgroup that they generate."""
    seeds = [_as_vec(e, P.prime) for e in gens]
    return Subgroup(P, _GENS if _spans(seeds, P)
                    else _closure(seeds, P, normal=True))


def derived_subgroup(P: PcPresentation) -> Subgroup:
    """G': the normal closure of the commutator tails [g_j, g_i]."""
    return Subgroup(P, P._derived)


def center(P: PcPresentation) -> Subgroup:
    return Subgroup(P, _center_seq(P))


def lower_central_series(P: PcPresentation) -> list:
    """G = gamma_1 > gamma_2 > ... > 1, with gamma_2 = G' and
    gamma_(c+1) = [gamma_c, G] the normal closure of the [s, b] over the
    sequence s of gamma_c and the Burnside basis b of `_basis`: modulo
    that closure N each s commutes with each b, so gamma_c N / N is
    central in G/N, which the b generate, and [gamma_c, G] <= N."""
    seq, basis = P._derived, P._basis
    series = [_GENS, seq]
    while seq:
        seq = _closure([_comm(s, b, P) for s in seq for b in basis], P,
                       normal=True)
        series.append(seq)
    return [Subgroup(P, seq) for seq in series]


def nilpotency_class(P: PcPresentation) -> int:
    return len(lower_central_series(P)) - 1


def exponent(P: PcPresentation) -> int:
    """Largest element order, read off the five pc generators.

    Every group of order p^5 has class <= 4 < p (PcPresentation refuses
    p < 5), so it is regular (P. Hall, Proc. LMS 36, 1934); in a regular
    p-group the elements of order dividing p^k form a subgroup, and exp G
    is the largest order among any generating set.  A pc generator has
    g_i^p = tail_i, so order(g_i) = p * order(tail_i), and the orders
    start from the power tails, each in <g_2, ...>, of order at most
    p^4.  The constructor reads it off them as `_exponent`.
    """
    return P._exponent


def abelianization(P: PcPresentation) -> AbelianType:
    """Type of G^ab: (n - d + 1, 1^(d-1)) when d >= n - 1 or d = 1, and
    otherwise `ab_from_presentation`, its Smith form.

    G^ab has order p^n, n = 5 - len(`_derived`), since G' has the p^m
    elements of its pc sequence of length m.  Its number d of cyclic
    factors is d(G) = len(`_basis`): d = dim G^ab / pG^ab, and G' <=
    Phi(G) = G'G^p, so G^ab / pG^ab = G / G'G^p = G / Phi(G), whose
    dimension is the size of the Burnside basis (see PcPresentation).
    The type is a partition of n into d positive parts, and n >= 1
    (G' < G in a p-group).  Taking 1 from each part leaves a partition
    of n - d into at most d parts, and when n - d <= 1 or d = 1 there is
    one, which gives (n - d + 1, 1^(d-1)).  Otherwise 2 <= d <= n - 2,
    and (n - d, 2, 1^(d-2)) fits too; for n <= 5 that leaves (n, d) =
    (4, 2), (5, 2) and (5, 3), and those take the Smith form.
    """
    n, d = 5 - len(P._derived), len(P._basis)
    if d >= n - 1 or d == 1:
        return (n - d + 1,) + (1,) * (d - 1)
    return ab_from_presentation(P)


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
    return _finite_type(rows, p)


def _finite_type(rows, p: int) -> AbelianType:
    """`cokernel_type` of rows that present a group of order dividing p^5."""
    parts = cokernel_type(rows, p)
    if 6 in parts:  # a free factor
        raise ValueError("infinite cokernel: relations miss a generator")
    return parts


def abelian_invariants_of(H: Subgroup, P: PcPresentation) -> AbelianType:
    """Isomorphism type of an abelian subgroup, from the Smith form of
    its relative power relations, taken modulo p^6.

    With s_j^p = prod_(l > j) s_l^c_l over the pc sequence s_1..s_m, the
    rows p e_j - c span the relations among the s_j: they lie in the
    relation lattice and their triangular matrix has determinant p^m,
    the order of the subgroup.  When every s_j^p is 1 they are p times
    the identity, and (1, ..., 1), the d = m case of the rule of
    `abelianization`, is read with no Smith form.  H must be a subgroup
    of P itself: its sequence is in P's
    normal forms, so another presentation would read it wrongly, and
    raises ValueError.
    """
    if H._P is not P:
        raise ValueError("H is a subgroup of another presentation")
    p, seq = P.prime, H.generators
    # pairwise commuting generators span an abelian group
    for a, x in enumerate(seq):
        for y in seq[a + 1:]:
            if _comm(x, y, P) != IDENTITY:
                raise NotAbelian(f"generators {x} and {y} do not commute")
    powers = [_pow(s, p, P) for s in seq]
    if not any(map(any, powers)):  # the rows are p times the identity
        return (1,) * len(seq)
    slots = _by_depth(seq)
    column = {_depth(s): j for j, s in enumerate(seq)}
    rows = []
    for j, x in enumerate(powers):
        row = [0] * len(seq)
        row[j] = p
        for d, e in enumerate(_sift(x, slots, P)[2]):
            if e:
                row[column[d]] -= e - p
        rows.append(row)
    return _finite_type(rows, p)
