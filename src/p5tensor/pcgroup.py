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

The collector works on syllables g_j^e, 1 <= e < p.  A syllable that
meets a part w of the normal form it does not commute with lifts w off
and pushes the conjugate w^(g_j^e) back as syllables, read from a memo
that each presentation fills on demand: the dict entry (j, m, e, c)
holds g_j^-e g_m^c g_j^e in normal form.  A syllable g_m^c of w with
[g_m, g_j] = 1 is its own conjugate and goes back unchanged, so the memo
holds entries of the pairs with [g_m, g_j] != 1 only.  Conjugation by
g_j^e is an automorphism phi_e of <g_(j+1), ...>, and
phi_e = phi_(e-h) o phi_h, so an entry rests on O(log p) others
(`_conjugate`), collected inside <g_(j+1), ...>, which reads only
conjugates by higher generators: the memo fills itself without a cycle.
The work per syllable does not grow with p, and the memo holds only the
entries that collection reaches (the overlaps of row 59 fill 157 at
p = 1009 and 537 at p = 100003), so an in-process `verify` peaks at
23 MB at p = 20011 and 27 MB at p = 100003 (Python 3.11, x86_64).

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
normal closure of the tails, memoised on the presentation).  The
exponent is p times the largest order of the five power tails, since
g_i^p = tail_i; it is memoised too, and an element order stops at it.
The type of an abelian subgroup is the Smith form of its relative power
relations, taken modulo p^6.

The tests hold all of this against an independent p^5 multiplication
table, built by a different recursion: the collector against the table
on every element, and the pc sequences against the table's subgroups.

Because collection is total, the closure of the generators always
produces exactly p^5 normal forms; detecting a *bad* presentation is
therefore the job of the 35 overlaps of `_overlaps` (the classical
well-definedness conditions), not of element counting.  The constructor
runs them once, and a presentation that fails one raises
InconsistentPresentation, so every PcPresentation is consistent.
"""

from __future__ import annotations

import operator

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
    Construction runs the overlaps of `_overlaps` and raises
    InconsistentPresentation if any fails.

    The collector's state is built here too: `_conj`, the conjugate
    memo, maps (j, m, e, c), m > j, to the syllables of
    g_j^-e g_m^c g_j^e in stack order, filled by `_conjugate`;
    `_blockers[j]` holds the k > j with [g_k, g_j] != 1, ascending;
    `_suffix[j]` the exponents of g_j^p above g_j, or () when
    g_j^p = 1; `_inv_tails[i - 1]` the syllables of (g_i^p)^-1; and
    `_comms[a - 1][i - 1]` the commutator [g_a, g_i]: the tail of (a, i)
    for a > i, its inverse for a < i, the identity for a = i.  The keys
    of `_conj` are those of the pairs in `_blockers` alone: a commuting
    pair is never looked up.  `_derived`, `_basis` and `_exponent` hold
    G', the Burnside basis and exp(G) once they are first asked for.
    """

    __slots__ = ("prime", "power_tails", "comm_tails", "_key", "_conj",
                 "_blockers", "_suffix", "_inv_tails", "_comms", "_derived",
                 "_basis", "_exponent")

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
                pt[i - 1] = _as_vec(v, prime)
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
                j, i = (_integer(k, "commutator pair entries must be integers")
                        for k in (j, i))
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
        self._conj = {}
        self._blockers = (None,) + tuple(
            tuple(k for k in range(j + 1, 6) if any(full[(k, j)]))
            for j in range(1, 6))
        self._suffix = (None,) + tuple(t[j:] if any(t) else ()
                                       for j, t in enumerate(pt, 1))
        self._derived = self._basis = self._exponent = None
        failures = [f"overlap {label}: {x} vs {y}"
                    for label, x, y in _overlaps(self) if x != y]
        if failures:
            raise InconsistentPresentation(failures)
        self._inv_tails = tuple(_stack(_solve(t, IDENTITY, self)) for t in pt)
        self._comms = tuple(
            tuple(full[a, i] if a > i else
                  _solve(full[i, a], IDENTITY, self) if a < i else IDENTITY
                  for i in range(1, 6)) for a in range(1, 6))

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
    """
    conj = P._conj
    x = [0, 0, 0, 0, 0]
    if c > 1:
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

    Collection from the left.  A syllable g_j^e first lifts off the part
    w of `out` from the lowest generator above g_j that it does not
    commute with, and pushes w^(g_j^e), the product of the memoised
    conjugates of w's syllables, back on the stack:
    out * g_j^e = (out / w) * g_j^e * w^(g_j^e).  A syllable g_m^c of w
    with [g_m, g_j] = 1 is its own conjugate and goes back unchanged, so
    the memo is read, and filled, for the pairs of `_blockers` only.
    Everything left above g_j then commutes with it, so g_j^e lands in
    place.  When the
    exponent s = out[j] + e reaches p, g_j^p wraps to its tail, which
    goes right above g_j; the part above g_j is lifted off again and
    collected after it.
    """
    p, conj, blockers, suffix = P.prime, P._conj, P._blockers, P._suffix
    pop = stack.pop
    push = stack.append
    extend = stack.extend
    while stack:
        j, e = pop()
        above = blockers[j]
        for k in above:
            if out[k - 1]:
                for m in range(5, k - 1, -1):
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
            for m in range(5, j, -1):
                c = out[m - 1]
                if c:
                    push((m, c))
            out[j:] = tail


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


# the overlaps by generator indices, their labels formatted once
_TRIPLES = tuple((f"g{k}(g{j} g{i}) != (g{k} g{j})g{i}", k, j, i)
                 for k in range(3, 6) for j in range(2, k)
                 for i in range(1, j))
_POWER_PAIRS = tuple((f"g{j}^p g{i} != g{j}^(p-1)(g{j} g{i})",
                      f"g{j} g{i}^p != (g{j} g{i})g{i}^(p-1)", j, i)
                     for j, i in _PAIRS)
_POWERS = tuple((f"g{i}^p g{i} != g{i} g{i}^p", i) for i in range(1, 6))


def _overlaps(P: PcPresentation):
    """The 35 overlaps of the consistency test, as (label, left, right):
    two collections of one word that agree in a consistent presentation.

    For k > j > i the triples g_k (g_j g_i) = (g_k g_j) g_i; for each
    pair j > i, g_j^p g_i = g_j^(p-1) (g_j g_i) and
    g_j g_i^p = (g_j g_i) g_i^(p-1); and g_i^p g_i = g_i g_i^p.  Each
    side is a product of normal forms.  g_j g_i is the normal form
    g_i g_j t_ji, since g_i^-1 g_j g_i = g_j t_ji (the rule e = 1 of
    `_conjugate`) and t_ji lies above g_j: the form that the collector
    reaches for it, so it is written down, not collected.
    """
    g = (None,) + _GENS
    tails = (None,) + P.power_tails
    q = P.prime - 1
    last = (None, (q, 0, 0, 0, 0), (0, q, 0, 0, 0), (0, 0, q, 0, 0),
            (0, 0, 0, q, 0), (0, 0, 0, 0, q))
    swap = {}
    for j, i in _PAIRS:
        x = list(P.comm_tails[j, i])
        x[i - 1] = x[j - 1] = 1
        swap[j, i] = tuple(x)
    for label, k, j, i in _TRIPLES:
        yield label, _mul(g[k], swap[j, i], P), _mul(swap[k, j], g[i], P)
    for label_j, label_i, j, i in _POWER_PAIRS:
        yield label_j, _mul(tails[j], g[i], P), _mul(last[j], swap[j, i], P)
        yield label_i, _mul(g[j], tails[i], P), _mul(swap[j, i], last[i], P)
    for label, i in _POWERS:
        yield label, _mul(tails[i], g[i], P), _mul(g[i], tails[i], P)


# ---------------------------------------------------------------------------
# subgroups as induced pc sequences (collector route)

def _pow(x: Element, m: int, P: PcPresentation) -> Element:
    """x^m for m >= 0, by square-and-multiply."""
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
    acting = _basis(P) if normal else slots
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


def _derived(P: PcPresentation) -> tuple:
    """G': the normal closure of the tails [g_j, g_i], memoised on P."""
    if P._derived is None:
        P._derived = _closure(P.comm_tails.values(), P, normal=True)
    return P._derived


def _basis(P: PcPresentation) -> tuple:
    """A Burnside basis of G, memoised on P: the pc generators at the
    positions that are not pivots of an echelon form, over F_p, of the
    nonzero power and commutator tails.

    G/Phi(G) is the largest elementary abelian quotient of G, so it is
    F_p^5 modulo the relations of the presentation read there: g_i^p =
    tail_i says tail_i = 0 and [g_j, g_i] = tail_ji says tail_ji = 0,
    exponents modulo p.  The echelon rows and the unit vectors at the
    other positions form a basis of F_p^5, so those generators map to a
    basis of G/Phi(G), and by the Burnside basis theorem they generate G.
    """
    if P._basis is None:
        p = P.prime
        rows = []
        for t in P.power_tails + tuple(P.comm_tails.values()):
            for c, w in rows:
                f = t[c]
                if f:
                    t = [(a - f * b) % p for a, b in zip(t, w)]
            c = next((i for i in range(5) if t[i]), None)
            if c is not None:
                u = pow(t[c], -1, p)
                rows.append((c, [a * u % p for a in t]))
        pivots = {c for c, _ in rows}
        P._basis = tuple(g for i, g in enumerate(_GENS) if i not in pivots)
    return P._basis


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
    p, basis = P.prime, _basis(P)
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
    return Subgroup(P, _closure([_as_vec(e, P.prime) for e in gens], P))


def normal_closure(gens, P: PcPresentation) -> Subgroup:
    return Subgroup(P, _closure([_as_vec(e, P.prime) for e in gens], P,
                                normal=True))


def derived_subgroup(P: PcPresentation) -> Subgroup:
    """G': the normal closure of the commutator tails [g_j, g_i]."""
    return Subgroup(P, _derived(P))


def center(P: PcPresentation) -> Subgroup:
    return Subgroup(P, _center_seq(P))


def lower_central_series(P: PcPresentation) -> list:
    """G = gamma_1 > gamma_2 > ... > 1, with gamma_2 = G' and
    gamma_(c+1) = [gamma_c, G] the normal closure of the [s, b] over the
    sequence s of gamma_c and the Burnside basis b of `_basis`: modulo
    that closure N each s commutes with each b, so gamma_c N / N is
    central in G/N, which the b generate, and [gamma_c, G] <= N."""
    seq = _derived(P)
    series = [_GENS, seq]
    basis = _basis(P)
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
    p^4.  Memoised on P.
    """
    if P._exponent is None:
        p = P.prime
        P._exponent = p * max(_order(t, P, p**4) for t in P.power_tails)
    return P._exponent


def abelian_invariants_of(H: Subgroup, P: PcPresentation) -> AbelianType:
    """Isomorphism type of an abelian subgroup, from the Smith form of
    its relative power relations, taken modulo p^6.

    With s_j^p = prod_(l > j) s_l^c_l over the pc sequence s_1..s_m, the
    rows p e_j - c span the relations among the s_j: they lie in the
    relation lattice and their triangular matrix has determinant p^m,
    the order of the subgroup.  H must be a subgroup of P itself: its
    sequence is in P's normal forms, so another presentation would read
    it wrongly, and raises ValueError.
    """
    if H._P is not P:
        raise ValueError("H is a subgroup of another presentation")
    p, seq = P.prime, H.generators
    # pairwise commuting generators span an abelian group
    for a, x in enumerate(seq):
        for y in seq[a + 1:]:
            if _comm(x, y, P) != IDENTITY:
                raise NotAbelian(f"generators {x} and {y} do not commute")
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
    parts = cokernel_type(rows, p)
    if 6 in parts:
        raise ValueError("infinite cokernel: relations miss a generator")
    return parts
