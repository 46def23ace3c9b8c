"""Catalog of the presentation families of groups of order dividing p^5.

Seventy families cover every isomorphism type for p > 3; two of them,
11 and 48, split into two table rows apiece depending on whether the
parameter k equals (p-1)/2, giving 72 rows in all.  A row is named by
its id string ("29", "11,2"): `list_families()` returns the ids in
table order, and `row_id` normalises an id, an alias ("G29a") or a bare
family number (11, whose row k picks).  Each row carries the relation
template of its family plus the expected values of every invariant this
package computes.  `build` and `expected_record` resolve a row, a prime
and the parameters in one place, `_resolve`.  The raw index listings
that assign multipliers and exterior centers family-by-family are kept
verbatim, defects included, so the conflict scanner can rediscover each
documented erratum.
"""

from __future__ import annotations

import json
import operator
import os
from functools import lru_cache

from .abelian import TensorStructure, _Record, _Value
from .pcgroup import PcPresentation, _is_prime


class BadParam(ValueError):
    """Unknown family id, invalid prime, or parameter outside its domain."""


@lru_cache(maxsize=1)
def _data():
    path = os.path.join(os.path.dirname(__file__), "data", "catalog_data.json")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _prime(p, least, message):
    """operator.index(p) if that is a prime >= least, else BadParam."""
    try:
        n = operator.index(p)
    except TypeError:
        raise BadParam(f"p must be an integer, got {p!r}") from None
    if n < least or not _is_prime(n):
        raise BadParam(f"{message}, got {p!r}")
    return n


def primitive_root(p):
    """Smallest positive primitive root modulo the odd prime p."""
    p = _prime(p, 3, "need an odd prime")
    factors = set()
    n, q = p - 1, 2
    while q * q <= n:
        while n % q == 0:
            factors.add(q)
            n //= q
        q += 1
    if n > 1:
        factors.add(n)
    for w in range(2, p):
        if all(pow(w, (p - 1) // q, p) != 1 for q in factors):
            return w
    raise AssertionError("no primitive root below p")


def check_prime(p):
    """p as an int; raise BadParam unless it is a prime greater than 3."""
    return _prime(p, 5, "p must be a prime greater than 3")


def list_families():
    """The ids of all 72 catalog rows, in table order."""
    return tuple(_data()["row_order"])


def row_id(family):
    """The catalog id that `family` names, or BadParam.

    Takes a row id ("29", "11,2"), an alias ("G29a", "12k", "48.1") or a
    bare family number (11 or "48"); a bare 11 or 48 stays bare, and the
    value of k picks its row when the group is built.  Outer whitespace
    is stripped, inner spaces are not: "1 1" is no id.
    """
    s = str(family).strip().replace(".", ",")
    if s[:1] in ("G", "g"):
        s = s[1:]
    s = s.lstrip("_")
    data = _data()
    fams = data["families"]
    # trailing parameter letters ("12k", "29a", "33b") name the slot,
    # not a distinct row
    if len(s) > 1 and s[:-1] in fams and s[-1] in fams[s[:-1]]["params"]:
        s = s[:-1]
    if s in data["rows"] or s in fams:
        return s
    raise BadParam(f"unknown family {family!r}")


def _as_int(value, name):
    if isinstance(value, bool) or not isinstance(value, int):
        try:
            value = int(str(value), 10)
        except (TypeError, ValueError):
            raise BadParam(f"{name} must be an integer, got {value!r}") \
                from None
    return value


def _eval_exp(expr, p, w, params):
    if expr == "p-1":
        return p - 1
    if expr == "w":
        return w % p
    if expr.startswith("w^"):
        t = expr[2:]
        if t == "(k-1)":
            e = params["k"] - 1
        elif t in params:
            e = params[t]
        else:
            e = int(t)
        return pow(w, e, p)
    return int(expr) % p


@lru_cache(maxsize=1024)
def _build_cached(fid, p, param_items):
    params = dict(param_items)
    tmpl = _data()["families"][fid]
    w = primitive_root(p)

    def vec(tail):
        out = [0] * 5
        for g, ex in tail.items():
            out[int(g) - 1] = _eval_exp(ex, p, w, params)
        return tuple(out)

    power_tails = {int(i): vec(t) for i, t in tmpl["powers"].items()}
    comm_tails = {tuple(int(x) for x in ji.split(",")): vec(t)
                  for ji, t in tmpl["comms"].items()}
    return PcPresentation(p, power_tails, comm_tails)


def _resolve(family, p, params):
    """The row id, its family, p as an int and the parameter values at p,
    or BadParam.  A bare 11 or 48 resolves to the row that k selects."""
    rid, p, given = row_id(family), check_prime(p), dict(params or {})
    data = _data()
    row = data["rows"].get(rid, {"family": rid, "k_case": None})
    fam, k_case = row["family"], row["k_case"]
    names = data["families"][fam]["params"]
    unknown = sorted(set(given) - set(names))
    if unknown:
        allowed = ", ".join(names) if names else "none"
        raise BadParam(f"family {rid} takes no parameter "
                       f"{unknown[0]!r} (allowed: {allowed})")
    half = (p - 1) // 2
    vals = {}
    for name in names:
        if name != "k":  # an exponent of the primitive root
            v = _as_int(given.get(name, 1), name)
            if not 0 <= v <= p - 2:
                raise BadParam(f"{name} must lie in 0..{p - 2} for "
                               f"p = {p}, got {v}")
            vals[name] = v
            continue
        k = given.get("k")
        if k is None:
            k = half if k_case == "half" else 1
        k = _as_int(k, "k")
        if not 1 <= k <= half:
            raise BadParam(f"k must lie in 1..{half} for p = {p}, got {k}")
        if k_case == "half" and k != half:
            raise BadParam(f"row {rid} requires k = {half} for p = {p}")
        if k_case == "other" and k == half:
            raise BadParam(f"row {rid} requires k != {half}; "
                           f"k = {half} belongs to {fam},2")
        vals["k"] = k
    if rid not in data["rows"]:
        rid = f"{fam},{2 if vals['k'] == half else 1}"
    return rid, fam, p, vals


def build(family, p, params=None):
    """Instantiate a family at the prime p with resolved parameters.

    Raises BadParam for a bad id, prime, or parameter value, and
    InconsistentPresentation if the instantiated relations fail the
    overlap checks (which would indicate corrupted template data).
    """
    _, fam, p, vals = _resolve(family, p, params)
    return _build_cached(fam, p, tuple(sorted(vals.items())))


class ExpectedRecord(_Record):
    """Catalog row values for one family at one prime; a mutable record.

    Partitions are stored as non-increasing tuples of prime exponents,
    so (2, 1) at p = 5 means Z_25 + Z_5.  The wedge and tensor squares
    are TensorStructures, which mark the extraspecial non-abelian factor
    of order p^3 that two families acquire.  Fields shared with
    `invariants.InvariantRecord` have the same names there.
    """

    _fields = ("row", "p", "params", "cl", "multiplier", "center",
               "derived", "ab", "nabla", "j2", "wedge", "tensor",
               "wedge_center", "tensor_center", "sources")

    def __init__(self, row, p, params, cl, multiplier, center, derived, ab,
                 nabla, j2, wedge, tensor, wedge_center, tensor_center,
                 sources=None):
        self.row = row
        self.p = p
        self.params = params
        self.cl = cl
        self.multiplier = multiplier
        self.center = center
        self.derived = derived
        self.ab = ab
        self.nabla = nabla
        self.j2 = j2
        self.wedge = wedge
        self.tensor = tensor
        self.wedge_center = wedge_center
        self.tensor_center = tensor_center
        self.sources = {} if sources is None else sources

    @property
    def capable(self):
        return self.wedge_center == ()


_STRUCTURE_FIELDS = ("cl", "multiplier", "center", "derived", "ab",
                     "nabla", "j2")
_TENSOR_FIELDS = ("wedge", "tensor", "wedge_center", "tensor_center")

# which expected field each erratum touches; None marks id-level notes
_ERRATUM_FIELD = {
    "multiplier-index-duplicate-12": "multiplier",
    "multiplier-index-missing-14-26": "multiplier",
    "epicenter-index-duplicate-70": "wedge_center",
    "epicenter-index-duplicate-10": "wedge_center",
    "epicenter-index-duplicate-17": "wedge_center",
    "epicenter-index-missing": "wedge_center",
    "epicenter-index-type-20": "wedge_center",
    "class-column-65-69": "cl",
    "center-type-68": "center",
    "gamma-ab-listing-43": "nabla",
    "capable-list-18-54": "wedge_center",
    "tensor-center-list-omissions": "tensor_center",
    "param-49": None,
}


def expected_record(family, p, params=None):
    """The expected invariant values for a family instantiated at p."""
    rid, _, p, vals = _resolve(family, p, params)
    row = _data()["rows"][rid]
    sources = {f: "structure table" for f in _STRUCTURE_FIELDS}
    sources.update({f: "tensor table" for f in _TENSOR_FIELDS})
    for entry in errata():
        if entry.field and rid in entry.rows:
            sources[entry.field] += f" (see erratum {entry.slug})"
    return ExpectedRecord(
        row=rid, p=p, params=vals,
        cl=row["class"],
        multiplier=tuple(row["multiplier"]),
        center=tuple(row["center"]),
        derived=tuple(row["derived"]),
        ab=tuple(row["ab"]),
        nabla=tuple(row["nabla"]),
        j2=tuple(row["j2"]),
        wedge=TensorStructure(row["wedge"], row["wedge_e1"]),
        tensor=TensorStructure(row["tensor"], row["tensor_e1"]),
        wedge_center=tuple(row["wedge_center"]),
        tensor_center=tuple(row["tensor_center"]),
        sources=sources,
    )


class ErratumEntry(_Value):
    """A value record for one documented defect; `field` names the
    ExpectedRecord field it touches, None for notes on the family ids."""

    __slots__ = _fields = ("slug", "rows", "sources", "description",
                           "resolution", "field")

    def __init__(self, slug, rows, sources, description, resolution,
                 field=None):
        object.__setattr__(self, "slug", slug)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "sources", sources)
        object.__setattr__(self, "description", description)
        object.__setattr__(self, "resolution", resolution)
        object.__setattr__(self, "field", field)


@lru_cache(maxsize=1)
def errata():
    """Documented defects in the source listings, with resolutions."""
    return tuple(
        ErratumEntry(slug=e["slug"], rows=tuple(e["rows"]),
                     sources=tuple(e["sources"]),
                     description=e["description"],
                     resolution=e["resolution"],
                     field=_ERRATUM_FIELD.get(e["slug"]))
        for e in _data()["errata"])


def errata_for(family):
    """The errata that name the row `family`."""
    rid = row_id(family)
    return tuple(e for e in errata() if rid in e.rows)


def multiplier_index_raw():
    """The multiplier assignment list exactly as published."""
    return tuple((tuple(e["type"]), tuple(e["rows"]))
                 for e in _data()["multiplier_index_raw"])


def epicenter_index_raw():
    """The exterior-center assignment list exactly as published."""
    return tuple((tuple(e["type"]), tuple(e["rows"]))
                 for e in _data()["epicenter_index_raw"])


class IndexConflict(_Value):
    """A value record for one defect found by scanning a raw index
    against the tables."""

    __slots__ = _fields = ("index", "kind", "row", "listed", "resolved",
                           "erratum")

    def __init__(self, index, kind, row, listed, resolved, erratum):
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "row", row)
        object.__setattr__(self, "listed", listed)
        object.__setattr__(self, "resolved", resolved)
        object.__setattr__(self, "erratum", erratum)


def _conflict_slug(index, rid):
    tag = f"{index} index"
    for entry in errata():
        if rid in entry.rows and tag in entry.sources:
            return entry.slug
    return None


def raw_index_conflicts():
    """Scan both raw indexes against the resolved table columns.

    Returns every duplicate listing, repeated listing, missing row, and
    type mismatch, each tied to the erratum that documents it.  A clean
    pair of indexes would produce an empty tuple.
    """
    data = _data()
    out = []
    scans = (("multiplier", multiplier_index_raw(), "multiplier"),
             ("epicenter", epicenter_index_raw(), "wedge_center"))
    for index, raw, col in scans:
        listed = {}
        for t, rows in raw:
            for r in rows:
                listed.setdefault(r, []).append(t)
        for rid in data["row_order"]:
            resolved = tuple(data["rows"][rid][col])
            types = listed.get(rid, [])
            if not types:
                kind = "missing"
            elif len(types) > 1:
                kind = ("repeated-listing" if len(set(types)) == 1
                        else "duplicate")
            elif types[0] != resolved:
                kind = "type-mismatch"
            else:
                continue
            out.append(IndexConflict(index=index, kind=kind, row=rid,
                                     listed=tuple(types),
                                     resolved=resolved,
                                     erratum=_conflict_slug(index, rid)))
    return tuple(out)
