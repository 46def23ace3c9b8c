"""Catalog of the presentation families of groups of order dividing p^5.

Seventy families cover every isomorphism type for p > 3; two of them,
11 and 48, split into two table rows apiece depending on whether the
parameter k equals (p-1)/2, giving 72 rows in all.  Each row carries
the relation template of its family plus the expected values of every
invariant this package computes.  The raw index listings that assign
multipliers and exterior centers family-by-family are kept verbatim,
defects included, so the conflict scanner can rediscover each
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


class FamilySpec(_Value):
    """A value record for one catalog row: family id, parameter slots,
    and k-subcase."""

    __slots__ = _fields = ("id", "family", "params", "k_case")

    def __init__(self, id, family, params, k_case=None):
        object.__setattr__(self, "id", id)
        object.__setattr__(self, "family", family)
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "k_case", k_case)


def _spec_for_row(row_id):
    data = _data()
    row = data["rows"][row_id]
    fam = row["family"]
    return FamilySpec(id=row_id, family=fam,
                      params=tuple(data["families"][fam]["params"]),
                      k_case=row["k_case"])


@lru_cache(maxsize=1)
def list_families():
    """All 72 catalog rows, in table order."""
    return tuple(_spec_for_row(r) for r in _data()["row_order"])


def _normalize_id(family):
    if isinstance(family, FamilySpec):
        return family.id
    s = str(family).strip().replace(" ", "").replace(".", ",")
    if s[:1] in ("G", "g"):
        s = s[1:]
    s = s.lstrip("_")
    # trailing parameter letters ("12k", "29a", "33b") name the slot,
    # not a distinct row
    if len(s) > 1 and s[-1] in "kab" and s[:-1].isdigit():
        base = s[:-1]
        fams = _data()["families"]
        if base in fams and s[-1] in fams[base]["params"]:
            s = base
    return s


def family_spec(family):
    """Resolve a family id (row id, bare family number, or spec)."""
    if isinstance(family, FamilySpec):
        return family
    s = _normalize_id(family)
    data = _data()
    if s in data["rows"]:
        return _spec_for_row(s)
    if s in ("11", "48"):
        # bare id: the k value picks the row at build time
        return FamilySpec(id=s, family=s,
                          params=tuple(data["families"][s]["params"]),
                          k_case=None)
    raise BadParam(f"unknown family {family!r}")


def _as_int(value, name):
    if isinstance(value, bool) or not isinstance(value, int):
        try:
            value = int(str(value), 10)
        except (TypeError, ValueError):
            raise BadParam(f"{name} must be an integer, got {value!r}") \
                from None
    return value


def _resolve_params(spec, p, given):
    given = dict(given or {})
    unknown = sorted(set(given) - set(spec.params))
    if unknown:
        allowed = ", ".join(spec.params) if spec.params else "none"
        raise BadParam(f"family {spec.id} takes no parameter "
                       f"{unknown[0]!r} (allowed: {allowed})")
    out = {}
    for name in spec.params:
        if name == "k":
            half = (p - 1) // 2
            k = given.get("k")
            if k is None:
                k = half if spec.k_case == "half" else 1
            k = _as_int(k, "k")
            if not 1 <= k <= half:
                raise BadParam(f"k must lie in 1..{half} for p = {p}, "
                               f"got {k}")
            if spec.k_case == "half" and k != half:
                raise BadParam(f"row {spec.id} requires k = {half} "
                               f"for p = {p}")
            if spec.k_case == "other" and k == half:
                raise BadParam(f"row {spec.id} requires k != {half}; "
                               f"k = {half} belongs to {spec.family},2")
            out["k"] = k
        else:
            out[name] = _as_int(given.get(name, 1), name)
    return out


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
    """The spec, p as an int and the parameter values at p, or BadParam."""
    spec = family_spec(family)
    p = check_prime(p)
    return spec, p, _resolve_params(spec, p, params)


def build(family, p, params=None):
    """Instantiate a family at the prime p with resolved parameters.

    Raises BadParam for a bad id, prime, or parameter value, and
    InconsistentPresentation if the instantiated relations fail the
    overlap checks (which would indicate corrupted template data).
    """
    spec, p, vals = _resolve(family, p, params)
    return _build_cached(spec.family, p, tuple(sorted(vals.items())))


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


def _row_for(spec, p, vals):
    if spec.id in _data()["rows"]:
        return spec.id
    half = (p - 1) // 2
    return f"{spec.family},{2 if vals.get('k') == half else 1}"


def expected_record(family, p, params=None):
    """The expected invariant values for a family instantiated at p."""
    spec, p, vals = _resolve(family, p, params)
    row_id = _row_for(spec, p, vals)
    row = _data()["rows"][row_id]
    sources = {f: "structure table" for f in _STRUCTURE_FIELDS}
    sources.update({f: "tensor table" for f in _TENSOR_FIELDS})
    for entry in errata():
        if entry.field and row_id in entry.rows:
            sources[entry.field] += f" (see erratum {entry.slug})"
    return ExpectedRecord(
        row=row_id, p=p, params=vals,
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
    row_id = _normalize_id(family)
    return tuple(e for e in errata() if row_id in e.rows)


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


def _conflict_slug(index, row_id):
    tag = f"{index} index"
    for entry in errata():
        if row_id in entry.rows and tag in entry.sources:
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
    scans = (("multiplier", "multiplier_index_raw", "multiplier"),
             ("epicenter", "epicenter_index_raw", "wedge_center"))
    for index, raw_key, col in scans:
        listed = {}
        for entry in data[raw_key]:
            t = tuple(entry["type"])
            for r in entry["rows"]:
                listed.setdefault(r, []).append(t)
        for row_id in data["row_order"]:
            resolved = tuple(data["rows"][row_id][col])
            types = listed.get(row_id, [])
            if not types:
                kind = "missing"
            elif len(types) > 1:
                kind = ("repeated-listing" if len(set(types)) == 1
                        else "duplicate")
            elif types[0] != resolved:
                kind = "type-mismatch"
            else:
                continue
            out.append(IndexConflict(index=index, kind=kind, row=row_id,
                                     listed=tuple(types),
                                     resolved=resolved,
                                     erratum=_conflict_slug(index, row_id)))
    return tuple(out)
