"""Catalog of the presentation families of groups of order dividing p^5.

Seventy families cover every isomorphism type for p > 3; four of them
split into two table rows apiece depending on whether the parameter k
equals (p-1)/2, giving 72 rows in all.  Each row carries the relation
template of its family plus the expected values of every invariant this
package computes.  The raw index listings that assign multipliers and
exterior centers family-by-family are kept verbatim, defects included,
so the conflict scanner can rediscover each documented erratum.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import lru_cache
from importlib import resources

from .pcgroup import PcPresentation, _is_prime, consistency_check
from .pcgroup import InconsistentPresentation


class BadParam(ValueError):
    """Unknown family id, invalid prime, or parameter outside its domain."""


@lru_cache(maxsize=1)
def _data():
    path = resources.files(__package__).joinpath("data/catalog_data.json")
    with path.open(encoding="utf-8") as fh:
        return json.load(fh)


def primitive_root(p):
    """Smallest positive primitive root modulo the odd prime p."""
    if not isinstance(p, int) or p < 3 or not _is_prime(p):
        raise BadParam(f"need an odd prime, got {p!r}")
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


def _check_prime(p):
    if not isinstance(p, int) or p <= 3 or not _is_prime(p):
        raise BadParam(f"p must be a prime greater than 3, got {p!r}")


@dataclass(frozen=True)
class FamilySpec:
    """One catalog row: family id, parameter slots, and k-subcase."""

    id: str
    family: str
    params: tuple
    k_case: str | None = None


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
    power_tails = {}
    for i, tail in tmpl["powers"].items():
        vec = [0] * 5
        for g, ex in tail.items():
            vec[int(g) - 1] = _eval_exp(ex, p, w, params)
        power_tails[int(i)] = tuple(vec)
    comm_tails = {}
    for ji, tail in tmpl["comms"].items():
        j, i = (int(x) for x in ji.split(","))
        vec = [0] * 5
        for g, ex in tail.items():
            vec[int(g) - 1] = _eval_exp(ex, p, w, params)
        comm_tails[(j, i)] = tuple(vec)
    P = PcPresentation(p, power_tails, comm_tails)
    report = consistency_check(P)
    if not report.ok:
        raise InconsistentPresentation(report.failures[0])
    return P


def build(family, p, params=None, **extra):
    """Instantiate a family at the prime p with resolved parameters.

    Raises BadParam for a bad id, prime, or parameter value, and
    InconsistentPresentation if the instantiated relations fail the
    overlap checks (which would indicate corrupted template data).
    """
    spec = family_spec(family)
    _check_prime(p)
    merged = dict(params or {})
    merged.update(extra)
    vals = _resolve_params(spec, p, merged)
    return _build_cached(spec.family, p, tuple(sorted(vals.items())))


@dataclass
class ExpectedRecord:
    """Catalog row values for one family at one prime.

    Partitions are stored as non-increasing tuples of prime exponents,
    so (2, 1) at p = 5 means Z_25 + Z_5.  The wedge and tensor slots
    carry a flag marking the extraspecial non-abelian factor of order
    p^3 that two families acquire.
    """

    row: str
    p: int
    params: dict
    cl: int
    multiplier: tuple
    center: tuple
    derived: tuple
    ab: tuple
    nabla: tuple
    j2: tuple
    wedge_parts: tuple
    wedge_e1: bool
    tensor_parts: tuple
    tensor_e1: bool
    wedge_center: tuple
    tensor_center: tuple
    sources: dict = field(default_factory=dict)

    @property
    def wedge(self):
        from .invariants import TensorStructure
        return TensorStructure(self.wedge_parts, self.wedge_e1)

    @property
    def tensor(self):
        from .invariants import TensorStructure
        return TensorStructure(self.tensor_parts, self.tensor_e1)

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


def expected_record(family, p, params=None, **extra):
    """The expected invariant values for a family instantiated at p."""
    spec = family_spec(family)
    _check_prime(p)
    merged = dict(params or {})
    merged.update(extra)
    vals = _resolve_params(spec, p, merged)
    row_id = _row_for(spec, p, vals)
    row = _data()["rows"][row_id]
    sources = {f: "structure table" for f in _STRUCTURE_FIELDS}
    sources.update({f: "tensor table" for f in _TENSOR_FIELDS})
    for entry in errata():
        fld = _ERRATUM_FIELD.get(entry.slug)
        if fld and row_id in entry.rows:
            sources[fld] += f" (see erratum {entry.slug})"
    return ExpectedRecord(
        row=row_id, p=p, params=vals,
        cl=row["class"],
        multiplier=tuple(row["multiplier"]),
        center=tuple(row["center"]),
        derived=tuple(row["derived"]),
        ab=tuple(row["ab"]),
        nabla=tuple(row["nabla"]),
        j2=tuple(row["j2"]),
        wedge_parts=tuple(row["wedge"]),
        wedge_e1=row["wedge_e1"],
        tensor_parts=tuple(row["tensor"]),
        tensor_e1=row["tensor_e1"],
        wedge_center=tuple(row["wedge_center"]),
        tensor_center=tuple(row["tensor_center"]),
        sources=sources,
    )


@dataclass(frozen=True)
class ErratumEntry:
    slug: str
    rows: tuple
    sources: tuple
    description: str
    resolution: str


@lru_cache(maxsize=1)
def errata():
    """Documented defects in the source listings, with resolutions."""
    return tuple(
        ErratumEntry(slug=e["slug"], rows=tuple(e["rows"]),
                     sources=tuple(e["sources"]),
                     description=e["description"],
                     resolution=e["resolution"])
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


@dataclass(frozen=True)
class IndexConflict:
    """One defect found by scanning a raw index against the tables."""

    index: str
    kind: str
    row: str
    listed: tuple
    resolved: tuple
    erratum: str | None


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
