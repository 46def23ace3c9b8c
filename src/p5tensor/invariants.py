"""Engine-computed invariants joined with catalog expectations.

Each record pairs what the group engine and the abelian calculus derive
from a presentation (center, derived subgroup, abelianization, class,
exponent, quadratic-functor image, wedge and tensor squares) with the
catalog row's expected values, then validates the two against each
other and against the order identities that tie the homological pieces
together.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import families
from .abelian import (ab_from_presentation, canon, direct_sum, format_type,
                      gamma, order_exponent)
from .abelian import wedge_ab
from .pcgroup import (abelian_invariants_of, center, derived_subgroup,
                      exponent, nilpotency_class)


class MultiplierMismatch(ValueError):
    """Supplied multiplier disagrees with the computed exterior square."""


class OrderIdentityViolation(ValueError):
    """|wedge| != |multiplier| * |derived| for a recorded wedge value."""


class ExponentViolation(ValueError):
    """An exponent-p group was handed a recorded value of larger exponent."""


@dataclass(frozen=True)
class TensorStructure:
    """A wedge or tensor square: abelian part, plus an optional
    extraspecial factor of order p^3 and exponent p that two families
    pick up."""

    abelian_part: tuple
    e1_factor: bool = False

    def __post_init__(self):
        object.__setattr__(self, "abelian_part", canon(self.abelian_part))

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


def _as_structure(value):
    if isinstance(value, TensorStructure):
        return value
    if isinstance(value, families.ExpectedRecord):
        return value.wedge
    return TensorStructure(canon(value))


def nabla(P):
    """Image of the diagonal squaring map inside the tensor square.

    For odd-order groups this is the Whitehead quadratic functor of the
    abelianization, computed here symbolically from the presentation.
    """
    return gamma(ab_from_presentation(P), prime=P.prime)


def j2(P, multiplier):
    """Quadratic-functor image extended by the multiplier.

    Topologically the third homotopy group of the suspension of the
    group's classifying space; algebraically nabla plus the supplied
    multiplier type.
    """
    return _j2(nabla(P), multiplier)


def _j2(nab, multiplier):
    return direct_sum(nab, canon(multiplier))


def exterior_square(P, multiplier, expected=None):
    """The exterior square, by the cheapest route that stays honest.

    Abelian groups get the pair-gcd formula (and the supplied
    multiplier must agree with it, since the two coincide there).
    Trivial-multiplier groups get the derived subgroup's type, which
    the exterior square collapses onto.  Everything else requires a
    recorded value, which is admitted only after passing the order
    identity and the exponent constraint.
    """
    return _exterior_square(P, multiplier, expected,
                            ab_from_presentation(P),
                            abelian_invariants_of(derived_subgroup(P), P))


def _exterior_square(P, multiplier, expected, ab, dv_type):
    """`exterior_square`, given the abelianization and G'."""
    p = P.prime
    mult = canon(multiplier)
    if dv_type == ():
        w = wedge_ab(ab)
        if mult != w:
            raise MultiplierMismatch(
                f"abelian group: multiplier {mult} != exterior square {w}")
        return TensorStructure(w)
    if mult == ():
        return TensorStructure(dv_type)
    if expected is None:
        raise ValueError("a recorded exterior square is required when the "
                         "multiplier is non-trivial and the group is not "
                         "abelian")
    ts = _as_structure(expected)
    want = sum(mult) + sum(dv_type)
    if ts.order_exponent != want:
        raise OrderIdentityViolation(
            f"|wedge| = p^{ts.order_exponent} but |multiplier||derived| "
            f"= p^{want}")
    if exponent(P) == p and any(e > 1 for e in ts.abelian_part):
        raise ExponentViolation(
            f"group has exponent {p} but recorded wedge {ts} does not")
    return ts


def tensor_square(P, wedge):
    """Tensor square assembled from the wedge: nabla splits off as a
    direct factor for odd-order groups."""
    return _tensor_square(nabla(P), wedge)


def _tensor_square(nab, wedge):
    w = _as_structure(wedge)
    return TensorStructure(direct_sum(nab, w.abelian_part), w.e1_factor)


def capability(expected):
    """A group is capable exactly when its exterior center is trivial."""
    return tuple(expected.wedge_center) == ()


@dataclass(frozen=True)
class Verdict:
    check: str
    passed: bool
    detail: str
    errata: tuple = ()

    def __bool__(self):
        return self.passed


@dataclass
class InvariantRecord:
    """Computed and expected invariants for one family at one prime."""

    family: str
    p: int
    params: dict
    center_type: tuple
    derived_type: tuple
    ab_type: tuple
    cl: int
    exponent: int
    nabla: tuple
    j2: tuple
    wedge: TensorStructure
    tensor: TensorStructure
    capable: bool
    expected: families.ExpectedRecord
    verdicts: list = field(default_factory=list)

    @property
    def ok(self):
        return bool(self.verdicts) and all(v.passed for v in self.verdicts)

    def to_json_dict(self):
        return record_dict(self)


def compute_record(family, p, params=None, **extra):
    """Build the group, compute every invariant, and attach the catalog
    expectations (validation is a separate step).  Each invariant is
    computed once: G^ab and G' feed nabla, j2 and both squares."""
    expected = families.expected_record(family, p, params, **extra)
    P = families.build(family, p, params, **extra)
    ab = ab_from_presentation(P)
    nab = gamma(ab, prime=p)
    derived_type = abelian_invariants_of(derived_subgroup(P), P)
    wedge = _exterior_square(P, expected.multiplier, expected.wedge, ab,
                             derived_type)
    return InvariantRecord(
        family=expected.row, p=p, params=dict(expected.params),
        center_type=abelian_invariants_of(center(P), P),
        derived_type=derived_type,
        ab_type=ab,
        cl=nilpotency_class(P),
        exponent=exponent(P),
        nabla=nab,
        j2=_j2(nab, expected.multiplier),
        wedge=wedge,
        tensor=_tensor_square(nab, wedge),
        capable=capability(expected),
        expected=expected,
    )


# expected-record field each check reads, for erratum cross-referencing
_CHECK_FIELD = {
    "center": "center", "derived": "derived", "ab": "ab", "class": "cl",
    "nabla": "nabla", "j2": "j2", "wedge": "wedge", "tensor": "tensor",
    "wedge-order": "wedge", "tensor-order-nabla": "tensor",
    "tensor-order-j2": "tensor", "center-chain": "wedge_center",
    "abelian-tensor-center": "tensor_center",
    "exponent-p-entries": "tensor", "capability": "wedge_center",
}


def _errata_slugs(row_id, check):
    fld = _CHECK_FIELD.get(check)
    out = []
    for entry in families.errata_for(row_id):
        if families._ERRATUM_FIELD.get(entry.slug) == fld:
            out.append(entry.slug)
    return tuple(out)


def validate(record):
    """Run every cross-check on a record; returns (and stores) verdicts.

    Structural checks compare engine output to the catalog columns;
    order-identity checks tie the homological invariants together; the
    conditional checks cover the abelian and exponent-p special cases.
    Failed verdicts carry the slugs of any errata touching the same
    field of the same row.
    """
    e = record.expected
    p = record.p
    results = []

    def add(check, passed, detail):
        slugs = _errata_slugs(record.family, check) if not passed else ()
        results.append(Verdict(check=check, passed=bool(passed),
                               detail=detail, errata=slugs))

    add("center", record.center_type == e.center,
        f"computed {record.center_type}, expected {e.center}")
    add("derived", record.derived_type == e.derived,
        f"computed {record.derived_type}, expected {e.derived}")
    add("ab", record.ab_type == e.ab,
        f"computed {record.ab_type}, expected {e.ab}")
    add("class", record.cl == e.cl,
        f"computed {record.cl}, expected {e.cl}")
    add("nabla", record.nabla == e.nabla,
        f"computed {record.nabla}, expected {e.nabla}")
    add("j2", record.j2 == e.j2,
        f"computed {record.j2}, expected {e.j2}")
    add("wedge", record.wedge == e.wedge,
        f"computed {record.wedge}, expected {e.wedge}")
    add("tensor", record.tensor == e.tensor,
        f"computed {record.tensor}, expected {e.tensor}")

    wo = record.wedge.order_exponent
    mo = sum(e.multiplier) + sum(record.derived_type)
    add("wedge-order", wo == mo,
        f"|wedge| = p^{wo}, |multiplier||derived| = p^{mo}")
    to = record.tensor.order_exponent
    add("tensor-order-nabla", to == order_exponent(record.nabla) + wo,
        f"|tensor| = p^{to}, |nabla||wedge| = "
        f"p^{order_exponent(record.nabla) + wo}")
    jo = order_exponent(record.j2) + sum(record.derived_type)
    add("tensor-order-j2", to == jo,
        f"|tensor| = p^{to}, |j2||derived| = p^{jo}")

    zt, zw = sum(e.tensor_center), sum(e.wedge_center)
    zc = sum(record.center_type)
    add("center-chain", zt <= zw <= zc,
        f"|tensor center| = p^{zt}, |exterior center| = p^{zw}, "
        f"|center| = p^{zc}")
    if record.derived_type == ():
        add("abelian-tensor-center", e.tensor_center == (),
            f"abelian group, tensor center expected trivial, "
            f"recorded {e.tensor_center}")
    else:
        add("abelian-tensor-center", True, "not abelian; vacuous")
    if record.exponent == p:
        flat = all(x == 1 for x in record.tensor.abelian_part)
        add("exponent-p-entries", flat,
            f"group exponent {p}, tensor {record.tensor}")
    else:
        add("exponent-p-entries", True,
            f"group exponent {record.exponent}; vacuous")
    add("capability", record.capable == (e.wedge_center == ()),
        f"capable flag {record.capable}, exterior center {e.wedge_center}")

    record.verdicts = results
    return results


def record_dict(record):
    """JSON-ready dict, matching schema/invariant_record.schema.json."""
    e = record.expected
    return {
        "family": record.family,
        "p": record.p,
        "params": dict(record.params),
        "computed": {
            "center": list(record.center_type),
            "derived": list(record.derived_type),
            "ab": list(record.ab_type),
            "class": record.cl,
            "exponent": record.exponent,
            "nabla": list(record.nabla),
            "j2": list(record.j2),
            "wedge": record.wedge.to_json_dict(),
            "tensor": record.tensor.to_json_dict(),
            "capable": record.capable,
        },
        "expected": {
            "multiplier": list(e.multiplier),
            "center": list(e.center),
            "derived": list(e.derived),
            "ab": list(e.ab),
            "class": e.cl,
            "nabla": list(e.nabla),
            "j2": list(e.j2),
            "wedge": e.wedge.to_json_dict(),
            "tensor": e.tensor.to_json_dict(),
            "wedge_center": list(e.wedge_center),
            "tensor_center": list(e.tensor_center),
            "sources": dict(e.sources),
        },
        "verdicts": [
            {"check": v.check, "passed": v.passed, "detail": v.detail,
             "errata": list(v.errata)}
            for v in record.verdicts
        ],
    }
