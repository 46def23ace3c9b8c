"""Engine-computed invariants joined with catalog expectations.

Each record pairs what the group engine and the abelian calculus derive
from a presentation (center, derived subgroup, abelianization, class,
exponent, quadratic-functor image, wedge and tensor squares) with the
catalog row's expected values.  Until the Schur multiplier and the
exterior square are computed from the presentation, a record reads the
recorded multiplier, and it reads the recorded exterior square when
neither closed route applies (see `exterior_square`).  Recorded values
are judged in one place only: `validate` compares the two sides and
checks the order identities that tie the homological pieces together.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import families
from .abelian import (ab_from_presentation, canon, direct_sum, format_type,
                      gamma, order_exponent)
from .abelian import wedge_ab
from .pcgroup import (abelian_invariants_of, center, derived_subgroup,
                      exponent, nilpotency_class)


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


def nabla(P):
    """Image of the diagonal squaring map inside the tensor square.

    For odd-order groups this is the Whitehead quadratic functor of the
    abelianization, computed here symbolically from the presentation.
    """
    return gamma(ab_from_presentation(P), prime=P.prime)


def j2(nab, multiplier):
    """Quadratic-functor image extended by the multiplier.

    Topologically the third homotopy group of the suspension of the
    group's classifying space; algebraically the direct sum of the
    types nabla and multiplier.
    """
    return direct_sum(nab, canon(multiplier))


def exterior_square(ab, derived, multiplier, recorded=None):
    """The exterior square from the types of G^ab, G' and M(G).

    The route is the first that applies: an abelian group (G' = 1) gets
    the pair-gcd formula on G^ab; a group with trivial multiplier gets
    G', which the exterior square collapses onto; any other group gets
    the `recorded` TensorStructure.  Nothing is judged here: `validate`
    checks the recorded multiplier against the formula and the recorded
    square against the order identity and the exponent.  Raises
    ValueError only when the recorded value is needed and missing.
    """
    if derived == ():
        return TensorStructure(wedge_ab(ab))
    if canon(multiplier) == ():
        return TensorStructure(derived)
    if recorded is None:
        raise ValueError("a recorded exterior square is required when the "
                         "multiplier is non-trivial and the group is not "
                         "abelian")
    return recorded


def tensor_square(nab, wedge):
    """Tensor square assembled from the type nabla and the exterior
    square `wedge`: nabla splits off as a direct factor for odd-order
    groups."""
    return TensorStructure(direct_sum(nab, wedge.abelian_part),
                           wedge.e1_factor)


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
    expected: families.ExpectedRecord
    verdicts: list = field(default_factory=list)

    @property
    def capable(self):
        """Trivial exterior center, read from the catalog."""
        return self.expected.capable

    @property
    def ok(self):
        return bool(self.verdicts) and all(v.passed for v in self.verdicts)

    def to_json_dict(self):
        """JSON-ready dict, matching schema/invariant_record.schema.json."""
        e = self.expected
        return {
            "family": self.family,
            "p": self.p,
            "params": dict(self.params),
            "computed": {
                "center": list(self.center_type),
                "derived": list(self.derived_type),
                "ab": list(self.ab_type),
                "class": self.cl,
                "exponent": self.exponent,
                "nabla": list(self.nabla),
                "j2": list(self.j2),
                "wedge": self.wedge.to_json_dict(),
                "tensor": self.tensor.to_json_dict(),
                "capable": self.capable,
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
                for v in self.verdicts
            ],
        }


def compute_record(family, p, params=None, **extra):
    """Build the group, compute every invariant, and attach the catalog
    expectations (validation is a separate step).  Each invariant is
    computed once: G^ab and G' feed nabla, j2 and both squares."""
    expected = families.expected_record(family, p, params, **extra)
    P = families.build(family, p, params, **extra)
    ab = ab_from_presentation(P)
    nab = gamma(ab, prime=p)
    derived_type = abelian_invariants_of(derived_subgroup(P), P)
    wedge = exterior_square(ab, derived_type, expected.multiplier,
                            expected.wedge)
    return InvariantRecord(
        family=expected.row, p=p, params=dict(expected.params),
        center_type=abelian_invariants_of(center(P), P),
        derived_type=derived_type,
        ab_type=ab,
        cl=nilpotency_class(P),
        exponent=exponent(P),
        nabla=nab,
        j2=j2(nab, expected.multiplier),
        wedge=wedge,
        tensor=tensor_square(nab, wedge),
        expected=expected,
    )


# expected-record field each check reads, for erratum cross-referencing
_CHECK_FIELD = {
    "center": "center", "derived": "derived", "ab": "ab", "class": "cl",
    "nabla": "nabla", "j2": "j2", "wedge": "wedge", "tensor": "tensor",
    "wedge-order": "wedge", "tensor-order-nabla": "tensor",
    "tensor-order-j2": "tensor", "center-chain": "wedge_center",
    "abelian-tensor-center": "tensor_center",
    "exponent-p-entries": "tensor", "multiplier": "multiplier",
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
    This is the only code that judges recorded values.  Failed verdicts
    carry the slugs of any errata touching the same field of the same
    row.
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
    if record.derived_type == ():
        add("multiplier", e.multiplier == record.wedge.abelian_part,
            f"abelian group, recorded multiplier {e.multiplier}, "
            f"exterior square {record.wedge.abelian_part}")
    else:
        add("multiplier", True, "not abelian; vacuous")

    record.verdicts = results
    return results
