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

A column of the paper's tables has one name on both sides: `column`
reads it from an InvariantRecord or an ExpectedRecord, and `json_value`
is the one conversion of a column value to JSON.
"""

from __future__ import annotations

from . import families
from .abelian import (TensorStructure, _Record, _Value, ab_from_presentation,
                      canon, direct_sum, gamma, order_exponent, wedge_ab)
from .pcgroup import (abelian_invariants_of, center, derived_subgroup,
                      exponent, nilpotency_class)


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


def _attribute(name):
    """The record field behind a column name: "class" is `cl`, and a
    space stands for an underscore ("wedge center" is `wedge_center`)."""
    return "cl" if name == "class" else name.replace(" ", "_")


def column(record, name, *default):
    """A column of an InvariantRecord or an ExpectedRecord, by name; as
    with getattr, a `default` answers for a column the record lacks."""
    return getattr(record, _attribute(name), *default)


def json_value(value):
    """A column value as JSON: types become lists, squares objects."""
    if isinstance(value, tuple):
        return list(value)
    if isinstance(value, TensorStructure):
        return value.to_json_dict()
    if isinstance(value, dict):
        return dict(value)
    return value


# the keys of `to_json_dict`, in the order the published schema lists them
_COMPUTED_KEYS = ("center", "derived", "ab", "class", "exponent", "nabla",
                  "j2", "wedge", "tensor", "capable")
_EXPECTED_KEYS = ("multiplier", "center", "derived", "ab", "class", "nabla",
                  "j2", "wedge", "tensor", "wedge_center", "tensor_center",
                  "sources")
# the columns that the engine computes and the catalog records
_STRUCTURAL = ("center", "derived", "ab", "class", "nabla", "j2", "wedge",
               "tensor")


class Verdict(_Value):
    """A value record for one check of `validate`: its name, outcome and
    detail, and on failure the slugs of the errata on the same field."""

    __slots__ = _fields = ("check", "passed", "detail", "errata")

    def __init__(self, check, passed, detail, errata=()):
        object.__setattr__(self, "check", check)
        object.__setattr__(self, "passed", passed)
        object.__setattr__(self, "detail", detail)
        object.__setattr__(self, "errata", errata)

    def __bool__(self):
        return self.passed

    def to_json_dict(self):
        return {"check": self.check, "passed": self.passed,
                "detail": self.detail, "errata": list(self.errata)}


class InvariantRecord(_Record):
    """Computed and expected invariants for one family at one prime; a
    mutable record.  A field shared with `expected` has the same name
    there."""

    _fields = ("family", "p", "params", "center", "derived", "ab", "cl",
               "exponent", "nabla", "j2", "wedge", "tensor", "expected",
               "verdicts")

    def __init__(self, family, p, params, center, derived, ab, cl, exponent,
                 nabla, j2, wedge, tensor, expected, verdicts=None):
        self.family = family
        self.p = p
        self.params = params
        self.center = center
        self.derived = derived
        self.ab = ab
        self.cl = cl
        self.exponent = exponent
        self.nabla = nabla
        self.j2 = j2
        self.wedge = wedge
        self.tensor = tensor
        self.expected = expected
        self.verdicts = [] if verdicts is None else verdicts

    @property
    def capable(self):
        """Trivial exterior center, read from the catalog."""
        return self.expected.capable

    @property
    def ok(self):
        return bool(self.verdicts) and all(v.passed for v in self.verdicts)

    def to_json_dict(self):
        """JSON-ready dict, matching schema/invariant_record.schema.json."""
        return {
            "family": self.family,
            "p": self.p,
            "params": dict(self.params),
            "computed": {k: json_value(column(self, k))
                         for k in _COMPUTED_KEYS},
            "expected": {k: json_value(column(self.expected, k))
                         for k in _EXPECTED_KEYS},
            "verdicts": [v.to_json_dict() for v in self.verdicts],
        }


def compute_record(family, p, params=None):
    """Build the group, compute every invariant, and attach the catalog
    expectations (validation is a separate step).  Each invariant is
    computed once: G^ab and G' feed nabla, j2 and both squares."""
    expected = families.expected_record(family, p, params)
    p = expected.p
    P = families.build(family, p, params)
    ab = ab_from_presentation(P)
    nab = gamma(ab, prime=p)
    derived = abelian_invariants_of(derived_subgroup(P), P)
    wedge = exterior_square(ab, derived, expected.multiplier, expected.wedge)
    return InvariantRecord(
        family=expected.row, p=p, params=dict(expected.params),
        center=abelian_invariants_of(center(P), P),
        derived=derived,
        ab=ab,
        cl=nilpotency_class(P),
        exponent=exponent(P),
        nabla=nab,
        j2=j2(nab, expected.multiplier),
        wedge=wedge,
        tensor=tensor_square(nab, wedge),
        expected=expected,
    )


def _errata_slugs(row_id, field):
    return tuple(entry.slug for entry in families.errata_for(row_id)
                 if entry.field == field)


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

    def add(check, field, passed, detail):
        slugs = _errata_slugs(record.family, field) if not passed else ()
        results.append(Verdict(check=check, passed=bool(passed),
                               detail=detail, errata=slugs))

    for name in _STRUCTURAL:
        got, want = column(record, name), column(e, name)
        add(name, _attribute(name), got == want,
            f"computed {got}, expected {want}")

    wo = record.wedge.order_exponent
    mo = sum(e.multiplier) + sum(record.derived)
    add("wedge-order", "wedge", wo == mo,
        f"|wedge| = p^{wo}, |multiplier||derived| = p^{mo}")
    to = record.tensor.order_exponent
    no = order_exponent(record.nabla) + wo
    add("tensor-order-nabla", "tensor", to == no,
        f"|tensor| = p^{to}, |nabla||wedge| = p^{no}")
    jo = order_exponent(record.j2) + sum(record.derived)
    add("tensor-order-j2", "tensor", to == jo,
        f"|tensor| = p^{to}, |j2||derived| = p^{jo}")

    zt, zw = sum(e.tensor_center), sum(e.wedge_center)
    zc = sum(record.center)
    add("center-chain", "wedge_center", zt <= zw <= zc,
        f"|tensor center| = p^{zt}, |exterior center| = p^{zw}, "
        f"|center| = p^{zc}")
    if record.derived == ():
        add("abelian-tensor-center", "tensor_center", e.tensor_center == (),
            f"abelian group, tensor center expected trivial, "
            f"recorded {e.tensor_center}")
    else:
        add("abelian-tensor-center", "tensor_center", True,
            "not abelian; vacuous")
    if record.exponent == p:
        flat = all(x == 1 for x in record.tensor.abelian_part)
        add("exponent-p-entries", "tensor", flat,
            f"group exponent {p}, tensor {record.tensor}")
    else:
        add("exponent-p-entries", "tensor", True,
            f"group exponent {record.exponent}; vacuous")
    if record.derived == ():
        add("multiplier", "multiplier",
            e.multiplier == record.wedge.abelian_part,
            f"abelian group, recorded multiplier {e.multiplier}, "
            f"exterior square {record.wedge.abelian_part}")
    else:
        add("multiplier", "multiplier", True, "not abelian; vacuous")

    record.verdicts = results
    return results
