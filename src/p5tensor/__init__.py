"""Groups of order dividing p^5 (p > 3): presentations, invariants,
and nonabelian tensor constructions, with a built-in catalog of all
seventy isomorphism families and their expected invariant tables.
"""

from .abelian import (
    AbelianType,
    EvenOrderUnsupported,
    TensorStructure,
    canon,
    cokernel_type,
    direct_sum,
    format_type,
    gamma,
    order_exponent,
    tensor_ab,
    wedge_ab,
)
from .pcgroup import (
    Element,
    IDENTITY,
    InconsistentPresentation,
    NotAbelian,
    PcPresentation,
    Subgroup,
    ab_from_presentation,
    abelian_invariants_of,
    abelianization,
    center,
    commutator,
    conjugate,
    derived_subgroup,
    exponent,
    generator,
    inverse,
    lower_central_series,
    multiply,
    nilpotency_class,
    normal_closure,
    normalize,
    order_of,
    power,
    subgroup_closure,
)
from .families import (
    BadParam,
    ErratumEntry,
    ExpectedRecord,
    IndexConflict,
    build,
    epicenter_index_raw,
    errata,
    errata_for,
    expected_record,
    list_families,
    multiplier_index_raw,
    primitive_root,
    raw_index_conflicts,
    row_id,
)
from .invariants import (
    InvariantRecord,
    Verdict,
    compute_record,
    exterior_square,
    j2,
    nabla,
    tensor_square,
    validate,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
