"""The package's records, and what `import p5tensor` loads."""

import copy
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from p5tensor import (
    ErratumEntry,
    ExpectedRecord,
    IndexConflict,
    InvariantRecord,
    TensorStructure,
    Verdict,
    compute_record,
    validate,
)
from p5tensor.oracles import OracleReport

# modules that only import-time machinery needs: the package must not
# load them for its own import and the catalog
HEAVY_MODULES = ("dataclasses", "inspect", "importlib.resources", "typing")


def test_import_loads_no_record_or_resource_machinery():
    # a clean interpreter: no site, so nothing else loads these first
    src = str(Path(__file__).resolve().parents[1] / "src")
    script = (f"import sys\n"
              f"sys.path.insert(0, {src!r})\n"
              f"import p5tensor\n"
              f"p5tensor.families.list_families()\n"
              f"print(p5tensor.__file__)\n"
              f"print(*[m for m in {HEAVY_MODULES!r} if m in sys.modules])\n")
    child = subprocess.run([sys.executable, "-I", "-S", "-c", script],
                           capture_output=True, text=True, timeout=60)
    assert child.returncode == 0, child.stderr
    where, loaded = child.stdout.split("\n")[:2]
    assert where.startswith(src)
    assert loaded.split() == []


# each frozen record: its fields in order, and one value per field
FROZEN = [
    (TensorStructure, ("abelian_part", "e1_factor"), ((2, 1), True)),
    (ErratumEntry, ("slug", "rows", "sources", "description", "resolution",
                    "field"),
     ("center-type-68", ("68",), ("structure table",), "wrong type",
      "use the computed type", "center")),
    (IndexConflict, ("index", "kind", "row", "listed", "resolved",
                     "erratum"),
     ("multiplier", "duplicate", "12", ((1,), (1, 1)), (1,),
      "multiplier-index-duplicate-12")),
    (Verdict, ("check", "passed", "detail", "errata"),
     ("center", False, "computed (1,), expected (2,)", ("center-type-68",))),
    (OracleReport, ("ok", "checked", "failures"), (False, 3, ("trial 0",))),
]


@pytest.mark.parametrize("cls, names, values", FROZEN,
                         ids=[c.__name__ for c, _, _ in FROZEN])
def test_frozen_record_is_a_value(cls, names, values):
    a = cls(*values)
    b = cls(**dict(zip(names, values)))
    assert a is not b
    assert a == b and hash(a) == hash(b)
    assert tuple(getattr(a, name) for name in names) == values
    assert not hasattr(a, "__dict__")
    for name in names:
        with pytest.raises(AttributeError):
            setattr(a, name, values[0])
        with pytest.raises(AttributeError):
            delattr(a, name)
    assert tuple(getattr(a, name) for name in names) == values
    other = cls(*values[:-1], "different")
    assert a != other and a != values
    assert copy.copy(a) == a and pickle.loads(pickle.dumps(a)) == a
    shown = ", ".join(f"{n}={v!r}" for n, v in zip(names, values))
    assert repr(a) == f"{cls.__name__}({shown})"


def test_record_defaults_and_canonical_form():
    assert TensorStructure((1, 2, 2)).abelian_part == (2, 2, 1)
    assert TensorStructure((1,)).e1_factor is False
    assert Verdict("ab", True, "ok").errata == ()
    assert repr(Verdict("center", False, "computed (1,), expected (2,)",
                        ("center-type-68",))) == (
        "Verdict(check='center', passed=False, "
        "detail='computed (1,), expected (2,)', errata=('center-type-68',))")


def test_mutable_records_default_to_new_containers():
    one, two = ExpectedRecord(*range(14)), ExpectedRecord(*range(14))
    assert one.sources == {} and one.sources is not two.sources
    one, two = InvariantRecord(*range(13)), InvariantRecord(*range(13))
    assert one.verdicts == [] and one.verdicts is not two.verdicts
    assert one == two
    with pytest.raises(TypeError):
        hash(one)
    one.p = 7
    assert one != two


def test_verdict_json_keys_keep_their_order():
    rec = compute_record("28", 5)
    validate(rec)
    verdicts = rec.to_json_dict()["verdicts"]
    assert len(verdicts) == len(rec.verdicts) == 15
    assert all(list(v) == ["check", "passed", "detail", "errata"]
               for v in verdicts)
    assert verdicts[0]["check"] == "center"
    assert verdicts[0]["errata"] == []
