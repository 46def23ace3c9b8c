"""Command-line surface, driven in process through main()."""

import copy
import json

import pytest

from p5tensor import families
from p5tensor.cli import main


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_structure_table_text(capsys):
    rc, out, _ = run(capsys, "table", "--prime", "5")
    assert rc == 0
    assert "structure table at p = 5 (symbolic)" in out
    assert out.count("\n") >= 73
    assert "Z_{p^2}" in out


def test_structure_table_numeric(capsys):
    rc, out, _ = run(capsys, "table", "--prime", "5", "--numeric")
    assert rc == 0
    assert "Z_25" in out and "Z_{p^2}" not in out


def test_table_csv(capsys):
    rc, out, _ = run(capsys, "table", "--prime", "7", "--format", "csv")
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "row,class,multiplier,center,derived,ab,nabla,j2"
    assert len(lines) == 73


def test_tensor_table_json(capsys):
    rc, out, _ = run(capsys, "table", "--prime", "5", "--which", "tensor",
                     "--format", "json")
    assert rc == 0
    doc = json.loads(out)
    assert doc["prime"] == 5 and doc["which"] == "tensor"
    rows = {r["row"]: r for r in doc["rows"]}
    assert len(rows) == 72
    assert rows["28"]["wedge"]["e1_factor"] is True
    assert rows["13"]["wedge"]["abelian_part"] == [2]
    assert rows["34"]["capable"] is True


def test_tensor_table_marks_extraspecial_factor(capsys):
    rc, out, _ = run(capsys, "table", "--prime", "5", "--which", "tensor")
    assert rc == 0
    assert "E1 x Z_p" in out


def test_bad_prime_is_a_usage_error(capsys):
    rc, _, err = run(capsys, "table", "--prime", "4")
    assert rc == 2
    assert "prime" in err


def test_group_presentation_display(capsys):
    rc, out, _ = run(capsys, "group", "--family", "9", "--prime", "5",
                     "--show", "presentation")
    assert rc == 0
    assert "[g3,g1] = g4 g5^2" in out


def test_group_elements_smoke(capsys):
    rc, out, _ = run(capsys, "group", "--family", "40", "--prime", "5",
                     "--show", "elements")
    assert rc == 0
    assert "3125" in out


def test_group_invariants_json(capsys):
    rc, out, _ = run(capsys, "group", "--family", "13", "--prime", "5",
                     "--format", "json")
    assert rc == 0
    doc = json.loads(out)
    assert doc["family"] == "13"
    assert doc["computed"]["ab"] == [3, 2]
    assert all(v["passed"] for v in doc["verdicts"])


def test_group_parameter_does_not_move_the_types(capsys):
    docs = []
    for a in ("1", "2"):
        rc, out, _ = run(capsys, "group", "--family", "29", "--prime", "7",
                         "--param", f"a={a}", "--format", "json")
        assert rc == 0
        docs.append(json.loads(out)["computed"])
    assert docs[0] == docs[1]


def test_group_rejects_malformed_param(capsys):
    rc, _, err = run(capsys, "group", "--family", "29", "--prime", "5",
                     "--param", "oops")
    assert rc == 2
    assert "param" in err.lower()


def test_unknown_family_is_a_usage_error(capsys):
    rc, _, err = run(capsys, "group", "--family", "99", "--prime", "5")
    assert rc == 2
    assert "99" in err


def test_errata_listing(capsys):
    rc, out, _ = run(capsys, "errata")
    assert rc == 0
    assert "center-type-68" in out
    assert "param-49" in out


def test_verify_single_family(capsys):
    rc, out, _ = run(capsys, "verify", "--prime", "5", "--family", "13")
    assert rc == 0
    assert "15 checks pass" in out
    assert "PASS" in out


def test_verify_seed_flag_and_env(capsys, monkeypatch):
    monkeypatch.setenv("P5TENSOR_SEED", "999")
    rc, out, _ = run(capsys, "verify", "--prime", "5", "--family", "2",
                     "--seed", "5")
    assert rc == 0


def test_verify_rejects_malformed_env_seed(capsys, monkeypatch):
    monkeypatch.setenv("P5TENSOR_SEED", "12x")
    rc, out, err = run(capsys, "verify", "--prime", "5", "--family", "13")
    assert rc == 2
    assert out == ""
    assert err.startswith("error: P5TENSOR_SEED") and "'12x'" in err
    # an explicit --seed never reads the variable
    rc, out, _ = run(capsys, "verify", "--prime", "5", "--family", "13",
                     "--seed", "7")
    assert rc == 0 and "(seed 7)" in out


def test_verify_flags_a_corrupted_table(capsys, monkeypatch):
    doc = copy.deepcopy(families._data())
    doc["rows"]["5"]["center"] = [3]
    monkeypatch.setattr(families, "_data", lambda: doc)
    rc, out, _ = run(capsys, "verify", "--prime", "5", "--family", "5")
    assert rc == 1
    assert "row 5" in out and "FAIL" in out


def test_no_arguments_shows_usage():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_groups_above_the_table_limit_are_refused(capsys):
    # p^5 = 1419857 elements at p = 17 exceed the table limit
    rc, out, err = run(capsys, "verify", "--prime", "17", "--family", "1")
    assert rc == 2
    assert err.startswith("error: p = 17") and "table limit" in err
    rc, out, err = run(capsys, "group", "--family", "1", "--prime", "17",
                       "--show", "elements")
    assert rc == 2
    assert err.startswith("error: p = 17") and "table limit" in err


def test_catalog_views_need_no_tables(capsys):
    rc, out, _ = run(capsys, "table", "--prime", "17")
    assert rc == 0 and "structure table at p = 17" in out
    rc, out, _ = run(capsys, "group", "--family", "9", "--prime", "17",
                     "--show", "presentation")
    assert rc == 0 and "[g3,g1]" in out
