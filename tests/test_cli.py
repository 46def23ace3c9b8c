"""Command-line surface, driven in process through main()."""

import copy
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from p5tensor import families
from p5tensor.cli import main
from p5tensor.pcgroup import commutator, generator, multiply, normalize


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


def test_group_resolves_the_row_once(capsys, monkeypatch):
    # the header reads the row and parameters off the computed record
    calls = []
    recorded = families.expected_record

    def counted(*args, **kwargs):
        calls.append(args)
        return recorded(*args, **kwargs)

    monkeypatch.setattr(families, "expected_record", counted)
    rc, out, _ = run(capsys, "group", "--family", "14", "--prime", "7")
    assert rc == 0
    assert out.startswith("family 14 at p = 7\n")
    assert len(calls) == 1


def test_group_rejects_malformed_param(capsys):
    rc, _, err = run(capsys, "group", "--family", "29", "--prime", "5",
                     "--param", "oops")
    assert rc == 2
    assert "param" in err.lower()


def test_unknown_family_is_a_usage_error(capsys):
    rc, _, err = run(capsys, "group", "--family", "99", "--prime", "5")
    assert rc == 2
    assert "99" in err


@pytest.mark.parametrize("show", ("presentation", "elements"))
def test_group_json_is_only_for_invariants(capsys, show):
    # json output must parse on its own, so plain-text views refuse it
    rc, out, err = run(capsys, "group", "--family", "9", "--prime", "5",
                       "--show", show, "--format", "json")
    assert rc == 2
    assert out == ""
    assert err.startswith("error: ") and f"--show {show}" in err


def test_verify_unknown_family_prints_nothing_first(capsys):
    rc, out, err = run(capsys, "verify", "--prime", "5", "--family", "99")
    assert rc == 2
    assert out == ""
    assert err == "error: unknown family '99'\n"


@pytest.mark.parametrize("family", ("1 1", "4 8.2"))
def test_verify_refuses_an_id_with_an_inner_space(capsys, family):
    # the space is not dropped: "1 1" is not row 11
    rc, out, err = run(capsys, "verify", "--prime", "7", "--family", family)
    assert rc == 2
    assert out == ""
    assert err == f"error: unknown family {family!r}\n"


@pytest.mark.parametrize("prime", ("4", "2", "-7"))
def test_verify_bad_prime_prints_nothing_first(capsys, prime):
    rc, out, err = run(capsys, "verify", "--prime", prime)
    assert rc == 2
    assert out == ""
    assert err == f"error: p must be a prime greater than 3, got {prime}\n"


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


def test_verify_flags_a_corrupted_table(capsys, monkeypatch):
    doc = copy.deepcopy(families._data())
    doc["rows"]["5"]["center"] = [3]
    monkeypatch.setattr(families, "_data", lambda: doc)
    rc, out, _ = run(capsys, "verify", "--prime", "5", "--family", "5")
    assert rc == 1
    assert "row 5" in out and "FAIL" in out
    # the row fails, but every index conflict is still documented
    summary = [x for x in out.splitlines() if re.match(r"  \d+ conflicts", x)]
    assert len(summary) == 1 and "all documented: " in summary[0]
    assert "multiplier-index-duplicate-12" in summary[0]


def test_group_refuses_a_corrupted_template(capsys, monkeypatch):
    # g3^p = g4 beside [g2,g1] = g3 breaks the overlap g2^p g1
    doc = copy.deepcopy(families._data())
    doc["families"]["2"]["powers"]["3"] = {"4": "1"}
    monkeypatch.setattr(families, "_data", lambda: doc)
    families._build_cached.cache_clear()
    try:
        rc, out, err = run(capsys, "group", "--family", "2", "--prime", "5")
    finally:
        families._build_cached.cache_clear()
    assert rc == 1
    assert out == ""
    assert err == ("error: inconsistent presentation: overlap "
                   "g2^p g1 != g2^(p-1)(g2 g1): "
                   "(1, 0, 0, 0, 1) vs (1, 0, 0, 1, 1)\n")


def test_no_arguments_shows_usage():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_verify_reports_a_row_that_breaks_an_identity(capsys, monkeypatch):
    # a recorded wedge of order p^5 breaks |wedge| = |multiplier||derived|
    doc = copy.deepcopy(families._data())
    doc["rows"]["3"]["wedge"] = [1, 1, 1, 1, 1]
    monkeypatch.setattr(families, "_data", lambda: doc)
    rc, out, _ = run(capsys, "verify", "--prime", "5")
    assert rc == 1
    lines = out.splitlines()
    row3 = [x for x in lines if x.startswith("  row 3:")]
    assert any(x.startswith("  row 3: FAIL wedge-order: ") for x in row3)
    at = lines.index(row3[-1])
    assert sum("checks pass" in x for x in lines[at + 1:]) > 0
    assert sum("checks pass" in x for x in lines) == 71
    assert lines[-1] == "FAIL"


def test_group_reports_a_row_that_breaks_an_identity(capsys, monkeypatch):
    # the same lie through `group`: FAIL lines and exit 1, no traceback
    monkeypatch.setitem(families._data()["rows"]["3"], "wedge",
                        [1, 1, 1, 1, 1])
    rc, out, err = run(capsys, "group", "--family", "3", "--prime", "5")
    assert rc == 1
    assert err == ""
    failed = [x.split(":")[0] for x in out.splitlines()
              if x.startswith("  FAIL ")]
    assert failed == ["  FAIL tensor", "  FAIL wedge-order",
                      "  FAIL tensor-order-j2"]


@pytest.mark.parametrize("p", (11, 13, 59, 101, 1009))
def test_verify_at_more_primes(capsys, p):
    rc, out, _ = run(capsys, "verify", "--prime", str(p))
    assert rc == 0
    assert out.count(" checks pass\n") == 72
    assert out.splitlines()[-1] == "PASS"


def test_verify_runs_without_the_oracles_or_numpy(capsys):
    # an isolated child: no user site, no PYTHONPATH, so only `src` adds
    # modules of its own
    src = str(Path(__file__).resolve().parents[1] / "src")
    script = ("import json, sys\n"
              f"sys.path.insert(0, {src!r})\n"
              "from p5tensor.cli import main\n"
              "rc = main(['verify', '--prime', '5'])\n"
              "print(json.dumps(sorted(m for m in sys.modules\n"
              "    if m.partition('.')[0] == 'numpy'\n"
              "    or m == 'p5tensor.oracles')), file=sys.stderr)\n"
              "sys.exit(rc)\n")
    child = subprocess.run([sys.executable, "-I", "-c", script],
                           capture_output=True, text=True, timeout=300)
    assert child.returncode == 0, child.stderr
    lines = child.stdout.splitlines()
    assert lines[0] == "verifying catalog at p = 5"
    assert lines[-1] == "PASS"
    assert json.loads(child.stderr.splitlines()[-1]) == []
    # --seed still parses, and changes nothing
    argv = ("verify", "--prime", "5", "--family", "13")
    rc, with_seed, _ = run(capsys, *argv, "--seed", "7")
    assert rc == 0
    assert run(capsys, *argv) == (0, with_seed, "")


def test_verify_memory_stays_flat_in_p():
    # a child process reports its own peak RSS, which the children of
    # other tests cannot inflate.  It reads VmHWM (in KB, Linux), the peak
    # of its own address space: ru_maxrss would also count the test
    # process's RSS at the time it was spawned
    script = ("import re, sys\n"
              "from p5tensor.cli import main\n"
              "rc = main(['verify', '--prime', '100003'])\n"
              "status = open('/proc/self/status').read()\n"
              "peak = re.search(r'VmHWM:\\s*(\\d+) kB', status)[1]\n"
              "print(rc, peak, file=sys.stderr)\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    child = subprocess.run([sys.executable, "-c", script], env=env,
                           capture_output=True, text=True, timeout=300)
    rc, peak_kb = map(int, child.stderr.split())
    assert child.returncode == 0 and rc == 0
    assert child.stdout.splitlines()[-1] == "PASS"
    assert peak_kb < 40 * 1024, f"peak RSS {peak_kb} KB"


def test_groups_above_p13_run_on_the_collector(capsys):
    # p = 17: verify, the element listing and the element operations build
    # nothing with p^5 = 1419857 entries
    rc, out, err = run(capsys, "verify", "--prime", "17", "--family", "1")
    assert rc == 0
    assert out.splitlines()[-1] == "PASS"
    rc, out, err = run(capsys, "group", "--family", "1", "--prime", "17",
                       "--show", "elements")
    assert rc == 0
    assert out.splitlines() == [
        "family 1 at p = 17",
        "consistency: ok",
        "order: 1419857 = 17^5",
        "  (0, 0, 0, 0, 0) = 1",
        "  (0, 0, 0, 0, 1) = g5",
    ] + [f"  (0, 0, 0, 0, {e}) = g5^{e}" for e in range(2, 8)] + [
        "  ... 1419849 more",
    ]
    g1, g2 = generator(1), generator(2)
    for row, tail in (("1", (0, 0, 0, 0, 0)), ("9", (0, 0, 1, 0, 0))):
        P = families.build(row, 17)
        assert multiply(g1, g2, P) == normalize([(1, 1), (2, 1)], P) \
            == (1, 1, 0, 0, 0)
        assert multiply(g2, g1, P) == normalize([(2, 1), (1, 1)], P) \
            == (1, 1) + tail[2:]
        assert commutator(g2, g1, P) == P.comm_tail(2, 1) == tail


def test_catalog_views_need_no_tables(capsys):
    rc, out, _ = run(capsys, "table", "--prime", "17")
    assert rc == 0 and "structure table at p = 17" in out
    rc, out, _ = run(capsys, "group", "--family", "9", "--prime", "17",
                     "--show", "presentation")
    assert rc == 0 and "[g3,g1]" in out
