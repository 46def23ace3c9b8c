"""perfbench: the p5tensor benchmark.

    python3 perfbench/run.py --workload verify-p7 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Run from the root of a p5tensor checkout; the package is imported from
its ``src/`` directory.  Workloads (see README.md): ``verify-p7``,
``rows-p11`` and ``query-mix``.  Every pass runs in a fresh, isolated
interpreter (passes.py) with one thread; passes repeat, closed loop with
one client, until ``--seconds`` is used up.  The first pass's outputs
are checked; every later pass must reproduce them exactly.  Times are
scaled for the host's CPU-speed drift by probes run between the timed
parts of each pass (see passes._Meter); unscaled times are kept too.

With ``--trace 0`` the end-to-end metrics come from untraced passes; with
``--trace 1`` untraced and traced passes alternate and the per-layer
metrics come from the traced ones.  Every metric is printed by name and
unit, the run context and all numbers go to ``perfbench/results/``, and
the last stdout line is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import tracer

WORKLOADS = ("verify-p7", "rows-p11", "query-mix")
END_TO_END = {"setup_s": "s", "wall_s": "s", "row_ms_p50": "ms",
              "row_ms_p90": "ms", "ops_per_s": "1/s", "op_us_p50": "us",
              "op_us_p99": "us", "peak_rss_mb": "MB"}
# fresh-interpreter set-ups measured after each pass (the machine is in
# the same state as for the workload), topped up to at least MIN_SETUPS
SETUPS_PER_PASS = 2
MIN_SETUPS = 9
# a run has to exit within 180 s; passes are not started past this
RUN_LIMIT_S = 170
# no pass starts that would, by the last one's time, end past this many
# times --seconds
OVERRUN = 1.4

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


class PassFailed(RuntimeError):
    """A pass's interpreter crashed, timed out or printed no result."""


def _child(spec, limit):
    env = {"PATH": os.environ.get("PATH", "/usr/bin:/bin"),
           "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
           "MKL_NUM_THREADS": "1"}
    cmd = [sys.executable, "-I", os.path.join(HERE, "passes.py"),
           os.path.join(ROOT, "src"), json.dumps(spec)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=max(1.0, limit))
    except subprocess.TimeoutExpired as exc:
        raise PassFailed(f"{spec['workload']} pass exceeded {limit:.0f} s") \
            from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise PassFailed(f"{spec['workload']} pass exited "
                         f"{proc.returncode}:\n{proc.stderr[-4000:]}")
    if proc.stderr:
        sys.stderr.write(proc.stderr[-4000:])
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _git_commit():
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="ascii") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref), encoding="ascii") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="ascii") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _context(workload, seed, seconds, trace):
    try:
        numpy = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy = "missing"
    return {"workload": workload, "seed": seed, "seconds": seconds,
            "trace": trace, "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy,
            "machine": platform.machine(), "git_commit": _git_commit(),
            "loadavg": os.getloadavg(), "fresh_interpreter_per_pass": True}


def _percentile(values, q):
    """The q-th percentile, interpolated between the two nearest samples
    (with few samples, as in rows-p11, this steadies the tail)."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _per_item(passes, key):
    """Each item's median latency over the passes.  Every pass of a run
    times the same inputs in the same order, so item i is the same row or
    call in each; a pooled tail would instead be the slowest of more or
    fewer samples as the host's speed allows more or fewer passes."""
    lists = [r[key] for r in passes]
    return [statistics.median(xs[i] for xs in lists if i < len(xs))
            for i in range(max(map(len, lists)))]


def _end_to_end(setups, plain):
    ops = _per_item(plain, "op_latencies_s")
    rows = _per_item(plain, "row_latencies_s")
    return {
        "setup_s": statistics.median(r["setup_s"] for r in setups),
        "wall_s": statistics.median(r["wall_s"] for r in plain),
        "row_ms_p50": statistics.median(rows) * 1e3,
        "row_ms_p90": _percentile(rows, 90) * 1e3,
        "ops_per_s": statistics.median(len(r["op_latencies_s"]) / r["wall_s"]
                                       for r in plain),
        "op_us_p50": statistics.median(ops) * 1e6,
        "op_us_p99": _percentile(ops, 99) * 1e6,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
    }


def run_workload(workload, seed, seconds, trace):
    """All passes of one run; returns (result line dict, full record)."""
    began = time.perf_counter()

    def left():
        return RUN_LIMIT_S - (time.perf_counter() - began)

    def set_up(times):
        setups.extend(_child({"workload": "setup"}, left())
                      for _ in range(times))

    context = _context(workload, seed, seconds, trace)
    setups, plain, traced = [], [], []
    # the first pass's output check does not count against --seconds
    start, last, checking = time.perf_counter(), 0.0, 0.0
    while True:
        elapsed = time.perf_counter() - start - checking
        done = plain and (traced or not trace)
        if done and (elapsed + last / 4 >= seconds or last * 1.2 > left()
                     or elapsed + last > OVERRUN * seconds):
            break
        spec = {"workload": workload, "seed": seed,
                "trace": int(bool(trace and len(traced) < len(plain))),
                "check": int(not plain)}
        t0 = time.perf_counter()
        result = _child(spec, left())
        checking += result.get("check_s", 0.0)
        last = time.perf_counter() - t0 - result.get("check_s", 0.0)
        (traced if spec["trace"] else plain).append(result)
        setups.append(result)
        set_up(SETUPS_PER_PASS)
    set_up(MIN_SETUPS - len(setups))

    first = plain[0]
    passes = [(False, r) for r in plain] + [(True, r) for r in traced]
    attempted = failed = 0
    for _, r in passes:
        attempted += first["attempted"]
        failed += (first["failed"] if r["digest"] == first["digest"]
                   else first["attempted"])
    metrics = _end_to_end(setups, plain)
    record = {"context": context, "attempted": attempted, "failed": failed,
              "error_rate": failed / attempted, "end_to_end": metrics,
              "setups": [{k: r[k] for k in ("setup_s", "raw_setup_s")}
                         for r in setups],
              "passes": [{"traced": t} | {k: r[k] for k in (
                  "wall_s", "raw_wall_s", "scale", "probes_s",
                  "peak_rss_mb")} for t, r in passes]}
    if trace:
        metrics = tracer.layer_metrics(
            tracer.summarize((r["spans"], r["scale"]) for r in traced),
            len(traced), record["end_to_end"]["wall_s"],
            statistics.median(r["wall_s"] for r in traced))
        record["per_layer"] = metrics
        record["spans"] = [r["spans"] for r in traced]
    line = {"correct": failed == 0, "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": value, "unit": _unit(name)}
                        for name, value in metrics.items()}}
    return line, record


def _unit(name):
    return END_TO_END.get(name) or tracer.unit_of(name)


def _report(line, record):
    ctx = record["context"]
    print("context: " + json.dumps(ctx))
    for name, value in record["end_to_end"].items():
        print(f"{name:34s} {value:14.6g} {END_TO_END[name]:5s}")
    for name, value in record.get("per_layer", {}).items():
        print(f"{name:34s} {value:14.6g} {tracer.unit_of(name):5s}")
    print(f"{'error_rate':34s} {record['error_rate']:14.6g} ratio "
          f"({record['failed']} of {record['attempted']} failed)")
    print(f"passes: {sum(not p['traced'] for p in record['passes'])} "
          f"untraced, {sum(p['traced'] for p in record['passes'])} traced; "
          f"setup samples: {len(record['setups'])}")
    raw_wall = statistics.median(p["raw_wall_s"] for p in record["passes"]
                                 if not p["traced"])
    raw_setup = statistics.median(r["raw_setup_s"] for r in record["setups"])
    print(f"unscaled: wall_s {raw_wall:.6g} s, setup_s {raw_setup:.6g} s")
    out_dir = os.path.join(HERE, "results")
    os.makedirs(out_dir, exist_ok=True)
    name = f"{ctx['workload']}-seed{ctx['seed']}-trace{ctx['trace']}.json"
    with open(os.path.join(out_dir, name), "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    print(json.dumps(line))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "p5tensor",
                                       "__init__.py")):
        print(f"error: no p5tensor sources under {ROOT}/src",
              file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        for workload in names:
            line, record = run_workload(workload, args.seed, args.seconds,
                                        args.trace)
            _report(line, record)
            total["correct"] &= line["correct"]
            total["attempted"] += line["attempted"]
            total["failed"] += line["failed"]
            total["metrics"].update(
                {f"{workload}/{k}": v for k, v in line["metrics"].items()})
    except PassFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(names) > 1:
        print(json.dumps(total))
    return 0


if __name__ == "__main__":
    sys.exit(main())
