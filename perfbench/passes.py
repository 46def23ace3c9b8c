"""One pass of a perfbench workload, run in a fresh interpreter.

    python3 -I perfbench/passes.py SRC_DIR SPEC_JSON

SPEC_JSON holds ``workload``, ``seed``, ``trace`` (0/1) and ``check``
(0/1), and for the self-test optionally ``prime`` and ``scale``.  The
child makes the workload's inputs from the seed, times one pass over
them, checks the outputs outside the timed region (when ``check`` is
set) and prints one JSON object on stdout.  ``workload: "setup"`` only
times the import.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import os
import random
import re
import resource
import statistics
import sys
import time
import traceback

# the paper's deliverable: every one of the 72 catalog rows
ROWS = 72
# one query-mix burst: these calls on one group, in seeded order; "closure"
# is a subgroup_closure or a normal_closure (see _call)
BURST_OPS = (("multiply",) * 4 + ("commutator",) * 3
             + ("inverse", "power", "order_of") + ("normalize",) * 5
             + ("closure",))
BURSTS_PER_PHASE = 8
ROW_PROBES = 8
# a row takes seconds and the host's speed changes within seconds, so a
# rows-p11 row is scaled by the probes right before and after it alone;
# its big-table work slows down less than the probe (as its 0.6th power)
ROWS_METER = {"window": (1, 0), "power": 0.6}
# reported times are seconds on a CPU on which _probe_work takes this long
PROBE_REFERENCE_S = 0.005
SETUP_PROBES = 5

_ROW_LINE = re.compile(r"^\s*row (\S+): \d+ checks pass$")


class _Layers:
    """The modules a workload calls: the real ones, or tracer proxies."""

    def __init__(self, tracer=None):
        from p5tensor import cli, invariants, pcgroup

        self.invariants = tracer.proxy(invariants) if tracer else invariants
        self.pcgroup = tracer.proxy(pcgroup) if tracer else pcgroup
        self.cli_main = (tracer.wrap(cli.main, "cli.verify") if tracer
                         else cli.main)


def _probe_work():
    """A fixed piece of pure-Python work: how long it takes tells how fast
    the CPU runs right now."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        counts = {}
        for i in range(30_000):
            counts[i & 1023] = counts.get(i & 1023, 0) + i
    finally:
        if collecting:
            gc.enable()


class _Meter:
    """Times a pass in segments and scales them for the host's speed.

    A segment is a verify row, a rows-p11 row or a query-mix phase.  After
    each one the meter runs _probe_work, outside every timed interval.
    The host's CPU speed drifts (the same pass took 12.4 s in one ten-run
    set and 17.4 s in another), and the probes track that drift: each
    segment's times are multiplied by PROBE_REFERENCE_S over the median
    probe of the segments around it, which makes them seconds on a
    reference CPU.  The probe is benchmark code, so no change to p5tensor
    moves it.

    `window` is how many segments before and after a segment have their
    probes taken in.  A segment's own probes follow it, so (1, 0) means
    the probes right before and right after it.  `power` is how the
    workload's time moves with the probe's: the scale is raised to it.
    """

    def __init__(self, tracer=None, window=(2, 2), power=1.0):
        self._work = (tracer.wrap(_probe_work, "perfbench.probe") if tracer
                      else _probe_work)
        self._window = window
        self._power = power
        self.segments = []   # (seconds, [probe seconds])
        self.items = []      # (segment index, is a row, seconds)

    def op(self, seconds):
        self.items.append((len(self.segments), False, seconds))

    def row(self, seconds):
        self.items.append((len(self.segments), True, seconds))

    def close(self, seconds, probes=1):
        """End a segment that took `seconds` and probe `probes` times;
        returns the time the probes took."""
        spent = []
        for _ in range(probes):
            start = time.perf_counter()
            self._work()
            spent.append(time.perf_counter() - start)
        self.segments.append((seconds, spent))
        return sum(spent)

    def result(self):
        before, after = self._window
        scale = [(PROBE_REFERENCE_S / statistics.median(
                     p for _, spent in
                     self.segments[max(0, i - before):i + after + 1]
                     for p in spent)) ** self._power
                 for i in range(len(self.segments))]
        wall = sum(s * k for (s, _), k in zip(self.segments, scale))
        raw = sum(s for s, _ in self.segments)
        return {"wall_s": wall, "raw_wall_s": raw, "scale": wall / raw,
                "probes_s": [p for _, spent in self.segments for p in spent],
                "op_latencies_s": [s * scale[i] for i, row, s in self.items
                                   if not row],
                "row_latencies_s": [s * scale[i] for i, row, s in self.items
                                    if row]}


class _RowClock(io.TextIOBase):
    """A stdout stand-in that keeps the text and ends a meter segment at
    every ``row ...`` line."""

    def __init__(self, meter):
        self.lines = []
        self._partial = ""
        self._meter = meter
        self._mark = time.perf_counter()

    def writable(self):
        return True

    def write(self, text):
        parts = (self._partial + text).split("\n")
        self._partial = parts.pop()
        for line in parts:
            self.lines.append(line)
            if line.lstrip().startswith("row "):
                self.end_segment(row=True)
        return len(text)

    def end_segment(self, row):
        now = time.perf_counter()
        elapsed = now - self._mark
        if row:
            self._meter.op(elapsed)
            self._meter.row(elapsed)
        # the next segment starts where the probe's own time ends, so the
        # segments and probes add up to the whole pass
        self._mark = now + self._meter.close(elapsed)


# -- verify-p7 ----------------------------------------------------------------

def _verify_inputs(spec):
    return ["verify", "--prime", str(spec.get("prime", 7)),
            "--seed", str(spec["seed"])]


def _verify_run(argv, layers, meter):
    out = _RowClock(meter)
    try:
        with contextlib.redirect_stdout(out):
            rc = layers.cli_main(argv)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        rc = None
    out.end_segment(row=False)
    return {"rc": rc, "text": out.lines}


def _verify_check(argv, outcome):
    text = outcome["text"]
    passed_rows = {m.group(1) for m in map(_ROW_LINE.match, text) if m}
    verdict_ok = outcome["rc"] == 0 and bool(text) and text[-1] == "PASS"
    failed = max(0, ROWS - len(passed_rows)) + (0 if verdict_ok else 1)
    return ROWS + 1, failed


# -- rows-p11 -----------------------------------------------------------------

def _rows_inputs(spec):
    """The middle row, in catalog order, of every center-order stratum of
    the catalog; the seed decides the order in which they run.  Rows at
    p = 11 differ in cost by a factor of ten and a pass holds only one of
    the slowest, so a seeded draw of rows made the tail latencies tell
    which rows were drawn, not how fast the code is."""
    from p5tensor import families

    p = spec.get("prime", 11)
    rng = random.Random(spec["seed"])
    strata = {}
    for row in families.list_families():
        key = sum(families.expected_record(row, p).center)
        strata.setdefault(key, []).append(row)
    chosen = [rows[len(rows) // 2] for rows in strata.values()]
    rng.shuffle(chosen)
    return p, chosen


def _rows_run(inputs, layers, meter):
    p, chosen = inputs
    inv = layers.invariants
    oks = []
    # probes before the first row, so that it too is scaled by probes on
    # both sides
    meter.close(0.0, probes=ROW_PROBES)
    for row in chosen:
        start = time.perf_counter()
        try:
            rec = inv.compute_record(row, p)
            inv.validate(rec)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            rec = None
        elapsed = time.perf_counter() - start
        meter.op(elapsed)
        meter.row(elapsed)
        # rows take seconds each: several probes per row steady the scale
        meter.close(elapsed, probes=ROW_PROBES)
        oks.append(rec is not None and rec.ok)
    return oks


def _rows_check(inputs, oks):
    return len(oks), oks.count(False)


# -- query-mix ----------------------------------------------------------------

def _zipf_counts(ranks, bursts):
    """Burst counts per popularity rank, proportional to 1/rank and summing
    to `bursts` (largest remainder)."""
    weights = [1 / r for r in range(1, ranks + 1)]
    quota = [bursts * w / sum(weights) for w in weights]
    counts = [int(q) for q in quota]
    by_remainder = sorted(range(ranks), key=lambda r: counts[r] - quota[r])
    for r in by_remainder[:bursts - sum(counts)]:
        counts[r] += 1
    return counts


def _element(rng, p):
    return tuple(rng.randrange(p) for _ in range(5))


def _call(rng, p, op, visit):
    """Arguments for one call.  A row's closures alternate between the two
    kinds and cycle through 1-3 (subgroup) or 1-2 (normal) seed elements
    over its visits, so every seed gives each row the same closure shapes:
    one-seed closures in a cyclic group walk one BFS level per element."""
    if op in ("multiply", "commutator"):
        return op, (_element(rng, p), _element(rng, p))
    if op in ("inverse", "order_of"):
        return op, (_element(rng, p),)
    if op == "power":
        return op, (_element(rng, p), rng.randint(-2 * p, 2 * p))
    if op == "normalize":
        return op, ([(rng.randint(1, 5),
                      rng.choice((-1, 1)) * rng.randint(1, p - 1))
                     for _ in range(rng.randint(4, 10))],)
    if visit % 2 == 0:
        op, seeds = "subgroup_closure", 1 + visit // 2 % 3
    else:
        op, seeds = "normal_closure", 1 + visit // 2 % 2
    return op, ([_element(rng, p) for _ in range(seeds)],)


def _query_inputs(spec):
    """Bursts of calls on one group each.  Within a phase the group of a
    burst follows a Zipf law over a seeded ranking of the 72 rows; the
    ranking rotates by one row per phase, so across the 72 phases of a pass
    every row holds every rank once.  The seed decides which rows are hot
    together (and so the cache traffic), while each row's total share of
    the pass, and with it the pass's cost, stays the same for every seed."""
    from p5tensor import families

    p = spec.get("prime", 7)
    rng = random.Random(spec["seed"])
    order = rng.sample(list(families.list_families()), ROWS)
    counts = _zipf_counts(ROWS, BURSTS_PER_PHASE)
    phases = max(1, round(ROWS * spec.get("scale", 1.0)))
    visits = dict.fromkeys(order, 0)
    bursts = []
    for phase in range(phases):
        rows = [order[(rank + phase) % ROWS]
                for rank, n in enumerate(counts) for _ in range(n)]
        rng.shuffle(rows)
        for row in rows:
            ops = list(BURST_OPS)
            rng.shuffle(ops)
            bursts.append((families.build(row, p),
                           [_call(rng, p, op, visits[row]) for op in ops]))
            visits[row] += 1
    return p, bursts


def _summary(op, args, result):
    """A small stand-in for a call's result (subgroups are large)."""
    if op in ("subgroup_closure", "normal_closure"):
        return (result.order, all(e in result for e in args[0]))
    return result


def _query_run(inputs, layers, meter):
    p, bursts = inputs
    pc = layers.pcgroup
    clock = time.perf_counter
    results, phase = [], 0.0
    for n, (P, calls) in enumerate(bursts, start=1):
        raw = []
        begin = clock()
        for op, args in calls:
            start = clock()
            try:
                result = getattr(pc, op)(*args, P)
            except Exception:
                traceback.print_exc(file=sys.stderr)
                result = None
            meter.op(clock() - start)
            raw.append(result)
        elapsed = clock() - begin
        meter.row(elapsed)
        phase += elapsed
        results.extend(None if r is None else _summary(op, args, r)
                       for (op, args), r in zip(calls, raw))
        if n % BURSTS_PER_PHASE == 0 or n == len(bursts):
            meter.close(phase)
            phase = 0.0
    return results


def _word(e):
    return [(i + 1, x) for i, x in enumerate(e) if x]


def _inverse_word(word):
    return [(g, -x) for g, x in reversed(word)]


def _expected_ok(op, args, result, P, p):
    """Cross-check one table-route result against the collector route."""
    from p5tensor.pcgroup import IDENTITY, normalize

    if result is None:
        return False
    if op == "multiply":
        return result == normalize(_word(args[0]) + _word(args[1]), P)
    if op == "inverse":
        return (normalize(_word(result), P) == result
                and normalize(_word(args[0]) + _word(result), P) == IDENTITY)
    if op == "commutator":
        a, b = _word(args[0]), _word(args[1])
        return result == normalize(
            _inverse_word(a) + _inverse_word(b) + a + b, P)
    if op == "power":
        a, n = _word(args[0]), args[1]
        return result == normalize(a * n if n >= 0 else _inverse_word(a) * -n,
                                   P)
    if op == "order_of":
        x, order = normalize(_word(args[0]), P), 1
        while x != IDENTITY and order < p ** 6:
            x = normalize(_word(x) * p, P)
            order *= p
        return result == order
    if op == "normalize":
        return normalize(args[0] + _inverse_word(args[0]), P) == IDENTITY
    order, holds_seeds = result
    return holds_seeds and p ** 5 % order == 0


def _query_check(inputs, outcome):
    p, bursts = inputs
    results = iter(outcome)
    attempted = failed = 0
    for P, calls in bursts:
        for op, args in calls:
            attempted += 1
            failed += not _expected_ok(op, args, next(results), P, p)
    return attempted, failed


WORKLOADS = {
    "verify-p7": (_verify_inputs, _verify_run, _verify_check),
    "rows-p11": (_rows_inputs, _rows_run, _rows_check),
    "query-mix": (_query_inputs, _query_run, _query_check),
}


def run_pass(spec):
    """Make the inputs, time one pass, check it; returns a JSON-able dict.

    A workload's run feeds the meter per-item latencies (items are rows in
    verify-p7 and rows-p11, calls in query-mix) and per-row latencies (a
    query-mix row is a burst of calls on one group), and returns the
    outputs its check reads."""
    from tracer import Tracer

    make_inputs, run, check = WORKLOADS[spec["workload"]]
    inputs = make_inputs(spec)
    tracer = Tracer() if spec.get("trace") else None
    meter = _Meter(tracer, **(ROWS_METER if spec["workload"] == "rows-p11"
                              else {}))
    with tracer or contextlib.nullcontext():
        outcome = run(inputs, _Layers(tracer), meter)
    out = meter.result()
    out["digest"] = hashlib.sha256(repr(outcome).encode()).hexdigest()
    if spec.get("check"):
        start = time.perf_counter()
        out["attempted"], out["failed"] = check(inputs, outcome)
        out["check_s"] = time.perf_counter() - start
    if tracer:
        out["spans"] = tracer.spans
    return out


def main(argv):
    src, spec = os.path.abspath(argv[1]), json.loads(argv[2])
    sys.path[:0] = [src, os.path.dirname(os.path.abspath(__file__))]
    start = time.perf_counter()
    import p5tensor

    p5tensor.families.list_families()
    setup = time.perf_counter() - start
    if not os.path.abspath(p5tensor.__file__).startswith(src + os.sep):
        raise SystemExit(f"p5tensor imported from {p5tensor.__file__}, "
                         f"not from {src}")
    probes = [_Meter().close(0.0) for _ in range(SETUP_PROBES)]
    out = {"setup_s": setup * PROBE_REFERENCE_S / statistics.median(probes),
           "raw_setup_s": setup}
    if spec["workload"] != "setup":
        out.update(run_pass(spec))
    out["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                          / 1024)
    json.dump(out, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
