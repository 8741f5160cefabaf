"""mwrelay benchmark: seeded closed-loop workloads, end to end and traced.

Run from the repository root, with no install step:

    python3 bench/run.py --workload sim_noisy --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics: the run alternates short
one-worker and two-worker slices, so both see the same machine, and
times a fresh process's set-up after each pair of slices.  Every time
metric reads the host's slow, contended state (see ``SLOW_SHARE``).  Two-worker
throughput and the tail latency go to the details: on a shared host
their spread across seeds (up to 31% and 44%) exceeds any useful bound.  ``--trace 1``
measures the per-layer metrics: it alternates untraced slices with
slices that wrap every public function of the layers (see
``tracing.py``); spans go to ``bench/out/``.  Every output is checked
against the workload's oracle, and outputs at one and two workers must
be identical.

The last line of standard output is the result object; the line before
it holds the run's details (Monte Carlo outputs, sample counts, tail
percentile, failure reasons, machine and versions).  See README.md.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
from concurrent.futures import ThreadPoolExecutor  # noqa: E402
from pathlib import Path  # noqa: E402

import tracing  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAMES = ("sim_noisy", "relay_gf4", "region", "fdfp")
# A shared host alternates between a contended state and bursts that run
# up to 1.8x faster; a burst can cover from none to most of a run, so a
# median flips with its share.  Time metrics therefore read the slow end
# of their samples: the quantile with only this share of them slower.
# A smaller share also catches the spikes of time taken by other guests.
SLOW_SHARE = 1 / 4
# Slices of each kind (one or two workers; untraced or traced) in a run.
SLICES = 10
# Share of a --trace 0 run given to one worker, whose metrics are bounded.
ONE_WORKER_SHARE = 2 / 3
# Ten samples must lie beyond the reported tail latency.
TAIL_BEYOND = 10


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=NAMES)
    ap.add_argument("--seed", type=int, required=True, help="any integer; taken modulo 2**64")
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="set up, run the warm-up call, print 'ready' and exit")
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    args.seed %= 2**64  # numpy's seeding takes nonnegative integers only
    return args


# -- measurement ----------------------------------------------------------------


def measure(wl, workers: int, seconds: float, first: int = 0, tracer=None):
    """Closed loop: each caller sends its next call when the last returns.

    For workloads whose library call takes a thread count, one caller
    passes ``workers``; otherwise ``workers`` callers run concurrently.
    Calls are numbered from ``first``.  Returns the start time and the
    records (index, start, end, output or exception) in completion order.
    """
    callers, threads = (workers, 1) if wl.parallel == "callers" else (1, workers)
    records = []
    indices = itertools.count(first)
    lock = threading.Lock()
    start = time.perf_counter()
    deadline = start + seconds

    def loop():
        while time.perf_counter() < deadline:
            with lock:
                i = next(indices)
            t0 = time.perf_counter()
            try:
                out = tracer.op(i, wl.call, i, threads) if tracer else wl.call(i, threads)
            except Exception as exc:  # a failed call is counted, not fatal
                out = exc
            t1 = time.perf_counter()
            with lock:
                records.append((i, t0, t1, out))

    if callers == 1:
        loop()
    else:
        with ThreadPoolExecutor(callers) as pool:
            for fut in [pool.submit(loop) for _ in range(callers)]:
                fut.result()
    return start, records


def chunk_rates(wl, start: float, records, k: int | None) -> list[float]:
    """Ops per second in each chunk of ``k`` completions.

    A slice too short for one chunk, or any slice when ``k`` is None,
    counts as a single chunk.
    """
    ends = [r[2] for r in records]
    if k is None or len(ends) < k:
        return [len(ends) * wl.ops_per_call / (ends[-1] - start)] if ends else []
    rates = []
    prev = start
    for j in range(k, len(ends) + 1, k):
        rates.append(k * wl.ops_per_call / (ends[j - 1] - prev))
        prev = ends[j - 1]
    return rates


def slow_end(values: list[float], higher_is_slower: bool = True) -> float:
    """The value that a SLOW_SHARE of ``values`` lies beyond on the slow side."""
    if len(values) < 2:
        return values[0]
    cuts = statistics.quantiles(values, n=round(1 / SLOW_SHARE))
    return cuts[-1] if higher_is_slower else cuts[0]


def instance_latencies(wl, records) -> list[float]:
    """Each instance's slow-end latency in seconds, for a fixed instance set.

    Each instance is compared only with itself, and every run weighs the
    same set however far its last pass got.
    """
    latency = {}
    for i, t0, t1, _ in records:
        latency.setdefault(wl.instance(i), []).append(t1 - t0)
    return [slow_end(v) for v in latency.values()]


class Phase:
    """The calls of one kind (worker count, traced or not) over a run's slices."""

    def __init__(self, wl, workers: int, tracer=None):
        self.wl, self.workers, self.tracer = wl, workers, tracer
        self.slices = []  # (start, records)
        self.records = []

    def run(self, seconds: float) -> None:
        with self.tracer or contextlib.nullcontext():
            start, records = measure(self.wl, self.workers, seconds, len(self.records), self.tracer)
        self.slices.append((start, records))
        self.records += records

    def ops_per_s(self) -> float:
        wl = self.wl
        if hasattr(wl, "instance"):
            # Little's law: each caller keeps one call in flight.
            callers = self.workers if wl.parallel == "callers" else 1
            latencies = instance_latencies(wl, self.records)
            return callers * len(latencies) * wl.ops_per_call / sum(latencies)
        # Two workers' completions interleave unevenly, so there a whole
        # slice is one chunk.
        k = wl.chunk_calls if self.workers == 1 else None
        rates = [r for start, recs in self.slices for r in chunk_rates(wl, start, recs, k)]
        return slow_end(rates, higher_is_slower=False)

    def op_ms_p50(self) -> float:
        """Median latency per op: over instances, or within each slice."""
        wl = self.wl
        if hasattr(wl, "instance"):
            median = statistics.median(instance_latencies(wl, self.records))
        else:
            median = slow_end([statistics.median(t1 - t0 for _, t0, t1, _ in recs)
                               for _, recs in self.slices if recs])
        return median * 1000.0 / wl.ops_per_call


def tail(values):
    """The highest percentile with TAIL_BEYOND samples beyond it: (value, pct, n)."""
    v = sorted(values)
    n = len(v)
    if n <= TAIL_BEYOND:
        return v[-1], 100.0, n
    k = n - TAIL_BEYOND - 1
    return v[k], 100.0 * (k + 1) / n, n


def probe_setup(args) -> float:
    """Seconds from process start to the first timed call, in a fresh process."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "1", "--setup-probe"]
    t = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        took = time.perf_counter() - t
        _, err = proc.communicate(timeout=170)
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"setup probe failed ({proc.returncode}): {err[-2000:]}")
    return took


# -- checking -------------------------------------------------------------------


class Tally:
    """Attempted and failed ops, with the first few failure reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def add(self, ops: int, reason: str | None, where: str) -> None:
        self.attempted += ops
        if reason is not None:
            self.failed += ops
            if len(self.reasons) < 10:
                self.reasons.append(f"{where}: {reason}")


def check_records(wl, records, tally: Tally, phase: str, reference=None) -> None:
    """Oracle-check each call; with ``reference``, also require equal outputs."""
    from workloads import same_output

    for i, _, _, out in records:
        if isinstance(out, Exception):
            reason = f"raised {out!r}"
        else:
            try:
                reason = wl.check(i, out)
            except Exception as exc:
                reason = f"oracle raised {exc!r}"
            ref = reference.get(i) if reference else None
            if reason is None and ref is not None and not isinstance(ref, Exception):
                if not same_output(ref, out):
                    reason = "output differs from the one-worker run"
        tally.add(wl.ops_per_call, reason, f"{phase} call {i}")


def final_checks(wl, tally: Tally) -> None:
    try:
        checks = wl.final_checks()
    except Exception as exc:
        tally.add(1, f"raised {exc!r}", "final checks")
        return
    for fc in checks:
        tally.add(fc.ops, fc.reason, fc.name)


# -- runs -----------------------------------------------------------------------


def metric(value, unit):
    return {"value": value, "unit": unit}


def good_outputs(records):
    return [(i, out) for i, _, _, out in records if not isinstance(out, Exception)]


def run_plain(wl, args, tally: Tally, detail: dict) -> dict:
    leftover = tracing.wrapped_attributes()
    tally.add(1, f"wrappers installed: {leftover}" if leftover else None, "untraced check")
    one, two = Phase(wl, 1), Phase(wl, 2)
    setup = []
    for _ in range(SLICES):
        one.run(args.seconds * ONE_WORKER_SHARE / SLICES)
        two.run(args.seconds * (1 - ONE_WORKER_SHARE) / SLICES)
        setup.append(probe_setup(args))
    rec1, rec2 = one.records, two.records
    check_records(wl, rec1, tally, "w1")
    check_records(wl, rec2, tally, "w2", reference={i: out for i, _, _, out in rec1})
    final_checks(wl, tally)

    lat = [(t1 - t0) * 1000.0 / wl.ops_per_call for _, t0, t1, _ in rec1]
    tail_ms, tail_pct, n = tail(lat)
    detail.update(
        setup_samples_s=setup,
        calls={"w1": len(rec1), "w2": len(rec2)},
        ops_per_call=wl.ops_per_call,
        ops_per_s_w2=two.ops_per_s(),
        op_ms_tail={"value": tail_ms, "percentile": tail_pct, "samples": n},
        results=wl.summary(good_outputs(rec1)),
    )
    return {
        "ops_per_s": metric(one.ops_per_s(), "1/s"),
        "op_ms_p50": metric(one.op_ms_p50(), "ms"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "setup_s": metric(slow_end(setup), "s"),
    }


def _ratio(num, den):
    return num / den if den else 0.0


def run_traced(wl, args, tally: Tally, detail: dict) -> dict:
    tracer = tracing.Tracer()
    plain, traced = Phase(wl, 1), Phase(wl, 1, tracer)
    for _ in range(SLICES):
        leftover = tracing.wrapped_attributes()
        tally.add(1, f"wrappers installed: {leftover}" if leftover else None, "untraced check")
        plain.run(args.seconds / (2 * SLICES))
        traced.run(args.seconds / (2 * SLICES))
    rec0, rec1 = plain.records, traced.records
    leftover = tracing.wrapped_attributes()
    tally.add(1, f"wrappers left after tracing: {leftover}" if leftover else None, "restore check")
    check_records(wl, rec0, tally, "untraced")
    check_records(wl, rec1, tally, "traced")
    final_checks(wl, tally)

    ops = len(rec1) * wl.ops_per_call
    calls, self_s = tracer.totals()
    root_s = sum(end - start for idx, start, end, _, _ in tracer.spans
                 if tracer.names[idx] == tracing.ROOT)
    layer_s = sum(v for name, v in self_s.items() if name != tracing.ROOT)
    # Self times partition the root spans, so they cannot exceed them.
    tally.add(1, None if layer_s <= root_s * (1 + 1e-9) else
              f"layer self time {layer_s} s exceeds root spans {root_s} s", "self-time check")

    out = {}
    for name in tracing.TRACED:
        out[f"{name}.calls"] = metric(calls[name] / ops, "1/op")
        out[f"{name}.self_ms"] = metric(self_s[name] * 1000.0 / ops, "ms/op")
    codeword_calls = calls["codec.codeword"]
    misses = tracer.child_calls("rng.stream", "codec.codeword")
    redraws = sum(getattr(o, "redraws", 0) for _, o in good_outputs(rec1))
    traced_rate, untraced_rate = traced.ops_per_s(), plain.ops_per_s()
    derived = {
        "codec.codeword.hit_ratio": (_ratio(codeword_calls - misses, codeword_calls), "ratio",
                                     {"codeword_calls": codeword_calls, "misses": misses}),
        "codec.redraw_ratio": (_ratio(redraws, calls["gf.random_matrix"]), "ratio",
                               {"redraws": redraws, "generators": calls["gf.random_matrix"]}),
        "codec.relay_candidates": (tracer.counts["relay_candidates"] / ops, "1/op", {"ops": ops}),
        "codec.candidate_words": (
            _ratio(tracer.counts["candidate_words"], calls["codec.candidate_set"]), "1/call",
            {"candidate_set_calls": calls["codec.candidate_set"]}),
        "capacity.mi_per_check": (
            _ratio(calls["channel.mutual_info"], calls["capacity.report"]), "1/check",
            {"checks": calls["capacity.report"]}),
        "lp.solves_per_check": (
            _ratio(calls["lp.solve_lp"], calls["capacity.fdfp_feasible"]), "1/check",
            {"checks": calls["capacity.fdfp_feasible"]}),
        "shuffle.swaps": (_ratio(tracer.counts["swaps"], calls["shuffle.run_shuffle"]), "1/call",
                          {"run_shuffle_calls": calls["shuffle.run_shuffle"]}),
        "trace.overhead": (_ratio(untraced_rate, traced_rate), "x",
                           {"untraced_ops_per_s": untraced_rate, "traced_ops_per_s": traced_rate}),
        "trace.root_ms": (root_s * 1000.0 / ops, "ms/op", {"ops": ops}),
    }
    for name, (value, unit, _) in derived.items():
        out[name] = metric(value, unit)

    spans_path = HERE / "out" / f"spans-{wl.name}-seed{args.seed}.jsonl.gz"
    tracer.write(spans_path)
    shares = sorted(((v / root_s if root_s else 0.0, name) for name, v in self_s.items()),
                    reverse=True)
    detail.update(
        calls={"untraced": len(rec0), "traced": len(rec1)},
        ops_per_call=wl.ops_per_call,
        traced_ops=ops,
        absent=tracer.absent,
        count_errors=tracer.counts["count_errors"],
        bases={name: base for name, (_, _, base) in derived.items()},
        self_share={name: share for share, name in shares[:8]},
        spans={"file": str(spans_path.relative_to(ROOT)), "count": len(tracer.spans)},
        results=wl.summary(good_outputs(rec1)),
    )
    return out


def machine() -> dict:
    import numpy

    sources = sorted((ROOT / "src" / "mwrelay").glob("*.py"))
    digest = hashlib.sha256(b"".join(p.read_bytes() for p in sources)).hexdigest()
    return {
        "nproc": os.cpu_count(),
        "arch": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "source_sha256": digest[:16],
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "mwrelay" / "__init__.py").is_file():
        print(f"bench: no mwrelay package under {ROOT / 'src'}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads  # needs the package on the path

    wl = workloads.WORKLOADS[args.workload](ROOT, args.seed)
    warm = wl.call(0, 1)  # untimed: fills lazy tables and caches
    if args.setup_probe:
        print("ready", flush=True)
        return 0

    tally = Tally()
    tally.add(wl.ops_per_call, wl.check(0, warm), "warm-up call")
    detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "in_process_setup_s": time.perf_counter() - _T0}
    metrics = (run_traced if args.trace else run_plain)(wl, args, tally, detail)
    detail.update(machine=machine(), failures=tally.reasons,
                  fail_ratio=tally.failed / tally.attempted)
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
