"""Acceptance suite: one test per release criterion, each printing a
pass/fail line (run with ``pytest -s`` to see them).

Monte Carlo criteria run on pinned master seeds; determinism of the
named substreams makes every number here reproducible bit for bit.
"""

import json
import math
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from mwrelay import gf
from mwrelay.capacity import RateTuple, fdfp_feasible, region_report
from mwrelay.channel import UplinkSpec, identity_downlink, uplink_bound
from mwrelay.cli import main
from mwrelay.gf import Field
from mwrelay.rng import stream
from mwrelay.schedule import SymbolLengths, build_table, message_ids, reindex_users, verify_props
from mwrelay.shuffle import decode_matrix, run_shuffle, simplify
from mwrelay.sim import TrialConfig, run_trials, sum_decode_trials

REPO = Path(__file__).resolve().parent.parent
CONFIGS = REPO / "configs"

THREADS = 4


def report(num: int, text: str):
    print(f"ACCEPTANCE {num} PASS: {text}")


def fail_report(num: int, text: str):
    print(f"ACCEPTANCE {num} FAIL: {text}")


def test_criterion_1_counterexample_separation():
    """Inner region admits the bundled tuple; the split baseline cannot."""
    start = time.time()
    f4 = Field(4)
    up = UplinkSpec(f4, np.array([0.5, 0.5, 0.0, 0.0]))
    down = identity_downlink(3, 2)
    rates = RateTuple.from_lists(
        [Fraction(39, 100)] * 3,
        {(1, 2): Fraction(19, 100), (1, 3): Fraction(14, 100), (2, 3): Fraction(14, 100)},
    )
    try:
        rep = region_report(rates, up, down)
        assert rates.sum_rates() == [Fraction(23, 25), Fraction(23, 25), Fraction(97, 100)]
        assert all(s < Fraction(1) for s in rates.sum_rates())  # exact rational compare
        assert rep.uplink_bound == 1.0
        assert rep.margin > 0
        assert rep.achievable

        res = fdfp_feasible(rates, [Fraction(1)] * 3)
        assert not res.feasible
        chains = {c.user: c for c in res.certificate.chains}
        assert 2 in chains, "certificate must bound r_1 + r_3"
        assert chains[2].bound > Fraction(1)
        assert chains[2].bound == Fraction(103, 100)
        elapsed = time.time() - start
        assert elapsed < 1.0, f"took {elapsed:.2f}s"
    except AssertionError as exc:
        fail_report(1, str(exc))
        raise
    report(1, f"achievable with margin {rep.margin:.3f}; baseline infeasible,"
              f" r_1+r_3 >= {chains[2].bound} > 1 ({time.time() - start:.2f}s)")


def test_criterion_2_optimizer_golden_values():
    """Max-min optimizer recovers binary symmetric channel capacities."""
    from mwrelay.capacity import max_min_downlink
    from mwrelay.channel import DownlinkSpec

    start = time.time()
    try:
        for q in (0.1, 0.25):
            w = np.array([[1 - q, q], [q, 1 - q]])
            margin, _, dist = max_min_downlink(DownlinkSpec(2, (w,)), [0.0])
            golden = 1 + q * math.log2(q) + (1 - q) * math.log2(1 - q)
            assert abs(margin - golden) <= 1e-6, f"q={q}: {margin} vs {golden}"
            tv = 0.5 * float(np.abs(dist - 0.5).sum())
            assert tv <= 1e-3, f"q={q}: argmax off uniform by TV {tv}"
        elapsed = time.time() - start
        assert elapsed < 10.0, f"took {elapsed:.2f}s"
    except AssertionError as exc:
        fail_report(2, str(exc))
        raise
    report(2, f"BSC capacities within 1e-6, argmax within TV 1e-3 ({time.time() - start:.2f}s)")


def test_criterion_3_schedule_shuffle_property_suite():
    """500 random instances: properties, termination, full-rank systems."""
    start = time.time()
    rng = stream(2024, "schedule-suite")
    field = Field(2)
    try:
        for i in range(500):
            num_users = int(rng.integers(2, 6))
            raw = SymbolLengths(
                num_users, {m: int(rng.integers(0, 7)) for m in message_ids(num_users)}
            )
            _, lengths = reindex_users(raw)
            table = build_table(lengths)
            rep = verify_props(table)
            assert rep.ok, f"instance {i}: {rep.failures}"
            for a in range(2, num_users + 1):
                expected = lengths.k[(1,)] + sum(
                    lengths.k[(1, j)] for j in range(2, num_users + 1) if j != a
                )
                assert rep.unknown_counts[a] == expected, f"instance {i} user {a} count"
            cols, log = run_shuffle(simplify(table))
            if log:
                assert max(r.cycle for r in log) <= lengths.k_sum(1), f"instance {i} cycles"
            for a in range(2, num_users + 1):
                system = decode_matrix(cols, a, table)
                n_unknown = len(system.unknown_order)
                assert gf.rank(field, system.matrix) == n_unknown, f"instance {i} user {a} rank"
        elapsed = time.time() - start
        assert elapsed < 60.0, f"took {elapsed:.1f}s"
    except AssertionError as exc:
        fail_report(3, str(exc))
        raise
    report(3, f"500 instances, zero failures ({time.time() - start:.1f}s)")


def test_criterion_4_zero_noise_end_to_end():
    """500 random instances, deterministic links: exact recovery, P_e = 0."""
    start = time.time()
    rng = stream(2024, "zero-noise-suite")
    orders = [2, 3, 4, 5]
    failures = 0
    try:
        done = 0
        while done < 500:
            order = orders[int(rng.integers(0, len(orders)))]
            num_users = int(rng.integers(2, 5))
            raw = SymbolLengths(
                num_users, {m: int(rng.integers(0, 3)) for m in message_ids(num_users)}
            )
            _, lengths = reindex_users(raw)
            if max(order ** lengths.k_sum(a) for a in range(1, num_users + 1)) > 256:
                continue
            field = Field(order)
            noise = np.zeros(order)
            noise[0] = 1.0
            cfg = TrialConfig(
                UplinkSpec(field, noise),
                identity_downlink(num_users, 2),
                n=max(1, 2 * lengths.k_sum(1)),
                n_dl=48,
                trials=1,
                master_seed=done,
                lengths=lengths,
            )
            failures += run_trials(cfg).failures
            done += 1
        assert failures == 0, f"{failures} zero-noise failures"
        elapsed = time.time() - start
        assert elapsed < 60.0, f"took {elapsed:.1f}s"
    except AssertionError as exc:
        fail_report(4, str(exc))
        raise
    report(4, f"500 instances recovered exactly, P_e = 0 ({time.time() - start:.1f}s)")


UP_BINARY = UplinkSpec(Field(2), np.array([0.89, 0.11]))


def test_criterion_5_sum_decode_threshold_trend():
    """Below the uplink bound, longer blocks strictly cut the error rate.

    k = 8 at n in {24, 48, 96}: rate 1/3 down to 1/12 of a channel use
    against a bound of ~0.5 bits/use.  Asymptotic reliability itself is
    out of reach at desk scale; the pinned-seed trend is the substitute.
    """
    start = time.time()
    try:
        bound = uplink_bound(UP_BINARY)
        assert 0.49 < bound < 0.51
        stats = {n: sum_decode_trials(UP_BINARY, 8, n, 2000, 0, threads=THREADS) for n in (24, 48, 96)}
        for n in stats:
            assert 8 / n < bound
        p = [stats[n].p_hat for n in (24, 48, 96)]
        assert p[0] > p[1] > p[2], f"not strictly decreasing: {p}"
        assert stats[96].hi95 < stats[24].lo95, "intervals must separate"
        elapsed = time.time() - start
        assert elapsed < 300.0, f"took {elapsed:.0f}s"
    except AssertionError as exc:
        fail_report(5, str(exc))
        raise
    report(
        5,
        "failure rates "
        + " > ".join(f"{stats[n].failures}/2000 (n={n})" for n in (24, 48, 96))
        + f", n=96 upper {stats[96].hi95:.4f} < n=24 lower {stats[24].lo95:.4f}"
        + f" ({time.time() - start:.0f}s)",
    )


def test_criterion_6_converse_side_monte_carlo():
    """At 1.5x the uplink bound the failure rate stays far from zero.

    The exact-ML enumeration caps message counts at 2^20, so the tested
    block lengths are n in {8, 12, 16} with k = round(1.5 * bound * n);
    every Wilson interval must exclude all values below 0.05.
    """
    start = time.time()
    try:
        bound = uplink_bound(UP_BINARY)
        results = {}
        for n in (8, 12, 16):
            k = round(1.5 * bound * n)
            assert k / n > bound
            st = sum_decode_trials(UP_BINARY, k, n, 1500, 0, threads=THREADS)
            results[n] = (k, st)
            assert st.lo95 > 0.05, f"n={n}: Wilson interval reaches {st.lo95}"
        elapsed = time.time() - start
        assert elapsed < 300.0, f"took {elapsed:.0f}s"
    except AssertionError as exc:
        fail_report(6, str(exc))
        raise
    report(
        6,
        "; ".join(
            f"n={n},k={k}: p={st.p_hat:.3f} lo95={st.lo95:.3f}" for n, (k, st) in results.items()
        )
        + f" ({time.time() - start:.0f}s)",
    )


def test_criterion_7_thread_count_determinism(tmp_path, capsys):
    """Same seed, different --threads: byte-identical CSV output."""
    start = time.time()
    try:
        for config in ("noisy_uplink_small.json", "region_sweep_f4.json"):
            command = "simulate" if "uplink" in config else "region-sweep"
            outputs = []
            for threads in ("1", "4"):
                out = tmp_path / f"{config}.{threads}.csv"
                # region-sweep takes no seed or workers; its runs must agree all the same.
                flags = ["--seed", "11", "--threads", threads] if command == "simulate" else []
                code = main([command, "--config", str(CONFIGS / config), "--out", str(out), *flags])
                assert code == 0
                outputs.append(out.read_bytes())
            assert outputs[0] == outputs[1], f"{config}: outputs differ across thread counts"
    except AssertionError as exc:
        fail_report(7, str(exc))
        raise
    report(7, f"byte-identical CSVs across thread counts ({time.time() - start:.1f}s)")
