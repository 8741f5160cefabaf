"""Self-tests of the benchmark: its oracles, its tracer and its exit rules."""

import dataclasses
import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from mwrelay import capacity, channel, codec, sim  # noqa: E402


@pytest.fixture(scope="module")
def region():
    return workloads.Region(ROOT, seed=3)


def _first(wl, which):
    return next(i for i, (w, _) in enumerate(wl.points) if w == which)


def test_identity_oracle_rejects_a_flipped_verdict(region):
    i = _first(region, 0)
    rep = region.call(i, 1)
    assert region.check(i, rep) is None
    flipped = dataclasses.replace(rep, achievable=not rep.achievable)
    assert region.check(i, flipped) is not None


@pytest.mark.parametrize("stream", [587, 1247, 2978])
def test_region_redraws_a_near_useless_channel(stream):
    # The first draw from these streams has capacity below 1e-3 bits;
    # scaled to it, the rate grid would collapse to 0.
    rng = np.random.default_rng([stream, 0x5E610])
    first = rng.dirichlet(np.ones(3), size=2)
    grid = [k / 100 for k in range(101)]
    assert max(workloads.mutual_info_bits([p, 1 - p], first) for p in grid) < 1e-3
    w, cap = workloads.Region._draw_channel(np.random.default_rng([stream, 0x5E610]))
    assert cap >= workloads.CAP_FLOOR
    assert max(workloads.mutual_info_bits([p, 1 - p], w) for p in grid) >= 0.99 * workloads.CAP_FLOOR


def test_region_seed_orders_passes_over_fixed_points():
    a, b = workloads.Region(ROOT, seed=1), workloads.Region(ROOT, seed=2)
    count = len(a.points)
    assert a.points == b.points
    assert [a.instance(i) for i in range(count)] == list(range(count))
    later = [a.instance(i) for i in range(count, 2 * count)]
    assert sorted(later) == list(range(count))
    assert later != [b.instance(i) for i in range(count, 2 * count)]


def test_generic_oracle_rejects_a_wrong_margin_or_inconsistent_verdicts(region):
    i = _first(region, 1)
    rep = region.call(i, 1)
    assert region.check(i, rep) is None
    assert region.check(i, dataclasses.replace(rep, margin=rep.margin + 1e-6)) is not None
    assert region.check(i, dataclasses.replace(rep, achievable=True, inside_outer=False)) is not None


def test_fdfp_oracle_rejects_an_altered_split():
    rates = capacity.RateTuple.from_lists(
        [Fraction(1, 10)] * 3, {(1, 2): Fraction(1, 5), (1, 3): Fraction(1, 10)}
    )
    caps = [Fraction(1)] * 3
    res = capacity.fdfp_feasible(rates, caps)
    assert res.feasible and workloads.check_fdfp(res, rates, caps) is None
    key = ((1, 2), 1)
    splits = {**res.splits, key: res.splits[key] + Fraction(1, 100)}
    assert workloads.check_fdfp(dataclasses.replace(res, splits=splits), rates, caps) is not None


def test_fdfp_oracle_rejects_a_broken_multiplier():
    wl = workloads.Fdfp(ROOT, seed=0)
    assert [fc.reason for fc in wl.final_checks()] == [None]
    cfg = wl.counterexample
    from mwrelay import cli

    rates = cli.parse_rates(cfg["rates"])
    caps = [Fraction(c) for c in cfg["caps"]]
    res = capacity.fdfp_feasible(rates, caps)
    assert not res.feasible and workloads.check_fdfp(res, rates, caps) is None
    chain = res.certificate.chains[0]
    # Every cap of a minimal infeasible set needs a positive multiplier.
    other = chain.using_caps[0]
    broken = dataclasses.replace(chain, cap_multipliers={**chain.cap_multipliers, other: 0})
    cert = dataclasses.replace(res.certificate, chains=[broken])
    assert workloads.check_fdfp(dataclasses.replace(res, certificate=cert), rates, caps) is not None


def test_zero_noise_oracle_rejects_a_failure():
    assert workloads.check_zero_noise(sim.ErrorStats.from_counts(0, 50), 50) is None
    assert workloads.check_zero_noise(sim.ErrorStats.from_counts(1, 50), 50) is not None


def test_sim_workloads_pass_their_final_checks():
    for cls in (workloads.SimNoisy, workloads.RelayGf4):
        wl = cls(ROOT, seed=5)
        assert [fc.reason for fc in wl.final_checks()] == [None]
        assert wl.check(0, wl.call(0, 1)) is None


def test_tracer_wraps_imported_names_and_restores_them():
    originals = (capacity.mutual_info, codec.stream, sim.sample_downlink)
    with tracing.Tracer() as tracer:
        assert tracer.absent == []
        assert all(hasattr(f, "__bench_traced__")
                   for f in (capacity.mutual_info, codec.stream, sim.sample_downlink,
                             codec.DownlinkCodebook.codeword))
    assert (capacity.mutual_info, codec.stream, sim.sample_downlink) == originals
    assert channel.mutual_info is capacity.mutual_info
    assert tracing.wrapped_attributes() == []


def test_layer_self_times_sum_to_at_most_the_root_spans():
    wl = workloads.SimNoisy(ROOT, seed=1)
    with tracing.Tracer() as tracer:
        for i in range(3):
            tracer.op(i, wl.call, i, 1)
    calls, self_s = tracer.totals()
    root = sum(e - s for idx, s, e, _, _ in tracer.spans if tracer.names[idx] == tracing.ROOT)
    layers = sum(v for name, v in self_s.items() if name != tracing.ROOT)
    assert calls[tracing.ROOT] == 3 and calls["rng.stream"] > 0
    assert 0 < layers <= root * (1 + 1e-9)


def test_untraced_run_executes_unwrapped_functions():
    wl = workloads.Fdfp(ROOT, seed=1)
    with tracing.Tracer() as tracer:
        tracer.op(0, wl.call, 0, 1)
    seen = len(tracer.spans)
    _, records = run.measure(wl, 1, 0.05)
    assert records and len(tracer.spans) == seen
    assert tracing.wrapped_attributes() == []


def test_a_missing_function_is_reported_absent(monkeypatch):
    monkeypatch.setitem(tracing.TRACED, "codec.gone", ("codec", None, "gone"))
    with tracing.Tracer() as tracer:
        assert tracer.absent == ["codec.gone"]
    assert tracing.wrapped_attributes() == []


def test_tail_leaves_ten_samples_beyond():
    value, pct, n = run.tail(list(range(100)))
    assert (value, pct, n) == (89, 90.0, 100)
    assert run.tail([3.0, 1.0])[0] == 3.0


def test_slow_end_reads_the_slow_side_of_a_burst():
    # Three of twelve calls fell into a fast burst; the slow state holds.
    latencies = [1.0] * 9 + [0.55] * 3
    assert run.slow_end(latencies) == 1.0
    rates = [1 / t for t in latencies]
    assert run.slow_end(rates, higher_is_slower=False) == 1.0
    assert run.slow_end([0.5]) == 0.5


def test_any_integer_seed_is_accepted():
    args = run.parse_args(["--workload", "fdfp", "--seed", "-5", "--seconds", "1"])
    assert args.seed == 2**64 - 5
    workloads.Region(ROOT, args.seed)


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    cmd = json.loads((ROOT / "BENCHMARK.json").read_text())["command"]
    proc = subprocess.run(
        [sys.executable, *cmd[1:], "--workload", "fdfp", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


# Found by an earlier per-seed draw of fdfp tuples.  For user 3's chain
# lp.solve_lp reports an optimum of 57/200 where the true minimum is
# 19/50, so fdfp_feasible trips its own "must violate the removed cap"
# assertion.  The benchmark's fixed tuple set does not hit this case, so
# the reproducer is pinned here; strict, so a fix shows up as XPASS.
@pytest.mark.xfail(raises=AssertionError, strict=True,
                   reason="lp.solve_lp returns a non-optimal value on this split LP")
def test_known_lp_defect_on_a_five_user_tuple():
    F = Fraction
    rates = capacity.RateTuple(5, {
        (1,): F(0), (2,): F(57, 500), (3,): F(19, 200), (4,): F(57, 500), (5,): F(0),
        (1, 2): F(19, 500), (1, 3): F(19, 200), (1, 4): F(133, 1000), (1, 5): F(57, 500),
        (2, 3): F(57, 500), (2, 4): F(19, 125), (2, 5): F(19, 200), (3, 4): F(19, 125),
        (3, 5): F(57, 500), (4, 5): F(0),
    })
    caps = [F(19, 20), F(9, 10), F(21, 20), F(9, 10), F(21, 20)]
    assert workloads.check_fdfp(capacity.fdfp_feasible(rates, caps), rates, caps) is None
