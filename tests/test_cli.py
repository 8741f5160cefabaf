import json
from fractions import Fraction
from pathlib import Path

import pytest

from mwrelay import capacity, cli, codec, lp, sim
from mwrelay.cli import main

REPO = Path(__file__).resolve().parent.parent
CONFIGS = REPO / "configs"


def run(args, capsys):
    code = main([str(a) for a in args])
    out = capsys.readouterr()
    return code, out.out, out.err


def test_region_check_counterexample(capsys):
    code, out, _ = run(
        ["region-check", "--config", CONFIGS / "f4_pairwise_counterexample.json"], capsys
    )
    assert code == 0
    assert "sum rate user 3: 97/100" in out
    assert "uplink bound: 1.000000" in out
    assert "downlink margin: 0.030000" in out
    assert "downlink margin upper bound: 0.030000" in out
    assert "inner verdict: Achievable" in out
    assert "outer verdict: InsideOrBoundary" in out


def test_region_check_zero_rates(tmp_path, capsys):
    cfg = json.loads((CONFIGS / "f4_pairwise_counterexample.json").read_text())
    cfg["rates"] = {"private": ["0", "0", "0"]}
    del cfg["caps"]
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    code, out, _ = run(["region-check", "--config", p], capsys)
    assert code == 0 and "Achievable" in out


def test_region_check_excessive_rates(tmp_path, capsys):
    cfg = json.loads((CONFIGS / "f4_pairwise_counterexample.json").read_text())
    cfg["rates"] = {"private": ["2", "0", "0"]}
    del cfg["caps"]
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    code, out, _ = run(["region-check", "--config", p], capsys)
    assert code == 1
    assert "NotShown" in out and "Outside" in out


def test_fdfp_check_counterexample(capsys):
    code, out, _ = run(
        ["fdfp-check", "--config", CONFIGS / "f4_pairwise_counterexample.json"], capsys
    )
    assert code == 1
    assert "Infeasible" in out
    assert "r_1+r_3 >= 103/100" in out
    assert "> cap 1" in out


def test_fdfp_check_caps_derived_from_channel(tmp_path, capsys):
    cfg = json.loads((CONFIGS / "f4_pairwise_counterexample.json").read_text())
    del cfg["caps"]  # identity binary downlink and unit bound give caps of 1
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    code, out, _ = run(["fdfp-check", "--config", p], capsys)
    assert code == 1
    assert "103/100" in out


def test_fdfp_check_feasible(tmp_path, capsys):
    cfg = json.loads((CONFIGS / "f4_pairwise_counterexample.json").read_text())
    cfg["rates"] = {"private": ["1/4", "1/4", "1/4"]}
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    code, out, _ = run(["fdfp-check", "--config", p], capsys)
    assert code == 0 and "Feasible" in out


@pytest.mark.parametrize("caps", [["1", "1"], ["1", "1", "1", "1"]])
def test_fdfp_check_rejects_a_cap_count_other_than_the_user_count(tmp_path, capsys, caps):
    cfg = json.loads((CONFIGS / "f4_pairwise_counterexample.json").read_text())
    cfg["caps"] = caps
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    code, out, err = run(["fdfp-check", "--config", p], capsys)
    assert code == 2 and out == ""
    assert "config error: one cap per user required" in err


def test_schedule_build(tmp_path, capsys):
    json_out = tmp_path / "table.json"
    code, out, _ = run(
        ["schedule-build", "--config", CONFIGS / "schedule_l3.json", "--json-out", json_out],
        capsys,
    )
    assert code == 0
    assert "properties: all hold" in out
    assert "block (2,3)" in out
    dumped = json.loads(json_out.read_text())
    assert sum(b["width"] for b in dumped["blocks"]) == 5


def test_simulate_zero_noise(tmp_path, capsys):
    out_file = tmp_path / "sim.csv"
    code, _, _ = run(
        ["simulate", "--config", CONFIGS / "zero_noise_roundtrip.json", "--out", out_file,
         "--seed", "3"],
        capsys,
    )
    assert code == 0
    lines = out_file.read_text().strip().splitlines()
    assert lines[0] == "axis_value,trials,failures,p_hat,lo95,hi95,redraws,uplink_fail,downlink_fail"
    fields = lines[1].split(",")
    assert fields[1] == "200" and fields[2] == "0"


def test_region_sweep_staircase(tmp_path, capsys):
    out_file = tmp_path / "sweep.csv"
    code, _, _ = run(
        ["region-sweep", "--config", CONFIGS / "region_sweep_f4.json", "--out", out_file],
        capsys,
    )
    assert code == 0
    lines = out_file.read_text().strip().splitlines()
    assert lines[0] == "R_1,R_1_2,achievable,outer"
    rows = [line.split(",") for line in lines[1:]]
    # monotone: along each y, achievable flips at most once, from 1 to 0
    from collections import defaultdict

    per_y = defaultdict(list)
    for x, y, ach, outer in rows:
        per_y[y].append((float(x), int(ach), int(outer)))
        assert int(ach) <= int(outer)
    for y, seq in per_y.items():
        seq.sort()
        flags = [a for _, a, _ in seq]
        assert flags == sorted(flags, reverse=True)
    assert rows[0][2] == "1"  # origin achievable


def test_simulate_sweep_with_rates(tmp_path, capsys):
    cfg = json.loads((CONFIGS / "noisy_uplink_small.json").read_text())
    del cfg["lengths"]
    cfg["rates"] = {"private": ["1/20", "1/20", "1/20"], "common": {"2,3": "1/20"}}
    cfg["sweep"] = {"axis": "n", "values": [20, 40]}
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    out_file = tmp_path / "sweep.csv"
    code, _, err = run(["simulate", "--config", p, "--out", out_file, "--seed", "2"], capsys)
    assert code == 0
    lines = out_file.read_text().strip().splitlines()
    assert len(lines) == 3
    assert lines[1].startswith("20,") and lines[2].startswith("40,")
    assert "quantized symbol lengths" in err  # progress goes to stderr


def test_simulate_prints_the_quantized_lengths_each_sweep_value_runs(tmp_path, capsys):
    cfg = json.loads((CONFIGS / "noisy_uplink_small.json").read_text())
    del cfg["lengths"]
    cfg["rates"] = {"private": ["1/10", "1/10", "1/10"]}
    cfg["trials"], cfg["n_dl"] = 1, 16
    p = tmp_path / "cfg.json"
    sweeps = {
        "n": ([20, 80], ["n=20: (1,):2, (2,):2, (3,):2", "n=80: (1,):8, (2,):8, (3,):8"]),
        "rate_scale": (
            ["1/2", 1],
            ["rate_scale=1/2: (1,):2, (2,):2, (3,):2", "rate_scale=1: (1,):4, (2,):4, (3,):4"],
        ),
    }
    for axis, (values, ats) in sweeps.items():
        cfg["sweep"] = {"axis": axis, "values": values}
        p.write_text(json.dumps(cfg))
        code, out, err = run(["simulate", "--config", p, "--seed", "2"], capsys)
        assert code == 0 and len(out.splitlines()) == 3
        lines = [ln for ln in err.splitlines() if ln.startswith("quantized symbol lengths")]
        assert lines == [f"quantized symbol lengths at {at}" for at in ats], axis
    # without a sweep, the one line names the config's n
    del cfg["sweep"]
    p.write_text(json.dumps(cfg))
    code, _, err = run(["simulate", "--config", p, "--seed", "2"], capsys)
    assert code == 0
    assert "quantized symbol lengths at n=40: (1,):4, (2,):4, (3,):4\n" in err


def test_determinism_across_threads(tmp_path, capsys):
    outs = []
    for threads in ("1", "4"):
        out_file = tmp_path / f"sim_{threads}.csv"
        code, _, _ = run(
            ["simulate", "--config", CONFIGS / "noisy_uplink_small.json", "--out", out_file,
             "--seed", "11", "--threads", threads],
            capsys,
        )
        assert code == 0
        outs.append(out_file.read_bytes())
    assert outs[0] == outs[1]


def test_config_error_exit_codes(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"channel": {}, "rates": {"private": ["0"]}, "bogus": 1}')
    code, _, err = run(["region-check", "--config", bad], capsys)
    assert code == 2
    assert "bogus" in err

    missing = tmp_path / "missing.json"
    code, _, err = run(["region-check", "--config", missing], capsys)
    assert code == 2

    notprob = tmp_path / "notprob.json"
    cfg = json.loads((CONFIGS / "f4_pairwise_counterexample.json").read_text())
    cfg["channel"]["noise_pmf"] = ["0.5", "x", "0", "0"]
    notprob.write_text(json.dumps(cfg))
    code, _, err = run(["region-check", "--config", notprob], capsys)
    assert code == 2

    badkey = tmp_path / "badkey.json"
    cfg = json.loads((CONFIGS / "f4_pairwise_counterexample.json").read_text())
    cfg["rates"]["common"] = {"a,b": "1/10"}
    badkey.write_text(json.dumps(cfg))
    code, _, err = run(["region-check", "--config", badkey], capsys)
    assert code == 2


def test_capability_error_exit_code(tmp_path, capsys):
    cfg = json.loads((CONFIGS / "zero_noise_roundtrip.json").read_text())
    cfg["lengths"]["k"] = {"1": 11, "2": 11, "3": 11}
    cfg["n"] = 70
    p = tmp_path / "big.json"
    p.write_text(json.dumps(cfg))
    code, _, err = run(["simulate", "--config", p], capsys)
    assert code == 3
    assert "2^20" in err or "candidate" in err


def test_bad_seed_and_thread_flags_are_rejected_by_name(capsys):
    import pytest

    for flag, value in (("--threads", "0"), ("--threads", "-2"), ("--seed", "-1"), ("--seed", "x")):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--config", str(CONFIGS / "zero_noise_roundtrip.json"), flag, value])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {flag}" in err and "config error" not in err


@pytest.mark.parametrize(
    "key, value",
    [
        ("trials", 2.7),
        ("trials", True),
        ("n", 40.5),
        ("n_dl", False),
        ("n_dl", "12.5"),
        ("lengths.num_users", 3.5),
        ("lengths.k", 1.5),
        ("lengths.k", True),
    ],
)
def test_non_integral_config_values_are_rejected_by_name(tmp_path, capsys, key, value):
    cfg = json.loads((CONFIGS / "zero_noise_roundtrip.json").read_text())
    if key == "lengths.k":
        cfg["lengths"]["k"]["1,2"] = value
    elif key == "lengths.num_users":
        cfg["lengths"]["num_users"] = value
    else:
        cfg[key] = value
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    code, out, err = run(["simulate", "--config", p], capsys)
    assert code == 2 and out == ""
    assert "config error" in err and key in err and "must be an integer" in err


def test_integral_config_values_in_other_spellings_are_accepted(tmp_path, capsys):
    cfg = json.loads((CONFIGS / "zero_noise_roundtrip.json").read_text())
    cfg.update({"trials": 20.0, "n": "10", "n_dl": 48})
    cfg["lengths"]["num_users"] = 3.0
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    code, out, _ = run(["simulate", "--config", p], capsys)
    assert code == 0
    assert out.splitlines()[1].startswith("10,20,0,")


def test_non_integral_sweep_block_length_is_rejected(tmp_path, capsys):
    cfg = json.loads((CONFIGS / "zero_noise_roundtrip.json").read_text())
    cfg["sweep"] = {"axis": "n", "values": [10, 12.5]}
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    code, _, err = run(["simulate", "--config", p], capsys)
    assert code == 2 and "sweep.values" in err


def _edited_config(tmp_path, name, edit):
    cfg = json.loads((CONFIGS / name).read_text())
    edit(cfg)
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    return p


F4, SWEEP_F4, L3, ZERO = (
    "f4_pairwise_counterexample.json", "region_sweep_f4.json", "schedule_l3.json",
    "zero_noise_roundtrip.json",
)
#: Required top-level keys of each command, with a config that has them.
REQUIRED = [
    ("region-check", F4, "channel"), ("region-check", F4, "rates"),
    ("region-sweep", SWEEP_F4, "channel"), ("region-sweep", SWEEP_F4, "rates"),
    ("region-sweep", SWEEP_F4, "sweep"), ("fdfp-check", F4, "rates"),
    ("schedule-build", L3, "lengths"), ("simulate", ZERO, "channel"),
    ("simulate", ZERO, "n"), ("simulate", ZERO, "n_dl"), ("simulate", ZERO, "trials"),
]
#: Falsy JSON values that are not objects, so not an absent key either.
FALSY = [[], 0, False, "", None]


@pytest.mark.parametrize(
    "command, name, edit, section",
    [
        (
            "region-check",
            "f4_pairwise_counterexample.json",
            lambda c: c["rates"].update(common={"1,2": "0.9", "2,1": "0"}),
            "rates:",
        ),
        (
            "schedule-build",
            "schedule_l3.json",
            lambda c: c["lengths"]["k"].update({"2,1": 0}),
            "lengths:",
        ),
        (
            "region-check",
            "f4_pairwise_counterexample.json",
            lambda c: c["rates"].update(common={"1,x": "1/10"}),
            "rates: bad message id '1,x'",
        ),
        (
            "region-sweep",
            "region_sweep_f4.json",
            lambda c: c["sweep"].update(x="1,1"),
            "sweep.x:",
        ),
        (
            "region-sweep",
            "region_sweep_f4.json",
            lambda c: c["sweep"].update(y="4"),
            "sweep.y:",
        ),
        (
            "region-sweep",
            "region_sweep_f4.json",
            lambda c: c["sweep"].update(y="1"),
            "sweep.y: message (1,) is also sweep.x",
        ),
        (
            "region-check",
            "f4_pairwise_counterexample.json",
            lambda c: c["rates"].update(private=[True, "39/100", "39/100"]),
            "in rates",
        ),
        (
            "region-check",
            "f4_pairwise_counterexample.json",
            lambda c: c["channel"].update(noise_pmf=[True, False, False, False]),
            "in noise_pmf",
        ),
        (
            "region-check",
            "f4_pairwise_counterexample.json",
            lambda c: c["rates"].update(common=["1,2"]),
            "rates.common must be a JSON object",
        ),
        (
            "schedule-build",
            "schedule_l3.json",
            lambda c: c["lengths"].update(k=["1"]),
            "lengths.k must be a JSON object",
        ),
        (
            "region-check",
            "f4_pairwise_counterexample.json",
            lambda c: c["rates"].update(private="000"),
            "rates.private must be a JSON list",
        ),
        (
            "region-check",
            "f4_pairwise_counterexample.json",
            lambda c: c["channel"].update(noise_pmf="1000"),
            "noise_pmf must be a JSON list",
        ),
        (
            "region-check",
            "f4_pairwise_counterexample.json",
            lambda c: c["channel"]["field"].update(reduction_poly="111"),
            "field.reduction_poly must be a JSON list",
        ),
        (
            "region-check",
            "f4_pairwise_counterexample.json",
            lambda c: c["channel"]["field"].update(reduction_poly=[1.5, 1, True]),
            "field.reduction_poly must be an integer",
        ),
        (
            "region-check",
            "f4_pairwise_counterexample.json",
            lambda c: c["channel"]["downlink"]["users"][0].update(matrix=["10", "01"]),
            "downlink user 1 matrix must be a JSON list",
        ),
        (
            "region-check",
            "f4_pairwise_counterexample.json",
            lambda c: c["channel"]["downlink"]["users"][0].update(matrix=[]),
            "downlink user 1 matrix must be a nonempty list of equal-length rows",
        ),
        (
            "simulate",
            "noisy_uplink_small.json",
            lambda c: c["channel"]["downlink"]["users"][1].update(matrix=[["1", "0"], ["1"]]),
            "downlink user 2 matrix must be a nonempty list of equal-length rows",
        ),
        (
            "region-check",
            "f4_pairwise_counterexample.json",
            lambda c: c["channel"]["downlink"].update(users="abc"),
            "downlink.users must be a JSON list",
        ),
        (
            "fdfp-check",
            "f4_pairwise_counterexample.json",
            lambda c: c.update(caps="111"),
            "caps must be a JSON list",
        ),
        (
            "simulate",
            "zero_noise_roundtrip.json",
            lambda c: c.update(sweep={"axis": "n", "values": "88"}),
            "sweep.values must be a JSON list",
        ),
        (
            "simulate",
            "noisy_uplink_small.json",
            lambda c: c["channel"]["downlink"].pop("input_size"),
            "missing keys ['input_size'] in downlink",
        ),
        (
            "simulate",
            "noisy_uplink_small.json",
            lambda c: c["channel"]["downlink"]["users"][1].pop("matrix"),
            "missing keys ['matrix'] in downlink user 2",
        ),
        (
            "simulate",
            "noisy_uplink_small.json",
            lambda c: c["channel"]["field"].pop("order"),
            "missing keys ['order'] in field",
        ),
        (
            "simulate",
            "noisy_uplink_small.json",
            lambda c: c.update(sweep={"values": [40]}),
            "missing keys ['axis'] in sweep",
        ),
        (
            "simulate",
            "noisy_uplink_small.json",
            lambda c: c.update(sweep={"axis": "n"}),
            "missing keys ['values'] in sweep",
        ),
        (
            "region-check",
            "f4_pairwise_counterexample.json",
            lambda c: c["channel"].pop("noise_pmf"),
            "missing keys ['noise_pmf'] in channel",
        ),
        (
            "schedule-build",
            "schedule_l3.json",
            lambda c: c["lengths"].pop("k"),
            "missing keys ['k'] in lengths",
        ),
        (
            "region-sweep",
            "region_sweep_f4.json",
            lambda c: c["sweep"].pop("step"),
            "missing keys ['step'] in sweep",
        ),
        (
            "region-check",
            "f4_pairwise_counterexample.json",
            lambda c: c["rates"].pop("private"),
            "missing keys ['private'] in rates",
        ),
        (
            "region-sweep",
            "region_sweep_f4.json",
            lambda c: c["sweep"].update(max="-1"),
            "grid max -1 is below 0, so the grid is empty",
        ),
    ]
    + [(cmd, name, lambda c, k=key: c.pop(k), f"missing keys ['{key}'] in config")
       for cmd, name, key in REQUIRED]
    + [("region-check", F4, lambda c, v=v: c["rates"].update(common=v),
        "rates.common must be a JSON object") for v in FALSY]
    + [("simulate", ZERO, lambda c, v=v: c.update(sweep=v), "sweep must be a JSON object")
       for v in FALSY]
    + [("simulate", ZERO, lambda c: c.update(sweep={}), "missing keys ['axis', 'values'] in sweep")],
    ids=["repeated-common-pair", "repeated-length-pair", "non-integer-key", "equal-pair-axis",
         "unknown-axis", "same-axis-twice", "bool-rate", "bool-probability", "common-list", "k-list",
         "private-string", "noise-pmf-string", "reduction-poly-string", "reduction-poly-float",
         "matrix-row-strings", "empty-matrix", "ragged-matrix",
         "users-string", "caps-string", "sweep-values-string",
         "no-input-size", "no-matrix", "no-field-order", "no-sweep-axis", "no-sweep-values",
         "no-noise-pmf", "no-lengths-k", "no-region-sweep-step", "no-private",
         "negative-sweep-max"]
    + [f"no-{key}-{cmd}" for cmd, _, key in REQUIRED]
    + [f"common-{v!r}" for v in FALSY] + [f"sweep-{v!r}" for v in FALSY] + ["sweep-{}"],
)
def test_bad_message_ids_are_config_errors_naming_the_section(
    tmp_path, capsys, command, name, edit, section
):
    code, out, err = run([command, "--config", _edited_config(tmp_path, name, edit)], capsys)
    assert code == 2 and out == ""
    assert err.startswith("config error: ") and section in err


def test_noise_pmf_length_is_checked_before_the_field_is_built(tmp_path, capsys, monkeypatch):
    # The field's tables grow with its order, so a huge order must fail on the
    # noise_pmf length before any Field is made.
    built = []
    monkeypatch.setattr(cli, "Field", lambda *a: built.append(a))

    def edit(c):
        c["channel"]["field"]["order"] = 2**31 - 1
        c["channel"]["noise_pmf"] = ["0.5", "0.5"]

    code, out, err = run(["region-check", "--config", _edited_config(tmp_path, F4, edit)], capsys)
    assert code == 2 and out == "" and built == []
    assert err.startswith("config error: noise_pmf has 2 entries") and str(2**31 - 1) in err


def test_a_top_level_list_config_is_a_config_error(tmp_path, capsys):
    p = tmp_path / "cfg.json"
    p.write_text('["channel", "rates"]')
    code, out, err = run(["region-check", "--config", p], capsys)
    assert code == 2 and out == ""
    assert "config error: config must be a JSON object" in err


def test_rate_scale_sweep_values_are_parsed_exactly(tmp_path, capsys, monkeypatch):
    # As a float, 0.3 scales rates 1/10 at n = 100 over GF(2) to k = 2, not 3.
    seen = []
    monkeypatch.setattr(sim, "sweep", lambda cfg, axis, values, **kw: seen.extend(values) or [])

    def edit(c):
        del c["lengths"]
        c.update(n=100, sweep={"axis": "rate_scale", "values": [0.3, "0.3"]})
        c["rates"] = {"private": ["1/10", "1/10", "1/10"]}

    path = _edited_config(tmp_path, "noisy_uplink_small.json", edit)
    code, _, _ = run(["simulate", "--config", path], capsys)
    assert code == 0
    assert seen == [Fraction(3, 10)] * 2 and all(isinstance(v, Fraction) for v in seen)


@pytest.mark.parametrize("flag", ["--seed", "--threads"])
def test_seed_and_threads_belong_to_simulate_only(capsys, flag):
    with pytest.raises(SystemExit) as exc:
        main(["region-check", "--config", str(CONFIGS / "f4_pairwise_counterexample.json"),
              flag, "3"])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, name, flag",
    [("region-check", F4, "--out"), ("schedule-build", L3, "--json-out"),
     ("simulate", ZERO, "--out"), ("schedule-build", L3, "--out")],
    ids=["out", "json-out", "simulate-out", "schedule-build-out"],
)
def test_an_unwritable_output_path_exits_2_naming_it(
    tmp_path, capsys, monkeypatch, command, name, flag
):
    # The path is checked before the command's work, which here fails if reached.
    def work(cfg, args):
        raise AssertionError("the command ran before its output path was checked")

    monkeypatch.setitem(cli.COMMANDS, command, work)
    path = tmp_path / "no-such-dir" / "out"
    code, out, err = run([command, "--config", CONFIGS / name, flag, path], capsys)
    assert (code, out) == (2, "")
    assert err.startswith(f"mwrelay {command}: error: argument {flag}: cannot write {path}: ")
    assert len(err.splitlines()) == 1
    assert list(tmp_path.iterdir()) == []


def test_an_internal_error_exits_4_with_its_traceback(capsys, monkeypatch):
    # A KeyError or TypeError can only come from a bug, never from the config.
    def work(cfg, args):
        raise KeyError("no such slot")

    monkeypatch.setitem(cli.COMMANDS, "schedule-build", work)
    code, out, err = run(["schedule-build", "--config", CONFIGS / L3], capsys)
    assert (code, out) == (4, "")
    assert err.startswith("internal error:\nTraceback (most recent call last):")
    assert err.rstrip().endswith("KeyError: 'no such slot'") and "config error" not in err


@pytest.mark.parametrize(
    "command, name, edit, message",
    [
        ("region-check", F4, lambda c: c["channel"]["downlink"]["users"].pop(),
         "rates name 3 users, the downlink 2"),
        ("region-sweep", SWEEP_F4, lambda c: c["sweep"].update(step="0"),
         "sweep.step: grid step must be positive"),
        ("simulate", ZERO, lambda c: c["channel"]["downlink"]["users"].pop(),
         "downlink and rate tuple disagree on the user count"),
        ("simulate", ZERO, lambda c: c.update(sweep={"axis": "k", "values": [1]}),
         "unknown sweep axis 'k'"),
        ("simulate", ZERO, lambda c: c.update(sweep={"axis": "rate_scale", "values": [1]}),
         "rate_scale sweeps need a rate tuple"),
        ("simulate", ZERO, lambda c: c.update(sweep={"axis": "n", "values": []}),
         "sweep needs at least one axis value"),
        ("simulate", ZERO, lambda c: c.update(sweep={"axis": "n", "values": [10, 4]}),
         "n=4 is below the"),
    ],
    ids=["region-check-users", "sweep-step", "simulate-users", "simulate-axis",
         "rate-scale-without-rates", "no-sweep-values", "short-block"],
)
def test_library_value_errors_about_the_config_exit_2_before_any_run(
    tmp_path, capsys, monkeypatch, command, name, edit, message
):
    def run_nothing(*args, **kwargs):
        raise AssertionError("a run started before the config was checked")

    for module, attr in ((sim, "run_trials"), (capacity, "max_min_downlink")):
        monkeypatch.setattr(module, attr, run_nothing)
    code, out, err = run([command, "--config", _edited_config(tmp_path, name, edit)], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("config error: ") and message in err and len(err.splitlines()) == 1


@pytest.mark.parametrize(
    "command, name, module, attr",
    [("region-check", F4, capacity, "max_min_downlink"), ("simulate", ZERO, codec, "relay_decode_sum"),
     ("fdfp-check", F4, lp, "solve_lp")],
)
def test_an_internal_value_error_exits_4_not_as_a_config_error(
    capsys, monkeypatch, command, name, module, attr
):
    def broken(*args, **kwargs):
        raise ValueError("an internal invariant failed")

    monkeypatch.setattr(module, attr, broken)
    code, out, err = run([command, "--config", CONFIGS / name], capsys)
    assert (code, out) == (4, "")
    assert err.startswith("internal error:\nTraceback (most recent call last):")
    assert err.rstrip().endswith("ValueError: an internal invariant failed")
    assert "config error" not in err


def test_a_failed_run_leaves_no_output_file(tmp_path, capsys):
    # The paths are probed before the run; a probe's file is removed again, and a
    # file that was already there keeps its contents.
    kept = tmp_path / "kept.json"
    kept.write_text("before")
    bad = _edited_config(tmp_path, L3, lambda c: c["lengths"].update(num_users=0))
    out = tmp_path / "out.txt"
    code, _, err = run(
        ["schedule-build", "--config", bad, "--out", out, "--json-out", kept], capsys
    )
    assert code == 2 and err.startswith("config error: ")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "kept.json"]
    assert kept.read_text() == "before"
