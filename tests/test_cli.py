import json
from pathlib import Path

import pytest

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
    from mwrelay.schedule import MessageTable

    table = MessageTable.from_json(dumped)
    assert table.total_cols == 5


def test_simulate_zero_noise(tmp_path, capsys):
    out_file = tmp_path / "sim.csv"
    code, _, _ = run(
        ["simulate", "--config", CONFIGS / "zero_noise_roundtrip.json", "--out", out_file,
         "--seed", "3"],
        capsys,
    )
    assert code == 0
    lines = out_file.read_text().strip().splitlines()
    assert lines[0] == "axis_value,trials,failures,p_hat,lo95,hi95,redraws"
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
    ],
    ids=["repeated-common-pair", "repeated-length-pair", "non-integer-key", "equal-pair-axis",
         "unknown-axis"],
)
def test_bad_message_ids_are_config_errors_naming_the_section(
    tmp_path, capsys, command, name, edit, section
):
    code, out, err = run([command, "--config", _edited_config(tmp_path, name, edit)], capsys)
    assert code == 2 and out == ""
    assert err.startswith("config error: ") and section in err


@pytest.mark.parametrize("flag", ["--seed", "--threads"])
def test_seed_and_threads_belong_to_simulate_only(capsys, flag):
    with pytest.raises(SystemExit) as exc:
        main(["region-check", "--config", str(CONFIGS / "f4_pairwise_counterexample.json"),
              flag, "3"])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
