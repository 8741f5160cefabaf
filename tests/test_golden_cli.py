"""Bundled CLI outputs compared byte for byte with files in ``tests/golden``.

A change that alters these outputs on purpose regenerates the files with
``PYTHONPATH=src python tests/test_golden_cli.py`` and records the old
and new values in CHANGES.md.
"""

import json
import sys
from pathlib import Path

import pytest

from mwrelay.cli import main

REPO = Path(__file__).resolve().parent.parent
CONFIGS = REPO / "configs"
GOLDEN = Path(__file__).resolve().parent / "golden"

#: Case name -> CLI arguments; each case writes ``<name>.out`` (and the
#: schedule case also ``<name>.json``).
CASES = {
    "region_check": ["region-check", "--config", "f4_pairwise_counterexample.json"],
    "fdfp_check": ["fdfp-check", "--config", "f4_pairwise_counterexample.json"],
    "fdfp_check_feasible": ["fdfp-check", "--config", "fdfp_feasible_l4.json"],
    "schedule_build": ["schedule-build", "--config", "schedule_l3.json"],
    "region_sweep": ["region-sweep", "--config", "region_sweep_f4.json"],
    "simulate_noisy": ["simulate", "--config", "noisy_uplink_small.json", "--seed", "11"],
    "simulate_noisy_downlink": ["simulate", "--config", "noisy_downlink_small.json", "--seed", "11"],
    "simulate_noisy_f4": ["simulate", "--config", "noisy_uplink_f4.json", "--seed", "11"],
    "simulate_zero": ["simulate", "--config", "zero_noise_roundtrip.json", "--seed", "11"],
}


def run_case(name: str, out_dir: Path) -> int:
    args = list(CASES[name])
    args[2] = str(CONFIGS / args[2])
    args += ["--out", str(out_dir / f"{name}.out")]
    if name == "schedule_build":
        args += ["--json-out", str(out_dir / f"{name}.json")]
    return main(args)


@pytest.mark.parametrize("name", sorted(CASES))
def test_bundled_outputs_are_byte_identical(name, tmp_path):
    codes = json.loads((GOLDEN / "exit_codes.json").read_text())
    assert run_case(name, tmp_path) == codes[name]
    written = sorted(p.name for p in tmp_path.iterdir())
    expected = sorted(p.name for p in GOLDEN.glob(f"{name}.*"))
    assert written == expected
    for file in written:
        assert (tmp_path / file).read_bytes() == (GOLDEN / file).read_bytes(), file


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    codes = {name: run_case(name, GOLDEN) for name in sorted(CASES)}
    (GOLDEN / "exit_codes.json").write_text(json.dumps(codes, indent=2) + "\n")
    sys.exit(0)
