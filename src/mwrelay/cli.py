"""Command-line front end.

Subcommands::

    region-check    inner/outer membership for a rate tuple on a channel
    region-sweep    grid CSV over two rate coordinates
    fdfp-check      split-into-private baseline feasibility + certificate
    schedule-build  build and verify a message schedule, dump it
    simulate        Monte Carlo end-to-end error rate, CSV output

Each command reads one JSON config (--config).  Probabilities may be
decimal strings ("0.5") and rates exact rationals ("39/100"); both are
parsed exactly.  Exit codes: 0 success or affirmative verdict, 1
negative verdict, 2 bad config, 3 desk-scale capability exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

import numpy as np

from . import capacity, sim
from .capacity import RateTuple, RegionEvaluator, fdfp_feasible, region_slice
from .channel import DownlinkSpec, UplinkSpec
from .codec import CapabilityError
from .gf import Field
from .schedule import (
    SymbolLengths,
    build_table,
    format_table,
    msg_id,
    reindex_users,
    verify_props,
)
from .shuffle import decode_matrix, run_shuffle, simplify


class ConfigError(ValueError):
    """Malformed or inconsistent run configuration."""


def _require_keys(obj: dict, allowed: set[str], where: str) -> None:
    unknown = set(obj) - allowed
    if unknown:
        raise ConfigError(f"unknown keys {sorted(unknown)} in {where}")


def _fraction(value, where: str) -> Fraction:
    try:
        if isinstance(value, str):
            return Fraction(value)
        if isinstance(value, (int,)):
            return Fraction(value)
        if isinstance(value, float):
            return Fraction(str(value))
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"cannot parse number {value!r} in {where}: {exc}") from exc
    raise ConfigError(f"cannot parse number {value!r} in {where}")


def _integer(value, where: str) -> int:
    """An integer config value; bools and non-integral numbers are refused."""
    number = None if isinstance(value, bool) else _fraction(value, where)
    if number is None or number.denominator != 1:
        raise ConfigError(f"{where} must be an integer, got {value!r}")
    return int(number)


def _probability_list(values, where: str) -> np.ndarray:
    fracs = [_fraction(v, where) for v in values]
    total = sum(fracs, Fraction(0))
    if total <= 0:
        raise ConfigError(f"probabilities in {where} must have a positive sum")
    return np.array([float(f / total) for f in fracs], dtype=np.float64)


def parse_field(obj: dict) -> Field:
    _require_keys(obj, {"order", "reduction_poly"}, "field")
    try:
        return Field(_integer(obj["order"], "field.order"), obj.get("reduction_poly"))
    except ValueError as exc:
        raise ConfigError(f"bad field spec: {exc}") from exc


def parse_channel(obj: dict) -> tuple[UplinkSpec, DownlinkSpec]:
    _require_keys(obj, {"field", "noise_pmf", "downlink"}, "channel")
    for key in ("field", "noise_pmf", "downlink"):
        if key not in obj:
            raise ConfigError(f"channel config is missing {key!r}")
    field = parse_field(obj["field"])
    noise = _probability_list(obj["noise_pmf"], "noise_pmf")
    if noise.size != field.order:
        raise ConfigError(
            f"noise_pmf has {noise.size} entries but the field has order {field.order}"
        )
    dl = obj["downlink"]
    _require_keys(dl, {"input_size", "users"}, "downlink")
    users = []
    for i, u in enumerate(dl.get("users", []), start=1):
        _require_keys(u, {"matrix"}, f"downlink user {i}")
        rows = [_probability_list(row, f"downlink user {i}") for row in u["matrix"]]
        users.append(np.stack(rows))
    try:
        down = DownlinkSpec(_integer(dl["input_size"], "downlink.input_size"), tuple(users))
        up = UplinkSpec(field, noise)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return up, down


def parse_rates(obj: dict, where: str = "rates") -> RateTuple:
    _require_keys(obj, {"private", "common"}, where)
    if "private" not in obj:
        raise ConfigError(f"{where} needs a 'private' list")
    private = [_fraction(v, where) for v in obj["private"]]
    common = {key: _fraction(v, where) for key, v in (obj.get("common") or {}).items()}
    try:
        return RateTuple.from_lists(private, common)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def parse_lengths(obj: dict) -> SymbolLengths:
    _require_keys(obj, {"num_users", "k"}, "lengths")
    for key in ("num_users", "k"):
        if key not in obj:
            raise ConfigError(f"lengths config is missing {key!r}")
    k = {key: _integer(v, f"lengths.k[{key!r}]") for key, v in obj["k"].items()}
    try:
        return SymbolLengths(_integer(obj["num_users"], "lengths.num_users"), k)
    except ValueError as exc:
        raise ConfigError(f"lengths: {exc}") from exc


def _load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# -- subcommands ------------------------------------------------------------------


def cmd_region_check(cfg: dict, args) -> int:
    # "caps" is legal so one channel+rates config can also serve fdfp-check.
    _require_keys(cfg, {"channel", "rates", "caps"}, "config")
    up, down = parse_channel(cfg.get("channel", {}))
    rates = parse_rates(cfg.get("rates", {}))
    evaluator = RegionEvaluator(up, down)
    rep = evaluator.report(rates)
    lines = []
    for a, s in enumerate(rep.sum_rates, start=1):
        lines.append(f"sum rate user {a}: {s} = {float(s):.6f} bits/use")
    lines.append(f"uplink bound: {rep.uplink_bound:.6f} bits/use")
    lines.append(f"downlink margin: {rep.margin:.6f} at p(x0) = {np.round(rep.argmax_dist, 6).tolist()}")
    lines.append(f"downlink margin upper bound: {rep.upper:.6f}")
    lines.append(f"inner verdict: {'Achievable' if rep.achievable else 'NotShown'}")
    lines.append(f"outer verdict: {'InsideOrBoundary' if rep.inside_outer else 'Outside'}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0 if rep.achievable else 1


def _default_caps(up: UplinkSpec, down: DownlinkSpec) -> list[Fraction]:
    """Per-user caps from the channel: min(uplink bound, peak mutual info)."""
    bound = capacity.uplink_bound(up)
    caps = []
    for a in range(1, down.num_users + 1):
        best, _, _ = capacity.max_min_downlink(
            DownlinkSpec(down.input_size, (down.channel(a),)), [0.0]
        )
        caps.append(Fraction(min(bound, best)))
    return caps


def cmd_fdfp_check(cfg: dict, args) -> int:
    _require_keys(cfg, {"channel", "rates", "caps"}, "config")
    rates = parse_rates(cfg.get("rates", {}))
    if "caps" in cfg:
        caps = [_fraction(v, "caps") for v in cfg["caps"]]
    elif "channel" in cfg:
        up, down = parse_channel(cfg["channel"])
        caps = _default_caps(up, down)
    else:
        raise ConfigError("fdfp-check needs 'caps' or a 'channel' to derive them from")
    res = fdfp_feasible(rates, caps)
    lines = []
    if res.feasible:
        lines.append("verdict: Feasible")
        for (pair, to), v in sorted(res.splits.items()):
            if v:
                lines.append(f"  split W{pair[0]},{pair[1]} -> user {to}: {v}")
        for a, r in enumerate(res.effective_private, start=1):
            lines.append(f"  effective private rate r_{a} = {r}")
    else:
        lines.append("verdict: Infeasible")
        cert = res.certificate
        lines.append(f"conflicting caps (minimal set): users {cert.minimal_caps}")
        for ch in cert.chains:
            others = "+".join(f"r_{j}" for j in range(1, rates.num_users + 1) if j != ch.user)
            lines.append(
                f"  chain: {others} >= {ch.bound} = {float(ch.bound):.6f}"
                f" > cap {ch.cap} = {float(ch.cap):.6f} (user {ch.user}'s constraint)"
            )
            lines.append(
                f"    derived from caps of users {ch.using_caps};"
                f" multipliers caps={_fmt_fracs(ch.cap_multipliers)}"
                f" pair-splits={_fmt_fracs(ch.eq_multipliers)}"
            )
    _emit("\n".join(lines) + "\n", args.out)
    return 0 if res.feasible else 1


def _fmt_fracs(d: dict) -> str:
    return "{" + ", ".join(f"{k}: {v}" for k, v in sorted(d.items())) + "}"


def cmd_schedule_build(cfg: dict, args) -> int:
    _require_keys(cfg, {"lengths"}, "config")
    lengths = parse_lengths(cfg.get("lengths", {}))
    order, lengths = reindex_users(lengths)
    table = build_table(lengths)
    rep = verify_props(table)
    cols, log = run_shuffle(simplify(table))
    lines = [f"user order after reindexing: {order}", format_table(table)]
    lines.append(f"properties: {'all hold' if rep.ok else 'FAILED'}")
    lines.extend(f"  {f}" for f in rep.failures)
    lines.append(f"shuffle swaps: {len(log)}")
    lines.extend(f"  {r.line()}" for r in log)
    for a in range(2, lengths.num_users + 1):
        system = decode_matrix(cols, a, table)
        lines.append(
            f"user {a}: {system.matrix.shape[0]} equations over"
            f" {len(system.unknown_order)} unknowns"
        )
    _emit("\n".join(lines) + "\n", args.out)
    if args.json_out:
        with open(args.json_out, "w") as fh:
            json.dump(table.to_json(), fh, indent=2)
    return 0 if rep.ok else 1


def _stats_row(value, st: sim.ErrorStats) -> str:
    return (
        f"{value:g},{st.trials},{st.failures},{st.p_hat:.8f},"
        f"{st.lo95:.8f},{st.hi95:.8f},{st.redraws}"
    )


def cmd_simulate(cfg: dict, args) -> int:
    _require_keys(
        cfg,
        {"channel", "rates", "lengths", "n", "n_dl", "trials", "sweep"},
        "config",
    )
    up, down = parse_channel(cfg.get("channel", {}))
    rates = parse_rates(cfg["rates"]) if "rates" in cfg else None
    lengths = parse_lengths(cfg["lengths"]) if "lengths" in cfg else None
    try:
        trial_cfg = sim.TrialConfig(
            up,
            down,
            n=_integer(cfg.get("n", 0), "n"),
            n_dl=_integer(cfg.get("n_dl", 0), "n_dl"),
            trials=_integer(cfg.get("trials", 0), "trials"),
            master_seed=args.seed,
            rates=rates,
            lengths=lengths,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if rates is not None:
        resolved = trial_cfg.resolved_lengths()
        ks = ", ".join(f"{k}:{v}" for k, v in sorted(resolved.k.items()) if v)
        print(f"quantized symbol lengths at n={trial_cfg.n}: {ks or 'all zero'}", file=sys.stderr)
    header = "axis_value,trials,failures,p_hat,lo95,hi95,redraws"
    sweep_cfg = cfg.get("sweep")
    if sweep_cfg:
        _require_keys(sweep_cfg, {"axis", "values"}, "sweep")
        values = sweep_cfg["values"]
        if sweep_cfg["axis"] == "n":
            values = [_integer(v, "sweep.values") for v in values]
        rows = sim.sweep(
            trial_cfg,
            sweep_cfg["axis"],
            values,
            threads=args.threads,
            progress=lambda line: print(line, file=sys.stderr),
        )
        body = [_stats_row(v, st) for v, st in rows]
    else:
        st = sim.run_trials(trial_cfg, threads=args.threads)
        body = [_stats_row(trial_cfg.n, st)]
    _emit(header + "\n" + "\n".join(body) + "\n", args.out)
    return 0


def cmd_region_sweep(cfg: dict, args) -> int:
    _require_keys(cfg, {"channel", "rates", "sweep"}, "config")
    up, down = parse_channel(cfg.get("channel", {}))
    rates = parse_rates(cfg.get("rates", {"private": []}))
    sw = cfg.get("sweep", {})
    _require_keys(sw, {"x", "y", "step", "max"}, "sweep")
    for key in ("x", "y", "step"):
        if key not in sw:
            raise ConfigError(f"region sweep needs {key!r}")
    keys = []
    for axis in ("x", "y"):
        try:
            keys.append(msg_id(sw[axis]))
        except ValueError as exc:
            raise ConfigError(f"sweep.{axis}: {exc}") from exc
        if keys[-1] not in rates.rates:
            raise ConfigError(f"sweep.{axis}: no message {keys[-1]} among {rates.num_users} users")
    step = _fraction(sw["step"], "sweep.step")
    max_val = _fraction(sw["max"], "sweep.max") if "max" in sw else None
    rows = region_slice(rates, *keys, up, down, step, max_val)
    name_x, name_y = ("R_" + "_".join(map(str, key)) for key in keys)
    lines = [f"{name_x},{name_y},achievable,outer"]
    lines.extend(
        f"{float(r.x):.8f},{float(r.y):.8f},{int(r.achievable)},{int(r.inside_outer)}"
        for r in rows
    )
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _int_at_least(low: int):
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mwrelay",
        description="Finite-field multi-way relay coding and capacity tools",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in COMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON run configuration")
        p.add_argument("--out", default=None, help="output file (default stdout)")
        if name == "simulate":
            p.add_argument("--seed", type=_int_at_least(0), default=0, help="master seed")
            p.add_argument("--threads", type=_int_at_least(1), default=1, help="worker threads")
        if name == "schedule-build":
            p.add_argument("--json-out", default=None, help="table JSON dump path")
        p.set_defaults(fn=fn)
    return parser


COMMANDS = {
    "region-check": cmd_region_check,
    "region-sweep": cmd_region_sweep,
    "fdfp-check": cmd_fdfp_check,
    "schedule-build": cmd_schedule_build,
    "simulate": cmd_simulate,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _load_config(args.config)
        return args.fn(cfg, args)
    except CapabilityError as exc:
        print(f"capability error: {exc}", file=sys.stderr)
        return 3
    except (ConfigError, ValueError, KeyError, TypeError) as exc:
        # every value reaching the modules comes from the config file
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
