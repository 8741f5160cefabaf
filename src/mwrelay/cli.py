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
negative verdict, 2 bad config or flag, 3 desk-scale capability exceeded,
4 internal error (a bug; the traceback goes to stderr).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import traceback
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


def _object(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{where} must be a JSON object, not a {type(value).__name__}")
    return value


def _list(value, where: str) -> list:
    if not isinstance(value, list):
        raise ConfigError(f"{where} must be a JSON list, not a {type(value).__name__}")
    return value


def _require_keys(obj: dict, allowed: set[str], where: str, required=()) -> None:
    """Refuse keys outside ``allowed`` and absent ``required`` ones."""
    keys = set(_object(obj, where))
    for what, bad in (("unknown", keys - allowed), ("missing", set(required) - keys)):
        if bad:
            raise ConfigError(f"{what} keys {sorted(bad)} in {where}")


def _fraction(value, where: str) -> Fraction:
    try:
        if isinstance(value, (str, int)) and not isinstance(value, bool):
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
    fracs = [_fraction(v, where) for v in _list(values, where)]
    total = sum(fracs, Fraction(0))
    if total <= 0:
        raise ConfigError(f"probabilities in {where} must have a positive sum")
    return np.array([float(f / total) for f in fracs], dtype=np.float64)


def parse_channel(obj: dict) -> tuple[UplinkSpec, DownlinkSpec]:
    keys = {"field", "noise_pmf", "downlink"}
    _require_keys(obj, keys, "channel", keys)
    spec = obj["field"]
    _require_keys(spec, {"order", "reduction_poly"}, "field", {"order"})
    order = _integer(spec["order"], "field.order")
    noise = _probability_list(obj["noise_pmf"], "noise_pmf")
    # Before the field is built: its tables take memory in proportion to the order.
    if noise.size != order:
        raise ConfigError(f"noise_pmf has {noise.size} entries but the field has order {order}")
    poly = spec.get("reduction_poly")
    if poly is not None:
        poly = [_integer(c, "field.reduction_poly") for c in _list(poly, "field.reduction_poly")]
    try:
        field = Field(order, poly)
    except ValueError as exc:
        raise ConfigError(f"bad field spec: {exc}") from exc
    dl = obj["downlink"]
    _require_keys(dl, {"input_size", "users"}, "downlink", {"input_size"})
    users = []
    for i, u in enumerate(_list(dl.get("users", []), "downlink.users"), start=1):
        _require_keys(u, {"matrix"}, f"downlink user {i}", {"matrix"})
        where = f"downlink user {i} matrix"
        rows = [_probability_list(row, where) for row in _list(u["matrix"], where)]
        if not rows or len({row.size for row in rows}) > 1:
            raise ConfigError(f"{where} must be a nonempty list of equal-length rows")
        users.append(np.stack(rows))
    try:
        down = DownlinkSpec(_integer(dl["input_size"], "downlink.input_size"), tuple(users))
        up = UplinkSpec(field, noise)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return up, down


def parse_rates(obj: dict, where: str = "rates") -> RateTuple:
    _require_keys(obj, {"private", "common"}, where, {"private"})
    private = [_fraction(v, where) for v in _list(obj["private"], f"{where}.private")]
    common = _object(obj["common"], f"{where}.common") if "common" in obj else {}
    common = {key: _fraction(v, where) for key, v in common.items()}
    try:
        return RateTuple.from_lists(private, common)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def parse_lengths(obj: dict) -> SymbolLengths:
    keys = {"num_users", "k"}
    _require_keys(obj, keys, "lengths", keys)
    k = {m: _integer(v, f"lengths.k[{m!r}]") for m, v in _object(obj["k"], "lengths.k").items()}
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


def _writing(path: str, flag: str, mode: str = "w"):
    """``path`` opened in ``mode``; an ``OSError`` becomes a flag error naming it."""
    try:
        return open(path, mode)
    except OSError as exc:
        message = f"argument {flag}: cannot write {path}: {exc.strerror}"
        raise argparse.ArgumentError(None, message) from exc


def _check_writable(path: str | None, flag: str) -> None:
    """Refuse an output path before the run; a file the probe creates is removed."""
    if path:
        existed = os.path.lexists(path)
        _writing(path, flag, "a").close()
        if not existed:
            os.remove(path)


def _emit(text: str, path: str | None, flag: str = "--out") -> None:
    if not path:
        sys.stdout.write(text)
        return
    with _writing(path, flag) as fh:
        fh.write(text)


# -- subcommands ------------------------------------------------------------------


def cmd_region_check(cfg: dict, args) -> int:
    # "caps" is legal so one channel+rates config can also serve fdfp-check.
    _require_keys(cfg, {"channel", "rates", "caps"}, "config", {"channel", "rates"})
    up, down = parse_channel(cfg["channel"])
    rates = parse_rates(cfg["rates"])
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
    _require_keys(cfg, {"channel", "rates", "caps"}, "config", {"rates"})
    rates = parse_rates(cfg["rates"])
    if "caps" in cfg:
        caps = [_fraction(v, "caps") for v in _list(cfg["caps"], "caps")]
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
    _require_keys(cfg, {"lengths"}, "config", {"lengths"})
    lengths = parse_lengths(cfg["lengths"])
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
        _emit(json.dumps(table.to_json(), indent=2), args.json_out, "--json-out")
    return 0 if rep.ok else 1


def _stats_row(value, st: sim.ErrorStats) -> str:
    return (
        f"{value:g},{st.trials},{st.failures},{st.p_hat:.8f},"
        f"{st.lo95:.8f},{st.hi95:.8f},{st.redraws},{st.uplink_failures},{st.downlink_failures}"
    )


def cmd_simulate(cfg: dict, args) -> int:
    required = {"channel", "n", "n_dl", "trials"}
    _require_keys(cfg, required | {"rates", "lengths", "sweep"}, "config", required)
    up, down = parse_channel(cfg["channel"])
    rates = parse_rates(cfg["rates"]) if "rates" in cfg else None
    lengths = parse_lengths(cfg["lengths"]) if "lengths" in cfg else None
    try:
        trial_cfg = sim.TrialConfig(
            up,
            down,
            n=_integer(cfg["n"], "n"),
            n_dl=_integer(cfg["n_dl"], "n_dl"),
            trials=_integer(cfg["trials"], "trials"),
            master_seed=args.seed,
            rates=rates,
            lengths=lengths,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    axis, values = "n", [trial_cfg.n]  # without a sweep, one run at the config's n
    if "sweep" in cfg:
        sweep_cfg = cfg["sweep"]
        _require_keys(sweep_cfg, {"axis", "values"}, "sweep", {"axis", "values"})
        axis = sweep_cfg["axis"]
        parse = _integer if axis == "n" else _fraction
        values = [parse(v, "sweep.values") for v in _list(sweep_cfg["values"], "sweep.values")]
    for v in values if rates is not None else ():
        run = sim.at_axis_value(trial_cfg, axis, v)
        ks = ", ".join(f"{k}:{x}" for k, x in sorted(run.resolved_lengths().k.items()) if x)
        print(f"quantized symbol lengths at {axis}={v}: {ks or 'all zero'}", file=sys.stderr)
    progress = (lambda line: print(line, file=sys.stderr)) if "sweep" in cfg else None
    rows = sim.sweep(trial_cfg, axis, values, progress=progress)
    header = "axis_value,trials,failures,p_hat,lo95,hi95,redraws,uplink_fail,downlink_fail"
    _emit(header + "\n" + "\n".join(_stats_row(v, st) for v, st in rows) + "\n", args.out)
    return 0


def cmd_region_sweep(cfg: dict, args) -> int:
    required = {"channel", "rates", "sweep"}
    _require_keys(cfg, required, "config", required)
    up, down = parse_channel(cfg["channel"])
    rates = parse_rates(cfg["rates"])
    sw = cfg["sweep"]
    _require_keys(sw, {"x", "y", "step", "max"}, "sweep", {"x", "y", "step"})
    keys = []
    for axis in ("x", "y"):
        try:
            keys.append(msg_id(sw[axis]))
        except ValueError as exc:
            raise ConfigError(f"sweep.{axis}: {exc}") from exc
        if keys[-1] not in rates.rates:
            raise ConfigError(f"sweep.{axis}: no message {keys[-1]} among {rates.num_users} users")
    if keys[0] == keys[1]:
        raise ConfigError(f"sweep.y: message {keys[1]} is also sweep.x")
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
            p.add_argument("--threads", type=_int_at_least(1), default=1, help="has no effect")
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
        _check_writable(args.out, "--out")
        _check_writable(getattr(args, "json_out", None), "--json-out")
        cfg = _load_config(args.config)
        return args.fn(cfg, args)
    except CapabilityError as exc:
        print(f"capability error: {exc}", file=sys.stderr)
        return 3
    except argparse.ArgumentError as exc:
        print(f"mwrelay {args.command}: error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        # every value reaching the modules comes from the config file
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception:
        print("internal error:", file=sys.stderr)
        traceback.print_exc()
        return 4


if __name__ == "__main__":
    sys.exit(main())
