"""Command-line interface: scenario simulation, parameter sweeps, count
fitting and the dephasing Monte Carlo.

Exit codes: 0 success, 2 configuration error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import sys

import numpy as np

from . import dephasing, distinguishability, histogram_fit, protocol

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
DEFAULT_DEMUX_SPLIT = histogram_fit.SetupGeometry.demux_split


class ConfigError(Exception):
    pass


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def _echo_lines(config: dict) -> list[str]:
    lines = []
    for key in sorted(config):
        lines.append(f"# {key} = {json.dumps(config[key], sort_keys=True)}")
    return lines


def write_rows(rows: list[dict], config: dict, out_path, fmt: str) -> None:
    """Emit a result table with a full input echo; CSV gets the echo as
    comment lines, JSON as a config block. Identical inputs produce
    byte-identical output."""
    if fmt == "json":
        text = json.dumps({"config": config, "rows": rows}, sort_keys=True, indent=2) + "\n"
    else:
        header = list(rows[0].keys())
        lines = _echo_lines(config)
        lines.append(",".join(header))
        for row in rows:
            lines.append(",".join(_fmt(row[k]) for k in header))
        text = "\n".join(lines) + "\n"
    if out_path is None or out_path == "-":
        sys.stdout.write(text)
        return
    try:
        fh = open(out_path, "w")
    except OSError as exc:
        raise ConfigError(f"{out_path}: cannot write the output file: {exc.strerror}")
    with fh:
        fh.write(text)


def _check_out(out_path) -> None:
    """Refuse an `--out` whose directory is missing or not writable, or
    that names a directory, before the command does any work."""
    if not out_path or out_path == "-":
        return
    folder = os.path.dirname(out_path) or "."
    if not os.path.isdir(folder):
        reason = f"no directory {folder}"
    elif not os.access(folder, os.W_OK):
        reason = f"the directory {folder} is not writable"
    elif os.path.isdir(out_path):
        reason = "it is a directory"
    else:
        return
    raise ConfigError(f"{out_path}: cannot write the output file: {reason}")


def load_config(path) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            config = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read the config file: {exc.strerror}")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text: {exc.reason} at byte {exc.start}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}")
    if not isinstance(config, dict):
        kind = type(config).__name__
        raise ConfigError(f"{path}: the top level must be a JSON object, not {kind}")
    return config


def _require(mapping: dict, field: str, context: str):
    if field not in mapping:
        raise ConfigError(f"{context}: missing required field {field!r}")
    return mapping[field]


# (predicate, description) ranges for `_checked`
_ANY = (lambda v: True, "a number")
_NON_NEGATIVE = (lambda v: v >= 0.0, "a number >= 0")
_POSITIVE = (lambda v: v > 0.0, "a positive number")
_UNIT = (lambda v: 0.0 <= v <= 1.0, "a number in [0, 1]")
_G2 = (lambda v: 0.0 <= v < 0.5, "a number in [0, 0.5)")
_COUNT = (lambda v: v >= 1.0 and v.is_integer(), "an integer >= 1")


def _checked(value, field: str, rule, context: str | None = None) -> float:
    """`value` as a finite float inside `rule`, or a ConfigError naming
    `field` and the expected range. JSON true and false are not numbers."""
    ok, expect = rule
    try:
        number = math.nan if isinstance(value, bool) else float(value)
    except (TypeError, ValueError):
        number = math.nan
    if not (math.isfinite(number) and ok(number)):
        prefix = f"{context}: " if context else ""
        raise ConfigError(f"{prefix}{field} must be {expect}, got {value!r}")
    return number


def _fractions(values, field: str, count: int, context: str) -> list[float]:
    """A list of `count` numbers in [0, 1]."""
    if not isinstance(values, list) or len(values) != count:
        raise ConfigError(f"{context}: {field!r} must list {count} numbers in [0, 1]")
    return [_checked(v, f"{field!r}[{i}]", _UNIT, context) for i, v in enumerate(values)]


# the fields each scenario model and each sweep kind reads; any other exits 2
_CIRCUIT = ("g2", "reflectivities", "transmissions", "loss_stage")
_SCENARIO_FIELDS = {
    "constant": ("id", "model", "c", "c2", *_CIRCUIT),
    "polarization": ("id", "model", "theta_deg", "direction", *_CIRCUIT),
    "pure_dephasing": ("id", "model", "x"),
}
_GRID = ("sweep", "start", "stop", "points")
_SWEEP_FIELDS = {
    "raw_visibility": (*_GRID, "models", "g2"), "polarization": _GRID, "g2": (*_GRID, "c", "c2"),
    **dict.fromkeys(("first_bs", "second_bs", "final_bs"), (*_GRID, "c", "c2", "g2")),
}


def _known_fields(config: dict, fields: tuple[str, ...], context: str, what: str) -> None:
    for key in config:
        if key not in fields:
            raise ConfigError(f"{context}: unknown field {key!r} for {what}")


def _noise_from(entry: dict, context: str) -> protocol.NoiseConfig:
    r1, r2, r_final = _fractions(entry.get("reflectivities", [0.5] * 3), "reflectivities", 3, context)
    transmissions = entry.get("transmissions")
    if transmissions is not None:
        transmissions = _fractions(transmissions, "transmissions", 6, context)
    try:
        return protocol.NoiseConfig(
            g2=_checked(entry.get("g2", 0.0), "'g2'", _G2, context),
            r1=r1,
            r2=r2,
            r_final=r_final,
            transmissions=transmissions,
            loss_stage=entry.get("loss_stage", "input"),
        )
    except ValueError as exc:
        raise ConfigError(f"{context}: {exc}")


def _scenario_from(entry: dict, index: int) -> protocol.Scenario:
    context = f"scenario[{index}]"
    if not isinstance(entry, dict):
        raise ConfigError(f"{context}: expected an object, got {entry!r}")
    model = _require(entry, "model", context)
    fields = _SCENARIO_FIELDS.get(str(model), tuple(entry))  # an unknown model fails in Scenario
    _known_fields(entry, fields, context, f"model {model!r}")
    noise = _noise_from(entry, context)
    c = _overlap(entry, context)
    x, theta = entry.get("x"), entry.get("theta_deg")
    if x is not None:
        x = _checked(x, "'x'", _NON_NEGATIVE, context)
    if theta is not None:
        theta = _checked(theta, "'theta_deg'", _ANY, context)
    try:
        return protocol.Scenario(
            scenario_id=str(entry.get("id", index)),
            model=model,
            noise=noise,
            c=c,
            x=x,
            theta_deg=theta,
            direction=entry.get("direction", "same"),
        )
    except ValueError as exc:
        raise ConfigError(f"{context}: {exc}")


def cmd_simulate(args) -> int:
    config = load_config(args.config)
    entries = _require(config, "scenarios", args.config)
    _known_fields(config, ("scenarios",), args.config, "simulate")
    if not (isinstance(entries, list) and entries):
        raise ConfigError(f"{args.config}: 'scenarios' must be a non-empty list of scenarios")
    scenarios = [_scenario_from(e, i) for i, e in enumerate(entries)]
    rows = protocol.evaluate_scenarios(scenarios)
    write_rows(rows, config, args.out, args.format)
    return EXIT_OK


def _grid(config: dict, context: str, rule) -> np.ndarray:
    """The sweep grid; `start` and `stop` must lie inside `rule`."""
    start, stop = (
        _checked(_require(config, field, context), repr(field), rule, context)
        for field in ("start", "stop")
    )
    points = _checked(_require(config, "points", context), "'points'", _COUNT, context)
    return np.linspace(start, stop, int(points))


def cmd_sweep(args) -> int:
    config = load_config(args.config)
    context = args.config
    kind = _require(config, "sweep", context)
    fields = _SWEEP_FIELDS.get(str(kind), tuple(config))  # an unknown kind fails below
    _known_fields(config, fields, context, f"sweep {kind!r}")
    if kind == "raw_visibility":
        models = config.get("models", list(protocol.SWEEP_MODELS))
        if not (isinstance(models, list) and models
                and all(model in protocol.SWEEP_MODELS for model in models)):
            raise ConfigError(
                f"{context}: 'models' must be a non-empty list of "
                f"{', '.join(protocol.SWEEP_MODELS)}, got {models!r}"
            )
        g2 = _checked(config.get("g2", 0.0), "'g2'", _G2, context)
        rule = _UNIT
        if "pure_dephasing" in models:  # x = 1 / v_raw - 1
            rule = (lambda v: 0.0 < v <= 1.0 and math.isfinite(1.0 / v),
                    "a number in (0, 1] with a finite 1 / v for the pure_dephasing model")
        rows = protocol.raw_visibility_sweep(_grid(config, context, rule), models, g2)
    elif kind == "polarization":
        rows = protocol.polarization_bounds(_grid(config, context, _ANY))
    elif kind in ("first_bs", "second_bs", "final_bs"):
        grid = _grid(config, context, _UNIT)
        c = _overlap(config, context, required=True)
        g2 = _checked(config.get("g2", 0.0), "'g2'", _G2, context)
        rows = protocol.bs_sweep(kind.split("_")[0], grid, c, g2=g2)
    elif kind == "g2":
        grid = _grid(config, context, _G2)
        rows = protocol.g2_sweep(grid, _overlap(config, context, required=True))
    else:
        raise ConfigError(
            f"{context}: unknown sweep {kind!r} "
            "(expected raw_visibility, polarization, first_bs, second_bs, final_bs or g2)"
        )
    write_rows(rows, config, args.out, args.format)
    return EXIT_OK


def _overlap(config: dict, context: str, required: bool = False) -> float | None:
    """The overlap c, given as 'c' or as 'c2' = c**2."""
    if "c" in config:
        return _checked(config["c"], "'c'", _UNIT, context)
    if "c2" in config:
        return float(np.sqrt(_checked(config["c2"], "'c2'", _UNIT, context)))
    if required:
        raise ConfigError(f"{context}: missing required field 'c' (or 'c2')")
    return None


def cmd_fit(args) -> int:
    _checked(args.demux_split, "--demux-split", _UNIT)
    if args.mode == "pure" and args.demux_split != DEFAULT_DEMUX_SPLIT:
        raise ConfigError(
            f"--demux-split must stay at {DEFAULT_DEMUX_SPLIT} in pure mode, since the "
            f"purified model has no demultiplexer, got {args.demux_split!r}"
        )
    _checked(args.split_reflectivity, "--split-reflectivity", _UNIT)
    _checked(args.rate, "--rate", _POSITIVE)
    _checked(args.time, "--time", _POSITIVE)
    geometry = histogram_fit.SetupGeometry(
        demux_split=args.demux_split,
        split_bs_reflectivity=args.split_reflectivity,
        mode="purified" if args.mode == "pure" else "raw",
    )
    if geometry.mode == "purified" and args.v_raw is None:
        raise ConfigError("purified-mode fit requires --v-raw from a prior raw fit")
    if args.v_raw is not None:
        _checked(args.v_raw, "--v-raw", _UNIT)
    if args.mc_resamples and args.mc_resamples < histogram_fit.MIN_RESAMPLES:
        raise ConfigError(f"--mc-resamples must be 0 or at least {histogram_fit.MIN_RESAMPLES}")
    if args.mc_resamples and args.seed is None:
        raise ConfigError("--mc-resamples requires --seed for reproducibility")
    reader = (
        histogram_fit.read_histogram if args.input_kind == "histogram"
        else histogram_fit.read_peak_counts
    )
    try:
        counts = reader(args.counts, repetition_rate=args.rate, integration_time=args.time)
    except (OSError, ValueError) as exc:
        raise ConfigError(str(exc))
    result = histogram_fit.fit(counts, geometry, v_raw=args.v_raw)
    if args.mc_resamples:
        sigma_t, sigma_v = histogram_fit.mc_uncertainty(
            counts, geometry, args.mc_resamples, seed=args.seed, v_raw=args.v_raw
        )
        result = dataclasses.replace(result, sigma_t=sigma_t, sigma_v=sigma_v)
    print(histogram_fit.format_fit_report(result, geometry))
    if args.out:
        row = {"mode": geometry.mode, **dataclasses.asdict(result)}
        config = {
            "counts": str(args.counts),
            "mode": args.mode,
            "v_raw": args.v_raw,
            "rate": args.rate,
            "time": args.time,
            "mc_resamples": args.mc_resamples,
            "seed": args.seed,
        }
        write_rows([row], config, args.out, args.format)
    return EXIT_OK


def cmd_mc_dephasing(args) -> int:
    if args.seed is None:
        raise ConfigError("mc-dephasing requires --seed")
    if args.x is not None:
        params = distinguishability.DephasingParams.from_x(_checked(args.x, "--x", _NON_NEGATIVE))
    elif args.gamma is not None and args.gamma_d is not None:
        params = distinguishability.DephasingParams(
            gamma=_checked(args.gamma, "--gamma", _POSITIVE),
            gamma_d=_checked(args.gamma_d, "--gamma-d", _NON_NEGATIVE),
        )
    else:
        raise ConfigError("give either --x or both --gamma and --gamma-d")
    if args.samples < 2:
        raise ConfigError(f"--samples must be at least 2 for standard errors, got {args.samples}")
    if args.photons < 4:
        raise ConfigError(
            f"--photons must be at least 4 for the four-photon cycle, got {args.photons}"
        )
    for flag, value in (("--dt", args.dt), ("--horizon", args.horizon)):
        if value is not None:
            _checked(value, flag, _POSITIVE)
    samples = distinguishability.sample_dephased_overlaps(
        params, n_photons=args.photons, n_samples=args.samples, seed=args.seed,
        dt=args.dt, horizon=args.horizon,
    )
    per_sample = dephasing.moment_samples(samples)
    moments = dephasing.OverlapMoments(**{k: float(v.mean()) for k, v in per_sample.items()})
    se = {k: float(v.std(ddof=1) / np.sqrt(args.samples)) for k, v in per_sample.items()}
    report = {
        "x": params.x,
        "pair_mc": moments.pair,
        "pair_se": se["pair"],
        "pair_analytic": distinguishability.dephasing_overlap(params),
        "triple_mc": moments.triple,
        "triple_se": se["triple"],
        "quad_mc": moments.quad,
        "quad_se": se["quad"],
        "purified_mc": 1.0 - 2.0 * dephasing.pd_coincidence(moments),
        "purified_closed_form": dephasing.pd_purified(params.x),
    }
    for key, value in report.items():
        print(f"{key} = {_fmt(value)}")
    if args.out:
        config = {
            "x": params.x, "samples": args.samples, "seed": args.seed,
            "photons": args.photons, "dt": args.dt, "horizon": args.horizon,
        }
        write_rows([report], config, args.out, args.format)
    return EXIT_OK


@functools.cache  # built once per process: building costs ten times what parsing does
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hompurify",
        description="Simulate and fit linear-optical purification of photon indistinguishability",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--out", default=None, help="output path ('-' for stdout)")
        p.add_argument("--format", choices=["csv", "json"], default="csv")

    p_sim = sub.add_parser("simulate", help="evaluate scenarios from a config file")
    p_sim.add_argument("--config", required=True)
    add_common(p_sim)
    p_sim.set_defaults(func=cmd_simulate)

    p_sweep = sub.add_parser("sweep", help="parameter sweeps (visibility, polarization, reflectivity, g2)")
    p_sweep.add_argument("--config", required=True)
    add_common(p_sweep)
    p_sweep.set_defaults(func=cmd_sweep)

    p_fit = sub.add_parser("fit", help="closed-form count inversion with optional Monte Carlo errors")
    p_fit.add_argument("--counts", required=True, help="peak-count or histogram file")
    p_fit.add_argument("--mode", choices=["raw", "pure"], required=True)
    p_fit.add_argument("--v-raw", type=float, default=None, help="raw visibility for pure mode")
    p_fit.add_argument("--input-kind", choices=["peaks", "histogram"], default="peaks")
    p_fit.add_argument("--rate", type=float, default=10e6, help="repetition rate in Hz")
    p_fit.add_argument("--time", type=float, default=30.0, help="integration time in s")
    p_fit.add_argument("--demux-split", type=float, default=DEFAULT_DEMUX_SPLIT,
                       help="raw mode only")
    p_fit.add_argument("--split-reflectivity", type=float, default=0.55)
    p_fit.add_argument("--mc-resamples", type=int, default=0)
    p_fit.add_argument("--seed", type=int, default=None, help="seed for the Monte Carlo resamples")
    add_common(p_fit)
    p_fit.set_defaults(func=cmd_fit)

    p_mc = sub.add_parser("mc-dephasing", help="wavepacket Monte Carlo vs closed forms")
    p_mc.add_argument("--x", type=float, default=None, help="dephasing strength 2*gamma_d/gamma")
    p_mc.add_argument("--gamma", type=float, default=None)
    p_mc.add_argument("--gamma-d", type=float, default=None)
    p_mc.add_argument("--samples", type=int, default=10000)
    p_mc.add_argument("--photons", type=int, default=4)
    p_mc.add_argument("--dt", type=float, default=None)
    p_mc.add_argument("--horizon", type=float, default=None)
    p_mc.add_argument("--seed", type=int, default=None, help="seed for the sampler")
    add_common(p_mc)
    p_mc.set_defaults(func=cmd_mc_dephasing)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_out(args.out)
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (histogram_fit.FitError, ValueError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
