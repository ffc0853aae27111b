"""Command-line interface: scenario simulation, parameter sweeps, count
fitting and the dephasing Monte Carlo.

Exit codes: 0 success, 2 configuration error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import dephasing, distinguishability, histogram_fit, protocol

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


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
        if not rows:
            raise ConfigError("empty result table")
        header = list(rows[0].keys())
        lines = _echo_lines(config)
        lines.append(",".join(header))
        for row in rows:
            lines.append(",".join(_fmt(row[k]) for k in header))
        text = "\n".join(lines) + "\n"
    if out_path is None or out_path == "-":
        sys.stdout.write(text)
    else:
        with open(out_path, "w") as fh:
            fh.write(text)


def load_config(path) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}")


def _require(mapping: dict, field: str, context: str):
    if field not in mapping:
        raise ConfigError(f"{context}: missing required field {field!r}")
    return mapping[field]


def _noise_from(entry: dict, context: str) -> protocol.NoiseConfig:
    refl = entry.get("reflectivities", [0.5, 0.5, 0.5])
    if len(refl) != 3:
        raise ConfigError(f"{context}: reflectivities must list [r1, r2, r_final]")
    try:
        return protocol.NoiseConfig(
            g2=float(entry.get("g2", 0.0)),
            r1=float(refl[0]),
            r2=float(refl[1]),
            r_final=float(refl[2]),
            transmissions=entry.get("transmissions"),
            loss_stage=entry.get("loss_stage", "input"),
        )
    except ValueError as exc:
        raise ConfigError(f"{context}: {exc}")


def _scenario_from(entry: dict, index: int) -> protocol.Scenario:
    context = f"scenario[{index}]"
    model = _require(entry, "model", context)
    noise = _noise_from(entry, context)
    c = entry.get("c")
    if c is None and "c2" in entry:
        c = float(np.sqrt(entry["c2"]))
    try:
        return protocol.Scenario(
            scenario_id=str(entry.get("id", index)),
            model=model,
            noise=noise,
            c=c,
            x=entry.get("x"),
            theta_deg=entry.get("theta_deg"),
            direction=entry.get("direction", "same"),
        )
    except ValueError as exc:
        raise ConfigError(f"{context}: {exc}")


def cmd_simulate(args) -> int:
    config = load_config(args.config)
    entries = _require(config, "scenarios", args.config)
    scenarios = [_scenario_from(e, i) for i, e in enumerate(entries)]
    rows = [protocol.evaluate_scenario(s) for s in scenarios]
    write_rows(rows, config, args.out, args.format)
    return EXIT_OK


def _grid(config: dict, context: str) -> np.ndarray:
    start = float(_require(config, "start", context))
    stop = float(_require(config, "stop", context))
    points = int(_require(config, "points", context))
    if points < 1:
        raise ConfigError(f"{context}: empty grid")
    return np.linspace(start, stop, points)


def _sweep_visibility_row(v_raw: float, models: tuple[str, ...], g2: float) -> dict:
    c = float(np.sqrt(v_raw))
    row = {"v_raw": v_raw}
    for model in models:
        if model == "multipermanent":
            row["v_pure_multipermanent"] = protocol.purified_visibility(c)[1]
        elif model == "pure_dephasing":
            x = 1.0 / v_raw - 1.0
            row["v_pure_pure_dephasing"] = dephasing.pd_purified(x)
        elif model == "multipermanent_g2":
            row["v_pure_multipermanent_g2"] = protocol.multiphoton_visibility(c, g2)[1]
        else:
            raise ConfigError(f"unknown sweep model {model!r}")
    return row


def cmd_sweep(args) -> int:
    config = load_config(args.config)
    kind = _require(config, "sweep", args.config)
    grid = _grid(config, args.config)
    if kind == "raw_visibility":
        models = tuple(config.get("models", ["multipermanent", "pure_dephasing", "multipermanent_g2"]))
        g2 = float(config.get("g2", 0.0))
        rows = [_sweep_visibility_row(float(v), models, g2) for v in grid]
    elif kind == "polarization":
        rows = protocol.polarization_bounds(grid)
    elif kind in ("first_bs", "second_bs", "final_bs"):
        c = _sweep_overlap(config, args.config)
        which = kind.split("_")[0]
        rows = protocol.bs_sweep(which, grid, c, g2=float(config.get("g2", 0.0)))
    elif kind == "g2":
        c = _sweep_overlap(config, args.config)
        rows = []
        for g2 in grid:
            v_raw, v_pure = protocol.multiphoton_visibility(c, float(g2))
            rows.append(
                {"g2": float(g2), "v_raw": v_raw, "v_pure": v_pure, "improvement": v_pure - v_raw}
            )
    else:
        raise ConfigError(
            f"{args.config}: unknown sweep {kind!r} "
            "(expected raw_visibility, polarization, first_bs, second_bs, final_bs or g2)"
        )
    write_rows(rows, config, args.out, args.format)
    return EXIT_OK


def _sweep_overlap(config: dict, context: str) -> float:
    if "c" in config:
        return float(config["c"])
    if "c2" in config:
        return float(np.sqrt(config["c2"]))
    raise ConfigError(f"{context}: missing required field 'c' (or 'c2')")


def cmd_fit(args) -> int:
    geometry = histogram_fit.SetupGeometry(
        demux_split=args.demux_split,
        split_bs_reflectivity=args.split_reflectivity,
        mode="purified" if args.mode == "pure" else "raw",
    )
    if geometry.mode == "purified" and args.v_raw is None:
        raise ConfigError("purified-mode fit requires --v-raw from a prior raw fit")
    if args.v_raw is not None and not 0.0 <= args.v_raw <= 1.0:
        raise ConfigError(f"--v-raw must lie in [0, 1], got {args.v_raw}")
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
        result = histogram_fit.FitResult(
            t=result.t, v=result.v, residual=result.residual, sigma_t=sigma_t, sigma_v=sigma_v
        )
    print(histogram_fit.format_fit_report(result, geometry))
    if args.out:
        row = {
            "mode": geometry.mode,
            "t": result.t,
            "v": result.v,
            "residual": result.residual,
            "sigma_t": result.sigma_t,
            "sigma_v": result.sigma_v,
        }
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
        params = distinguishability.DephasingParams.from_x(args.x)
    elif args.gamma is not None and args.gamma_d is not None:
        params = distinguishability.DephasingParams(gamma=args.gamma, gamma_d=args.gamma_d)
    else:
        raise ConfigError("give either --x or both --gamma and --gamma-d")
    samples = distinguishability.sample_dephased_overlaps(
        params, n_photons=args.photons, n_samples=args.samples, seed=args.seed,
        dt=args.dt, horizon=args.horizon,
    )
    moments = dephasing.estimate_overlap_moments(samples)
    per_sample = dephasing.moment_samples(samples)
    n = args.samples
    report = {
        "x": params.x,
        "pair_mc": moments.pair,
        "pair_se": float(per_sample["pair"].std(ddof=1) / np.sqrt(n)),
        "pair_analytic": distinguishability.dephasing_overlap(params),
        "triple_mc": moments.triple,
        "triple_se": float(per_sample["triple"].std(ddof=1) / np.sqrt(n)),
        "quad_mc": moments.quad,
        "quad_se": float(per_sample["quad"].std(ddof=1) / np.sqrt(n)),
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hompurify",
        description="Simulate and fit linear-optical purification of photon indistinguishability",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--out", default=None, help="output path ('-' for stdout)")
        p.add_argument("--format", choices=["csv", "json"], default="csv")
        p.add_argument("--seed", type=int, default=None, help="seed for stochastic steps")

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
    p_fit.add_argument("--demux-split", type=float, default=0.5)
    p_fit.add_argument("--split-reflectivity", type=float, default=0.55)
    p_fit.add_argument("--mc-resamples", type=int, default=0)
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
    add_common(p_mc)
    p_mc.set_defaults(func=cmd_mc_dephasing)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (histogram_fit.FitError, ValueError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
