"""The benchmark's four workloads: the inputs each one makes from its seed,
and the `hompurify` command lines of one round.

A round is a fixed list of commands. Every command names the number of
operations it performs and the check its output must pass. Inputs are
written to files, the way a user hands them to the CLI; the program gets
nothing else.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import checks

SCENARIOS = 300
RESAMPLES = 500
MC_SAMPLES = 10000
MC_X = (0.05, 0.2, 1.0)
PURE_TIME = 800.0  # integration time of the purified count files, in s
SIDE_PEAKS = (-3, -2, -1, 1, 2, 3)


@dataclass
class Command:
    name: str
    ops: int
    argv: Callable[[dict], list[str]]            # earlier outputs of the round -> argv
    check: Callable[[bytes, dict], list[str]]    # output, earlier outputs -> failures


def derived_seed(seed: int, label: str) -> int:
    """A CLI --seed made from the workload seed; stable across processes."""
    return random.Random(f"{seed}:{label}").randrange(1, 2**31)


def _write_json(path: Path, payload) -> str:
    path.write_text(json.dumps(payload, indent=1) + "\n")
    return str(path)


def _out(out_dir: Path, name: str) -> str:
    return str(out_dir / f"{name}.json")


def theory_sweep(seed: int, in_dir: Path, out_dir: Path) -> list[Command]:
    """The README and criterion-12 sweep. Its inputs are fixed; the seed
    changes nothing."""
    config = _write_json(in_dir / "sweep.json", {
        "sweep": "raw_visibility", "start": 0.5, "stop": 1.0, "points": 51,
        "models": ["multipermanent", "pure_dephasing", "multipermanent_g2"],
        "g2": 0.07,
    })
    out = _out(out_dir, "sweep")
    return [Command(
        "sweep", 51,
        lambda _: ["sweep", "--config", config, "--out", out, "--format", "json"],
        lambda data, _: checks.check_sweep(data),
    )]


def _reflectivities(rng: random.Random) -> list[float]:
    return [rng.uniform(0.25, 0.75) for _ in range(3)]


def scenario_entries(seed: int) -> list[dict]:
    """A shuffled table of constant-overlap, lossy, polarization and
    pure-dephasing scenarios, none with g2."""
    rng = random.Random(seed)
    entries = []
    for i in range(SCENARIOS):
        kind = i % 6
        entry = {"id": f"s{i:03d}"}
        if kind == 0:
            entry.update(model="constant", c=rng.uniform(0.3, 1.0),
                         reflectivities=_reflectivities(rng))
        elif kind == 1:
            entry.update(model="constant", c=rng.uniform(0.3, 1.0),
                         reflectivities=_reflectivities(rng),
                         transmissions=[rng.uniform(0.4, 1.0) for _ in range(6)])
        elif kind == 2:
            entry.update(model="constant", c=rng.uniform(0.3, 1.0),
                         reflectivities=_reflectivities(rng),
                         transmissions=[rng.uniform(0.4, 0.95)] * 6,
                         loss_stage="after_first_bs")
        elif kind in (3, 4):
            entry.update(model="polarization", theta_deg=rng.uniform(0.0, 45.0),
                         direction="same" if kind == 3 else "opposite",
                         reflectivities=_reflectivities(rng))
        else:
            entry.update(model="pure_dephasing", x=rng.uniform(0.0, 2.0))
        entries.append(entry)
    rng.shuffle(entries)
    return entries


def scenario_table(seed: int, in_dir: Path, out_dir: Path) -> list[Command]:
    entries = scenario_entries(seed)
    config = _write_json(in_dir / "scenarios.json", {"scenarios": entries})
    out = _out(out_dir, "simulate")
    return [Command(
        "simulate", len(entries),
        lambda _: ["simulate", "--config", config, "--out", out, "--format", "json"],
        lambda data, _: checks.check_scenarios(data, entries),
    )]


def _write_peaks(path: Path, central: float, sides: list[float]) -> str:
    lines = ["# peak_index counts", f"0 {central!r}"]
    lines += [f"{k} {v!r}" for k, v in zip(SIDE_PEAKS, sides)]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def count_fit(seed: int, in_dir: Path, out_dir: Path) -> list[Command]:
    """Noiseless and Poisson peak-count files around a seeded (t, V_raw,
    V_pure); raw fit, then the purified fit fed the raw fit's visibility."""
    import numpy as np  # loaded by hompurify already

    rng = random.Random(seed)
    t, v_raw, v_pure = rng.uniform(0.3, 0.6), rng.uniform(0.55, 0.9), rng.uniform(0.6, 0.95)
    raw_trials = 10e6 * 30.0
    pure_trials = 10e6 * PURE_TIME
    expected_raw = checks.raw_counts(t, v_raw, raw_trials)
    expected_pure = checks.pure_counts(t, v_raw, v_pure, pure_trials)
    poisson = np.random.default_rng(seed)

    def noisy(name, expected):
        central = float(poisson.poisson(expected[0]))
        sides = [float(k) for k in poisson.poisson(expected[1], len(SIDE_PEAKS))]
        path = _write_peaks(in_dir / name, central, sides)
        return path, (central, sum(sides) / len(sides))

    raw0 = _write_peaks(in_dir / "raw_expected.txt", expected_raw[0], [expected_raw[1]] * 6)
    pure0 = _write_peaks(in_dir / "pure_expected.txt", expected_pure[0], [expected_pure[1]] * 6)
    raw1, observed_raw = noisy("raw_peaks.txt", expected_raw)
    pure1, observed_pure = noisy("pure_peaks.txt", expected_pure)
    seed_raw, seed_pure = derived_seed(seed, "fit-raw"), derived_seed(seed, "fit-pure")
    outs = {name: _out(out_dir, name) for name in ("raw0", "pure0", "raw", "pure")}
    fmt = ["--format", "json"]
    pure_time = ["--time", repr(PURE_TIME)]

    def fitted_v_raw(done):
        return json.loads(done["raw"])["rows"][0]["v"]

    return [
        Command(
            "raw0", 1,
            lambda _: ["fit", "--counts", raw0, "--mode", "raw", "--out", outs["raw0"], *fmt],
            lambda data, _: checks.check_fit(data, expected_raw, truth=(t, v_raw)),
        ),
        Command(
            "pure0", 1,
            lambda _: ["fit", "--counts", pure0, "--mode", "pure", "--v-raw", repr(v_raw),
                       *pure_time, "--out", outs["pure0"], *fmt],
            lambda data, _: checks.check_fit(data, expected_pure, truth=(t, v_pure), v_raw=v_raw),
        ),
        Command(
            "raw", RESAMPLES,
            lambda _: ["fit", "--counts", raw1, "--mode", "raw",
                       "--mc-resamples", str(RESAMPLES), "--seed", str(seed_raw),
                       "--out", outs["raw"], *fmt],
            lambda data, _: checks.check_fit(data, observed_raw),
        ),
        Command(
            "pure", RESAMPLES,
            lambda done: ["fit", "--counts", pure1, "--mode", "pure",
                          "--v-raw", repr(fitted_v_raw(done)), *pure_time,
                          "--mc-resamples", str(RESAMPLES), "--seed", str(seed_pure),
                          "--out", outs["pure"], *fmt],
            lambda data, done: checks.check_fit(data, observed_pure, v_raw=fitted_v_raw(done)),
        ),
    ]


def dephasing_mc(seed: int, in_dir: Path, out_dir: Path) -> list[Command]:
    commands = []
    for x in MC_X:
        name = f"mc_x{x:g}"
        argv = ["mc-dephasing", "--x", repr(x), "--samples", str(MC_SAMPLES),
                "--seed", str(derived_seed(seed, name)), "--out", _out(out_dir, name),
                "--format", "json"]
        commands.append(Command(
            name, MC_SAMPLES, lambda _, argv=argv: argv,
            lambda data, _: checks.check_mc_dephasing(data),
        ))
    return commands


WORKLOADS = {
    "scenario_table": scenario_table,
    "theory_sweep": theory_sweep,
    "count_fit": count_fit,
    "dephasing_mc": dephasing_mc,
}
