"""Benchmark of the `hompurify` command line, run in one process.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the package is imported from
`src/`. The run sets up (imports the package and writes the workload's
inputs), then runs whole rounds of the workload's commands through
`hompurify.cli.main` until S seconds have passed, and at least two rounds.
Every output is checked against a computation made apart from the program,
and every round after the first must write byte-identical outputs.

The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer metrics with `--trace 1`. The traced run
alternates untraced and traced rounds; its per-layer figures are per traced
round and its spans are written to `bench/traces/`. See bench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402  (the benchmark's own modules)
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

SETUP_PROBES = 2  # extra fresh-process set-ups per run; setup_s is the median of all


def set_up(workload: str, seed: int, run_dir: Path):
    """Import the package and write the workload's inputs. Returns the
    commands, the import time and the whole set-up time."""
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import hompurify.cli  # noqa: F401

    imported = time.perf_counter()
    origin = Path(hompurify.cli.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise ImportError(f"hompurify was imported from {origin}, not from {SRC}")
    in_dir, out_dir = run_dir / "in", run_dir / "out"
    in_dir.mkdir(parents=True)
    out_dir.mkdir()
    commands = workloads.WORKLOADS[workload](seed, in_dir, out_dir)
    return commands, imported - start, time.perf_counter() - start


def probe_set_up(args, run_dir: Path) -> list[tuple[float, float]]:
    """Set up again in fresh processes; (import_s, setup_s) of each."""
    samples = []
    for i in range(SETUP_PROBES):
        probe_dir = run_dir / f"probe{i}"
        done = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-probe", str(probe_dir)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        report = json.loads(done.stdout.splitlines()[-1])
        samples.append((report["import_s"], report["setup_s"]))
    return samples


def run_command(command, done: dict):
    """Run one command through the CLI. Returns (wall s, CPU s, output
    bytes or None, failure messages)."""
    import hompurify.cli

    try:
        argv = command.argv(done)
    except (KeyError, ValueError) as exc:
        return 0.0, 0.0, None, [f"{command.name}: no input from an earlier command ({exc!r})"]
    out_path = Path(argv[argv.index("--out") + 1])
    out_path.unlink(missing_ok=True)
    failures = []
    wall, cpu = time.perf_counter(), time.process_time()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = hompurify.cli.main(argv)
        if code != 0:
            failures.append(f"{command.name}: exit code {code}")
    except Exception:
        failures.append(traceback.format_exc())
    wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
    if not failures and not out_path.exists():
        failures.append(f"{command.name}: no output file")
    output = None if failures else out_path.read_bytes()
    return wall, cpu, output, failures


def machine_facts() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, read from the library."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:  # no /proc: not Linux
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                return int(getter())
    return None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", default=None, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if not (SRC / "hompurify" / "__init__.py").is_file():
        print(f"no package source at {SRC}; run from a hompurify checkout", file=sys.stderr)
        return 2

    if args.setup_probe:
        _, import_s, setup_s = set_up(args.workload, args.seed, Path(args.setup_probe))
        print(json.dumps({"import_s": import_s, "setup_s": setup_s}))
        return 0

    run_dir = BENCH / "runs" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    try:
        return measure(args, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def measure(args, run_dir: Path) -> int:
    commands, import_s, setup_s = set_up(args.workload, args.seed, run_dir / "main")
    probes = probe_set_up(args, run_dir)
    import_samples = [import_s] + [p[0] for p in probes]
    setup_samples = [setup_s] + [p[1] for p in probes]
    facts = machine_facts()
    print(f"machine: {json.dumps(facts)}", file=sys.stderr)

    tracer = Tracer() if args.trace else None
    first = {}                     # round-1 output bytes, by command name
    rounds = []                    # (traced, ops, wall s, cpu s)
    attempted = failed = 0
    correct = True
    start = time.perf_counter()
    while len(rounds) < 2 or time.perf_counter() - start < args.seconds:
        traced = tracer is not None and len(rounds) % 2 == 1
        if traced:
            tracer.install()
        done, ops, wall, cpu = {}, 0, 0.0, 0.0
        try:
            for command in commands:
                if traced:
                    tracer.command = f"round{len(rounds)}.{command.name}"
                c_wall, c_cpu, output, failures = run_command(command, done)
                wall, cpu, ops = wall + c_wall, cpu + c_cpu, ops + command.ops
                attempted += command.ops
                if output is not None:
                    done[command.name] = output
                    checked = command.check(output, done)
                    if rounds:
                        checked += checks.check_same(command.name, output, first.get(command.name))
                    else:
                        first[command.name] = output
                    if checked:
                        correct = False
                    failures += checked
                if failures:
                    failed += command.ops
                    print("\n".join(failures[:5]), file=sys.stderr)
        finally:
            if traced:
                tracer.uninstall()
                tracer.keep_spans = False
        rounds.append((traced, ops, wall, cpu))
        print(f"round {len(rounds)}{' traced' if traced else ''}: {ops} ops, "
              f"{wall:.4f} s, {cpu:.4f} s CPU", file=sys.stderr)

    plain = [r for r in rounds if not r[0]]
    throughput = statistics.median(ops / wall for _, ops, wall, _ in plain)
    if tracer is None:
        metrics = {
            "throughput": (throughput, "op/s"),
            "cpu_s_per_op": (statistics.median(cpu / ops for _, ops, _, cpu in plain), "s"),
            "setup_s": (statistics.median(setup_samples), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    else:
        traced_rounds = [r for r in rounds if r[0]]
        traced_throughput = statistics.median(ops / wall for _, ops, wall, _ in traced_rounds)
        metrics = {"setup.import_s": (statistics.median(import_samples), "s")}
        metrics.update(tracer.layer_metrics(len(traced_rounds)))
        metrics["trace.overhead"] = (100 * (1 - traced_throughput / throughput), "%")
        write_trace(args, facts, rounds, metrics, tracer)
    print(f"{args.workload}: {len(rounds)} rounds, {attempted} ops, {failed} failed, "
          f"{throughput:.4g} op/s untraced", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def write_trace(args, facts, rounds, metrics, tracer):
    traced = sum(1 for r in rounds if r[0])
    trace_dir = BENCH / "traces"
    trace_dir.mkdir(exist_ok=True)
    doc = {
        "workload": args.workload,
        "seed": args.seed,
        "machine": facts,
        "rounds": [{"traced": t, "ops": ops, "wall_s": wall, "cpu_s": cpu}
                   for t, ops, wall, cpu in rounds],
        "metrics": {name: value for name, (value, _) in metrics.items()},
        "functions_per_traced_round": tracer.functions(traced),
        "span_fields": ["id", "name", "start_s", "end_s", "parent", "command"],
        "spans_first_traced_round": tracer.spans,
    }
    path = trace_dir / f"{args.workload}-seed{args.seed}.json"
    path.write_text(json.dumps(doc) + "\n")


if __name__ == "__main__":
    sys.exit(main())
