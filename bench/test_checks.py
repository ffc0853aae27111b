"""Self-test of the benchmark's output checks: each passes on a real output
of the program and fails once that output is perturbed.

    python3 -m pytest bench/test_checks.py -q

Runs the CLI on small inputs made with the workloads' own generators; about
ten seconds.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import checks  # noqa: E402
import workloads  # noqa: E402
from hompurify import cli  # noqa: E402


def run_cli(*argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(list(argv))


def perturbed(output: bytes, row: int, key: str, change) -> bytes:
    doc = json.loads(output)
    doc["rows"][row][key] = change(doc["rows"][row][key])
    return json.dumps(doc).encode()


@pytest.fixture(scope="module")
def scenario_output(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("scenarios")
    entries = workloads.scenario_entries(5)[:36]
    config = tmp / "scenarios.json"
    config.write_text(json.dumps({"scenarios": entries}))
    out = tmp / "rows.json"
    assert run_cli("simulate", "--config", str(config), "--out", str(out), "--format", "json") == 0
    return out.read_bytes(), entries


def test_scenarios_pass_and_fail_on_a_shifted_visibility(scenario_output):
    output, entries = scenario_output
    assert checks.check_scenarios(output, entries) == []
    assert {e["model"] for e in entries} == {"constant", "polarization", "pure_dephasing"}
    for row in (0, 7, 20):
        for key in ("v_raw", "v_pure"):
            shifted = perturbed(output, row, key, lambda v: v + 1e-9)
            assert checks.check_scenarios(shifted, entries), (row, key)


def test_changed_byte_fails_determinism(scenario_output):
    output, _ = scenario_output
    assert checks.check_same("simulate", output, bytes(output)) == []
    changed = bytearray(output)
    changed[len(changed) // 2] ^= 1
    assert checks.check_same("simulate", bytes(changed), output)


def test_sweep_passes_and_fails_on_perturbed_columns(tmp_path):
    config = tmp_path / "sweep.json"
    config.write_text(json.dumps({
        "sweep": "raw_visibility", "start": 0.5, "stop": 1.0, "points": 5,
        "models": ["multipermanent", "pure_dephasing", "multipermanent_g2"], "g2": 0.07,
    }))
    out = tmp_path / "sweep.json.out"
    assert run_cli("sweep", "--config", str(config), "--out", str(out), "--format", "json") == 0
    output = out.read_bytes()
    assert checks.check_sweep(output) == []
    for key in ("v_raw", "v_pure_multipermanent", "v_pure_pure_dephasing"):
        assert checks.check_sweep(perturbed(output, 2, key, lambda v: v + 1e-9)), key
    rows = json.loads(output)["rows"]
    # the g2 column: not rising, above the g2 = 0 column, outside [-1, 1]
    flat = perturbed(output, 3, "v_pure_multipermanent_g2",
                     lambda v: rows[2]["v_pure_multipermanent_g2"])
    assert checks.check_sweep(flat)
    above = perturbed(output, 1, "v_pure_multipermanent_g2",
                      lambda v: rows[1]["v_pure_multipermanent"] + 1e-3)
    assert checks.check_sweep(above)
    assert checks.check_sweep(perturbed(output, 4, "v_pure_multipermanent_g2", lambda v: 1.5))


@pytest.fixture(scope="module")
def fit_inputs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("fit")
    (tmp / "out").mkdir()
    return {c.name: c for c in workloads.count_fit(3, tmp, tmp / "out")}


def run_fit(command, done):
    argv = command.argv(done)
    assert run_cli(*argv) == 0
    return Path(argv[argv.index("--out") + 1]).read_bytes()


def test_noiseless_fit_fails_on_shifted_parameters(fit_inputs):
    for name in ("raw0", "pure0"):
        command = fit_inputs[name]
        output = run_fit(command, {})
        assert command.check(output, {}) == []
        for key in ("t", "v"):
            assert command.check(perturbed(output, 0, key, lambda v: v + 1e-9), {}), (name, key)


def test_monte_carlo_sigma_fails_when_off_by_30_percent(fit_inputs):
    command = fit_inputs["raw"]
    output = run_fit(command, {})
    assert command.check(output, {}) == []
    for key in ("sigma_t", "sigma_v"):
        for factor in (1.3, 0.7):
            assert command.check(perturbed(output, 0, key, lambda v: v * factor), {}), (key, factor)


def test_mc_dephasing_fails_on_shifted_estimates(tmp_path):
    out = tmp_path / "mc.json"
    assert run_cli("mc-dephasing", "--x", "0.2", "--samples", "1000", "--seed", "5",
                   "--out", str(out), "--format", "json") == 0
    output = out.read_bytes()
    assert checks.check_mc_dephasing(output) == []
    assert checks.check_mc_dephasing(perturbed(output, 0, "purified_mc", lambda v: v + 1e-9))
    # a pair moment 10 standard errors off, with purified_mc made consistent with it
    doc = json.loads(output)
    row = doc["rows"][0]
    row["pair_mc"] += 10 * row["pair_se"]
    row["purified_mc"] = checks.purified_from_moments(row["pair_mc"], row["triple_mc"], row["quad_mc"])
    failures = checks.check_mc_dephasing(json.dumps(doc).encode())
    assert any("pair_mc" in f for f in failures)
