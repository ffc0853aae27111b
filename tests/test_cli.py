import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hompurify
from hompurify import PeakCounts, SetupGeometry, pure_count_model, raw_count_model
from hompurify.cli import build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_json(tmp_path, name, payload):
    """`payload` as JSON; bytes are written as they are."""
    path = tmp_path / name
    if isinstance(payload, bytes):
        path.write_bytes(payload)
    else:
        path.write_text(json.dumps(payload))
    return str(path)


def test_simulate_basic(tmp_path, capsys):
    config = write_json(
        tmp_path,
        "sim.json",
        {
            "scenarios": [
                {"id": "ideal", "model": "constant", "c": 1.0},
                {"id": "no-etalon", "model": "constant", "c2": 0.5829, "g2": 0.07},
                {"id": "pd", "model": "pure_dephasing", "x": 0.2},
            ]
        },
    )
    out = tmp_path / "rows.csv"
    code, _, err = run_cli(capsys, "simulate", "--config", config, "--out", str(out))
    assert code == 0, err
    lines = out.read_text().splitlines()
    echo = [l for l in lines if l.startswith("#")]
    assert echo, "input echo block missing"
    header = [l for l in lines if not l.startswith("#")][0].split(",")
    assert header == ["scenario_id", "model", "v_raw", "v_pure", "improvement", "success_probability"]
    rows = [l.split(",") for l in lines if not l.startswith("#")][1:]
    ideal = rows[0]
    assert float(ideal[2]) == pytest.approx(1.0)
    assert float(ideal[3]) == pytest.approx(1.0)
    assert float(ideal[4]) == pytest.approx(0.0)
    no_etalon = rows[1]
    assert float(no_etalon[3]) == pytest.approx(0.6488, abs=2e-3)
    # the dephasing row is the package's one closed form, to the last bit
    out_json = tmp_path / "rows.json"
    code, _, err = run_cli(
        capsys, "simulate", "--config", config, "--out", str(out_json), "--format", "json"
    )
    assert code == 0, err
    pd_row = json.loads(out_json.read_text())["rows"][2]
    assert pd_row["v_pure"] == hompurify.pd_purified(0.2)


def test_simulate_missing_model_field(tmp_path, capsys):
    config = write_json(tmp_path, "bad.json", {"scenarios": [{"id": "x", "c": 0.5}]})
    code, _, err = run_cli(capsys, "simulate", "--config", config)
    assert code == 2
    assert "model" in err


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_simulate_rejects_empty_scenarios(tmp_path, capsys, fmt):
    config = write_json(tmp_path, "empty.json", {"scenarios": []})
    code, out, err = run_cli(capsys, "simulate", "--config", config, "--format", fmt)
    assert code == 2 and out == ""
    assert "'scenarios'" in err


def test_simulate_degenerate_heralding_at_nonzero_g2(tmp_path, capsys):
    config = write_json(tmp_path, "sim.json", {"scenarios": [
        {"model": "constant", "c": 0.9, "g2": 0.05, "reflectivities": [0, 0.5, 0.5]},
    ]})
    code, out, err = run_cli(capsys, "simulate", "--config", config)
    assert code == 3 and out == ""
    assert "degenerate heralding" in err


@pytest.mark.parametrize("g2", [0.0, 0.05])
def test_simulate_numerical_failure_names_the_row(tmp_path, capsys, g2):
    """A degenerate row in the middle of a table names its index and id,
    in the closed form (g2 = 0) and on the mixture path."""
    config = write_json(tmp_path, "sim.json", {"scenarios": [
        {"id": "fine", "model": "constant", "c": 0.9, "g2": g2},
        {"id": "dark", "model": "constant", "c": 0.9, "g2": g2, "reflectivities": [0, 0.5, 0.5]},
        {"id": "pd", "model": "pure_dephasing", "x": 0.2},
    ]})
    code, out, err = run_cli(capsys, "simulate", "--config", config)
    assert code == 3 and out == ""
    assert "scenario[1] (id 'dark'): " in err and "degenerate heralding" in err


DATA = Path(__file__).resolve().parent / "data"


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_simulate_output_bytes_are_pinned(tmp_path, capsys, fmt):
    """`simulate` on the README scenarios and a fixed mixed table of 60
    rows writes the committed bytes. The table mixes constant rows (input
    loss, loss after the first couplers), polarization rows in both
    directions, pure-dephasing rows, several r_final, and g2 > 0 rows that
    share a noise configuration or have their own."""
    out = tmp_path / f"rows.{fmt}"
    code, _, err = run_cli(capsys, "simulate", "--config", str(DATA / "simulate_golden.config.json"),
                           "--out", str(out), "--format", fmt)
    assert code == 0, err
    assert out.read_bytes() == (DATA / f"simulate_golden.{fmt}").read_bytes()


def test_simulate_missing_config_file(tmp_path, capsys):
    code, _, err = run_cli(capsys, "simulate", "--config", str(tmp_path / "absent.json"))
    assert code == 2
    assert "not found" in err


def test_simulate_deterministic_output(tmp_path, capsys):
    config = write_json(
        tmp_path, "sim.json",
        {"scenarios": [{"id": "a", "model": "constant", "c2": 0.8}]},
    )
    out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    assert run_cli(capsys, "simulate", "--config", config, "--out", str(out1))[0] == 0
    assert run_cli(capsys, "simulate", "--config", config, "--out", str(out2))[0] == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_simulate_json_format(tmp_path, capsys):
    config = write_json(
        tmp_path, "sim.json",
        {"scenarios": [{"id": "a", "model": "constant", "c2": 0.8}]},
    )
    out = tmp_path / "rows.json"
    code, _, _ = run_cli(
        capsys, "simulate", "--config", config, "--out", str(out), "--format", "json"
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert "config" in payload and "rows" in payload
    assert payload["rows"][0]["scenario_id"] == "a"


def test_sweep_final_bs(tmp_path, capsys):
    config = write_json(
        tmp_path, "sweep.json",
        {"sweep": "final_bs", "start": 0.3, "stop": 0.5, "points": 2, "c2": 0.8},
    )
    code, out, _ = run_cli(capsys, "sweep", "--config", config, "--out", "-")
    assert code == 0
    rows = [l.split(",") for l in out.splitlines() if l and not l.startswith("#")]
    assert rows[0] == ["reflectivity", "v_raw", "v_pure"]
    assert float(rows[1][2]) < float(rows[2][2])  # 0.3 worse than 0.5


def test_sweep_polarization(tmp_path, capsys):
    config = write_json(
        tmp_path, "sweep.json",
        {"sweep": "polarization", "start": 10, "stop": 30, "points": 2},
    )
    code, out, _ = run_cli(capsys, "sweep", "--config", config, "--out", "-")
    assert code == 0
    rows = [l.split(",") for l in out.splitlines() if not l.startswith("#")]
    assert rows[0] == ["theta_deg", "v_raw", "v_pure_same", "v_pure_opposite"]
    for row in rows[1:]:
        assert float(row[2]) >= float(row[3])


def test_sweep_raw_visibility_models(tmp_path, capsys):
    config = write_json(
        tmp_path, "sweep.json",
        {
            "sweep": "raw_visibility", "start": 0.6, "stop": 0.9, "points": 2,
            "models": ["multipermanent", "pure_dephasing", "multipermanent_g2"],
            "g2": 0.07,
        },
    )
    code, out, _ = run_cli(capsys, "sweep", "--config", config, "--out", "-")
    assert code == 0
    rows = [l.split(",") for l in out.splitlines() if not l.startswith("#")]
    assert rows[0] == [
        "v_raw", "v_pure_multipermanent", "v_pure_pure_dephasing", "v_pure_multipermanent_g2",
    ]
    for row in rows[1:]:
        # the two zero-g2 theory curves stay close; extra emissions only degrade
        assert abs(float(row[1]) - float(row[2])) < 0.03
        assert float(row[3]) < float(row[1])
    code, out, _ = run_cli(capsys, "sweep", "--config", config, "--out", "-", "--format", "json")
    assert code == 0
    for row in json.loads(out)["rows"]:
        x = 1.0 / row["v_raw"] - 1.0
        assert row["v_pure_pure_dephasing"] == hompurify.pd_purified(x)


def test_sweep_g2(tmp_path, capsys):
    config = write_json(
        tmp_path, "sweep.json", {"sweep": "g2", "start": 0, "stop": 0.2, "points": 3, "c": 0.9}
    )
    code, out, err = run_cli(capsys, "sweep", "--config", config, "--out", "-", "--format", "json")
    assert code == 0, err
    rows = json.loads(out)["rows"]
    assert [row["g2"] for row in rows] == [0.0, 0.1, 0.2]
    for row in rows:
        assert sorted(row) == ["g2", "improvement", "v_pure", "v_raw"]
        assert (row["v_raw"], row["v_pure"]) == hompurify.multiphoton_visibility(0.9, row["g2"])


def test_sweep_unknown_kind(tmp_path, capsys):
    config = write_json(
        tmp_path, "sweep.json", {"sweep": "nope", "start": 0, "stop": 1, "points": 2}
    )
    code, _, err = run_cli(capsys, "sweep", "--config", config)
    assert code == 2
    assert "unknown sweep" in err


def _write_raw_counts_file(tmp_path, t=0.3, v=0.9, time_s=30.0):
    meta = PeakCounts(central=1, side=1, repetition_rate=10e6, integration_time=time_s)
    central, side = raw_count_model(t, v, SetupGeometry(mode="raw"), meta)
    path = tmp_path / "raw_counts.txt"
    path.write_text(f"-1 {side}\n0 {central}\n1 {side}\n")
    return str(path)


def test_fit_raw_round_trip(tmp_path, capsys):
    path = _write_raw_counts_file(tmp_path)
    code, out, _ = run_cli(capsys, "fit", "--counts", path, "--mode", "raw", "--time", "30")
    assert code == 0
    values = dict(line.split(" = ") for line in out.strip().splitlines())
    assert float(values["t"]) == pytest.approx(0.3, abs=1e-6)
    assert float(values["v"]) == pytest.approx(0.9, abs=1e-6)


def test_fit_pure_requires_v_raw(tmp_path, capsys):
    meta = PeakCounts(central=1, side=1, repetition_rate=10e6, integration_time=800.0)
    central, side = pure_count_model(0.3, 0.83, 0.91, SetupGeometry(mode="purified"), meta)
    path = tmp_path / "pure_counts.txt"
    path.write_text(f"0 {central}\n1 {side}\n")
    code, _, err = run_cli(capsys, "fit", "--counts", str(path), "--mode", "pure", "--time", "800")
    assert code == 2
    assert "v-raw" in err.lower()
    code, out, _ = run_cli(
        capsys, "fit", "--counts", str(path), "--mode", "pure", "--time", "800",
        "--v-raw", "0.83",
    )
    assert code == 0
    values = dict(line.split(" = ") for line in out.strip().splitlines())
    assert float(values["v"]) == pytest.approx(0.91, abs=1e-6)


def test_fit_pure_rejects_demux_split(tmp_path, capsys):
    # the purified model has no demultiplexer, so --demux-split would be ignored
    meta = PeakCounts(central=1, side=1, repetition_rate=10e6, integration_time=800.0)
    central, side = pure_count_model(0.3, 0.83, 0.91, SetupGeometry(mode="purified"), meta)
    path = tmp_path / "pure_counts.txt"
    path.write_text(f"0 {central}\n1 {side}\n")
    argv = ["fit", "--counts", str(path), "--mode", "pure", "--time", "800", "--v-raw", "0.83"]
    code, default_out, _ = run_cli(capsys, *argv)
    assert code == 0
    code, out, _ = run_cli(capsys, *argv, "--demux-split", "0.5")
    assert code == 0 and out == default_out
    code, out, err = run_cli(capsys, *argv, "--demux-split", "0.3")
    assert code == 2 and out == ""
    assert "--demux-split" in err and "pure mode" in err
    raw = _write_raw_counts_file(tmp_path)
    code, _, _ = run_cli(
        capsys, "fit", "--counts", raw, "--mode", "raw", "--time", "30", "--demux-split", "0.3"
    )
    assert code == 0


@pytest.mark.parametrize(
    "text, message",
    [
        ("0 5\n1 5\n0 7\n", "counts.txt:3: peak_index 0 is repeated"),
        ("0.4 5\n1 5\n", "counts.txt:1: peak_index must be an integer, got 0.4"),
        ("0 5\n1.2 5\n", "counts.txt:2: peak_index must be an integer, got 1.2"),
    ],
)
def test_fit_rejects_repeated_or_fractional_peak_index(tmp_path, capsys, text, message):
    path = tmp_path / "counts.txt"
    path.write_text(text)
    code, out, err = run_cli(capsys, "fit", "--counts", str(path), "--mode", "raw")
    assert code == 2 and out == ""
    assert message in err


def test_fit_rejects_extra_column(tmp_path, capsys):
    path = tmp_path / "counts.txt"
    path.write_text("-1 99\n0 37 99\n1 103\n")
    code, out, err = run_cli(capsys, "fit", "--counts", str(path), "--mode", "raw")
    assert code == 2 and out == ""
    assert "counts.txt:2: expected two columns" in err


@pytest.mark.parametrize("command, payload", [
    ("simulate", {"scenarios": [{"id": "a", "model": "constant", "c": 1.0}]}),
    ("sweep", {"sweep": "final_bs", "start": 0.3, "stop": 0.7, "points": 3, "c2": 0.8}),
], ids=["simulate", "sweep"])
def test_deterministic_commands_take_no_seed(tmp_path, capsys, command, payload):
    argv = [command, "--config", write_json(tmp_path, "c.json", payload), "--out", "-"]
    assert run_cli(capsys, *argv)[0] == 0
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--seed", "1"])
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err


def test_fit_mc_resamples_reproducible(tmp_path, capsys):
    path = _write_raw_counts_file(tmp_path)
    argv = ["fit", "--counts", path, "--mode", "raw", "--time", "30",
            "--mc-resamples", "120", "--seed", "7"]
    code1, out1, _ = run_cli(capsys, *argv)
    code2, out2, _ = run_cli(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2
    assert "sigma_v" in out1
    # seed is mandatory for the stochastic step
    code3, _, err = run_cli(
        capsys, "fit", "--counts", path, "--mode", "raw", "--time", "30", "--mc-resamples", "100"
    )
    assert code3 == 2
    assert "seed" in err


def test_main_reuses_its_parser_across_calls(tmp_path, capsys):
    """One parser serves every `main` call of a process; a rejected argv in
    between leaves the next calls as they were."""
    fit = ["fit", "--counts", _write_raw_counts_file(tmp_path), "--mode", "raw", "--time", "30",
           "--format", "json"]
    sweep = ["sweep", "--config", write_json(tmp_path, "sweep.json", {
        "sweep": "final_bs", "start": 0.3, "stop": 0.7, "points": 3, "c": 0.9})]

    def written(argv, name):
        out = tmp_path / name
        assert run_cli(capsys, *argv, "--out", str(out))[0] == 0
        return out.read_bytes()

    first = written(fit, "fit1.json")
    written(sweep, "sweep.csv")
    with pytest.raises(SystemExit) as exc:
        main(["fit", "--mode", "sideways"])
    assert exc.value.code == 2 and "--mode" in capsys.readouterr().err
    assert written(fit, "fit2.json") == first
    assert build_parser() is build_parser()


def test_fit_numerical_failure_exit_code(tmp_path, capsys):
    path = tmp_path / "zeros.txt"
    path.write_text("0 0\n1 0\n")
    code, _, err = run_cli(capsys, "fit", "--counts", str(path), "--mode", "raw")
    assert code == 3
    assert "degenerate" in err


@pytest.mark.parametrize(
    "kind, text, field",
    [
        ("peaks", "-1 5\n0 nan\n1 5\n", "counts"),
        ("peaks", "0 5\ninf 5\n", "peak_index"),
        ("histogram", "0.0 5\n100.0 inf\n", "counts"),
    ],
)
def test_fit_rejects_non_finite_counts(tmp_path, capsys, kind, text, field):
    path = tmp_path / "counts.txt"
    path.write_text(text)
    code, _, err = run_cli(
        capsys, "fit", "--counts", str(path), "--mode", "raw", "--input-kind", kind
    )
    assert code == 2
    assert f"{field} must be finite" in err


@pytest.mark.parametrize(
    "flags, field",
    [
        (["--mc-resamples", "50", "--seed", "1"], "--mc-resamples"),
        (["--mc-resamples", "-5", "--seed", "1"], "--mc-resamples"),
        (["--mode", "pure", "--v-raw", "1.5"], "--v-raw"),
        (["--mode", "pure", "--v-raw", "-0.1"], "--v-raw"),
        (["--demux-split", "1.5"], "--demux-split"),
        (["--split-reflectivity", "-0.1"], "--split-reflectivity"),
        (["--split-reflectivity", "nan"], "--split-reflectivity"),
        (["--input-kind", "histogram", "--rate", "nan"], "--rate"),
        (["--time", "0"], "--time"),
    ],
)
def test_fit_rejects_out_of_range_flags(tmp_path, capsys, flags, field):
    path = _write_raw_counts_file(tmp_path)
    argv = ["fit", "--counts", path, "--mode", "raw", "--time", "30"]
    code, _, err = run_cli(capsys, *argv, *flags)
    assert code == 2
    assert field in err


@pytest.mark.parametrize(
    "payload, field",
    [
        ({"scenarios": [{"model": "pure_dephasing", "x": -1}]}, "'x'"),
        ({"scenarios": [{"model": "pure_dephasing", "x": "abc"}]}, "'x'"),
        ({"scenarios": [{"model": "constant", "c": 1.5}]}, "'c'"),
        ({"scenarios": [{"model": "constant", "c": "abc"}]}, "'c'"),
        ({"scenarios": [{"model": "constant", "c2": -0.2}]}, "'c2'"),
        ({"scenarios": [{"model": "constant", "c": 0.9, "g2": 0.5}]}, "'g2'"),
        ({"scenarios": [{"model": "polarization", "theta_deg": "ten"}]}, "'theta_deg'"),
        ({"scenarios": [{"model": "constant", "c": 0.9, "reflectivities": "abc"}]},
         "'reflectivities'"),
        ({"scenarios": [{"model": "constant", "c": 0.9, "transmissions": [1.5] + [1] * 5}]},
         "'transmissions'[0]"),
        ({"scenarios": {"a": {"model": "constant", "c": 0.9}}}, "'scenarios'"),
        ({"scenarios": ["constant"]}, "scenario[0]"),
        ({"scenarios": [{"model": "constant", "c": 0.9, "r1": 0.3}]}, "'r1'"),
        ({"scenarios": [{"model": "constant", "c": 0.9, "loss-stage": "input"}]},
         "'loss-stage'"),
        ({"scenarios": [{"model": "constant", "c": 0.9, "theta_deg": 10}]}, "'theta_deg'"),
        ({"scenarios": [{"model": "polarization", "theta_deg": 10, "c": 0.9}]}, "'c'"),
        ({"scenarios": [{"model": "polarization", "theta_deg": 10, "dir": "opposite"}]},
         "'dir'"),
        ({"scenarios": [{"model": "pure_dephasing", "x": 0.2, "g2": 0.07}]}, "'g2'"),
        ({"scenarios": [{"model": "pure_dephasing", "x": 0.2, "reflectivities": [0.5] * 3}]},
         "'reflectivities'"),
        ({"scenarios": [{"model": "pure_dephasing", "x": 0.2, "transmissions": [1] * 6}]},
         "'transmissions'"),
        ({"scenarios": [{"model": "pure_dephasing", "x": 0.2, "loss_stage": "input"}]},
         "'loss_stage'"),
        ({"scenarios": [], "scenario": [{"model": "constant", "c": 0.9}]}, "'scenario'"),
        ({"scenarios": [{"model": "constant", "c": 0.9, "loss_stage": "output"}]},
         "loss_stage"),
        ({"scenarios": [{"model": "polarization", "theta_deg": 10, "direction": "up"}]},
         "direction"),
        ({"scenarios": [{"model": "coherent", "c": 0.9}]}, "model 'coherent'"),
        ({"scenarios": [{"model": "constant", "g2": 0.05}]}, "overlap c"),
        (b'{"scenarios": [', "bad.json: invalid JSON"),
        (["scenarios"], "bad.json"),
        (5, "bad.json"),
        (None, "bad.json"),
        ("scenarios", "bad.json"),
        (b'{"scenarios": [{"id": "\xe9"}]}', "bad.json: not UTF-8"),
        ({"scenarios": [{"model": "constant", "c": True}]}, "'c'"),
        ({"scenarios": [{"model": "pure_dephasing", "x": False}]}, "'x'"),
        ({"scenarios": [{"model": "polarization", "theta_deg": True}]}, "'theta_deg'"),
    ],
    ids=["x-negative", "x-text", "c-above-1", "c-text", "c2-negative", "g2-half",
         "theta-text", "reflectivities-text", "transmission-above-1", "scenarios-object",
         "scenario-not-object", "constant-r1", "constant-loss-stage-typo", "constant-theta",
         "polarization-c", "polarization-dir", "dephasing-g2", "dephasing-reflectivities",
         "dephasing-transmissions", "dephasing-loss-stage", "top-level-scenario",
         "loss-stage-unknown", "direction-unknown", "model-unknown", "constant-without-c",
         "invalid-json", "top-level-list", "top-level-number", "top-level-null",
         "top-level-string", "not-utf8", "c-true", "x-false", "theta-true"],
)
def test_simulate_rejects_bad_config(tmp_path, capsys, payload, field):
    config = write_json(tmp_path, "bad.json", payload)
    code, _, err = run_cli(capsys, "simulate", "--config", config)
    assert code == 2, err
    assert field in err


@pytest.mark.parametrize(
    "payload, field",
    [
        ({"sweep": "raw_visibility", "start": 0.0, "stop": 1.0, "points": 3,
          "models": ["pure_dephasing"]}, "'start'"),
        ({"sweep": "raw_visibility", "start": 0.5, "stop": 1.2, "points": 3,
          "models": ["multipermanent"]}, "'stop'"),
        ({"sweep": "g2", "start": 0.0, "stop": 0.5, "points": 3, "c": 0.9}, "'stop'"),
        ({"sweep": "g2", "start": 0.0, "stop": 0.2, "points": 3, "c": 1.5}, "'c'"),
        ({"sweep": "final_bs", "start": 0.3, "stop": 0.5, "points": 2, "c2": "abc"}, "'c2'"),
        ({"sweep": "final_bs", "start": 0.3, "stop": 0.5, "points": "two", "c": 0.9},
         "'points'"),
        ({"sweep": "polarization", "start": 0, "stop": 45, "points": 3, "g2": 0.05}, "'g2'"),
        ({"sweep": "polarization", "start": 0, "stop": 45, "points": 3, "c": 0.9}, "'c'"),
        ({"sweep": "g2", "start": 0.0, "stop": 0.2, "points": 3, "c": 0.9, "g2": 0.1},
         "'g2'"),
        ({"sweep": "final_bs", "start": 0.3, "stop": 0.5, "points": 2, "c": 0.9,
          "reflectivities": [0.5] * 3}, "'reflectivities'"),
        ({"sweep": "first_bs", "start": 0.3, "stop": 0.5, "points": 2, "c": 0.9,
          "models": ["multipermanent"]}, "'models'"),
        ({"sweep": "raw_visibility", "start": 0.5, "stop": 1.0, "points": 3, "c": 0.9},
         "'c'"),
        ({"sweep": "raw_visibility", "start": 0.5, "stop": 1.0, "points": 3, "model": "x"},
         "'model'"),
        ({"sweep": "raw_visibility", "start": 0.5, "stop": 1.0, "points": 3, "models": 5},
         "'models'"),
        ({"sweep": "raw_visibility", "start": 0.5, "stop": 1.0, "points": 3,
          "models": "multipermanent"}, "'models'"),
        ({"sweep": "raw_visibility", "start": 0.5, "stop": 1.0, "points": 3, "models": []},
         "'models'"),
        ({"sweep": "raw_visibility", "start": 0.5, "stop": 1.0, "points": 3,
          "models": ["multipermanent", "nope"]}, "'models'"),
        ({"sweep": "g2", "start": 0.0, "stop": 0.2, "points": 3}, "'c'"),
        ({"sweep": "final_bs", "start": 0.3, "stop": 0.5, "points": 2, "g2": 0.05}, "'c'"),
        (b'{"sweep": "g2",', "bad.json: invalid JSON"),
        (["sweep"], "bad.json"),
        (5, "bad.json"),
        (None, "bad.json"),
        ("sweep", "bad.json"),
        (b'{"sweep": "g2", "c": "\xe9"}', "bad.json: not UTF-8"),
        ({"sweep": "final_bs", "start": 0.3, "stop": 0.5, "points": 2.5, "c": 0.9},
         "'points'"),
        ({"sweep": "final_bs", "start": 0.3, "stop": 0.5, "points": True, "c": 0.9},
         "'points'"),
        ({"sweep": "final_bs", "start": 0.3, "stop": 0.5, "points": 2, "c": True}, "'c'"),
        ({"sweep": "polarization", "start": False, "stop": 45, "points": 3}, "'start'"),
        ({"sweep": "raw_visibility", "start": 1e-320, "stop": 1.0, "points": 3,
          "models": ["pure_dephasing"]}, "'start'"),
        # rejected before the grid is allocated
        ({"sweep": "final_bs", "start": 0.3, "stop": 0.5, "points": 1e308, "c": 0.9},
         "'points'"),
        ({"sweep": "final_bs", "start": 0.3, "stop": 0.5, "points": 100001, "c": 0.9},
         "'points'"),
    ],
    ids=["v-raw-zero-pure-dephasing", "v-raw-above-1", "g2-half", "c-above-1", "c2-text",
         "points-text", "polarization-g2", "polarization-c", "g2-sweep-g2",
         "final-bs-reflectivities", "first-bs-models", "raw-visibility-c",
         "raw-visibility-model-typo", "models-number", "models-string", "models-empty",
         "models-unknown", "g2-sweep-without-c", "final-bs-without-c", "invalid-json",
         "top-level-list", "top-level-number", "top-level-null", "top-level-string",
         "not-utf8", "points-fraction", "points-true", "c-true", "start-false",
         "v-raw-subnormal-pure-dephasing", "points-huge", "points-over-bound"],
)
def test_sweep_rejects_bad_config(tmp_path, capsys, payload, field):
    config = write_json(tmp_path, "bad.json", payload)
    code, _, err = run_cli(capsys, "sweep", "--config", config)
    assert code == 2, err
    assert field in err


@pytest.mark.parametrize("command", ["simulate", "sweep"])
def test_config_that_is_a_directory_exits_2(tmp_path, capsys, command):
    code, out, err = run_cli(capsys, command, "--config", str(tmp_path))
    assert (code, out) == (2, "")
    assert f"config error: {tmp_path}: cannot read the config file" in err


def test_sweep_points_may_be_an_integral_float(tmp_path, capsys):
    rows = []
    for points in (3, 3.0):
        config = write_json(tmp_path, "sweep.json",
                            {"sweep": "final_bs", "start": 0.3, "stop": 0.5, "points": points,
                             "c": 0.9})
        code, out, err = run_cli(capsys, "sweep", "--config", config, "--format", "json")
        assert code == 0, err
        rows.append(json.loads(out)["rows"])
    assert len(rows[0]) == 3 and rows[0] == rows[1]


README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_configs_run(tmp_path, capsys):
    """Every `simulate` and `sweep` example in the README runs on its own
    config file and exits 0."""
    text = README.read_text()
    bodies = dict(re.findall(r"cat > (\S+) << 'EOF'\n(.*?)\nEOF", text, re.S))
    bodies.update((name, body) for body, name in re.findall(r"echo '(.*?)' > (\S+)", text, re.S))
    commands = re.findall(r"hompurify (simulate|sweep) --config (\S+)", text)
    assert {kind for kind, _ in commands} == {"simulate", "sweep"} and len(commands) >= 4
    for kind, name in commands:
        config = tmp_path / name
        config.write_text(bodies[name])
        code, _, err = run_cli(capsys, kind, "--config", str(config), "--out", "-")
        assert code == 0, (name, err)


def test_cli_import_does_not_load_scipy():
    src = str(Path(hompurify.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    # the dephasing sampler imports concurrent.futures itself, so the CLI's
    # start-up does not pay for it
    probe = (
        "import sys, hompurify.cli; "
        "print('scipy' in sys.modules, 'concurrent.futures' in sys.modules)"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60,
        check=True,
    )
    assert done.stdout.strip() == "False False"


def test_mc_dephasing_reports(tmp_path, capsys):
    report = tmp_path / "mc.json"
    code, out, _ = run_cli(
        capsys, "mc-dephasing", "--x", "0.2", "--samples", "400", "--seed", "5",
        "--photons", "4", "--dt", "0.02", "--horizon", "12",
        "--out", str(report), "--format", "json",
    )
    assert code == 0
    values = dict(line.split(" = ") for line in out.strip().splitlines())
    assert float(values["pair_analytic"]) == pytest.approx(1 / 1.2)
    assert float(values["pair_mc"]) == pytest.approx(1 / 1.2, abs=0.02)
    assert float(values["purified_closed_form"]) == pytest.approx(0.904158, abs=1e-5)
    row = json.loads(report.read_text())["rows"][0]
    assert row["purified_closed_form"] == hompurify.pd_purified(0.2)


@pytest.mark.parametrize("command", ["simulate", "sweep", "fit", "mc-dephasing"])
def test_out_in_a_missing_directory_exits_2(tmp_path, capsys, command):
    """The output path is checked before any work: nothing is printed."""
    argv = {
        "simulate": ["--config", write_json(tmp_path, "sim.json", {"scenarios": [
            {"model": "constant", "c": 0.9}]})],
        "sweep": ["--config", write_json(tmp_path, "sweep.json", {
            "sweep": "final_bs", "start": 0.3, "stop": 0.7, "points": 3, "c": 0.9})],
        "fit": ["--counts", _write_raw_counts_file(tmp_path), "--mode", "raw", "--time", "30"],
        "mc-dephasing": ["--x", "0.2", "--samples", "2", "--dt", "1", "--horizon", "2",
                         "--seed", "1"],
    }[command]
    out = tmp_path / "nodir" / "x.json"
    code, stdout, err = run_cli(capsys, command, *argv, "--out", str(out))
    assert code == 2, err
    assert f"config error: {out}: cannot write the output file" in err
    assert stdout == ""
    assert not out.parent.exists()


@pytest.mark.parametrize("command, line", [
    ("simulate", "0,pure_dephasing,1e-300,1e-300,0,0.25"),
    ("mc-dephasing", "purified_closed_form = 1e-300"),
])
def test_pure_dephasing_at_huge_x_exits_0(tmp_path, capsys, command, line):
    """x = 1e300 overflows the products of the moment denominators; the
    closed form still reports 1 / (1 + x)."""
    argv = {
        "simulate": ["--config", write_json(tmp_path, "sim.json", {"scenarios": [
            {"model": "pure_dephasing", "x": 1e300}]})],
        "mc-dephasing": ["--x", "1e300", "--samples", "2", "--dt", "1", "--horizon", "2",
                         "--seed", "1"],
    }[command]
    code, out, err = run_cli(capsys, command, *argv)
    assert code == 0, err
    assert line in out.splitlines()


def test_mc_dephasing_requires_seed(capsys):
    code, _, err = run_cli(capsys, "mc-dephasing", "--x", "0.2", "--samples", "100")
    assert code == 2
    assert "seed" in err


@pytest.mark.parametrize(
    "flags, field",
    [
        (["--x", "-1"], "--x"),
        (["--x", "nan"], "--x"),
        (["--x", "0.2", "--samples", "0"], "--samples"),
        (["--x", "0.2", "--samples", "1"], "--samples"),
        (["--x", "0.2", "--photons", "3"], "--photons"),
        (["--x", "0.2", "--dt", "-1"], "--dt"),
        (["--x", "0.2", "--horizon", "0"], "--horizon"),
        (["--gamma", "0", "--gamma-d", "0.1"], "--gamma"),
        (["--gamma", "-1", "--gamma-d", "0.1"], "--gamma"),
        (["--gamma", "1", "--gamma-d", "-0.1"], "--gamma-d"),
        ([], "--x"),
        (["--gamma", "1"], "--gamma-d"),
    ],
)
def test_mc_dephasing_rejects_bad_flags(capsys, flags, field):
    code, out, err = run_cli(capsys, "mc-dephasing", "--seed", "1", "--samples", "20", *flags)
    assert code == 2, err
    assert field in err
    assert out == ""


def test_out_naming_a_directory_exits_2(tmp_path, capsys):
    config = write_json(tmp_path, "sim.json", {"scenarios": [{"model": "constant", "c": 0.9}]})
    code, stdout, err = run_cli(capsys, "simulate", "--config", config, "--out", str(tmp_path))
    assert code == 2, err
    assert f"config error: {tmp_path}: cannot write the output file: it is a directory" in err
    assert stdout == ""
