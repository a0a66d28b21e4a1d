import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import innerorbit

from innerorbit.cli import (
    load_config,
    render_document,
    run_cli,
    serialize_config,
)
from innerorbit.errors import ConfigError

N1_CONFIG = """\
[run]
mode = construct-universal
dimension = 1
seed = 0

[sequence]
kind = generated
lambda = 1+0i
rate = 1.0
theta = 0.0
perm = 1

[targets]
f1 = const 0.5+0i
f2 = z[1]

[probe]
radius = 0.3
points_per_dim = 64

[engine]
k_max = 1000000000

[output]
report = report.json
tables = tables
"""

GOOD_INNER_CONFIG = """\
[run]
mode = good-inner
dimension = 1

[targets]
f1 = z[1]^5

[good_inner]
radii = 0.9,0.99,0.999
quad_points = 64
"""


def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


def test_missing_config_exits_one(tmp_path, capsys):
    code = run_cli(["--config", str(tmp_path / "nope.ini")])
    assert code == 1
    out = capsys.readouterr().out
    assert "ConfigNotFound" in out


def test_bad_mode_exits_one(tmp_path, capsys):
    cfg = _write(tmp_path, "bad.ini", "[run]\nmode = explode\n")
    assert run_cli(["--config", str(cfg)]) == 1
    assert "ConfigError" in capsys.readouterr().out


def test_config_round_trip_is_lossless(tmp_path):
    cfg_path = _write(tmp_path, "n1.ini", N1_CONFIG)
    cfg = load_config(cfg_path)
    text = serialize_config(cfg)
    cfg2 = load_config(_write(tmp_path, "n1_canonical.ini", text))
    assert cfg2 == cfg
    assert serialize_config(cfg2) == text


def test_good_inner_mode_csv_values(tmp_path):
    cfg_path = _write(tmp_path, "gi.ini", GOOD_INNER_CONFIG)
    out = tmp_path / "out"
    assert run_cli(["--config", str(cfg_path), "--out", str(out), "--quiet"]) == 0
    rows = (out / "tables" / "good_inner.csv").read_text().strip().splitlines()
    assert rows[0] == "target,expression,radius,log_mean,clamp_count"
    for line in rows[1:]:
        parts = line.split(",")
        r, value = float(parts[2]), float(parts[3])
        assert value == pytest.approx(5 * math.log(r), abs=1e-9)


def test_diagnose_mode(tmp_path):
    text = GOOD_INNER_CONFIG.replace("good-inner", "diagnose-inner")
    cfg_path = _write(tmp_path, "diag.ini", text)
    out = tmp_path / "out"
    assert run_cli(["--config", str(cfg_path), "--out", str(out), "--quiet"]) == 0
    report = json.loads((out / "report.json").read_text())
    deviations = report["results"]["radial"][0]["deviations"]
    radii = report["results"]["radial"][0]["radii"]
    for r, d in zip(radii, deviations):
        assert float(d) == pytest.approx(1 - float(r) ** 5, abs=1e-12)


def test_construct_universal_end_to_end(tmp_path):
    cfg_path = _write(tmp_path, "n1.ini", N1_CONFIG)
    out = tmp_path / "out"
    assert run_cli(["--config", str(cfg_path), "--out", str(out), "--quiet"]) == 0
    report = json.loads((out / "report.json").read_text())
    verification = report["results"]["verification"]
    assert len(verification) == 2
    for row in verification:
        assert float(row["value"]) <= 0.06
    assert report["results"]["failure"] is None
    assert report["results"]["x_expression"]


def test_reports_byte_identical(tmp_path):
    cfg_path = _write(tmp_path, "n1.ini", N1_CONFIG)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run_cli(["--config", str(cfg_path), "--out", str(out1), "--quiet"]) == 0
    assert run_cli(["--config", str(cfg_path), "--out", str(out2), "--quiet"]) == 0
    assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()
    for table in ("stages.csv", "verification.csv"):
        assert (out1 / "tables" / table).read_bytes() == (
            out2 / "tables" / table
        ).read_bytes()


def test_engine_failure_writes_partial_report_exit_two(tmp_path):
    text = N1_CONFIG.replace("k_max = 1000000000", "k_max = 100")
    cfg_path = _write(tmp_path, "stalled.ini", text)
    out = tmp_path / "out"
    assert run_cli(["--config", str(cfg_path), "--out", str(out), "--quiet"]) == 2
    report = json.loads((out / "report.json").read_text())
    assert report["results"]["failure"]["error"] in (
        "SequenceExhausted",
        "InterferenceBudgetExceeded",
    )


def test_verify_orbit_reproduces_report(tmp_path):
    cfg_path = _write(tmp_path, "n1.ini", N1_CONFIG)
    out = tmp_path / "out"
    assert run_cli(["--config", str(cfg_path), "--out", str(out), "--quiet"]) == 0
    report = json.loads((out / "report.json").read_text())
    x = report["results"]["x_expression"]
    indices = report["results"]["recorded_indices"]
    expected = {
        int(row["target"]): float(row["value"])
        for row in report["results"]["verification"]
    }
    verify_text = f"""\
[run]
mode = verify-orbit
dimension = 1

[sequence]
kind = generated
lambda = 1+0i
rate = 1.0
theta = 0.0
perm = 1

[targets]
f1 = const 0.5+0i
f2 = z[1]

[probe]
radius = 0.3
points_per_dim = 64

[verify]
x = {x}
indices = {','.join(str(i) for i in indices)}
"""
    verify_path = _write(tmp_path, "verify.ini", verify_text)
    out2 = tmp_path / "out2"
    assert run_cli(["--config", str(verify_path), "--out", str(out2), "--quiet"]) == 0
    report2 = json.loads((out2 / "report.json").read_text())
    for row in report2["results"]["orbit"]:
        assert abs(float(row["value"]) - expected[int(row["target"])]) <= 1e-12


def test_mode_flag_overrides_config(tmp_path):
    cfg_path = _write(tmp_path, "gi.ini", GOOD_INNER_CONFIG)
    out = tmp_path / "out"
    code = run_cli(
        ["--config", str(cfg_path), "--mode", "diagnose-inner",
         "--out", str(out), "--quiet"]
    )
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["mode"] == "diagnose-inner"
    assert (out / "tables" / "radial_modulus.csv").exists()


def test_explicit_sequence_verify_orbit(tmp_path):
    text = """\
[run]
mode = verify-orbit
dimension = 1

[sequence]
kind = explicit
autos = auto{p=[1], a=[0.5+0i], t=[0.0]} | auto{p=[1], a=[0.9+0i], t=[0.0]}

[targets]
f1 = const 1+0i

[probe]
radius = 0.3

[verify]
x = const 1+0i
k = 2
"""
    cfg_path = _write(tmp_path, "explicit.ini", text)
    out = tmp_path / "out"
    assert run_cli(["--config", str(cfg_path), "--out", str(out), "--quiet"]) == 0
    report = json.loads((out / "report.json").read_text())
    row = report["results"]["orbit"][0]
    assert row["best_index"] == 1
    assert float(row["value"]) == 0.0


def test_render_document_round_trips_floats():
    doc = {"x": 1.0 / 3.0, "y": [0.1, 2], "z": {"w": None, "ok": True}}
    text = render_document(doc)
    parsed = json.loads(text)
    assert parsed["x"] == 1.0 / 3.0
    assert parsed["y"][0] == 0.1


def test_load_config_rejects_verify_without_x(tmp_path):
    text = N1_CONFIG.replace("construct-universal", "verify-orbit")
    cfg_path = _write(tmp_path, "v.ini", text)
    with pytest.raises(ConfigError):
        load_config(cfg_path)


def test_image_on_the_circle_exits_two_with_partial_report(tmp_path):
    text = N1_CONFIG.replace(
        "f2 = z[1]", "f2 = z[1]\nf3 = z[1]^2"
    ).replace("k_max = 1000000000", "k_max = 100000000000000000")
    cfg_path = _write(tmp_path, "three.ini", text)
    out = tmp_path / "out"
    assert run_cli(["--config", str(cfg_path), "--out", str(out), "--quiet"]) == 2
    results = json.loads((out / "report.json").read_text())["results"]
    assert len(results["recorded_indices"]) == 2
    assert results["failure"]["stage"] == 3
    assert results["failure"]["error"] == "InterferenceBudgetExceeded"


@pytest.mark.parametrize("k_max, expected", [("1000000000", 0), ("100", 2)])
def test_module_entry_point_runs(tmp_path, k_max, expected):
    text = N1_CONFIG.replace("k_max = 1000000000", f"k_max = {k_max}")
    cfg_path = _write(tmp_path, "n1.ini", text)
    env = dict(os.environ)
    src = str(Path(innerorbit.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-m", "innerorbit.cli", "--config", str(cfg_path),
         "--out", str(tmp_path / "module"), "--quiet"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    code = run_cli(
        ["--config", str(cfg_path), "--out", str(tmp_path / "direct"), "--quiet"]
    )
    assert code == expected
    assert proc.returncode == code, proc.stderr
    report = tmp_path / "module" / "report.json"
    assert report.read_bytes() == (tmp_path / "direct" / "report.json").read_bytes()
