import dataclasses
import importlib.util
import json
import math
import os
import platform
import re
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import innerorbit

from innerorbit import (
    EngineConfig,
    SubsequenceSelection,
    engine,
    good_inner_trend,
    radial_modulus_report,
)
from innerorbit.cli import (
    _RUN,
    _schema,
    load_config,
    render_document,
    run_cli,
    serialize_config,
)
from innerorbit.errors import ConfigError, PoleHit

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


def _child_env():
    """The environment of a child interpreter that imports this innerorbit."""
    env = dict(os.environ)
    src = str(Path(innerorbit.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    return env


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


def test_engine_defaults_are_engine_config_fields(tmp_path):
    cfg = load_config(_write(tmp_path, "gi.ini", GOOD_INNER_CONFIG))
    tunable = [f for f in dataclasses.fields(EngineConfig)
               if f.default is not dataclasses.MISSING]
    assert [f.name for f in tunable][0] == "epsilon"
    assert list(cfg.engine.items()) == [(f.name, f.default) for f in tunable]


def test_diagnostics_defaults_are_the_library_defaults(tmp_path):
    cfg = load_config(_write(tmp_path, "d.ini", "[run]\nmode = diagnose-inner\n\n"
                             "[targets]\nf1 = blaschke(0.5+0i, 0)[1]\n"))
    assert cfg.diagnostics == {"radii": [0.9, 0.99, 0.999], "angles_per_dim": 256}
    assert cfg.good_inner == {"radii": [0.9, 0.99, 0.999], "quad_points": 512,
                              "clamp": 40.0, "tolerance": 0.02}
    (f,) = cfg.functions
    assert radial_modulus_report(f, **cfg.diagnostics) == radial_modulus_report(f)
    assert good_inner_trend(f, **cfg.good_inner) == good_inner_trend(f)


def test_k_max_past_binary64_range_exits_one(tmp_path, capsys):
    # the stage-index search takes the logarithm of k_max + 1.0
    text = N1_CONFIG.replace("k_max = 1000000000", "k_max = 1" + "0" * 400)
    assert run_cli(["--config", str(_write(tmp_path, "big.ini", text))]) == 1
    error = json.loads(capsys.readouterr().out)["error"]
    assert error == {"type": "ConfigError",
                     "message": "[engine] k_max must lie within binary64 range, "
                                "at most 1.7976931348623157e+308 in magnitude"}


@pytest.mark.parametrize("k", [2**80, 10**400], ids=["2^80", "10^400"])
def test_orbit_index_past_binary64_resolution_exits_two(tmp_path, k):
    # past binary64 range as well as past its resolution, phi_k has no
    # automorphism in binary64
    text = (N1_CONFIG.replace("construct-universal", "verify-orbit")
            + f"\n[verify]\nx = z[1]\nindices = 3,{k}\n")
    out = tmp_path / "out"
    assert run_cli(["--config", str(_write(tmp_path, "v.ini", text)), "--out", str(out),
                    "--quiet"]) == 2
    failure = json.loads((out / "report.json").read_text())["results"]["failure"]
    assert failure == {"error": "ValidityError", "message": f"sequence index {k}: "
                       "1 - rate/(k+1) rounds to 1 in binary64"}


@pytest.mark.parametrize("k", [2**64, 10**20, 10**400], ids=["2^64", "10^20", "10^400"])
def test_sweep_bound_past_binary64_resolution_exits_two(tmp_path, k):
    # the sweep 1..k is checked at its ends before any work, so a range
    # too long to have a length ends like a listed index past resolution
    text = (N1_CONFIG.replace("construct-universal", "verify-orbit")
            + f"\n[verify]\nx = z[1]\nk = {k}\n")
    out = tmp_path / "out"
    assert run_cli(["--config", str(_write(tmp_path, "v.ini", text)), "--out", str(out),
                    "--quiet"]) == 2
    failure = json.loads((out / "report.json").read_text())["results"]["failure"]
    assert failure == {"error": "ValidityError", "message": f"sequence index {k}: "
                       "1 - rate/(k+1) rounds to 1 in binary64"}


def test_engine_values_keep_their_field_type(tmp_path):
    text = N1_CONFIG.replace(
        "k_max = 1000000000", "k_max = 1000000000\nangle_tol = 0.25\ndelta = 0.02"
    )
    cfg = load_config(_write(tmp_path, "n1.ini", text))
    again = load_config(_write(tmp_path, "n1_canonical.ini", serialize_config(cfg)))
    assert again.engine == cfg.engine
    assert type(again.engine["k_max"]) is int and again.engine["k_max"] == 10**9
    assert type(again.engine["angle_tol"]) is float
    assert again.engine["angle_tol"] == 0.25 and again.engine["delta"] == 0.02


def test_zero_angle_tol_exits_two_with_failure(tmp_path):
    text = N1_CONFIG.replace("k_max = 1000000000", "k_max = 1000000000\nangle_tol = 0")
    cfg_path = _write(tmp_path, "tol0.ini", text)
    out = tmp_path / "out"
    assert run_cli(["--config", str(cfg_path), "--out", str(out), "--quiet"]) == 2
    failure = json.loads((out / "report.json").read_text())["results"]["failure"]
    assert failure["error"] == "ValidityError"
    assert "angle_tol" in failure["message"]


def test_empty_torus_shell_exits_two_with_failure(tmp_path):
    text = GOOD_INNER_CONFIG.replace("good-inner", "diagnose-inner") + (
        "\n[diagnostics]\nangles_per_dim = 0\n"
    )
    cfg_path = _write(tmp_path, "empty.ini", text)
    out = tmp_path / "out"
    assert run_cli(["--config", str(cfg_path), "--out", str(out), "--quiet"]) == 2
    results = json.loads((out / "report.json").read_text())["results"]
    assert "radial" not in results
    assert results["failure"]["error"] == "ValidityError"


def test_oversized_probe_grid_exits_two_with_failure(tmp_path):
    # 204^3 points exceed the 2^23-point cap; refused before any array exists
    text = (N1_CONFIG.replace("dimension = 1", "dimension = 3")
            .replace("lambda = 1+0i", "lambda = 1+0i,1+0i,1+0i")
            .replace("theta = 0.0", "theta = 0.0,0.0,0.0")
            .replace("perm = 1", "perm = 1,2,3")
            .replace("f2 = z[1]", "f2 = z[1] * z[2] * z[3]")
            .replace("points_per_dim = 64", "points_per_dim = 204"))
    out = tmp_path / "out"
    tracemalloc.start()
    try:
        code = run_cli(["--config", str(_write(tmp_path, "big.ini", text)),
                        "--out", str(out), "--quiet"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    # one complex array on the grid would take 136 MB
    assert peak < 2**24
    failure = json.loads((out / "report.json").read_text())["results"]["failure"]
    assert failure == {"error": "ValidityError", "message": "tensor grid of 204^3 "
                       "points is beyond desk scale; lower the per-dimension resolution"}


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


def test_any_library_error_in_a_stage_keeps_completed_stages(tmp_path, monkeypatch):
    build_factor = engine.build_factor

    def pole_at_stage_two(config, lam, j, *args):
        if j == 2:
            raise PoleHit("denominator vanished")
        return build_factor(config, lam, j, *args)

    monkeypatch.setattr(engine, "build_factor", pole_at_stage_two)
    cfg_path = _write(tmp_path, "n1.ini", N1_CONFIG)
    out = tmp_path / "out"
    assert run_cli(["--config", str(cfg_path), "--out", str(out), "--quiet"]) == 2
    results = json.loads((out / "report.json").read_text())["results"]
    assert results["failure"] == {
        "stage": 2, "error": "PoleHit", "message": "denominator vanished"}
    assert len(results["stages"]) == 1
    assert results["recorded_indices"] == [results["stages"][0]["chosen_index"]]


@pytest.mark.parametrize("targets,indices", [
    ("f1 = z[1]\nf2 = const 0.5+0.05i", [370, 195_041_152]),
    ("f1 = const 0.5+0i\nf2 = const 0.5+0.05i", [1_976, 15_855_962]),
], ids=["after_z", "after_constant"])
def test_target_off_one_at_gamma_fits_as_a_later_stage(tmp_path, targets, indices):
    # 0.5+0.05i is not real, so the Schur approximant with the tail 1 is
    # 0.5+0.05i-ish but not 1 at gamma, and an unpinned x_2 would tend to
    # it on the stage-1 image; pinned at gamma, the stage fits
    text = N1_CONFIG.replace("f1 = const 0.5+0i\nf2 = z[1]", targets)
    cfg_path = _write(tmp_path, "pinned.ini", text)
    out = tmp_path / "out"
    assert run_cli(["--config", str(cfg_path), "--out", str(out), "--quiet"]) == 0
    results = json.loads((out / "report.json").read_text())["results"]
    assert results["recorded_indices"] == indices
    assert results["failure"] is None
    for row in results["verification"]:
        assert row["value"] < row["bound"]


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
    assert results["failure"]["error"] == "PrecisionExhausted"


def test_image_within_binary64_of_the_circle_names_the_cap(tmp_path):
    # the stage-3 image lies 1.2e-15 from the circle, where the pullback
    # would compose a zero onto it; the corrector index is named first
    text = N1_CONFIG.replace("rate = 1.0", "rate = 0.7884977200065154").replace(
        "f1 = const 0.5+0i\nf2 = z[1]",
        "f1 = z[1]\nf2 = z[1]^3\nf3 = const 0.3642397088994983+0i",
    ).replace("radius = 0.3", "radius = 0.2650892487651785").replace(
        "k_max = 1000000000", "k_max = 1000000000000000")
    cfg_path = _write(tmp_path, "rim.ini", text)
    out = tmp_path / "out"
    assert run_cli(["--config", str(cfg_path), "--out", str(out), "--quiet"]) == 2
    results = json.loads((out / "report.json").read_text())["results"]
    assert results["recorded_indices"] == [271, 142_521_993]
    failure = results["failure"]
    assert failure["stage"] == 3
    assert failure["error"] == "PrecisionExhausted"
    assert failure["message"].startswith(
        "stage 3 needs corrector index 59, past the cap of 48")


def test_index_past_binary64_resolution_keeps_completed_stages(tmp_path):
    # the stage-2 doubling steps reach k ~ 1.8e16, where 1 - rate/(k+1)
    # rounds to 1 and the sequence has no automorphism at k
    text = N1_CONFIG.replace(
        "k_max = 1000000000", "k_max = 1000000000000000000\ndelta = 1e-7")
    cfg_path = _write(tmp_path, "fine.ini", text)
    out = tmp_path / "out"
    assert run_cli(["--config", str(cfg_path), "--out", str(out), "--quiet"]) == 2
    results = json.loads((out / "report.json").read_text())["results"]
    assert [s["chosen_index"] for s in results["stages"]] == [198_095_234]
    assert results["recorded_indices"] == [198_095_234]
    failure = results["failure"]
    assert failure["stage"] == 2
    assert failure["error"] == "ValidityError"
    named = re.fullmatch(r"sequence index (\d+): 1 - rate/\(k\+1\) rounds to 1 "
                         r"in binary64", failure["message"])
    assert named
    k = int(named[1])
    assert k > 198_095_234 and 1.0 - 1.0 / (k + 1.0) == 1.0


def test_doubling_step_past_k_max_tries_the_last_member(tmp_path):
    # stage 2's doubling step past k_max lands on k ~ 1.8e16, where the
    # sequence has no automorphism; the search tries the last member up to
    # k_max instead, so the run names the k_max it could not meet
    text = N1_CONFIG.replace(
        "k_max = 1000000000", "k_max = 15000000000000000\ndelta = 1e-7")
    cfg_path = _write(tmp_path, "bounded.ini", text)
    out = tmp_path / "out"
    assert run_cli(["--config", str(cfg_path), "--out", str(out), "--quiet"]) == 2
    results = json.loads((out / "report.json").read_text())["results"]
    assert results["recorded_indices"] == [198_095_234]
    failure = results["failure"]
    assert failure["stage"] == 2
    assert failure["error"] == "SequenceExhausted"
    assert failure["message"].startswith(
        "no admissible index within k_max=15000000000000000 at stage 2")


ALLOCATOR_PROBE = """\
import resource, sys
from innerorbit.cli import run_cli
argv = ["--config", sys.argv[1], "--out", sys.argv[2], "--quiet"]
assert run_cli(argv) == 0
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
assert run_cli(argv) == 0
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="the allocator policy is glibc's mallopt")
def test_repeated_run_does_not_refault_freed_arrays(tmp_path):
    # 512^2 quadrature points per shell: each temporary is MiB-sized, and
    # glibc's defaults hand it back to the kernel on free, so the next run
    # faults every page in again (thousands of faults)
    text = GOOD_INNER_CONFIG.replace("dimension = 1", "dimension = 2").replace(
        "f1 = z[1]^5", "f1 = blaschke(0.5+0.2i, 0)[1] * blaschke(-0.3+0.4i, 0)[2]"
    ).replace("quad_points = 64", "quad_points = 512")
    cfg_path = _write(tmp_path, "n2.ini", text)
    env = _child_env()
    proc = subprocess.run(
        [sys.executable, "-c", ALLOCATOR_PROBE, str(cfg_path), str(tmp_path / "out")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 500


def test_power_of_a_constant_at_n2_writes_a_report(tmp_path):
    # a factor on no coordinate joins the constant of the per-coordinate split
    root = Path(__file__).resolve().parents[1]
    text = (root / "configs" / "universal_n2_swap.ini").read_text(encoding="utf-8")
    text = text.replace("f1 = const 0.5+0i\nf2 = z[1] * z[2]\n",
                        "f1 = (const 0.5+0i)^2 * z[1]\n")
    cfg_path = _write(tmp_path, "n2.ini", text)
    out = tmp_path / "out"
    assert run_cli(["--config", str(cfg_path), "--out", str(out), "--quiet"]) == 0
    results = json.loads((out / "report.json").read_text(encoding="utf-8"))["results"]
    assert results["recorded_indices"] == [3325]


@pytest.mark.parametrize("k_max, expected", [("1000000000", 0), ("100", 2)])
def test_module_entry_point_runs(tmp_path, k_max, expected):
    text = N1_CONFIG.replace("k_max = 1000000000", f"k_max = {k_max}")
    cfg_path = _write(tmp_path, "n1.ini", text)
    env = _child_env()
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


# ---------------------------------------------------------------------------
# config values and keys the loader refuses


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("section,key,old,new", [
    ("engine", "angle_tol", "k_max = 1000000000",
     "k_max = 1000000000\nangle_tol = {}"),
    ("engine", "epsilon", "k_max = 1000000000", "k_max = 1000000000\nepsilon = {}"),
    ("probe", "radius", "radius = 0.3", "radius = {}"),
    ("sequence", "rate", "rate = 1.0", "rate = {}"),
    ("sequence", "theta", "theta = 0.0", "theta = {}"),
    ("diagnostics", "radii", "[output]", "[diagnostics]\nradii = 0.9,{}\n\n[output]"),
    ("good_inner", "radii", "[output]", "[good_inner]\nradii = {},0.99\n\n[output]"),
    ("good_inner", "clamp", "[output]", "[good_inner]\nclamp = {}\n\n[output]"),
    ("good_inner", "tolerance", "[output]", "[good_inner]\ntolerance = {}\n\n[output]"),
])
def test_non_finite_value_exits_one(tmp_path, capsys, value, section, key, old, new):
    assert old in N1_CONFIG
    cfg_path = _write(tmp_path, "bad.ini", N1_CONFIG.replace(old, new.format(value)))
    out = tmp_path / "out"
    assert run_cli(["--config", str(cfg_path), "--out", str(out), "--quiet"]) == 1
    error = json.loads(capsys.readouterr().out)["error"]
    assert error["type"] == "ConfigError"
    assert error["message"].startswith(f"[{section}] {key} must be finite")
    assert not (out / "report.json").exists()


@pytest.mark.parametrize("target", [
    "blaschke(0.5+0i, 1e999)[1]",
    "compose(z[1], auto{p=[1], a=[0+0i], t=[1e999]})",
])
def test_infinite_angle_in_a_target_exits_one(tmp_path, capsys, target):
    text = N1_CONFIG.replace("f2 = z[1]", f"f2 = {target}")
    cfg_path = _write(tmp_path, "bad.ini", text)
    out = tmp_path / "out"
    assert run_cli(["--config", str(cfg_path), "--out", str(out), "--quiet"]) == 1
    error = json.loads(capsys.readouterr().out)["error"]
    assert error["type"] == "ConfigError"
    assert error["message"].startswith("target 'f2': theta = inf is not finite")
    assert not (out / "report.json").exists()


def test_unknown_key_exits_one(tmp_path, capsys):
    text = N1_CONFIG.replace("k_max = 1000000000", "kmax = 1000")
    cfg_path = _write(tmp_path, "typo.ini", text)
    assert run_cli(["--config", str(cfg_path), "--quiet"]) == 1
    error = json.loads(capsys.readouterr().out)["error"]
    assert error["type"] == "ConfigError"
    assert "'kmax' in [engine]" in error["message"]
    assert "k_max" in error["message"]
    with pytest.raises(ConfigError, match="unknown key 'radious' in \\[probe\\]"):
        load_config(_write(tmp_path, "p.ini", N1_CONFIG.replace("radius", "radious")))
    with pytest.raises(ConfigError, match="unknown key 'max_escalations' in"):
        load_config(_write(tmp_path, "e.ini", N1_CONFIG.replace(
            "k_max = 1000000000", "max_escalations = 5")))


def test_unknown_section_exits_one(tmp_path, capsys):
    text = N1_CONFIG.replace("[engine]", "[engnie]")
    cfg_path = _write(tmp_path, "typo.ini", text)
    assert run_cli(["--config", str(cfg_path), "--quiet"]) == 1
    error = json.loads(capsys.readouterr().out)["error"]
    assert error["type"] == "ConfigError"
    assert error["message"].startswith("unknown section [engnie]; the sections are")
    assert "[engine]" in error["message"] and "[targets]" in error["message"]
    # configparser's [DEFAULT] is not a section of its own
    plain = load_config(_write(tmp_path, "n1.ini", N1_CONFIG))
    assert load_config(_write(tmp_path, "d.ini", "[DEFAULT]\n" + N1_CONFIG)) == plain


def test_target_keys_are_free_form(tmp_path):
    text = N1_CONFIG.replace("f2 = z[1]", "second = z[1]")
    cfg = load_config(_write(tmp_path, "t.ini", text))
    assert cfg.targets == ("const 0.5+0i", "z[1]")


def test_shipped_and_benchmark_configs_load(tmp_path, monkeypatch):
    root = Path(__file__).resolve().parents[1]
    texts = [p.read_text(encoding="utf-8") for p in sorted(root.glob("configs/*.ini"))]
    assert len(texts) == 3
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", root / "perfbench" / "workloads.py"
    )
    w = importlib.util.module_from_spec(spec)
    # dataclasses look their module up by name
    monkeypatch.setitem(sys.modules, spec.name, w)
    spec.loader.exec_module(w)
    inputs = w.Inputs.from_seed(0)
    for make in (w.n1_two, w.n2_swap, w.n1_three, w.n3_two):
        text = make(inputs)
        texts += [text, w.verify_config(text, "z[1]", f"k = {w.SWEEP_K}"),
                  w.verify_config(text, "z[1]", "indices = 3,9")]
    for n, targets in ((1, ["z[1]", w._blaschke_n1(inputs.zeros_n1[0])]),
                       (2, ["z[1]", w._blaschke_n2(inputs.zeros_n2[0])])):
        for mode in ("good-inner", "diagnose-inner"):
            texts.append(w.diagnostics_config(mode, inputs, n, targets))
    texts.append(VERIFY_EXPLICIT + "indices = 2,1,2\nrandom_points = 3\n")
    for i, text in enumerate(texts):
        cfg = load_config(_write(tmp_path, f"c{i}.ini", text))
        canonical = serialize_config(cfg)
        again = load_config(_write(tmp_path, f"c{i}_canonical.ini", canonical))
        assert again == cfg
        assert serialize_config(again) == canonical


def _doc_blocks() -> dict:
    """Heading of docs/formats.md -> its text up to the next heading of any
    level."""
    docs = (Path(__file__).resolve().parents[1] / "docs" / "formats.md").read_text(
        encoding="utf-8"
    )
    return dict(b.partition("\n")[::2] for b in re.split(r"^#+ ", docs, flags=re.M))


def test_every_config_key_is_documented():
    blocks = _doc_blocks()
    for section, table in {"run": _RUN, **_schema(1)}.items():
        (body,) = [b for h, b in blocks.items() if h.startswith(f"`[{section}]`")]
        keys = table if section != "sequence" else [k for t in table.values() for k in t]
        for key in keys:
            assert f"`{key}`" in body, (section, key)


VERIFY_RANDOM_POINTS = """\
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
points_per_dim = 16

[verify]
x = z[1]
indices = 1,2,3
random_points = 32
"""


def _report(tmp_path, name, text, *flags):
    cfg_path = _write(tmp_path, f"{name}.ini", text)
    out = tmp_path / name
    code = run_cli(["--config", str(cfg_path), "--out", str(out), "--quiet", *flags])
    assert code == 0
    return (out / "report.json").read_bytes()


def test_random_points_are_seeded(tmp_path):
    first = _report(tmp_path, "a", VERIFY_RANDOM_POINTS)
    assert _report(tmp_path, "b", VERIFY_RANDOM_POINTS) == first
    rows = json.loads(first)["results"]["orbit"]
    assert all(math.isfinite(row["random_point_error"]) for row in rows)
    # the seed draws the sample points only, never the orbit errors
    other = json.loads(_report(tmp_path, "c", VERIFY_RANDOM_POINTS, "--seed", "1"))
    for row, moved in zip(rows, other["results"]["orbit"]):
        assert moved["random_point_error"] != row["random_point_error"]
        assert moved["best_index"] == row["best_index"]
        assert moved["value"] == row["value"]


def test_timings_add_only_total_seconds(tmp_path):
    plain = json.loads(_report(tmp_path, "plain", GOOD_INNER_CONFIG))
    timed = json.loads(_report(tmp_path, "timed", GOOD_INNER_CONFIG, "--timings"))
    timings = timed.pop("timings")
    assert list(timings) == ["total_seconds"] and timings["total_seconds"] >= 0.0
    assert timed == plain


def _keys(node):
    if isinstance(node, dict):
        for key, value in node.items():
            yield key
            yield from _keys(value)
    elif isinstance(node, list):
        for value in node:
            yield from _keys(value)


@pytest.fixture(scope="module")
def mode_outputs(tmp_path_factory):
    """The output directories of a run of each mode, with timings."""
    root = tmp_path_factory.mktemp("modes")
    runs = {
        "diagnose": (GOOD_INNER_CONFIG, "--mode", "diagnose-inner"),
        "good": (GOOD_INNER_CONFIG,),
        "construct": (N1_CONFIG,),
        "verify": (VERIFY_RANDOM_POINTS,),
    }
    for name, (text, *flags) in runs.items():
        _report(root, name, text, *flags, "--timings")
    return [root / name for name in runs]


def test_every_report_field_is_documented(mode_outputs):
    documented = set(re.findall(r"\w+", " ".join(
        re.findall(r"`([^`]*)`", _doc_blocks()["Report (JSON)"]))))
    undocumented = set()
    for out in mode_outputs:
        report = json.loads((out / "report.json").read_bytes())
        assert report.pop("config")
        undocumented |= {key for key in _keys(report) if key not in documented}
    assert not undocumented


def test_every_table_is_documented(mode_outputs):
    # each table a mode writes, with its header row as documented
    documented = dict(re.findall(r"^- `(\w+\.csv)`: `([\w,]+)`$",
                                 _doc_blocks()["Tables (CSV)"], flags=re.M))
    written = {table.name: table.read_text(encoding="utf-8").partition("\n")[0]
               for out in mode_outputs for table in (out / "tables").glob("*.csv")}
    assert written == documented


# ---------------------------------------------------------------------------
# orbit indices outside the sequence


VERIFY_EXPLICIT = """\
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
x = z[1]
"""


@pytest.mark.parametrize("text,indices,message", [
    (N1_CONFIG.replace("construct-universal", "verify-orbit")
     + "\n[verify]\nx = z[1]\n", "0", "orbit indices start at 1, got 0"),
    (N1_CONFIG.replace("construct-universal", "verify-orbit")
     + "\n[verify]\nx = z[1]\n", "-5,3", "orbit indices start at 1, got -5"),
    (VERIFY_EXPLICIT, "0", "orbit indices start at 1, got 0"),
    (VERIFY_EXPLICIT, "1,3", "orbit index 3 is past the sequence length 2"),
])
def test_orbit_index_outside_the_sequence_exits_two(tmp_path, text, indices, message):
    cfg_path = _write(tmp_path, "v.ini", text + f"indices = {indices}\n")
    out = tmp_path / "out"
    assert run_cli(["--config", str(cfg_path), "--out", str(out), "--quiet"]) == 2
    failure = json.loads((out / "report.json").read_text())["results"]["failure"]
    assert failure == {"error": "ValidityError", "message": message}


# ---------------------------------------------------------------------------
# [sequence] keys and literals


@pytest.mark.parametrize("text,key,kind,accepted", [
    (VERIFY_EXPLICIT.replace("kind = explicit", "kind = explicit\nlambda = 1+0i\nrate = 0.5")
     + "k = 2\n", "lambda", "explicit", "kind, autos"),
    (N1_CONFIG.replace("perm = 1", "perm = 1\nautos = garbage"), "autos", "generated",
     "kind, lambda, rate, theta, perm"),
])
def test_sequence_key_of_the_other_kind_exits_one(tmp_path, capsys, text, key, kind,
                                                  accepted):
    cfg_path = _write(tmp_path, "seq.ini", text)
    assert run_cli(["--config", str(cfg_path), "--quiet"]) == 1
    error = json.loads(capsys.readouterr().out)["error"]
    assert error["type"] == "ConfigError"
    assert error["message"] == (
        f"unknown key {key!r} in [sequence]; [sequence] kind = {kind} accepts {accepted}"
    )


@pytest.mark.parametrize("target,column", [
    ("(" * 330 + "z[1]" + ")" * 330, 101),
    ("z[1]" + "^1" * 1000, 205),
], ids=["parentheses", "powers"])
def test_target_nested_past_the_bound_exits_one(tmp_path, capsys, target, column):
    text = N1_CONFIG.replace("f1 = const 0.5+0i", f"f1 = {target}")
    cfg_path = _write(tmp_path, "deep.ini", text)
    out = tmp_path / "out"
    assert run_cli(["--config", str(cfg_path), "--out", str(out), "--quiet"]) == 1
    error = json.loads(capsys.readouterr().out)["error"]
    assert error == {"type": "ConfigError", "message": "target 'f1': nesting deeper "
                     f"than 100 levels (line 1, column {column})"}
    assert not (out / "report.json").exists()


@pytest.mark.parametrize("mode", ["verify-orbit", "construct-universal"])
def test_malformed_verify_x_exits_one_in_every_mode(tmp_path, capsys, mode):
    text = (VERIFY_EXPLICIT.replace("x = z[1]", "x = z[1] * bogus")
            .replace("verify-orbit", mode) + "k = 2\n")
    cfg_path = _write(tmp_path, "x.ini", text)
    out = tmp_path / "out"
    assert run_cli(["--config", str(cfg_path), "--out", str(out), "--quiet"]) == 1
    error = json.loads(capsys.readouterr().out)["error"]
    assert error == {"type": "ConfigError", "message": "[verify] x unknown term "
                     "'bogus' (line 1, column 8)"}
    assert not (out / "report.json").exists()


SECOND_AUTO = "auto{p=[1], a=[0.9+0i], t=[0.0]}"


@pytest.mark.parametrize("text,entry", [
    (VERIFY_EXPLICIT + "k = 2\n", SECOND_AUTO + " z[1]"),
    (VERIFY_EXPLICIT + "k = 2\n", "auto{p=[1] a=[0.9+0i], t=[0.0]}"),
    # diagnose-inner never builds the sequence, so only the loader sees it
    (GOOD_INNER_CONFIG.replace("good-inner", "diagnose-inner")
     + "\n[sequence]\nkind = explicit\nautos = " + SECOND_AUTO + "\n",
     "auto{p=[1], a=[1.5+0i], t=[0.0]}"),
], ids=["trailing-input", "syntax-error", "alpha-outside-disk"])
def test_bad_autos_entry_exits_one(tmp_path, capsys, text, entry):
    assert SECOND_AUTO in text
    cfg_path = _write(tmp_path, "autos.ini", text.replace(SECOND_AUTO, entry))
    out = tmp_path / "out"
    assert run_cli(["--config", str(cfg_path), "--out", str(out), "--quiet"]) == 1
    error = json.loads(capsys.readouterr().out)["error"]
    assert error["type"] == "ConfigError"
    assert error["message"].startswith(f"[sequence] autos entry {entry!r}: ")
    assert not (out / "report.json").exists()


@pytest.mark.parametrize("literal,real,imag", [
    ("1+0i", "1", "0"),
    ("-0.6-0.8i", "-0.6", "-0.8"),
    ("+1e0-0e0i", "+1e0", "-0e0"),
    (".6+.8i", ".6", ".8"),
    ("-1-0i", "-1", "-0"),
    ("0.28000000000000003+0.96i", "0.28000000000000003", "0.96"),
])
def test_lambda_literal_values_are_bitwise_exact(tmp_path, literal, real, imag):
    text = N1_CONFIG.replace("lambda = 1+0i", f"lambda = {literal}")
    (z,) = load_config(_write(tmp_path, "lam.ini", text)).sequence["lambda"]
    expected = complex(float(real), float(imag))
    assert struct.pack("<dd", z.real, z.imag) == struct.pack(
        "<dd", expected.real, expected.imag
    )


def test_default_section_lends_no_targets(tmp_path):
    # configparser lends [DEFAULT] keys to every section, [targets] too;
    # only the keys written under [targets] are targets
    root = Path(__file__).resolve().parents[1]
    shipped = (root / "configs" / "universal_n1.ini").read_text(encoding="utf-8")
    text = "[DEFAULT]\nradius = 0.3\nf2 = z[1]^2\nf3 = z[1]^3\n\n" + shipped
    cfg = load_config(_write(tmp_path, "d.ini", text))
    assert cfg.targets == ("const 0.5+0i", "z[1]")
    assert cfg == load_config(_write(tmp_path, "plain.ini", shipped))
    assert load_config(_write(tmp_path, "s.ini", serialize_config(cfg))) == cfg


GENERATED_N1 = "[sequence]\nkind = generated\nlambda = 1+0i\nrate = 1.0\ntheta = 0.0\nperm = 1\n"


@pytest.mark.parametrize("key,old,new,message", [
    ("lambda", "lambda = 1+0i", "lambda = 0.5+0i", "direction coordinates must be unimodular"),
    ("lambda", "lambda = 1+0i", "lambda = 1+0i,1+0i", "needs 1 values, got 2"),
    ("rate", "rate = 1.0", "rate = 7", "rate 7.0 not in (0, 1]"),
    ("rate", "rate = 1.0", "rate = 0", "rate 0.0 not in (0, 1]"),
    ("theta", "theta = 0.0", "theta = 0.0|0.1,0.2", "needs 1 entries per list, got '0.1,0.2'"),
    ("perm", "perm = 1", "perm = 2", "'2' is not a permutation of 1..1"),
])
@pytest.mark.parametrize("mode", ["good-inner", "diagnose-inner", "construct-universal",
                                  "verify-orbit"])
def test_bad_generated_sequence_exits_one_in_every_mode(tmp_path, capsys, mode, key, old,
                                                        new, message):
    # good-inner and diagnose-inner never build the sequence, so only the
    # loader sees it
    assert old in GENERATED_N1
    text = (GOOD_INNER_CONFIG.replace("good-inner", mode)
            + "\n" + GENERATED_N1.replace(old, new)
            + "\n[verify]\nx = z[1]\nk = 2\n")
    cfg_path = _write(tmp_path, "seq.ini", text)
    out = tmp_path / "out"
    assert run_cli(["--config", str(cfg_path), "--out", str(out), "--quiet"]) == 1
    error = json.loads(capsys.readouterr().out)["error"]
    assert error["type"] == "ConfigError"
    assert error["message"] == f"[sequence] {key} {message}"
    assert not (out / "report.json").exists()


def test_sparse_schedule_exits_two_with_partial_report(tmp_path, monkeypatch):
    # one subsequence member every four indices: a doubling step of the
    # stage-index search can land on the member its lower end holds. Here
    # stage 2's does: from member 3 761, the steps to 3 763 and to 3 765
    # both land on member 3 765, the second after the jump to the last
    # member up to k_max was inadmissible
    calls = []
    member_from = SubsequenceSelection.member_from

    def recorded(self, k, top):
        calls.append((k, top, member_from(self, k, top)))
        return calls[-1][2]

    monkeypatch.setattr(SubsequenceSelection, "member_from", recorded)
    text = N1_CONFIG.replace("theta = 0.0", "theta = 0.0|0.4|0.8|1.2").replace(
        "f1 = const 0.5+0i", "f1 = const 0.3+0.2i * z[1]")
    cfg_path = _write(tmp_path, "sparse.ini", text)
    out = tmp_path / "out"
    assert run_cli(["--config", str(cfg_path), "--out", str(out), "--quiet"]) == 2
    results = json.loads((out / "report.json").read_text())["results"]
    assert results["selection"]["indices"][:3] == [1, 5, 9]
    assert (3_763, 10**9, 3_765) in calls and (3_765, 10**9, 3_765) in calls
    assert results["recorded_indices"] == [3_757]
    assert results["failure"]["stage"] == 2
    assert results["failure"]["error"] == "SequenceExhausted"


@pytest.mark.parametrize("text,parsed", [
    (N1_CONFIG, ["const 0.5+0i", "z[1]"]),
    (N1_CONFIG.replace("construct-universal", "verify-orbit")
     + "\n[verify]\nx = z[1]^2\nindices = 3,9\n", ["const 0.5+0i", "z[1]", "z[1]^2"]),
    (GOOD_INNER_CONFIG, ["z[1]^5"]),
    (GOOD_INNER_CONFIG.replace("good-inner", "diagnose-inner"), ["z[1]^5"]),
], ids=["construct", "verify", "good-inner", "diagnose"])
def test_each_target_is_parsed_once_per_run(tmp_path, monkeypatch, text, parsed):
    # the targets, while loading, then a verify-orbit run's x
    texts = []
    parse = innerorbit.cli.parse_function_dsl

    def counted(text, dimension):
        texts.append(text)
        return parse(text, dimension)

    monkeypatch.setattr(innerorbit.cli, "parse_function_dsl", counted)
    cfg_path = _write(tmp_path, "run.ini", text)
    assert run_cli(["--config", str(cfg_path), "--out", str(tmp_path / "out"),
                    "--quiet"]) == 0
    assert texts == parsed
