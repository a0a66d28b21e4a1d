"""Config-driven experiment runner.

Modes: diagnose-inner, good-inner, construct-universal, verify-orbit.
Configs are flat INI-style key/value files (sections documented in
docs/formats.md); the primary report is a canonical JSON document in which
every float carries 17 significant digits, so identical configs produce
byte-identical reports. Wall-clock timings are collected but only written
when --timings is passed, keeping default reports deterministic.

Exit codes: 0 success, 1 configuration error, 2 engine failure (a partial
report with a failure object is still written).
"""

from __future__ import annotations

import argparse
import cmath
import configparser
import csv
import io
import json
import math
import re
import sys
import time
from dataclasses import MISSING, dataclass, fields
from pathlib import Path

import numpy as np

from . import __version__
from .automorphisms import ExplicitSequence, GeneratedSequence
from .dsl import (
    _Parser,  # autospec shares the DSL tokenizer
    format_complex,
    format_real,
    parse_function_dsl,
    serialize_function,
)
from .engine import EngineConfig, run_universality, verify_orbit
from .errors import ConfigError, InnerOrbitError
from .geometry import CompactProbe, default_points_per_dim
from .inner_tools import good_inner_trend, radial_modulus_report

_MODES = ("diagnose-inner", "good-inner", "construct-universal", "verify-orbit")


# ---------------------------------------------------------------------------
# canonical document rendering

def render_document(obj, indent: int = 0) -> str:
    """JSON text with deterministic layout and 17-significant-digit floats."""
    pad = "  " * indent
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return format_real(obj)
    if isinstance(obj, complex):
        return json.dumps(format_complex(obj))
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = ",\n".join(
            f"{pad}  {render_document(v, indent + 1)}" for v in obj
        )
        return f"[\n{inner}\n{pad}]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = ",\n".join(
            f"{pad}  {json.dumps(str(k))}: {render_document(v, indent + 1)}"
            for k, v in obj.items()
        )
        return f"{{\n{inner}\n{pad}}}"
    raise ConfigError(f"cannot serialize object of type {type(obj).__name__}")


def write_csv(path: Path, header, rows) -> None:
    """RFC-4180 table with LF line endings; floats preformatted to 17g."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_csv_cell(v) for v in row])
    path.write_text(buf.getvalue(), encoding="utf-8", newline="")


def _csv_cell(v):
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return format_real(v)
    if isinstance(v, complex):
        return format_complex(v)
    return v


# ---------------------------------------------------------------------------
# run configuration

@dataclass
class RunConfig:
    """Parsed, validated, canonicalized run description."""

    mode: str
    dimension: int
    seed: int
    sequence: dict
    targets: tuple
    probe: dict
    engine: dict
    diagnostics: dict
    good_inner: dict
    verify: dict
    output: dict

    def canonical_dict(self) -> dict:
        return {
            "run": {"mode": self.mode, "dimension": self.dimension,
                    "seed": self.seed},
            "sequence": self.sequence,
            "targets": list(self.targets),
            "probe": self.probe,
            "engine": self.engine,
            "diagnostics": self.diagnostics,
            "good_inner": self.good_inner,
            "verify": self.verify,
            "output": self.output,
        }


@dataclass
class Report:
    """Structured run record; rendering gives every float 17 significant
    digits so equal runs serialize byte-identically. Timings are volatile
    and excluded unless explicitly requested."""

    mode: str
    config: dict
    results: dict
    library: dict
    timings: dict

    def document(self, include_timings: bool = False) -> dict:
        doc = {
            "library": self.library,
            "mode": self.mode,
            "config": self.config,
            "results": self.results,
        }
        if include_timings:
            doc["timings"] = self.timings
        return doc

    def render(self, include_timings: bool = False) -> str:
        return render_document(self.document(include_timings)) + "\n"


#: the [engine] keys, in report order: the EngineConfig fields with a
#: default, each parsed with the type of its default
_ENGINE_FIELDS = tuple(f for f in fields(EngineConfig) if f.default is not MISSING)

#: the keys of each section; [targets] keys are free-form
_SECTION_KEYS = {
    "run": ("mode", "dimension", "seed"),
    "sequence": ("kind", "lambda", "rate", "theta", "perm", "autos"),
    "probe": ("radius", "points_per_dim"),
    "engine": tuple(f.name for f in _ENGINE_FIELDS),
    "diagnostics": ("radii", "angles_per_dim"),
    "good_inner": ("radii", "quad_points", "clamp", "tolerance"),
    "verify": ("x", "indices", "k", "random_points"),
    "output": ("report", "tables"),
}


def _floats(text: str) -> tuple:
    return tuple(float(x) for x in text.split(","))


def _finite(section: str, key: str, values):
    """``values`` (a number or a tuple of numbers) once every number in it
    is finite: a NaN or an infinity has no JSON form in the report."""
    for v in values if isinstance(values, tuple) else (values,):
        if not cmath.isfinite(v):
            raise ConfigError(f"[{section}] {key} must be finite, got {v!r}")
    return values


def _complexes(text: str) -> tuple:
    out = []
    for part in text.split(","):
        out.append(_parse_complex_literal(part.strip()))
    return tuple(out)


_COMPLEX_RE = re.compile(
    r"\s*([+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"\s*([+-])\s*((?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)i\s*"
)


def _parse_complex_literal(text: str) -> complex:
    m = _COMPLEX_RE.fullmatch(text)
    if m is None:
        raise ConfigError(f"bad complex literal {text!r}")
    return complex(float(m.group(1)), float(m.group(2) + m.group(3)))


def load_config(path: Path, mode_override=None, seed_override=None) -> RunConfig:
    if not path.exists():
        raise ConfigError("ConfigNotFound")
    cp = configparser.ConfigParser(interpolation=None)
    try:
        cp.read(path, encoding="utf-8")
    except configparser.Error as exc:
        raise ConfigError(f"unparseable config: {exc}") from exc
    inherited = set(cp.defaults())
    for section, known in _SECTION_KEYS.items():
        if not cp.has_section(section):
            continue
        for key in cp.options(section):
            if key not in known and key not in inherited:
                raise ConfigError(
                    f"unknown key {key!r} in [{section}]; [{section}] accepts "
                    + ", ".join(known)
                )

    def get(section, key, default=None):
        if cp.has_option(section, key):
            return cp.get(section, key).strip()
        return default

    mode = mode_override or get("run", "mode")
    if mode not in _MODES:
        raise ConfigError(f"mode must be one of {_MODES}, got {mode!r}")
    try:
        return _load_config_body(cp, get, mode, seed_override)
    except ValueError as exc:
        raise ConfigError(f"bad config value: {exc}") from exc


def _load_config_body(cp, get, mode, seed_override) -> RunConfig:
    def real(section, key, default):
        return _finite(section, key, float(get(section, key, default)))

    def reals(section, key, default):
        return list(_finite(section, key, _floats(get(section, key, default))))

    dimension = int(get("run", "dimension", "1"))
    seed = int(seed_override if seed_override is not None
               else get("run", "seed", "0"))
    if dimension < 1:
        raise ConfigError("dimension must be positive")

    # ---- sequence ----
    sequence: dict = {}
    if cp.has_section("sequence"):
        kind = get("sequence", "kind", "generated")
        if kind == "generated":
            lam_text = get("sequence", "lambda")
            if lam_text is None:
                raise ConfigError("[sequence] lambda is required")
            direction = _finite("sequence", "lambda", _complexes(lam_text))
            rate = real("sequence", "rate", "1.0")
            theta_text = get("sequence", "theta",
                             ",".join(["0.0"] * dimension))
            perm_text = get("sequence", "perm",
                            ",".join(str(i) for i in range(1, dimension + 1)))
            theta_cycle = tuple(
                _finite("sequence", "theta", _floats(v)) for v in theta_text.split("|")
            )
            perm_cycle = tuple(
                tuple(int(x) for x in v.split(",")) for v in perm_text.split("|")
            )
            sequence = {
                "kind": "generated",
                "lambda": [format_complex(d) for d in direction],
                "rate": rate,
                "theta": "|".join(
                    ",".join(format_real(t) for t in vec) for vec in theta_cycle
                ),
                "perm": "|".join(
                    ",".join(str(p) for p in perm) for perm in perm_cycle
                ),
            }
        elif kind == "explicit":
            autos_text = get("sequence", "autos")
            if autos_text is None:
                raise ConfigError("[sequence] autos is required")
            specs = [s.strip() for s in autos_text.split("|")]
            sequence = {"kind": "explicit", "autos": specs}
        else:
            raise ConfigError(f"unknown sequence kind {kind!r}")

    # ---- targets ----
    targets: list = []
    if cp.has_section("targets"):
        keys = sorted(cp.options("targets"),
                      key=lambda k: (len(k), k))
        for key in keys:
            text = cp.get("targets", key).strip()
            try:
                tree = parse_function_dsl(text, dimension)
            except InnerOrbitError as exc:
                raise ConfigError(f"target {key!r}: {exc}") from exc
            targets.append(serialize_function(tree))

    # ---- probe ----
    probe = {
        "radius": real("probe", "radius", "0.3"),
        "points_per_dim": int(
            get("probe", "points_per_dim", str(default_points_per_dim(dimension)))
        ),
    }

    # ---- engine ----
    engine = {}
    for f in _ENGINE_FIELDS:
        raw = get("engine", f.name)
        engine[f.name] = (
            f.default if raw is None
            else _finite("engine", f.name, type(f.default)(raw))
        )

    diagnostics = {
        "radii": reals("diagnostics", "radii", "0.9,0.99,0.999"),
        "angles_per_dim": int(get("diagnostics", "angles_per_dim", "256")),
    }
    good_inner = {
        "radii": reals("good_inner", "radii", "0.9,0.99,0.999"),
        "quad_points": int(get("good_inner", "quad_points", "512")),
        "clamp": real("good_inner", "clamp", "40.0"),
        "tolerance": real("good_inner", "tolerance", "0.02"),
    }

    verify: dict = {
        "x": get("verify", "x", ""),
        "k": int(get("verify", "k", "0")),
        "random_points": int(get("verify", "random_points", "0")),
    }
    indices_text = get("verify", "indices", "")
    verify["indices"] = (
        [int(v) for v in indices_text.split(",")] if indices_text else []
    )

    output = {
        "report": get("output", "report", "report.json"),
        "tables": get("output", "tables", "tables"),
    }

    cfg = RunConfig(
        mode=mode,
        dimension=dimension,
        seed=seed,
        sequence=sequence,
        targets=tuple(targets),
        probe=probe,
        engine=engine,
        diagnostics=diagnostics,
        good_inner=good_inner,
        verify=verify,
        output=output,
    )
    _validate_config(cfg)
    return cfg


def _validate_config(cfg: RunConfig) -> None:
    if cfg.mode in ("construct-universal", "verify-orbit") and not cfg.sequence:
        raise ConfigError(f"mode {cfg.mode} requires a [sequence] section")
    if cfg.mode != "verify-orbit" and not cfg.targets:
        raise ConfigError("a [targets] section with at least one entry is required")
    if cfg.mode == "verify-orbit":
        if not cfg.verify["x"]:
            raise ConfigError("[verify] x expression is required")
        if not cfg.targets:
            raise ConfigError("verify-orbit requires targets")
        if not cfg.verify["indices"] and cfg.verify["k"] < 1:
            raise ConfigError("[verify] needs indices or a positive k")


def serialize_config(cfg: RunConfig) -> str:
    """Canonical INI text; parsing it back reproduces cfg exactly."""
    lines = ["[run]", f"mode = {cfg.mode}", f"dimension = {cfg.dimension}",
             f"seed = {cfg.seed}", ""]
    if cfg.sequence:
        lines.append("[sequence]")
        lines.append(f"kind = {cfg.sequence['kind']}")
        if cfg.sequence["kind"] == "generated":
            lines.append(f"lambda = {','.join(cfg.sequence['lambda'])}")
            lines.append(f"rate = {format_real(cfg.sequence['rate'])}")
            lines.append(f"theta = {cfg.sequence['theta']}")
            lines.append(f"perm = {cfg.sequence['perm']}")
        else:
            lines.append(f"autos = {' | '.join(cfg.sequence['autos'])}")
        lines.append("")
    if cfg.targets:
        lines.append("[targets]")
        for i, expr in enumerate(cfg.targets, start=1):
            lines.append(f"f{i} = {expr}")
        lines.append("")
    lines.append("[probe]")
    lines.append(f"radius = {format_real(cfg.probe['radius'])}")
    lines.append(f"points_per_dim = {cfg.probe['points_per_dim']}")
    lines.append("")
    lines.append("[engine]")
    for f in _ENGINE_FIELDS:
        value = cfg.engine[f.name]
        text = format_real(value) if isinstance(f.default, float) else str(value)
        lines.append(f"{f.name} = {text}")
    lines.append("")
    lines.append("[diagnostics]")
    lines.append(
        "radii = " + ",".join(format_real(r) for r in cfg.diagnostics["radii"])
    )
    lines.append(f"angles_per_dim = {cfg.diagnostics['angles_per_dim']}")
    lines.append("")
    lines.append("[good_inner]")
    lines.append(
        "radii = " + ",".join(format_real(r) for r in cfg.good_inner["radii"])
    )
    lines.append(f"quad_points = {cfg.good_inner['quad_points']}")
    lines.append(f"clamp = {format_real(cfg.good_inner['clamp'])}")
    lines.append(f"tolerance = {format_real(cfg.good_inner['tolerance'])}")
    lines.append("")
    if any((cfg.verify["x"], cfg.verify["indices"], cfg.verify["k"],
            cfg.verify["random_points"])):
        lines.append("[verify]")
        if cfg.verify["x"]:
            lines.append(f"x = {cfg.verify['x']}")
        if cfg.verify["indices"]:
            lines.append(
                "indices = " + ",".join(str(i) for i in cfg.verify["indices"])
            )
        if cfg.verify["k"]:
            lines.append(f"k = {cfg.verify['k']}")
        if cfg.verify["random_points"]:
            lines.append(f"random_points = {cfg.verify['random_points']}")
        lines.append("")
    lines.append("[output]")
    lines.append(f"report = {cfg.output['report']}")
    lines.append(f"tables = {cfg.output['tables']}")
    lines.append("")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# builders

def build_sequence(cfg: RunConfig):
    spec = cfg.sequence
    if spec["kind"] == "generated":
        direction = tuple(_parse_complex_literal(t) for t in spec["lambda"])
        theta_cycle = tuple(_floats(v) for v in spec["theta"].split("|"))
        perm_cycle = tuple(
            tuple(int(x) - 1 for x in v.split(","))
            for v in spec["perm"].split("|")
        )
        return GeneratedSequence(direction, spec["rate"], theta_cycle, perm_cycle)
    autos = []
    for text in spec["autos"]:
        parser = _Parser(text, cfg.dimension)
        autos.append(parser.parse_autospec())
        if parser.peek().kind != "eof":
            raise ConfigError(f"trailing input in autospec {text!r}")
    return ExplicitSequence(autos)


def build_targets(cfg: RunConfig):
    return tuple(parse_function_dsl(t, cfg.dimension) for t in cfg.targets)


def build_probe(cfg: RunConfig) -> CompactProbe:
    return CompactProbe.create(
        cfg.probe["radius"], cfg.dimension, cfg.probe["points_per_dim"]
    )


# ---------------------------------------------------------------------------
# modes

def _mode_diagnose(cfg: RunConfig, out_dir: Path):
    targets = build_targets(cfg)
    rows = []
    results = []
    for i, (expr, f) in enumerate(zip(cfg.targets, targets), start=1):
        report = radial_modulus_report(
            f, cfg.diagnostics["radii"], cfg.diagnostics["angles_per_dim"]
        )
        results.append(
            {
                "target": i,
                "expression": expr,
                "radii": list(report.radii),
                "deviations": list(report.deviations),
            }
        )
        for r, d in zip(report.radii, report.deviations):
            rows.append([i, expr, r, d])
    write_csv(
        out_dir / "radial_modulus.csv",
        ["target", "expression", "radius", "deviation"],
        rows,
    )
    return {"radial": results}, 0


def _mode_good_inner(cfg: RunConfig, out_dir: Path):
    targets = build_targets(cfg)
    params = cfg.good_inner
    rows = []
    results = []
    for i, (expr, f) in enumerate(zip(cfg.targets, targets), start=1):
        report = good_inner_trend(
            f,
            params["radii"],
            params["quad_points"],
            params["clamp"],
            params["tolerance"],
        )
        results.append(
            {
                "target": i,
                "expression": expr,
                "radii": list(report.radii),
                "values": list(report.values),
                "clamp_counts": list(report.clamp_counts),
                "passed": report.passed,
            }
        )
        for r, v, c in zip(report.radii, report.values, report.clamp_counts):
            rows.append([i, expr, r, v, c])
    write_csv(
        out_dir / "good_inner.csv",
        ["target", "expression", "radius", "log_mean", "clamp_count"],
        rows,
    )
    return {"good_inner": results}, 0


def _selection_payload(selection) -> dict:
    return {
        "indices": list(selection.indices),
        "permutation": [p + 1 for p in selection.permutation],
        "limit_angles": list(selection.limit_angles),
        "limit_moduli": [format_complex(m) for m in selection.limit_moduli],
        "lambda": [format_complex(c) for c in selection.lam.coords],
        "gamma": [format_complex(c) for c in selection.gamma.coords],
        "horizon": selection.horizon,
    }


def _mode_construct(cfg: RunConfig, out_dir: Path):
    seq = build_sequence(cfg)
    targets = build_targets(cfg)
    probe = build_probe(cfg)
    run = run_universality(
        EngineConfig(sequence=seq, targets=targets, probe=probe, **cfg.engine)
    )

    stage_rows = []
    stage_payload = []
    for s in run.stages:
        stage_payload.append(
            {
                "stage": s.stage,
                "chosen_index": s.chosen_index,
                "corrector_index": s.corrector_index,
                "fidelity": s.fidelity,
                "projection_error": s.projection_error,
                "condition_a": list(s.condition_a),
                "condition_b": s.condition_b,
                "retro_interference": list(s.retro_interference),
                "roundtrip_error": s.roundtrip_error,
                "escalations": s.escalations,
                "factor_expression": serialize_function(s.factor.product),
            }
        )
        stage_rows.append(
            [
                s.stage,
                s.chosen_index,
                s.corrector_index,
                s.fidelity,
                s.projection_error,
                s.condition_b,
                max(s.condition_a) if s.condition_a else 0.0,
                max(s.retro_interference) if s.retro_interference else 0.0,
                s.roundtrip_error,
                s.escalations,
            ]
        )
    write_csv(
        out_dir / "stages.csv",
        [
            "stage", "chosen_index", "corrector_index", "fidelity",
            "projection_error", "condition_b", "condition_a_max",
            "retro_max", "roundtrip_error", "escalations",
        ],
        stage_rows,
    )

    verification_payload = []
    verification_rows = []
    for row in run.verification:
        expr = cfg.targets[row["target"] - 1]
        verification_payload.append({**row, "expression": expr})
        verification_rows.append(
            [row["target"], expr, row["best_index"], row["value"], row["bound"]]
        )
    write_csv(
        out_dir / "verification.csv",
        ["target", "expression", "best_index", "value", "bound"],
        verification_rows,
    )

    results = {
        "selection": _selection_payload(run.selection),
        "stages": stage_payload,
        "x_expression": (
            serialize_function(run.product) if run.product is not None else None
        ),
        "recorded_indices": list(run.recorded_indices()),
        "verification": verification_payload,
        "failure": run.failure,
    }
    return results, (0 if run.failure is None else 2)


def _sample_points(seed: int, count: int, radius: float, dimension: int):
    """Seeded interior sample within the probe radius; the seed affects
    verification sampling only, never any construction."""
    rng = np.random.default_rng(seed)
    r = radius * np.sqrt(rng.uniform(0.0, 1.0, size=(count, dimension)))
    ang = rng.uniform(-math.pi, math.pi, size=(count, dimension))
    return r * np.exp(1j * ang)


def _mode_verify(cfg: RunConfig, out_dir: Path):
    seq = build_sequence(cfg)
    targets = build_targets(cfg)
    probe = build_probe(cfg)
    x = parse_function_dsl(cfg.verify["x"], cfg.dimension)
    indices = cfg.verify["indices"] or None
    rows = verify_orbit(x, seq, targets, probe, cfg.verify["k"], indices)

    sample = None
    if cfg.verify["random_points"] > 0:
        sample = _sample_points(
            cfg.seed, cfg.verify["random_points"],
            cfg.probe["radius"], cfg.dimension,
        )
    payload = []
    csv_rows = []
    for row in rows:
        expr = cfg.targets[row["target"] - 1]
        entry = {**row, "expression": expr}
        if sample is not None:
            phi = seq.at(row["best_index"])
            target = targets[row["target"] - 1]
            entry["random_point_error"] = float(
                np.max(
                    np.abs(
                        x.eval_grid(phi.transform(sample))
                        - target.eval_grid(sample)
                    )
                )
            )
        payload.append(entry)
        csv_rows.append([row["target"], expr, row["best_index"], row["value"]])
    write_csv(
        out_dir / "orbit.csv",
        ["target", "expression", "best_index", "min_error"],
        csv_rows,
    )
    return {"orbit": payload}, 0


_MODE_IMPL = {
    "diagnose-inner": _mode_diagnose,
    "good-inner": _mode_good_inner,
    "construct-universal": _mode_construct,
    "verify-orbit": _mode_verify,
}


# ---------------------------------------------------------------------------
# entry point

def run_cli(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="innerorbit",
        description="Inner-function diagnostics and universal-orbit construction "
        "on the polydisk.",
    )
    parser.add_argument("--config", required=True, help="path to the INI config")
    parser.add_argument("--mode", choices=_MODES, help="override the config mode")
    parser.add_argument("--out", help="output directory (default: config's)")
    parser.add_argument("--seed", type=int, help="override the config seed")
    parser.add_argument("--quiet", action="store_true", help="suppress stderr chat")
    parser.add_argument(
        "--timings", action="store_true",
        help="include wall-clock timings in the report (breaks byte determinism)",
    )
    args = parser.parse_args(argv)

    try:
        cfg = load_config(Path(args.config), args.mode, args.seed)
    except InnerOrbitError as exc:
        error_doc = {"error": {"type": type(exc).__name__, "message": str(exc)}}
        print(render_document(error_doc), file=sys.stdout)
        return 1

    out_dir = Path(args.out) if args.out else Path(args.config).resolve().parent
    tables_dir = out_dir / cfg.output["tables"]
    tables_dir.mkdir(parents=True, exist_ok=True)

    started = time.perf_counter()
    try:
        results, code = _MODE_IMPL[cfg.mode](cfg, tables_dir)
    except InnerOrbitError as exc:
        results = {
            "failure": {"error": type(exc).__name__, "message": str(exc)}
        }
        code = 2
    elapsed = time.perf_counter() - started

    report = Report(
        mode=cfg.mode,
        config=cfg.canonical_dict(),
        results=results,
        library={"name": "innerorbit", "version": __version__},
        timings={"total_seconds": elapsed},
    )

    report_path = out_dir / cfg.output["report"]
    report_path.parent.mkdir(parents=True, exist_ok=True)
    report_path.write_text(report.render(args.timings), encoding="utf-8")
    if not args.quiet:
        print(f"wrote {report_path}", file=sys.stderr)
    return code


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
