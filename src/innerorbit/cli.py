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
import ctypes
import functools
import io
import json
import math
import sys
import time
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path

import numpy as np

from . import __version__
from .automorphisms import (
    ExplicitSequence,
    GeneratedSequence,
    check_direction,
    check_rate,
)
from .dsl import (
    format_complex,
    format_real,
    parse_autospec,
    parse_complex,
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
    #: the parsed ``targets``; a run parses each target once, while loading
    functions: tuple = field(default=(), repr=False, compare=False)

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


def _finite(x):
    """``x`` once it is finite: a NaN or an infinity has no JSON form in
    the report."""
    if not cmath.isfinite(x):
        raise ValueError(f"must be finite, got {x!r}")
    return x


def _real(text: str) -> float:
    return _finite(float(text))


def _mode(text: str) -> str:
    if text not in _MODES:
        raise ValueError(f"must be one of {', '.join(_MODES)}, got {text!r}")
    return text


def _positive(text: str) -> int:
    n = int(text)
    if n < 1:
        raise ValueError(f"must be positive, got {n}")
    return n


def _cycle(item, n: int, check=lambda vec: None):
    """Parser of a `|`-separated cycle of comma lists of ``n`` entries,
    each entry canonicalized by ``item`` and each list passed to ``check``;
    kept as canonical text."""
    def parse(text: str) -> str:
        vecs = []
        for vec in text.split("|"):
            entries = vec.split(",")
            if len(entries) != n:
                raise ValueError(f"needs {n} entries per list, got {vec!r}")
            vecs.append([item(x) for x in entries])
            check(vecs[-1])
        return "|".join(",".join(vec) for vec in vecs)
    return parse


def _permutation(n: int):
    def check(vec):
        if sorted(map(int, vec)) != list(range(1, n + 1)):
            raise ValueError(f"{','.join(vec)!r} is not a permutation of 1..{n}")
    return check


def _direction(n: int):
    def parse(text: str) -> list:
        values = [_finite(parse_complex(x)) for x in text.split(",")]
        if len(values) != n:
            raise ValueError(f"needs {n} values, got {len(values)}")
        check_direction(values)
        return values
    return parse


def _autos(dimension: int):
    def parse(text: str) -> list:
        specs = [s.strip() for s in text.split("|")]
        for spec in specs:
            try:
                parse_autospec(spec, dimension)
            except InnerOrbitError as exc:
                raise ValueError(f"entry {spec!r}: {exc}") from exc
        return specs
    return parse


# (parser, formatter) of each value type
_REAL = (_real, format_real)
_REALS = (lambda t: [_real(x) for x in t.split(",")],
          lambda v: ",".join(map(format_real, v)))
_INT = (int, str)
_INTS = (lambda t: [int(x) for x in t.split(",")] if t else [],
         lambda v: ",".join(map(str, v)))
_TEXT = (str, str)


def _engine_row(default) -> tuple:
    parse, fmt = _REAL if isinstance(default, float) else _INT
    return parse, fmt, fmt(default)


#: [run] keys; the other sections' defaults may depend on its dimension
_RUN = {
    "mode": (_mode, str, None),
    "dimension": (_positive, str, "1"),
    "seed": (*_INT, "0"),
}


def _schema(dimension: int) -> dict:
    """Section -> key -> (parser, formatter, default), keys in report order.

    A default is text, so it goes through the parser a user's value goes
    through; None marks a required key. [sequence] has one such table per
    kind, and [targets] (free-form keys) has none.
    """
    kind = (*_TEXT, "generated")
    return {
        "sequence": {
            "generated": {
                "kind": kind,
                "lambda": (_direction(dimension),
                           lambda v: ",".join(map(format_complex, v)), None),
                "rate": (lambda t: check_rate(_real(t)), format_real, "1.0"),
                "theta": (_cycle(lambda x: format_real(_real(x)), dimension), str,
                          ",".join(["0.0"] * dimension)),
                "perm": (_cycle(lambda x: str(int(x)), dimension,
                                _permutation(dimension)), str,
                         ",".join(map(str, range(1, dimension + 1)))),
            },
            "explicit": {"kind": kind, "autos": (_autos(dimension), " | ".join, None)},
        },
        "probe": {
            "radius": (*_REAL, "0.3"),
            "points_per_dim": (*_INT, str(default_points_per_dim(dimension))),
        },
        "engine": {f.name: _engine_row(f.default) for f in _ENGINE_FIELDS},
        "diagnostics": {
            "radii": (*_REALS, "0.9,0.99,0.999"),
            "angles_per_dim": (*_INT, "256"),
        },
        "good_inner": {
            "radii": (*_REALS, "0.9,0.99,0.999"),
            "quad_points": (*_INT, "512"),
            "clamp": (*_REAL, "40.0"),
            "tolerance": (*_REAL, "0.02"),
        },
        "verify": {
            "x": (*_TEXT, ""),
            "k": (*_INT, "0"),
            "random_points": (*_INT, "0"),
            "indices": (*_INTS, ""),
        },
        "output": {
            "report": (*_TEXT, "report.json"),
            "tables": (*_TEXT, "tables"),
        },
    }


def _read(cp, section: str, table: dict, owner: str = "") -> dict:
    """The values of ``section`` parsed by ``table``; ``owner`` names what
    accepts the keys in the unknown-key error (default: the section)."""
    given = cp[section] if cp.has_section(section) else {}
    inherited = set(cp.defaults())
    for key in given:
        if key not in table and key not in inherited:
            raise ConfigError(
                f"unknown key {key!r} in [{section}]; {owner or f'[{section}]'} "
                "accepts " + ", ".join(table)
            )
    values = {}
    for key, (parse, _, default) in table.items():
        text = given.get(key, default)
        if text is None:
            raise ConfigError(f"[{section}] {key} is required")
        try:
            values[key] = parse(text.strip())
        except (ValueError, InnerOrbitError) as exc:
            raise ConfigError(f"[{section}] {key} {exc}") from exc
    return values


def load_config(path: Path, mode_override=None, seed_override=None) -> RunConfig:
    if not path.exists():
        raise ConfigError("ConfigNotFound")
    cp = configparser.ConfigParser(interpolation=None)
    try:
        cp.read(path, encoding="utf-8")
    except configparser.Error as exc:
        raise ConfigError(f"unparseable config: {exc}") from exc
    overrides = {"mode": mode_override, "seed": seed_override}
    cp.read_dict({"run": {k: str(v) for k, v in overrides.items() if v is not None}})
    run = _read(cp, "run", _RUN)
    schema = _schema(run["dimension"])
    known = ("run", "targets", *schema)
    for section in cp.sections():
        if section not in known:
            raise ConfigError(f"unknown section [{section}]; the sections are "
                              + ", ".join(f"[{s}]" for s in known))

    sequence: dict = {}
    if cp.has_section("sequence"):
        kinds = schema["sequence"]
        kind = cp.get("sequence", "kind", fallback="generated").strip()
        if kind not in kinds:
            raise ConfigError(f"unknown sequence kind {kind!r}; [sequence] kind "
                              "is " + " or ".join(kinds))
        sequence = _read(cp, "sequence", kinds[kind], f"[sequence] kind = {kind}")

    functions: list = []
    if cp.has_section("targets"):
        keys = sorted(cp.options("targets"),
                      key=lambda k: (len(k), k))
        for key in keys:
            text = cp.get("targets", key).strip()
            # true only for a key written under [targets], not for one
            # that [DEFAULT] lends every section
            if not cp.remove_option("targets", key):
                continue
            try:
                functions.append(parse_function_dsl(text, run["dimension"]))
            except InnerOrbitError as exc:
                raise ConfigError(f"target {key!r}: {exc}") from exc

    cfg = RunConfig(
        **run,
        sequence=sequence,
        targets=tuple(map(serialize_function, functions)),
        functions=tuple(functions),
        **{s: _read(cp, s, table) for s, table in schema.items() if s != "sequence"},
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
    schema = {"run": _RUN, **_schema(cfg.dimension)}
    lines = []
    for section, values in cfg.canonical_dict().items():
        if not values:  # no [sequence] or no [targets]
            continue
        if section == "targets":
            body = [f"f{i} = {expr}" for i, expr in enumerate(values, start=1)]
        else:
            table = schema[section]
            if section == "sequence":
                table = table[values["kind"]]
            body = [f"{key} = {table[key][1](v)}" for key, v in values.items()]
        lines += [f"[{section}]", *body, ""]
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# builders

def build_sequence(cfg: RunConfig):
    spec = cfg.sequence
    if spec["kind"] == "generated":
        theta_cycle = [vec.split(",") for vec in spec["theta"].split("|")]
        perm_cycle = [[int(x) - 1 for x in vec.split(",")]
                      for vec in spec["perm"].split("|")]
        return GeneratedSequence(spec["lambda"], spec["rate"], theta_cycle, perm_cycle)
    return ExplicitSequence([parse_autospec(t, cfg.dimension) for t in spec["autos"]])


def build_targets(cfg: RunConfig):
    return cfg.functions


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

#: glibc ``mallopt`` parameters (malloc.h)
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3


@functools.cache
def _keep_freed_memory() -> None:
    """Have glibc keep freed array memory in the process heap.

    By default glibc maps each large block afresh and unmaps it on free, or
    trims the freed heap top, so the next numpy temporary faults its pages
    in again (about 3 us per 4 KiB). Here blocks up to 32 MiB, twice the
    largest temporary (an ``inner_tools._CHUNK``-point complex shell block,
    16 MiB), come from the heap, and the heap top is trimmed only past
    64 MiB free: twice that, the ratio of glibc's own dynamic rule. Where
    libc has no ``mallopt`` or refuses a value, nothing changes; no result
    depends on it.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    if mallopt(_M_MMAP_THRESHOLD, 32 << 20):
        mallopt(_M_TRIM_THRESHOLD, 64 << 20)


def run_cli(argv=None) -> int:
    _keep_freed_memory()
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
