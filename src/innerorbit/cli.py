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
import inspect
import io
import json
import math
import sys
import time
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
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
from .holo import HoloFunction
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
    #: the parsed ``[verify] x``, None when it is empty
    verify_x: HoloFunction | None = field(default=None, repr=False, compare=False)

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


def _finite(x):
    """``x`` once it is finite: a NaN or an infinity has no JSON form in
    the report."""
    if not cmath.isfinite(x):
        raise ValueError(f"must be finite, got {x!r}")
    return x


def _real(text: str) -> float:
    return _finite(float(text))


def _reals(text: str) -> list:
    return [_real(x) for x in text.split(",")]


def _ints(text: str) -> list:
    return [int(x) for x in text.split(",")] if text else []


def _binary64_int(text: str) -> int:
    """An integer within binary64 range: the stage-index search takes the
    logarithm of ``k_max + 1.0``, which overflows past it."""
    n = int(text)
    if not abs(n) <= sys.float_info.max:
        raise ValueError("must lie within binary64 range, at most "
                         f"{format_real(sys.float_info.max)} in magnitude")
    return n


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


def _ini_text(value) -> str:
    """The INI text of a parsed value, which its key's parser reads back:
    a list is comma-separated, or `|`-separated when it holds ``auto{...}``
    literals."""
    if isinstance(value, (list, tuple)):
        sep = " | " if value and isinstance(value[0], str) else ","
        return sep.join(map(_ini_text, value))
    if isinstance(value, float):
        return format_real(value)
    if isinstance(value, complex):
        return format_complex(value)
    return str(value)


def _typed(default) -> tuple:
    """The schema row of a key parsed with the type of its library default."""
    return {float: _real, int: _binary64_int, tuple: _reals}[type(default)], default


@functools.cache
def _keyword_defaults(fn) -> dict:
    """The schema rows of the parameters of ``fn`` that have a default
    (cached: reading a signature costs more than the rest of a schema)."""
    return {name: _typed(p.default)
            for name, p in inspect.signature(fn).parameters.items()
            if p.default is not p.empty}


#: [run] keys; the other sections' defaults may depend on its dimension
_RUN = {
    "mode": (_mode, None),
    "dimension": (_positive, 1),
    "seed": (int, 0),
}


def _schema(dimension: int) -> dict:
    """Section -> key -> (parser, default), keys in report order.

    A default is a parsed value; its INI text goes through the parser a
    user's value goes through. None marks a required key. [sequence] has
    one such table per kind, and [targets] (free-form keys) has none.
    """
    kind = (str, "generated")
    return {
        "sequence": {
            "generated": {
                "kind": kind,
                "lambda": (_direction(dimension), None),
                "rate": (lambda t: check_rate(_real(t)), 1.0),
                "theta": (_cycle(lambda x: format_real(_real(x)), dimension),
                          [0.0] * dimension),
                "perm": (_cycle(lambda x: str(int(x)), dimension,
                                _permutation(dimension)),
                         list(range(1, dimension + 1))),
            },
            "explicit": {"kind": kind, "autos": (_autos(dimension), None)},
        },
        "probe": {
            "radius": (_real, 0.3),
            "points_per_dim": (int, default_points_per_dim(dimension)),
        },
        # the EngineConfig fields with a default, in field order
        "engine": {f.name: _typed(f.default) for f in fields(EngineConfig)
                   if f.default is not MISSING},
        "diagnostics": _keyword_defaults(radial_modulus_report),
        "good_inner": _keyword_defaults(good_inner_trend),
        "verify": {
            "x": (str, ""),
            "k": (int, 0),
            "random_points": (int, 0),
            "indices": (_ints, []),
        },
        "output": {
            "report": (str, "report.json"),
            "tables": (str, "tables"),
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
    for key, (parse, default) in table.items():
        text = given.get(key)
        if text is None:
            if default is None:
                raise ConfigError(f"[{section}] {key} is required")
            text = _ini_text(default)
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

    sections = {s: _read(cp, s, table)
                for s, table in schema.items() if s != "sequence"}
    x = sections["verify"]["x"]
    try:
        verify_x = parse_function_dsl(x, run["dimension"]) if x else None
    except InnerOrbitError as exc:
        raise ConfigError(f"[verify] x {exc}") from exc

    cfg = RunConfig(
        **run,
        sequence=sequence,
        targets=tuple(map(serialize_function, functions)),
        functions=tuple(functions),
        verify_x=verify_x,
        **sections,
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
    lines = []
    for section, values in cfg.canonical_dict().items():
        if not values:  # no [sequence] or no [targets]
            continue
        if section == "targets":
            values = {f"f{i}": expr for i, expr in enumerate(values, start=1)}
        body = [f"{key} = {_ini_text(v)}" for key, v in values.items()]
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
# modes: each returns its results, its CSV tables (file name -> (header,
# rows)) and its exit code; a table's rows are read off the results' rows

#: the CSV columns that are not fields of the report rows, each read off a row
_COMPUTED = {
    "condition_a_max": lambda row: max(row["condition_a"], default=0.0),
    "retro_max": lambda row: max(row["retro_interference"], default=0.0),
    "min_error": lambda row: row["value"],
}


def _table(rows, *columns) -> tuple:
    """The CSV table of the report rows ``rows``: a column is a field of
    the rows or a _COMPUTED one."""
    return columns, [[_COMPUTED[c](row) if c in _COMPUTED else row[c]
                      for c in columns] for row in rows]


def _radius_table(rows, *columns) -> tuple:
    """The CSV table of diagnostic report rows, a row per target and
    radius: the target and its expression, then the per-radius (list)
    fields of its report row in order, which the later ``columns`` name."""
    return columns, [
        [row["target"], row["expression"], *cells] for row in rows
        for cells in zip(*(v for v in row.values() if isinstance(v, list)))]


def _fields(record) -> dict:
    """The fields of a report dataclass other than nested records, tuples
    as lists."""
    return {f.name: list(v) if isinstance(v, tuple) else v for f in fields(record)
            if not is_dataclass(v := getattr(record, f.name))}


def _target_rows(cfg: RunConfig, report) -> list:
    """Per target: its number, its expression and the fields of its
    ``report``."""
    pairs = zip(cfg.targets, build_targets(cfg))
    return [{"target": i, "expression": expr, **_fields(report(f))}
            for i, (expr, f) in enumerate(pairs, start=1)]


def _mode_diagnose(cfg: RunConfig):
    rows = _target_rows(cfg, lambda f: radial_modulus_report(f, **cfg.diagnostics))
    table = _radius_table(rows, "target", "expression", "radius", "deviation")
    return {"radial": rows}, {"radial_modulus.csv": table}, 0


def _mode_good_inner(cfg: RunConfig):
    rows = _target_rows(cfg, lambda g: good_inner_trend(g, **cfg.good_inner))
    table = _radius_table(rows, "target", "expression", "radius", "log_mean",
                          "clamp_count")
    return {"good_inner": rows}, {"good_inner.csv": table}, 0


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


def _mode_construct(cfg: RunConfig):
    run = run_universality(EngineConfig(
        sequence=build_sequence(cfg), targets=build_targets(cfg),
        probe=build_probe(cfg), **cfg.engine))
    stages = [{**_fields(s), "factor_expression": serialize_function(s.factor.product)}
              for s in run.stages]
    verification = [{**row, "expression": cfg.targets[row["target"] - 1]}
                    for row in run.verification]
    results = {
        "selection": _selection_payload(run.selection),
        "stages": stages,
        "x_expression": (
            serialize_function(run.product) if run.product is not None else None
        ),
        "recorded_indices": list(run.recorded_indices()),
        "verification": verification,
        "failure": run.failure,
    }
    tables = {
        "stages.csv": _table(
            stages, "stage", "chosen_index", "corrector_index", "fidelity",
            "projection_error", "condition_b", "condition_a_max", "retro_max",
            "roundtrip_error"),
        "verification.csv": _table(
            verification, "target", "expression", "best_index", "value", "bound"),
    }
    return results, tables, (0 if run.failure is None else 2)


def _sample_points(seed: int, count: int, radius: float, dimension: int):
    """Seeded interior sample within the probe radius; the seed affects
    verification sampling only, never any construction."""
    rng = np.random.default_rng(seed)
    r = radius * np.sqrt(rng.uniform(0.0, 1.0, size=(count, dimension)))
    ang = rng.uniform(-math.pi, math.pi, size=(count, dimension))
    return r * np.exp(1j * ang)


def _mode_verify(cfg: RunConfig):
    seq = build_sequence(cfg)
    targets = build_targets(cfg)
    probe = build_probe(cfg)
    x = cfg.verify_x
    indices = cfg.verify["indices"] or None
    rows = [{**row, "expression": cfg.targets[row["target"] - 1]}
            for row in verify_orbit(x, seq, targets, probe, cfg.verify["k"], indices)]
    if cfg.verify["random_points"] > 0:
        sample = _sample_points(
            cfg.seed, cfg.verify["random_points"],
            cfg.probe["radius"], cfg.dimension,
        )
        for row in rows:
            image = seq.at(row["best_index"]).transform(sample)
            target = targets[row["target"] - 1]
            row["random_point_error"] = float(
                np.max(np.abs(x.eval_grid(image) - target.eval_grid(sample)))
            )
    table = _table(rows, "target", "expression", "best_index", "min_error")
    return {"orbit": rows}, {"orbit.csv": table}, 0


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
        results, tables, code = _MODE_IMPL[cfg.mode](cfg)
    except InnerOrbitError as exc:
        results = {
            "failure": {"error": type(exc).__name__, "message": str(exc)}
        }
        tables, code = {}, 2
    for name, (header, rows) in tables.items():
        write_csv(tables_dir / name, header, rows)
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
