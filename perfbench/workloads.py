"""Seeded inputs, operations and output checks for the benchmark workloads.

The program receives nothing but the INI configs written here. Per seed only
the constant target (modulus 0.45-0.55, phase within 0.05 rad of 0) and the
sequence rate (0.9-1.0) vary; the direction lambda stays 1 and the angle
schedule stays 0, because a random direction or a nonzero angle schedule
pushes the second stage index past k_max = 1e9. The diagnose workload also
draws Blaschke zeros inside radius 0.8, which keeps every zero well off the
torus shells the quadrature samples (radii 0.9 and up).
"""

from __future__ import annotations

import cmath
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("construct-lowdim", "construct-highdim", "orbit-sweep", "diagnose")

#: sweep bound of each verify-orbit run in one orbit-sweep op
SWEEP_K = 250

#: quadrature / angle resolution per dimension for the diagnose runs
GOOD_INNER_POINTS = {1: 4096, 2: 512}
DIAGNOSE_ANGLES = {1: 4096, 2: 256}
RADII = (0.9, 0.99, 0.999)

#: largest modulus of a seeded Blaschke zero
ZERO_RADIUS = 0.8

#: tolerances of the output checks
REPRODUCE_TOL = 1e-12
JENSEN_TOL = 1e-9


class CheckFailed(Exception):
    """An output of the program is wrong."""


def real_literal(x: float) -> str:
    return f"{float(x):.17g}"


def complex_literal(z: complex) -> str:
    z = complex(z)
    return f"{z.real:.17g}{z.imag:+.17g}i"


@dataclass(frozen=True)
class Inputs:
    """Everything a seed decides."""

    seed: int
    constant: complex
    rate: float
    zeros_n1: tuple  # per target: zeros of one-variable Blaschke products
    zeros_n2: tuple  # per target: (zero, coordinate) pairs

    @classmethod
    def from_seed(cls, seed: int) -> "Inputs":
        rng = random.Random(seed)
        modulus = rng.uniform(0.45, 0.55)
        phase = rng.uniform(-0.05, 0.05)
        rate = rng.uniform(0.9, 1.0)

        def zero():
            r = ZERO_RADIUS * math.sqrt(rng.uniform(0.01, 1.0))
            return cmath.rect(r, rng.uniform(-math.pi, math.pi))

        zeros_n1 = tuple(tuple(zero() for _ in range(count)) for count in (3, 5))
        zeros_n2 = tuple(
            tuple((zero(), 1 + (i % 2)) for i in range(count)) for count in (2, 4)
        )
        return cls(seed, cmath.rect(modulus, phase), rate, zeros_n1, zeros_n2)


# ---------------------------------------------------------------------------
# configs

def _sequence_section(dimension: int, rate: float, swap: bool) -> str:
    perm = "2,1" if swap else ",".join(str(i) for i in range(1, dimension + 1))
    return (
        "[sequence]\nkind = generated\n"
        f"lambda = {','.join(['1+0i'] * dimension)}\n"
        f"rate = {real_literal(rate)}\n"
        f"theta = {','.join(['0.0'] * dimension)}\n"
        f"perm = {perm}\n\n"
    )


def _targets_section(targets) -> str:
    lines = [f"f{i} = {t}" for i, t in enumerate(targets, start=1)]
    return "[targets]\n" + "\n".join(lines) + "\n\n"


def _head(mode: str, dimension: int, seed: int) -> str:
    return f"[run]\nmode = {mode}\ndimension = {dimension}\nseed = {seed}\n\n"


def construct_config(inputs: Inputs, dimension: int, targets, radius: float,
                     points_per_dim=None, k_max: int = 10**9,
                     swap: bool = False) -> str:
    probe = f"[probe]\nradius = {real_literal(radius)}\n"
    if points_per_dim is not None:
        probe += f"points_per_dim = {points_per_dim}\n"
    return (
        _head("construct-universal", dimension, inputs.seed)
        + _sequence_section(dimension, inputs.rate, swap)
        + _targets_section(targets)
        + probe + "\n"
        + f"[engine]\nk_max = {k_max}\n"
    )


def verify_config(construct_text: str, x_expression: str, indices: str) -> str:
    """verify-orbit config on the sequence, targets and probe of a
    construct-universal config; ``indices`` is the [verify] line that
    picks the orbit indices (``k = N`` or ``indices = ...``)."""
    body = construct_text.replace("mode = construct-universal",
                                  "mode = verify-orbit")
    return body + f"\n[verify]\nx = {x_expression}\n{indices}\n"


def _blaschke_n1(zeros) -> str:
    return " * ".join(f"blaschke({complex_literal(a)}, 0)[1]" for a in zeros)


def _blaschke_n2(pairs) -> str:
    return " * ".join(f"blaschke({complex_literal(a)}, 0)[{c}]" for a, c in pairs)


def diagnostics_config(mode: str, inputs: Inputs, dimension: int, targets) -> str:
    radii = ",".join(real_literal(r) for r in RADII)
    if mode == "good-inner":
        tail = (f"[good_inner]\nradii = {radii}\n"
                f"quad_points = {GOOD_INNER_POINTS[dimension]}\n")
    else:
        tail = (f"[diagnostics]\nradii = {radii}\n"
                f"angles_per_dim = {DIAGNOSE_ANGLES[dimension]}\n")
    return _head(mode, dimension, inputs.seed) + _targets_section(targets) + tail


def n1_two(inputs: Inputs) -> str:
    """Shaped like configs/universal_n1.ini: 129 probe points."""
    return construct_config(inputs, 1, [f"const {complex_literal(inputs.constant)}",
                                        "z[1]"], 0.3, 64)


def n2_swap(inputs: Inputs) -> str:
    """Shaped like configs/universal_n2_swap.ini: 2 401 probe points."""
    return construct_config(inputs, 2, [f"const {complex_literal(inputs.constant)}",
                                        "z[1] * z[2]"], 0.25, 24, swap=True)


def n1_three(inputs: Inputs) -> str:
    """Three targets; the engine fits two of them at the seed commit."""
    return construct_config(inputs, 1, [f"const {complex_literal(inputs.constant)}",
                                        "z[1]", "z[1]^2"], 0.3, 64, k_max=10**15)


def n3_two(inputs: Inputs) -> str:
    """n = 3 with the default 12 angles per ring: 15 625 probe points."""
    return construct_config(inputs, 3, [f"const {complex_literal(inputs.constant)}",
                                        "z[1] * z[2] * z[3]"], 0.25)


# ---------------------------------------------------------------------------
# running the program

@dataclass(frozen=True)
class Run:
    """One in-process invocation of the command-line entry point."""

    label: str
    config: Path
    out: Path

    @property
    def report(self) -> Path:
        return self.out / "report.json"

    def argv(self):
        return ["--config", str(self.config), "--out", str(self.out), "--quiet"]


def make_run(root: Path, label: str, text: str) -> Run:
    config = root / f"{label}.ini"
    config.write_text(text, encoding="utf-8")
    return Run(label, config, root / label)


def run_once(cli, run: Run) -> tuple:
    """(exit code, parsed report) of one run; exit codes other than 0
    (success) and 2 (engine failure with a partial report) mean the
    program rejected its own input."""
    code = cli.run_cli(run.argv())
    if code not in (0, 2):
        raise CheckFailed(f"{run.label}: exit code {code}")
    return code, json.loads(run.report.read_text(encoding="utf-8"))


@dataclass(frozen=True)
class Prepared:
    """A workload ready to run: the runs of one op, the name of its
    throughput, and the check of the first op's reports, which returns the
    work one op does in the unit of that throughput."""

    runs: list
    throughput: str
    check: object  # callable(cli, runs, reports) -> work per op


def _construct_product(cli, root: Path, label: str, text: str) -> str:
    code, report = run_once(cli, make_run(root, label, text))
    x = report["results"].get("x_expression")
    if code != 0 or not x:
        raise CheckFailed(f"set-up construction {label} did not fit its targets")
    return x


def prepare(name: str, inputs: Inputs, root: Path, cli) -> Prepared:
    """Write the configs of ``name`` under ``root`` and run its set-up
    constructions."""
    root.mkdir(parents=True, exist_ok=True)
    if name == "construct-lowdim":
        texts = {"n1_two": n1_two(inputs), "n2_swap": n2_swap(inputs),
                 "n1_three": n1_three(inputs)}
    elif name == "construct-highdim":
        texts = {"n3_two": n3_two(inputs)}
    else:
        setup = root / "setup"
        setup.mkdir(exist_ok=True)
        products = {1: _construct_product(cli, setup, "n1_two", n1_two(inputs)),
                    2: _construct_product(cli, setup, "n2_swap", n2_swap(inputs))}
        if name == "orbit-sweep":
            texts = {
                "sweep_n1": verify_config(n1_two(inputs), products[1], f"k = {SWEEP_K}"),
                "sweep_n2": verify_config(n2_swap(inputs), products[2], f"k = {SWEEP_K}"),
            }
        elif name == "diagnose":
            sets = {
                1: [products[1]] + [_blaschke_n1(z) for z in inputs.zeros_n1],
                2: [products[2]] + [_blaschke_n2(z) for z in inputs.zeros_n2],
            }
            texts = {
                f"{mode.split('-')[0]}_n{n}": diagnostics_config(mode, inputs, n, sets[n])
                for n in (1, 2) for mode in ("good-inner", "diagnose-inner")
            }
        else:
            raise ValueError(f"unknown workload {name!r}")
    runs = [make_run(root, label, text) for label, text in texts.items()]
    if name.startswith("construct-"):
        return Prepared(runs, "targets_fitted_per_s", _check_construct(root))
    if name == "orbit-sweep":
        return Prepared(runs, "orbit_indices_per_s", _check_sweep)
    return Prepared(runs, "torus_points_per_s", _check_diagnose(inputs))


# ---------------------------------------------------------------------------
# output checks, run outside the timed ops on the reports of the first op

def _check_construct(root: Path):
    def check(cli, runs, reports) -> float:
        """Re-run verify-orbit on each fitted product at its recorded
        indices, which must reproduce the verification table (the README's
        contract); returns the targets fitted per op."""
        fitted = 0
        for run, report in zip(runs, reports):
            results = report["results"]
            rows = results.get("verification") or []
            fitted += sum(1 for r in rows if r["value"] <= r["bound"])
            if not results.get("x_expression") or not rows:
                continue
            indices = ",".join(str(k) for k in results["recorded_indices"])
            text = verify_config(run.config.read_text(encoding="utf-8"),
                                 results["x_expression"], f"indices = {indices}")
            (root / "check").mkdir(exist_ok=True)
            code, again = run_once(cli, make_run(root / "check", run.label, text))
            orbit = {r["target"]: r for r in again["results"]["orbit"]}
            for row in rows:
                got = orbit[row["target"]]
                if (got["best_index"] != row["best_index"]
                        or abs(got["value"] - row["value"]) > REPRODUCE_TOL):
                    raise CheckFailed(
                        f"{run.label}: verify-orbit gives {got} for target "
                        f"{row['target']}, the report says {row}")
        return float(fitted)
    return check


def _check_sweep(cli, runs, reports) -> float:
    """The best value of each sweep must be reproduced by evaluating the
    product directly at its best index; returns orbit indices per op."""
    import numpy as np

    indices = 0
    for run, report in zip(runs, reports):
        cfg = cli.load_config(run.config)
        seq = cli.build_sequence(cfg)
        targets = cli.build_targets(cfg)
        grid = cli.build_probe(cfg).grid()
        x = cli.parse_function_dsl(cfg.verify["x"], cfg.dimension)
        for row in report["results"]["orbit"]:
            target = targets[row["target"] - 1]
            image = seq.at(row["best_index"]).transform(grid)
            direct = float(np.max(np.abs(x.eval_grid(image) - target.eval_grid(grid))))
            if abs(direct - row["value"]) > REPRODUCE_TOL:
                raise CheckFailed(
                    f"{run.label}: direct evaluation at k={row['best_index']} "
                    f"gives {direct!r}, the sweep reported {row['value']!r}")
        indices += cfg.verify["k"]
    return float(indices)


def _check_diagnose(inputs: Inputs):
    def check(cli, runs, reports) -> float:
        """Torus means of the seeded Blaschke targets must match Jensen's
        formula; returns the torus points evaluated per op."""
        from innerorbit.inner_tools import jensen_oracle

        zero_sets = {1: [list(z) for z in inputs.zeros_n1],
                     2: [[a for a, _ in pairs] for pairs in inputs.zeros_n2]}
        points = 0
        for run, report in zip(runs, reports):
            dimension = report["config"]["run"]["dimension"]
            if report["mode"] == "good-inner":
                q = report["config"]["good_inner"]["quad_points"]
                rows = report["results"]["good_inner"]
                # target 1 is the constructed product; the rest are seeded
                for row, zeros in zip(rows[1:], zero_sets[dimension]):
                    modulus = math.prod(abs(a) for a in zeros)
                    for r, value in zip(row["radii"], row["values"]):
                        expected = jensen_oracle(zeros, modulus, r)
                        if abs(value - expected) > JENSEN_TOL:
                            raise CheckFailed(
                                f"{run.label}: torus mean {value!r} at r={r} "
                                f"for target {row['target']}, Jensen gives "
                                f"{expected!r}")
            else:
                q = report["config"]["diagnostics"]["angles_per_dim"]
                rows = report["results"]["radial"]
            points += len(rows) * len(rows[0]["radii"]) * q**dimension
        return float(points)
    return check
