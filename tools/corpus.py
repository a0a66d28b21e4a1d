#!/usr/bin/env python3
"""Run the fixed corpus of innerorbit runs that report comparisons use.

    python3 tools/corpus.py OUT_DIR

Run from anywhere; the program and the benchmark's config generators are
imported from this checkout. The corpus is 423 runs:

- the three ``configs/*.ini``, under ``OUT_DIR/configs/<name>/``;
- the benchmark shapes ``n1_two``, ``n2_swap``, ``n1_three`` and
  ``n3_two`` of ``perfbench/workloads.py`` for seeds 0-39, under
  ``OUT_DIR/<shape>_s<seed>/``;
- for seeds 0-9, five shapes derived from those configs' text: three with
  non-constant schedules (``n1_cycle``, ``n2_permcycle``, ``n1_sparse``
  below), so that report comparisons exercise subsequence membership, and
  ``n1_schur`` and ``n2_schur``, whose first target is not a constant, so
  that they exercise the Schur projector, at n = 2 per coordinate;
- a ``verify-orbit`` at the recorded indices of each construction that
  exits 0, under ``OUT_DIR/<label>_verify/``, and for seed 0 of
  ``n1_two``, ``n2_swap`` and ``n3_two`` one more that also reports
  ``random_point_error`` at 64 seeded random points, under
  ``OUT_DIR/<label>_random/``;
- for seeds 0-4, the runs of one ``diagnose`` and one ``orbit-sweep``
  benchmark op on the products of that seed's ``n1_two`` and ``n2_swap``:
  ``good-inner`` and ``diagnose-inner`` at n = 1 and n = 2, and the
  ``verify-orbit`` sweeps to k = 250, under ``OUT_DIR/<run>_s<seed>/``;
- for seeds 0-4, ``verify-orbit`` sweeps to k = 2 000 on the products of
  ``n1_two``, ``n2_swap`` and ``n2_permcycle``, under
  ``OUT_DIR/sweep2000_<shape>_s<seed>/``. They pass the first target's
  best index (k = 733-1 015), after which its sup rises again, so the
  pruned sweep evaluates far more of their indices on the whole grid than
  of the sweeps to 250, which it all but skips.

Each generated config is written next to its output directory. Prints the
number of runs per exit code. Compare the trees of two checkouts with
``tools/report_diff.py``.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

from innerorbit import cli  # noqa: E402
import workloads as wl  # noqa: E402


def _replaced(text: str, old: str, new: str) -> str:
    assert old in text, f"{old!r} not in the generated config"
    return text.replace(old, new)


def n1_cycle(inputs: wl.Inputs) -> str:
    """``n1_two`` with the angle cycle 0, 0, 2: members are two of every
    three indices."""
    return _replaced(wl.n1_two(inputs), "theta = 0.0\n", "theta = 0.0|0.0|2.0\n")


def n2_permcycle(inputs: wl.Inputs) -> str:
    """``n2_swap`` with the permutation cycle swap, identity, swap."""
    return _replaced(wl.n2_swap(inputs), "perm = 2,1\n", "perm = 2,1|1,2|2,1\n")


def n1_sparse(inputs: wl.Inputs) -> str:
    """``n1_two`` with a period-1 000 angle cycle: 40 zeros, then 960 angles
    +-(0.3 + (i mod 30) * 0.19) of alternating sign, none in the zeros'
    cell, so members come 40 to a period."""
    angles = ["0.0"] * 40 + [f"{(-1) ** i * (0.3 + (i % 30) * 0.19):.2f}"
                             for i in range(960)]
    cycle = "|".join(angles)
    return _replaced(wl.n1_two(inputs), "theta = 0.0\n", f"theta = {cycle}\n")


def n1_schur(inputs: wl.Inputs) -> str:
    """``n1_two`` with a Blaschke factor on its constant target, so that the
    target is not inner and its Schur parameters are not those of a
    constant."""
    return _replaced(wl.n1_two(inputs), "f1 = const ",
                     "f1 = blaschke(0.2+0i, 0)[1] * const ")


def n2_schur(inputs: wl.Inputs) -> str:
    """``n2_swap`` with a Blaschke factor on z_2 and z_1 on its constant
    target, so that the engine splits the target per coordinate and
    Schur-projects its z_1 part, c z_1."""
    return _replaced(wl.n2_swap(inputs), "f1 = const ",
                     "f1 = blaschke(0.2+0i, 0)[2] * z[1] * const ")


SHAPES = (wl.n1_two, wl.n2_swap, wl.n1_three, wl.n3_two)
SEEDS = range(40)
#: the derived shapes, and their seeds
CYCLE_SHAPES = (n1_cycle, n2_permcycle, n1_sparse, n1_schur, n2_schur)
CYCLE_SEEDS = range(10)
#: seeds whose products also run the diagnose and orbit-sweep modes
MODE_SEEDS = range(5)
#: the shapes whose products those seeds also sweep to LONG_SWEEP_K
LONG_SWEEP_SHAPES = (wl.n1_two, wl.n2_swap, n2_permcycle)
LONG_SWEEP_K = 2_000
#: the constructions, one per dimension, whose recorded indices are also
#: verified at RANDOM_POINTS seeded random points
RANDOM_POINT_RUNS = ("n1_two_s0", "n2_swap_s0", "n3_two_s0")
RANDOM_POINTS = 64


def _run(config: Path, out: Path) -> int:
    return cli.run_cli(["--config", str(config), "--out", str(out), "--quiet"])


def _verify(out_root: Path, label: str, text: str, out: Path, tally: Counter):
    """verify-orbit at the recorded indices of the construction in ``out``,
    when it fitted every target, and for RANDOM_POINT_RUNS once more with
    RANDOM_POINTS random points."""
    results = json.loads((out / "report.json").read_text(encoding="utf-8"))["results"]
    if not results.get("x_expression"):
        return
    indices = "indices = " + ",".join(str(k) for k in results["recorded_indices"])
    lines = {f"{label}_verify": indices}
    if label in RANDOM_POINT_RUNS:
        lines[f"{label}_random"] = f"{indices}\nrandom_points = {RANDOM_POINTS}"
    for name, verify in lines.items():
        run = wl.make_run(out_root, name,
                          wl.verify_config(text, results["x_expression"], verify))
        tally[_run(run.config, run.out)] += 1


def _product(out_root: Path, shape, seed: int) -> str:
    """The product the corpus built for ``shape`` and ``seed``."""
    report = out_root / f"{shape.__name__}_s{seed}" / "report.json"
    return json.loads(report.read_text(encoding="utf-8"))["results"]["x_expression"]


def _mode_runs(out_root: Path, seed: int) -> dict:
    """Label -> config text of the runs of one ``diagnose`` and one
    ``orbit-sweep`` op, on the products the corpus built for ``seed``, and
    of the sweeps to LONG_SWEEP_K."""
    inputs = wl.Inputs.from_seed(seed)
    shapes = {1: wl.n1_two, 2: wl.n2_swap}
    products = {n: _product(out_root, shape, seed) for n, shape in shapes.items()}
    targets = {1: [products[1]] + [wl._blaschke_n1(z) for z in inputs.zeros_n1],
               2: [products[2]] + [wl._blaschke_n2(z) for z in inputs.zeros_n2]}
    texts = {}
    for n, shape in shapes.items():
        for mode in ("good-inner", "diagnose-inner"):
            texts[f"{mode.split('-')[0]}_n{n}_s{seed}"] = wl.diagnostics_config(
                mode, inputs, n, targets[n])
        texts[f"sweep_n{n}_s{seed}"] = wl.verify_config(
            shape(inputs), products[n], f"k = {wl.SWEEP_K}")
    for shape in LONG_SWEEP_SHAPES:
        texts[f"sweep2000_{shape.__name__}_s{seed}"] = wl.verify_config(
            shape(inputs), _product(out_root, shape, seed), f"k = {LONG_SWEEP_K}")
    return texts


def run_corpus(out_root: Path) -> Counter:
    """Run the corpus under ``out_root``; the number of runs per exit code."""
    out_root.mkdir(parents=True, exist_ok=True)
    tally: Counter = Counter()
    for config in sorted((ROOT / "configs").glob("*.ini")):
        out = out_root / "configs" / config.stem
        code = _run(config, out)
        tally[code] += 1
        text = config.read_text(encoding="utf-8")
        if code == 0 and "mode = construct-universal" in text:
            _verify(out_root / "configs", config.stem, text, out, tally)
    runs = [(shape, seed) for shape in SHAPES for seed in SEEDS]
    runs += [(shape, seed) for shape in CYCLE_SHAPES for seed in CYCLE_SEEDS]
    for shape, seed in runs:
        label = f"{shape.__name__}_s{seed}"
        text = shape(wl.Inputs.from_seed(seed))
        run = wl.make_run(out_root, label, text)
        code = _run(run.config, run.out)
        tally[code] += 1
        if code == 0:
            _verify(out_root, label, text, run.out, tally)
    for seed in MODE_SEEDS:
        for label, text in _mode_runs(out_root, seed).items():
            run = wl.make_run(out_root, label, text)
            tally[_run(run.config, run.out)] += 1
    return tally


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    tally = run_corpus(Path(args[0]))
    codes = ", ".join(f"{n} exit {code}" for code, n in sorted(tally.items()))
    print(f"{sum(tally.values())} runs: {codes}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
