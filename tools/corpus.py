#!/usr/bin/env python3
"""Run the fixed corpus of innerorbit runs that report comparisons use.

    python3 tools/corpus.py OUT_DIR

Run from anywhere; the program and the benchmark's config generators are
imported from this checkout. The corpus is 315 runs:

- the three ``configs/*.ini``, under ``OUT_DIR/configs/<name>/``;
- the benchmark shapes ``n1_two``, ``n2_swap``, ``n1_three`` and
  ``n3_two`` of ``perfbench/workloads.py`` for seeds 0-39, under
  ``OUT_DIR/<shape>_s<seed>/``;
- a ``verify-orbit`` at the recorded indices of each construction that
  exits 0, under ``OUT_DIR/<label>_verify/``;
- for seeds 0-4, the runs of one ``diagnose`` and one ``orbit-sweep``
  benchmark op on the products of that seed's ``n1_two`` and ``n2_swap``:
  ``good-inner`` and ``diagnose-inner`` at n = 1 and n = 2, and the
  ``verify-orbit`` sweeps to k = 250, under ``OUT_DIR/<run>_s<seed>/``.

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

SHAPES = (wl.n1_two, wl.n2_swap, wl.n1_three, wl.n3_two)
SEEDS = range(40)
#: seeds whose products also run the diagnose and orbit-sweep modes
MODE_SEEDS = range(5)


def _run(config: Path, out: Path) -> int:
    return cli.run_cli(["--config", str(config), "--out", str(out), "--quiet"])


def _verify(out_root: Path, label: str, text: str, out: Path, tally: Counter):
    """verify-orbit at the recorded indices of the construction in ``out``,
    when it fitted every target."""
    results = json.loads((out / "report.json").read_text(encoding="utf-8"))["results"]
    if not results.get("x_expression"):
        return
    indices = ",".join(str(k) for k in results["recorded_indices"])
    run = wl.make_run(out_root, f"{label}_verify",
                      wl.verify_config(text, results["x_expression"],
                                       f"indices = {indices}"))
    tally[_run(run.config, run.out)] += 1


def _mode_runs(out_root: Path, seed: int) -> dict:
    """Label -> config text of the runs of one ``diagnose`` and one
    ``orbit-sweep`` op, on the products the corpus built for ``seed``."""
    inputs = wl.Inputs.from_seed(seed)
    shapes = {1: wl.n1_two, 2: wl.n2_swap}
    products = {
        n: json.loads((out_root / f"{shape.__name__}_s{seed}" / "report.json")
                      .read_text(encoding="utf-8"))["results"]["x_expression"]
        for n, shape in shapes.items()
    }
    targets = {1: [products[1]] + [wl._blaschke_n1(z) for z in inputs.zeros_n1],
               2: [products[2]] + [wl._blaschke_n2(z) for z in inputs.zeros_n2]}
    texts = {}
    for n, shape in shapes.items():
        for mode in ("good-inner", "diagnose-inner"):
            texts[f"{mode.split('-')[0]}_n{n}_s{seed}"] = wl.diagnostics_config(
                mode, inputs, n, targets[n])
        texts[f"sweep_n{n}_s{seed}"] = wl.verify_config(
            shape(inputs), products[n], f"k = {wl.SWEEP_K}")
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
    for shape in SHAPES:
        for seed in SEEDS:
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
