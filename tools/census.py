#!/usr/bin/env python3
"""Capability census: what the engine fits across seeded generated configs.

    python3 tools/census.py [SEEDS]

Runs seeds 0 to SEEDS - 1 (default 400) in-process, one construction each,
drawn by ``draw`` below, and prints per (n, target count):

- the outcome tally: fitted runs, and failures by error class;
- the stage, error class and message head of each failure, by seed;
- the largest ``roundtrip_error`` per decade of stage index, over every
  completed stage, fitted run or not.

Run from anywhere; the program is imported from this checkout. Nothing is
written to disk.
"""

from __future__ import annotations

import cmath
import math
import random
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from innerorbit import (  # noqa: E402
    BlaschkeFactor,
    CompactProbe,
    Constant,
    Coordinate,
    EngineConfig,
    GeneratedSequence,
    MobiusFactor,
    Power,
    Product,
    run_universality,
)

K_MAX = 10**15
#: characters of a failure message that the census prints
HEAD = 72


def _target(rng: random.Random, n: int):
    """One of five kinds, uniformly: a constant of modulus 0.1-0.8 and phase
    within +-3 rad; z, z^2 or z^3, on one coordinate or, for half of the
    n = 2 draws, on z1 * z2; one Blaschke factor with |a| <= 0.7 and a
    random theta, on a random coordinate."""
    kind = rng.randrange(5)
    if kind == 0:
        return Constant(cmath.rect(rng.uniform(0.1, 0.8), rng.uniform(-3.0, 3.0)), n)
    if kind == 4:
        a = cmath.rect(rng.uniform(0.0, 0.7), rng.uniform(-math.pi, math.pi))
        factor = MobiusFactor(a, rng.uniform(-math.pi, math.pi))
        return BlaschkeFactor(factor, rng.randint(1, n), n)
    if n == 2 and rng.random() < 0.5:
        base = Product((Coordinate(1, 2), Coordinate(2, 2)))
    else:
        base = Coordinate(rng.randint(1, n), n)
    return base if kind == 1 else Power(base, kind)


def draw(seed: int) -> EngineConfig:
    """n = 1 for even seeds and n = 2 for odd ones; two targets with
    probability 0.6, else three; lambda = 1, angle schedule 0, the identity
    or (n = 2, half the seeds) the swap; rate 0.5-1, probe radius 0.2-0.45
    at the default points per dimension; ``K_MAX`` and the other engine
    defaults."""
    rng = random.Random(seed)
    n = 1 + seed % 2
    count = 2 if rng.random() < 0.6 else 3
    targets = tuple(_target(rng, n) for _ in range(count))
    perm = (1, 0) if n == 2 and rng.random() < 0.5 else tuple(range(n))
    sequence = GeneratedSequence((1.0 + 0j,) * n, rng.uniform(0.5, 1.0),
                                 ((0.0,) * n,), (perm,))
    probe = CompactProbe.create(rng.uniform(0.2, 0.45), n)
    return EngineConfig(sequence=sequence, targets=targets, probe=probe, k_max=K_MAX)


def run_census(seeds) -> list:
    """Per seed: {seed, group (n, target count), indices, roundtrips (index,
    roundtrip_error) per completed stage, failure (None when fitted)}."""
    rows = []
    for seed in seeds:
        config = draw(seed)
        run = run_universality(config)
        rows.append({
            "seed": seed,
            "group": (config.sequence.dimension, len(config.targets)),
            "indices": run.recorded_indices(),
            "roundtrips": [(s.chosen_index, s.roundtrip_error) for s in run.stages],
            "failure": run.failure,
        })
    return rows


def tally(rows) -> dict:
    """(n, target count) -> Counter of outcomes: "fitted" or an error class."""
    counts: dict = {}
    for row in rows:
        failure = row["failure"]
        counts.setdefault(row["group"], Counter())[
            failure["error"] if failure else "fitted"] += 1
    return counts


def report(rows) -> str:
    counts = tally(rows)
    names = ["fitted"] + sorted({o for c in counts.values() for o in c} - {"fitted"})
    lines = ["| configs | " + " | ".join(f"`{o}`" if o != "fitted" else o
                                        for o in names) + " |",
             "|---" * (len(names) + 1) + "|"]
    for (n, count), c in sorted(counts.items()):
        cells = " | ".join(str(c[o]) for o in names)
        lines.append(f"| n = {n}, {count} targets ({sum(c.values())}) | {cells} |")
    for group in sorted(counts):
        members = [r for r in rows if r["group"] == group]
        lines += ["", f"n = {group[0]}, {group[1]} targets: failures"]
        for r in members:
            if r["failure"] is not None:
                f = r["failure"]
                lines.append(f"  seed {r['seed']}, stage {f['stage']}: {f['error']}: "
                             f"{f['message'][:HEAD]}")
        worst: dict = {}
        for r in members:
            for k, err in r["roundtrips"]:
                decade = len(str(k)) - 1
                worst[decade] = max(worst.get(decade, 0.0), err)
        lines.append(f"n = {group[0]}, {group[1]} targets: largest roundtrip_error "
                     "per decade of stage index")
        for decade, err in sorted(worst.items()):
            lines.append(f"  1e{decade}-1e{decade + 1}: {err:.1e}")
    return "\n".join(lines)


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) > 1 or (args and not args[0].isdigit()):
        print(__doc__, file=sys.stderr)
        return 2
    print(report(run_census(range(int(args[0]) if args else 400))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
