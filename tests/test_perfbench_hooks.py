"""The benchmark's span tracer (perfbench/spans.py) patches library names
from outside; this fails as soon as one of them is deleted or renamed, or
stops being called where the tracer expects it."""

import importlib.util
from pathlib import Path

from innerorbit import automorphisms, cli, engine, holo

from test_cli import N1_CONFIG

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_records_and_uninstalls(tmp_path):
    spans = _load_spans()
    patched = ((engine, "choose_stage_index"), (engine, "stage_condition_values"),
               (cli, "verify_orbit"), (cli, "run_universality"),
               (automorphisms.PolydiskAutomorphism, "transform"),
               (holo.Product, "_eval"))
    originals = [getattr(owner, attr) for owner, attr in patched]
    tracer = spans.Tracer(cli, engine, automorphisms, holo)
    tracer.install()
    try:
        cfg = tmp_path / "n1.ini"
        cfg.write_text(N1_CONFIG, encoding="utf-8")
        tracer.begin_op(0)
        code = cli.run_cli(["--config", str(cfg), "--out", str(tmp_path), "--quiet"])
        tracer.end_op()
    finally:
        tracer.uninstall()
    assert code == 0
    assert [getattr(owner, attr) for owner, attr in patched] == originals
    calls = {name: agg["calls"] for name, agg in tracer.per_op()[0].items()}
    for name in ("engine.run", "engine.index_search", "engine.admissibility_probe",
                 "engine.build_factor", "automorphisms.select_subsequence",
                 "inner_tools.generating_element", "geometry.probe_sup",
                 "automorphisms.sequence_at", "automorphisms.transform",
                 "holo.eval", "dsl.parse", "cli.load_config", "cli.render"):
        assert calls.get(name, 0) > 0, name
    assert calls["engine.stages_completed"] == 2


def test_tracer_counts_every_index_of_a_batched_sweep(tmp_path):
    # the sweep evaluates its indices in batches; the benchmark's
    # s_per_index still divides by the indices swept, and the alphas come
    # from the sequence's batch() as arrays, so its at() is never called
    spans = _load_spans()
    tracer = spans.Tracer(cli, engine, automorphisms, holo)
    text = N1_CONFIG.replace("construct-universal", "verify-orbit")
    cfg = tmp_path / "sweep.ini"
    cfg.write_text(text + "\n[verify]\nx = z[1] * const 0.5+0i\nk = 20\n",
                   encoding="utf-8")
    tracer.install()
    try:
        tracer.begin_op(0)
        code = cli.run_cli(["--config", str(cfg), "--out", str(tmp_path), "--quiet"])
        tracer.end_op()
    finally:
        tracer.uninstall()
    assert code == 0
    op = tracer.per_op()[0]
    assert op["engine.verify_orbit"]["calls"] == 1
    assert op["engine.verify_orbit"]["amount"] == 20
    assert op["automorphisms.sequence_at"]["calls"] == 0


def _blaschke_leaves(node):
    if isinstance(node, holo.BlaschkeFactor):
        return 1
    if isinstance(node, holo.Product):
        return sum(_blaschke_leaves(c) for c in node.children)
    if isinstance(node, holo.Power):
        return _blaschke_leaves(node.child)
    if isinstance(node, holo.Composed):
        return _blaschke_leaves(node.outer)
    return 0


def test_tracer_counts_stacked_products_like_single_leaves(tmp_path):
    # a product evaluates a run of same-coordinate leaves in one stacked
    # call, without the leaves' own _eval; the tracer's counts and spans
    # must not depend on that
    spans = _load_spans()
    original = holo.Product.__dict__["_eval"]
    tracer = spans.Tracer(cli, engine, automorphisms, holo)
    outermost = []  # (points, Blaschke leaves) per outermost evaluation
    depth = [0]
    recorded = []
    tracer.install()
    for cls in (holo.Constant, holo.Coordinate, holo.BlaschkeFactor,
                holo.Product, holo.Power, holo.Composed):
        traced = cls.__dict__["_eval"]

        def record(node, pts, traced=traced):
            if depth[0] == 0:
                outermost.append((pts.shape[0], _blaschke_leaves(node)))
            depth[0] += 1
            try:
                return traced(node, pts)
            finally:
                depth[0] -= 1

        cls._eval = record
        recorded.append((cls, traced))
    try:
        cfg = tmp_path / "n1.ini"
        cfg.write_text(N1_CONFIG, encoding="utf-8")
        tracer.begin_op(0)
        code = cli.run_cli(["--config", str(cfg), "--out", str(tmp_path), "--quiet"])
        tracer.end_op()
    finally:
        for cls, traced in recorded:
            cls._eval = traced
        tracer.uninstall()
    assert code == 0
    assert holo.Product.__dict__["_eval"] is original
    # the engine's stage approximants hold runs of 16 leaves
    assert max(leaves for _, leaves in outermost) >= 16
    op = tracer.per_op()[0]
    assert op["holo.factor_evals"]["calls"] == sum(p * n for p, n in outermost)
    assert op["holo.eval"]["calls"] == len(outermost)
    by_id = {s.sid: s for s in tracer.spans}
    for s in tracer.spans:
        if s.name != "holo.eval":
            continue
        parent = s.parent
        while parent is not None:
            assert by_id[parent].name != "holo.eval"
            parent = by_id[parent].parent
