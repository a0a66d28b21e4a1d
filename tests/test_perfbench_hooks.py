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
    # s_per_index still divides by the indices swept, and every alpha still
    # comes from the sequence's at()
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
    assert op["automorphisms.sequence_at"]["calls"] == 20
