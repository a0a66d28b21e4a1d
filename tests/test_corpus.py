"""tools/corpus.py runs the fixed corpus of report comparisons."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "corpus.py"
spec = importlib.util.spec_from_file_location("corpus", TOOL)
corpus = importlib.util.module_from_spec(spec)
spec.loader.exec_module(corpus)


def test_corpus_exit_codes(tmp_path, capsys):
    # the n1_three and n2_schur shapes fit one or two of their targets and
    # exit 2; a change that fits them moves this tally on purpose
    assert corpus.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == (
        "423 runs: 373 exit 0, 50 exit 2"
    )
    assert (tmp_path / "n1_sparse_s9_verify" / "report.json").is_file()
    assert (tmp_path / "configs" / "universal_n1_verify" / "report.json").is_file()
    assert (tmp_path / "n3_two_s39" / "report.json").is_file()
    assert (tmp_path / "diagnose_n2_s4" / "tables" / "radial_modulus.csv").is_file()
    assert (tmp_path / "sweep_n2_s4" / "report.json").is_file()
    assert (tmp_path / "sweep2000_n2_permcycle_s4" / "report.json").is_file()
    report = (tmp_path / "n3_two_s0_random" / "report.json").read_text(encoding="utf-8")
    assert report.count('"random_point_error"') == 2
