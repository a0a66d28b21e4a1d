"""tools/report_diff.py on small output trees."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "report_diff.py"
spec = importlib.util.spec_from_file_location("report_diff", TOOL)
report_diff = importlib.util.module_from_spec(spec)
spec.loader.exec_module(report_diff)

REPORT = {
    "mode": "construct-universal",
    "results": {
        "stages": [{"chosen_index": 1976, "fidelity": 0.25,
                    "factor_expression": "blaschke(0.5+0.25i, 3)[1]"}],
        "failure": None,
    },
}
CSV = "stage,index,fidelity\n1,1976,0.25\n"


def _tree(root: Path, report: dict, csv: str) -> Path:
    (root / "run" / "tables").mkdir(parents=True)
    (root / "run" / "report.json").write_text(json.dumps(report, indent=2))
    (root / "run" / "tables" / "stages.csv").write_text(csv)
    (root / "other.json").write_text("{}")
    return root


def _changed(**stage) -> dict:
    report = json.loads(json.dumps(REPORT))
    report["results"]["stages"][0].update(stage)
    return report


def _diff(tmp_path, capsys, report, csv=CSV):
    parent = _tree(tmp_path / "a", REPORT, CSV)
    change = _tree(tmp_path / "b", report, csv)
    code = report_diff.main([str(parent), str(change)])
    return code, capsys.readouterr().out


def test_identical_trees(tmp_path, capsys):
    code, out = _diff(tmp_path, capsys, REPORT)
    assert code == 0
    assert "3 of 3 files byte-identical" in out


def test_float_changes_are_measured_not_failed(tmp_path, capsys):
    report = _changed(fidelity=0.25 + 2**-54,
                      factor_expression="blaschke(0.5+0.25000000000000006i, 3)[1]")
    code, out = _diff(tmp_path, capsys, report, CSV.replace("0.25", "0.24"))
    assert code == 0
    assert "1 of 3 files byte-identical" in out
    rows = {line.split()[0]: line.split()[1:] for line in out.splitlines()}
    assert rows["report.json:results.stages[].fidelity"] == [
        "1", "1", "5.55e-17", "2.22e-16"]
    assert rows["report.json:results.stages[].factor_expression"][:2] == ["2", "1"]
    assert rows["stages.csv:fidelity"] == ["1", "1", "1.00e-02", "4.00e-02"]


@pytest.mark.parametrize("stage,where", [
    ({"chosen_index": 1977}, "results.stages[0].chosen_index"),
    ({"factor_expression": "blaschke(0.5+0.25i, 3)[2]"},
     "results.stages[0].factor_expression"),
    ({"failure": "x"}, "results.stages[0] keys"),
])
def test_non_float_changes_fail_with_their_path(tmp_path, capsys, stage, where):
    code, out = _diff(tmp_path, capsys, _changed(**stage))
    assert code == 1
    assert f"NON-FLOAT run/report.json {where}" in out
