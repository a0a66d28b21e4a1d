"""tools/census.py tallies what the engine fits across seeded configs."""

import importlib.util
from collections import Counter
from pathlib import Path

from innerorbit import engine
from innerorbit.errors import InterferenceBudgetExceeded

TOOL = Path(__file__).resolve().parents[1] / "tools" / "census.py"
spec = importlib.util.spec_from_file_location("census", TOOL)
census = importlib.util.module_from_spec(spec)
spec.loader.exec_module(census)


def test_census_tally_of_the_first_hundred_seeds(monkeypatch):
    # a change that fits more runs, or fails them for another reason, moves
    # this tally on purpose
    raised = []
    build_factor = engine.build_factor

    def recorded(*args):
        try:
            return build_factor(*args)
        except InterferenceBudgetExceeded as exc:
            raised.append(str(exc))
            raise

    monkeypatch.setattr(engine, "build_factor", recorded)
    rows = census.run_census(range(100))
    assert census.tally(rows) == {
        (1, 2): Counter(fitted=25, InterferenceBudgetExceeded=1, PrecisionExhausted=4),
        (1, 3): Counter(InterferenceBudgetExceeded=1, PrecisionExhausted=15,
                        SequenceExhausted=4),
        (2, 2): Counter(fitted=35, PrecisionExhausted=4),
        (2, 3): Counter(PrecisionExhausted=10, SequenceExhausted=1),
    }
    # each InterferenceBudgetExceeded is a factor that failed build_factor's
    # checks after its re-search
    for row in rows:
        failure = row["failure"]
        if failure and failure["error"] == "InterferenceBudgetExceeded":
            assert failure["message"] in raised
            assert len(row["indices"]) == failure["stage"] - 1
    report = census.report(rows)
    assert report.splitlines()[2] == "| n = 1, 2 targets (30) | 25 | 1 | 4 | 0 |"
