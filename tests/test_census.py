"""tools/census.py tallies what the engine fits across seeded configs."""

import importlib.util
from collections import Counter
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "census.py"
spec = importlib.util.spec_from_file_location("census", TOOL)
census = importlib.util.module_from_spec(spec)
spec.loader.exec_module(census)


def test_census_tally_of_the_first_hundred_seeds():
    # a change that fits more runs, or fails them for another reason, moves
    # this tally on purpose
    rows = census.run_census(range(100))
    assert census.tally(rows) == {
        (1, 2): Counter(fitted=17, InterferenceBudgetExceeded=11, PrecisionExhausted=2),
        (1, 3): Counter(InterferenceBudgetExceeded=12, PrecisionExhausted=5,
                        SequenceExhausted=3),
        (2, 2): Counter(fitted=23, InterferenceBudgetExceeded=10, PrecisionExhausted=6),
        (2, 3): Counter(InterferenceBudgetExceeded=7, PrecisionExhausted=4),
    }
    # no stage here fails the retroactive check after its re-search: each
    # InterferenceBudgetExceeded is a stage that failed before its search
    for row in rows:
        failure = row["failure"]
        if failure and failure["error"] == "InterferenceBudgetExceeded":
            assert "tends to |A(gamma) - 1|" in failure["message"]
            assert len(row["indices"]) == failure["stage"] - 1
    report = census.report(rows)
    assert report.splitlines()[2] == "| n = 1, 2 targets (30) | 17 | 11 | 2 | 0 |"
