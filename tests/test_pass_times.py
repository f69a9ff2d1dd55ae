"""The verdict of ``scripts/pass_times.py`` on paired rounds of run medians."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "pass_times.py"


@pytest.fixture(scope="module")
def pass_times():
    spec = importlib.util.spec_from_file_location("pass_times", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


PARENT = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.02, 0.98]


@pytest.mark.parametrize(
    "change,want",
    [
        ([v - 0.1 for v in PARENT], "faster"),  # wins every round, by more than the spread
        ([v + 0.1 for v in PARENT], "slower"),
        ([v - 0.1 for v in PARENT[:9]] + [2.0], "faster"),  # nine of ten rounds suffice
        ([v - 0.1 for v in PARENT[:8]] + [2.0, 2.0], "unresolved"),  # eight do not
        ([v - 0.005 for v in PARENT], "unresolved"),  # every round, but within the parent's spread
        (list(PARENT), "unresolved"),  # ties count for neither side
    ],
)
def test_verdict(pass_times, change, want):
    assert pass_times.RUNS == len(PARENT)
    assert pass_times.verdict(PARENT, change) == want
