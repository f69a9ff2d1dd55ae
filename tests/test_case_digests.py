"""The command line's report bytes, pinned per benchmark case.

``tests/data/case_digests.json`` holds, per case of ``scripts/case_bytes.py``,
the exit code, the SHA-256 of stdout and stderr and the JSON booleans of
stdout, with the numpy and BLAS build it was recorded on.  A change that
moves a report by one ulp fails here; an accepted report change rewrites the
file with ``scripts/case_bytes.py --digests tests/data/case_digests.json``.
Exit codes and booleans are compared on any build; the hashes only on the
recorded one, since another BLAS kernel may round differently.
"""

import json
from pathlib import Path

import pytest

from oracles import load_case_bytes

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = ROOT / "tests" / "data" / "case_digests.json"


def test_reports_match_the_recorded_digests():
    case_bytes = load_case_bytes()
    want = json.loads(DIGESTS.read_text())
    got = case_bytes.digests(case_bytes.run_cases())
    assert sorted(got["cases"]) == sorted(want["cases"])
    moved_exit = {c: (w[0], got["cases"][c][0]) for c, w in want["cases"].items() if got["cases"][c][0] != w[0]}
    assert not moved_exit, f"exit codes moved (recorded, now): {moved_exit}"
    moved_bool = [c for c, w in want["cases"].items() if got["cases"][c][3] != w[3]]
    assert not moved_bool, f"JSON booleans moved in: {moved_bool}"
    if got["environment"] != want["environment"]:
        pytest.skip(
            f"report bytes not compared: digests recorded on {want['environment']}, "
            f"this run is on {got['environment']} (exit codes and booleans match)"
        )
    moved = sorted(c for c, w in want["cases"].items() if got["cases"][c][1:3] != w[1:3])
    assert not moved, f"{len(moved)} of {len(want['cases'])} cases changed their output bytes: {moved}"
