"""The command line's report bytes, pinned per benchmark case, and the
package functions that the cases reach.

``tests/data/case_digests.json`` holds, per case of ``scripts/case_bytes.py``,
the exit code, the SHA-256 of stdout and stderr and the JSON booleans of
stdout, with the numpy and BLAS build it was recorded on.  A change that
moves a report by one ulp fails here; an accepted report change rewrites the
file with ``scripts/case_bytes.py --digests tests/data/case_digests.json``.
Exit codes and booleans are compared on any build; the hashes only on the
recorded one, since another BLAS kernel may round differently.

The cases run once, under the audit of ``scripts/public_surface.py``, which
also records the package functions they (and ``symspaces models``) enter:
every export whose reason there is ``cli`` must be one of them.
"""

import json
from pathlib import Path

import pytest

from oracles import load_case_bytes, load_script

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = ROOT / "tests" / "data" / "case_digests.json"


@pytest.fixture(scope="module")
def audited_cases():
    """``(case_bytes module, records of every case, package functions entered)``."""
    case_bytes = load_case_bytes()
    records, entered = load_script("public_surface").run_audited(case_bytes)
    return case_bytes, records, entered


def test_reports_match_the_recorded_digests(audited_cases):
    case_bytes, records, _ = audited_cases
    want = json.loads(DIGESTS.read_text())
    got = case_bytes.digests(records)
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


def test_every_cli_export_is_entered_by_a_case(audited_cases):
    _, _, entered = audited_cases
    surface = load_script("public_surface")
    unreached = surface.unreached_cli_exports(surface.functions(), entered)
    assert not unreached, f"exports with the reason cli that no case entered: {unreached}"
