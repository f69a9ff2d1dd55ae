"""The case-record comparison of ``scripts/case_bytes.py``."""

import ctypes
import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "case_bytes.py"


@pytest.fixture(scope="module")
def case_bytes():
    spec = importlib.util.spec_from_file_location("case_bytes", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_json_fields_fold_list_indices(case_bytes):
    before = json.dumps({"ok": True, "t": [[1.0, 2.0], [3.0, 4.0]], "r": {"a": 1e-16}})
    after = json.dumps({"ok": True, "t": [[1.0, 2.5], [3.0, 3.0]], "r": {"a": 3e-16}})
    got = case_bytes.field_changes(before, after)
    assert got == ({"t[][]": pytest.approx(1.0), "r.a": pytest.approx(2e-16)}, [], [])


def test_csv_columns(case_bytes):
    got = case_bytes.field_changes("k,error\n16,0.5\n32,0.25\n", "k,error\n16,0.5\n32,0.125\n")
    assert got == ({"error": 0.125}, [], [])


@pytest.mark.parametrize(
    "before,after",
    [
        ('{"ok": true}', '{"ok": false}'),  # a non-numeric leaf
        ("error: one\n", "error: two\n"),  # plain text
        ('{"label": "1"}', '{"label": "2"}'),  # a string that reads as a number
        ('{"a": 1.0, "b": 2.0}', '{"b": 2.0, "a": 1.0}'),  # the same leaves in another order
    ],
)
def test_other_changes_are_text(case_bytes, before, after):
    assert case_bytes.field_changes(before, after) is None


@pytest.mark.parametrize(
    "before,after,want",
    [
        ('{"a": 1.0}', '{"b": 1.0}', ({}, ["a"], ["b"])),  # a renamed field
        ('{"a": [1.0]}', '{"a": [1.0, 2.0]}', ({}, [], ["a[]"])),  # a changed shape
        ("k,error\n16,0.5\n", "k,error\n16,0.25\n32,0.125\n", ({"error": 0.25}, [], ["error", "k"])),  # a row more
    ],
)
def test_fields_only_one_report_has_are_listed(case_bytes, before, after, want):
    assert case_bytes.field_changes(before, after) == want


def test_an_added_field_leaves_the_shared_moves_visible(case_bytes):
    before = json.dumps({"ok": True, "l_basis": [[1.0, 0.0]], "r": 1e-16})
    after = json.dumps({"ok": True, "l_basis": [[1.0, 1e-15]], "r": 1e-16, "certificate": {"residual": 1e-17}})
    got = case_bytes.field_changes(before, after)
    assert got == ({"l_basis[][]": 1e-15}, [], ["certificate.residual"])


def test_diff_reports_each_moved_case(case_bytes, capsys):
    a = {"x": [0, '{"v": 1.0}', ""], "y": [0, "k,error\n1,2\n", ""], "z": [2, "", "error: a\n"]}
    b = {"x": [0, '{"v": 1.5}', ""], "y": [0, "k,error\n1,2\n", ""], "z": [1, "", "error: b\n"]}
    a["w"], b["w"] = [0, '{"ok": true, "r": 1.0}', ""], [0, '{"ok": false, "r": 1.0}', ""]
    a["u"], b["u"] = [0, '{"r": 1.0, "s": 2.0}', ""], [0, '{"r": 1.5, "t": 2.0}', ""]
    assert case_bytes.diff(a, b) == 1
    out = capsys.readouterr().out
    assert "x\n  stdout v: 5.000e-01\n" in out
    assert "u\n  stdout removed: s\n  stdout added: t\n  stdout r: 5.000e-01\n" in out
    assert "z\n  exit: 2 -> 1\n  stderr: text changed" in out
    assert "w\n  stdout: text changed" in out
    # the last line counts the verdicts that moved: z's exit code and w's boolean, not x's number
    assert "\ny\n" not in out and out.endswith("4 of 5 cases differ\n2 of them changed an exit code or a JSON boolean\n")
    assert case_bytes.diff(a, a) == 0


def test_records_are_made_at_one_blas_thread(case_bytes):
    get = case_bytes._openblas("scipy_openblas_get_num_threads64_", ctypes.c_int)
    if get is None:
        pytest.skip("numpy bundles no OpenBLAS here: the thread count is the host's")
    before = get()
    with case_bytes._blas_threads(case_bytes.BLAS_THREADS):
        assert get() == case_bytes.BLAS_THREADS == 1
    assert get() == before
    assert case_bytes.environment()["blas_threads"] == 1
