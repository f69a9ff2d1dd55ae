"""One tolerance per run.

``--tol-abs``/``--tol-rel`` build the run's :class:`Tolerance`.  The pair
carries it, and so do its algebra, its triple system and every algebra or
triple system built from them, so each verdict of a run reads it.  Two
verdict sites are allowed another tolerance: the ``theta^2 = +-I`` check of
:class:`SigmaRule`, a fixed ``DEFAULT_TOL``, and the nullspace cut of the
algebraic candidate's finite-difference Jacobian, which takes the run's
tolerance raised to ``JACOBIAN_ABS_FLOOR``/``JACOBIAN_REL_FLOOR``.  No
tolerance, however tight or loose, ends a command line run with a traceback.
"""

import contextlib
import io
import json
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import benchmark_cases

from symspaces import cli
from symspaces.catalog import parse_model
from symspaces.lts import (
    LieTripleSystem,
    LinearSubspace,
    SymmetricLieAlgebra,
    VerificationError,
    algebra_from_json,
    direct_sum_lts,
    quotient_lts,
    standard_embedding,
)
from symspaces.numkernel import DEFAULT_TOL, Tolerance, _kernel_rows
from symspaces.subspace import JACOBIAN_ABS_FLOOR, JACOBIAN_REL_FLOOR

RUN = Tolerance(3e-10, 3e-9)
RUN_FLAGS = ["--tol-abs", repr(RUN.abs_eps), "--tol-rel", repr(RUN.rel_eps)]
# the verdict sites that read another tolerance, by their first frame outside numkernel
ALLOWED = {
    "symspaces.sympair.SigmaRule.__post_init__": DEFAULT_TOL,
    "symspaces.subspace.ReflectionSubspace.candidate_subspace": Tolerance(
        max(RUN.abs_eps, JACOBIAN_ABS_FLOOR), max(RUN.rel_eps, JACOBIAN_REL_FLOOR)
    ),
}


def run_cli(argv) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def verdict_site() -> str:
    # the first package frame of the verdicts caller chain that is outside numkernel
    frame = sys._getframe(2)
    while frame is not None:
        name = frame.f_globals.get("__name__", "")
        if name.startswith("symspaces.") and name != "symspaces.numkernel":
            return f"{name}.{frame.f_code.co_qualname}"
        frame = frame.f_back
    return "outside the package"


def test_every_benchmark_case_decides_at_the_run_tolerance(monkeypatch):
    original = Tolerance.verdicts
    calls = []

    def spy(self, residuals, scales):
        calls.append((verdict_site(), self))
        return original(self, residuals, scales)

    monkeypatch.setattr(Tolerance, "verdicts", spy)
    cases = benchmark_cases()
    for argv in cases:
        run_cli(argv + RUN_FLAGS)
    assert len(cases) == 88
    stray = sorted({site for site, tol in calls if tol != RUN and ALLOWED.get(site) != tol})
    assert not stray, stray
    # the allowlist names sites that still decide at their own tolerance
    assert {site for site, tol in calls if tol != RUN} == set(ALLOWED)


# ---------------------------------------------------------------------------
# objects carry the tolerance they were built with


def leaky_so3(leak: float) -> tuple:
    """The so(3) eigensplit (1 plus, 2 minus), with [f0, f1] = f2 + leak f0:
    the triple bracket [[f1, f2], f1] leaves g_minus by ``leak`` at scale 1."""
    t = np.zeros((3, 3, 3))
    for i, j, coeffs in ((0, 1, [leak, 0.0, 1.0]), (0, 2, [0.0, -1.0, 0.0]), (1, 2, [1.0, 0.0, 0.0])):
        t[i, j], t[j, i] = coeffs, -np.asarray(coeffs)
    return t, np.diag([1.0, -1.0, -1.0])


def test_the_leaving_triple_bracket_reads_the_algebra_tolerance():
    # 1e-8 is above the default bound at unit scale (1.1e-9) and below that of Tolerance(1e-6, 1e-6)
    tensor, theta = leaky_so3(1e-8)
    with pytest.raises(VerificationError, match="leaves the \\(-1\\)-eigenspace"):
        SymmetricLieAlgebra.from_eigensplit(tensor, theta, tol=DEFAULT_TOL).minus_lts
    loose = Tolerance(1e-6, 1e-6)
    m = SymmetricLieAlgebra.from_eigensplit(tensor, theta, tol=loose).minus_lts
    assert m.dim == 2 and m.tol == loose


def test_the_pair_tolerance_reaches_every_built_system():
    model = parse_model("product(sphere(2),sphere(2))", RUN)
    g = model.pair.algebra()
    m = g.minus_lts
    left = model.subspace_by_name("left_factor").seed
    quot, proj = quotient_lts(m, left)
    assert g.tol == m.tol == quot.tol == proj.source.tol == RUN
    assert standard_embedding(m, left).tol == RUN
    assert direct_sum_lts(m, quot).tol == RUN


def test_summands_of_two_tolerances_do_not_sum():
    a = LieTripleSystem(1, np.zeros((1, 1, 1, 1)))
    b = LieTripleSystem(1, np.zeros((1, 1, 1, 1)), tol=RUN)
    with pytest.raises(ValueError, match="different tolerances"):
        direct_sum_lts(a, b)


# ---------------------------------------------------------------------------
# verdicts that flip with the run tolerance


def test_a_near_dependent_ideal_follows_the_run_tolerance():
    # rows 1e-9 apart span the line e0 at the default cut, the left factor at a tight one
    argv = ["quotient", "--model", "product(sphere(2),sphere(2))", "--ideal", "1,0,0,0;1,1e-9,0,0", "--seed", "1"]
    code, out, _ = run_cli(argv)
    assert code == cli.EXIT_CHECK_FAILED and "requires an ideal" in json.loads(out)["error"]
    code, out, _ = run_cli(argv + ["--tol-abs", "1e-12", "--tol-rel", "1e-12"])
    assert code == cli.EXIT_OK and json.loads(out)["quotient_dim_minus"] == 2


def test_verify_of_an_algebra_descriptor_reads_the_run_tolerance(tmp_path):
    # theta - I has the singular value 1e-9: zero at the default cut, not at a tight one,
    # so the eigenspaces span g only at the default
    path = tmp_path / "near.json"
    desc = {
        "kind": "symmetric_lie_algebra",
        "dim": 3,
        "tensor": np.zeros((3, 3, 3)).tolist(),
        "theta": np.diag([1.0, -1.0, 1.0 + 1e-9]).tolist(),
        "labels": ["near"],
    }
    path.write_text(json.dumps(desc))
    code, out, _ = run_cli(["verify", "--model", str(path)])
    assert code == cli.EXIT_OK and json.loads(out)["spanning"] == 0.0
    code, out, _ = run_cli(["verify", "--model", str(path), "--tol-abs", "1e-12", "--tol-rel", "1e-12"])
    assert code == cli.EXIT_CHECK_FAILED and json.loads(out)["spanning"] == 1.0
    assert algebra_from_json(desc, RUN).tol == RUN


# a few small cases per verb, swept over --tol-abs 1e-10*f --tol-rel 1e-9*f
SWEEP_ARGVS = (
    ["verify", "--model", "sphere(3)"],
    ["verify", "--model", "spd(3)"],
    ["subspace", "--model", "spd(3)"],
    ["quotient", "--model", "spd(4)", "--ideal", "center"],
    ["quotient", "--model", "product(sphere(2),sphere(2))", "--ideal", "left_factor"],
    ["trotter", "--model", "spd(2)", "--x", "1,0,0", "--y", "0,0,1", "--k-min", "16", "--k-max", "64"],
)


def report_ok(out: str):
    """The ``ok`` of a JSON report, or None for a CSV table."""
    try:
        return json.loads(out).get("ok")
    except ValueError:
        return None


@pytest.mark.parametrize("f", [1e-7, 1e-6, 1e-3, 1e3])
def test_no_tolerance_escapes_the_cli(f):
    # f = 1e-7 and 1e-6 fall below the rounding of the pairs' own closure and
    # fail checks (exit 1 or 2); no tolerance may end the run with a traceback
    flags = ["--tol-abs", repr(1e-10 * f), "--tol-rel", repr(1e-9 * f)]
    for argv in SWEEP_ARGVS:
        argv = argv + ["--seed", "1"]
        code, out, _ = run_cli(argv + flags)
        assert code in (cli.EXIT_OK, cli.EXIT_CHECK_FAILED, cli.EXIT_USAGE, cli.EXIT_GATE), argv
        if f in (1e-3, 1e3):  # wide margins: the default verdict
            want_code, want_out, _ = run_cli(argv)
            assert (code, report_ok(out)) == (want_code, report_ok(want_out)), argv


@settings(deadline=None, max_examples=60)
@given(st.integers(1, 8), st.data())
def test_complement_is_the_kernel_cut_of_orthonormal_rows(ambient, data):
    k = data.draw(st.integers(0, ambient))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    sub = LinearSubspace.span(rng.standard_normal((k, ambient)), ambient, DEFAULT_TOL)
    assert np.array_equal(sub.complement().basis, _kernel_rows(sub.basis, DEFAULT_TOL))
