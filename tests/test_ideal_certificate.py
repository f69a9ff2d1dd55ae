"""The quotient verdict rests on the decided certificates of the run.

``l = ker(psi) (+) n`` is decided to be a theta-invariant Lie ideal of g
once, and the report carries that decision as the ideal certificate, with
the complement certificate of the rows of comp that carry g/l.  The sampled
morphism law of ``weak_submersion_check`` is a 32-sample smoke test of the
point projection's code.

Negative controls run on every quotient of the ``quotient_ladder`` models:
comp tilted by 1e-6 into l, and n replaced by a line that passes the
symmetric-subspace gate but is no ideal.  Both certificates must fail there.
On a panel of mutant quotients (those two, and the ``squared`` and
``far_squared`` projections), every mutant that the former verdict catches,
the per-sample loop of rank, kernel and 100 samples
(``test_batched_sampling.oracle_submersion``), the new verdict catches too.
"""

import dataclasses
import inspect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import far_squared_projection, squared_projection
from test_batched_sampling import oracle_submersion
from test_cartan_points import LADDER

from symspaces.catalog import parse_model
from symspaces.lts import LinearSubspace, _closure_certificate, _psi, is_ideal, subspace_sum
from symspaces.quotient import (
    PointProjection,
    _certified,
    _orthonormal_complement,
    quotient_theorem_pipeline,
    weak_submersion_check,
)
from symspaces.subspace import exp_chart_split, generate_integral, split_complement_criterion
from symspaces.symspace import lts_of_pair


@pytest.fixture(scope="module")
def quotients():
    out = {}
    for spec, name in LADDER:
        model = parse_model(spec)
        out[spec] = quotient_theorem_pipeline(model.pair, model.subspace_by_name(name).seed, rng=np.random.default_rng(0))
    return out


@pytest.fixture(scope="module")
def lines(quotients):
    return {spec: gate_passing_line(qr.relation.pair) for spec, qr in quotients.items()}


def certified(qr) -> bool:
    return _certified(qr.report["ideal_certificate"], *qr.report["complement_certificate"].values())


def tilted(qr):
    """``qr`` with every row of comp tilted by 1e-6 into l, and its complement certificate."""
    proj, l_rows = qr.projection_points, qr.l_algebra.basis
    comp = proj.comp + 1e-6 * l_rows[:1]
    report = {**qr.report, "complement_certificate": _orthonormal_complement(comp, l_rows, proj.source.tol)}
    return dataclasses.replace(qr, projection_points=PointProjection(proj.source, proj.target, comp), report=report)


def gate_passing_line(pair) -> LinearSubspace:
    """The first g_minus axis: a line, so a triple subsystem, whose integral subspace passes the gate."""
    line = LinearSubspace(pair.dim_minus, np.eye(pair.dim_minus)[:1])
    space = generate_integral(line, pair)
    exp_chart_split(space, line, rng=np.random.default_rng(0))  # raises ChartSplitError if it fails
    assert split_complement_criterion(space, line, line.complement(), rng=np.random.default_rng(0))
    return line


def non_ideal(qr, line: LinearSubspace):
    """``qr`` with n replaced by ``line`` and l by ``ker(psi) (+) line``, and their certificates."""
    pair = qr.relation.pair
    g = pair.algebra()
    psi = _psi(g, g.minus_basis.basis, line.complement().basis)
    l_alg = subspace_sum(psi.kernel, pair.minus_subspace_to_full(line), pair.tol)
    report = {
        **qr.report,
        "ideal_certificate": _closure_certificate(g, l_alg, np.eye(g.dim))[2],
        "complement_certificate": _orthonormal_complement(qr.projection_points.comp, l_alg.basis, pair.tol),
    }
    relation = dataclasses.replace(qr.relation, n_minus=line)
    return dataclasses.replace(qr, relation=relation, l_algebra=l_alg, report=report)


def test_the_default_is_a_32_sample_smoke_test():
    assert inspect.signature(weak_submersion_check).parameters["samples"].default == 32


@pytest.mark.parametrize("spec", [spec for spec, _ in LADDER])
def test_a_quotient_reports_passing_certificates(quotients, spec):
    qr = quotients[spec]
    ideal, complement = qr.report["ideal_certificate"], qr.report["complement_certificate"]
    assert set(ideal) == {"residual", "bound"} and set(complement) == {"orthogonal", "orthonormal"}
    bound = qr.relation.pair.tol.abs_eps + qr.relation.pair.tol.rel_eps
    assert ideal["bound"] >= bound and all(c["bound"] == bound for c in complement.values())
    assert certified(qr)
    assert weak_submersion_check(qr, np.random.default_rng(1))["ok"] is True


@pytest.mark.parametrize("spec", [spec for spec, _ in LADDER])
def test_comp_tilted_into_l_fails_the_complement_certificate(quotients, spec):
    bad = tilted(quotients[spec])
    assert bad.report["complement_certificate"]["orthogonal"]["residual"] > 1e-7
    assert not certified(bad)
    assert weak_submersion_check(bad, np.random.default_rng(1))["ok"] is False


@pytest.mark.parametrize("spec", [spec for spec, _ in LADDER])
def test_a_gate_passing_non_ideal_fails_the_ideal_certificate(quotients, lines, spec):
    qr = quotients[spec]
    assert not is_ideal(lts_of_pair(qr.relation.pair), lines[spec])
    bad = non_ideal(qr, lines[spec])
    assert bad.report["ideal_certificate"]["residual"] > 1e-3
    assert not certified(bad)
    assert weak_submersion_check(bad, np.random.default_rng(1))["ok"] is False


@pytest.mark.parametrize("spec", [spec for spec, _ in LADDER])
def test_every_mutant_the_former_verdict_catches_is_caught(quotients, lines, spec):
    qr = quotients[spec]
    panel = {
        "tilted": tilted(qr),
        "non_ideal": non_ideal(qr, lines[spec]),
        "squared": dataclasses.replace(qr, projection_points=squared_projection(qr)),
        "far_squared": dataclasses.replace(qr, projection_points=far_squared_projection(qr)),
    }
    for name, bad in panel.items():
        former = oracle_submersion(bad, np.random.default_rng(1), samples=100, project=bad.projection_points)["ok"]
        now = weak_submersion_check(bad, np.random.default_rng(1))["ok"]
        assert former or not now, name
        if name == "squared":
            assert not former and not now
        if name == "tilted":  # the law holds within rounding on a quotient 1e-6 off: only the certificate sees it
            assert former and not now


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 2**32 - 1), st.integers(0, 6), st.booleans())
def test_the_certificate_is_the_verdict_of_every_row(seed, k, ideal):
    # rows of theta(l) and [l, g] (or [l, l]), each against its bound, decide as the per-row tests
    g = parse_model("product(sphere(2),sphere(2))").pair.algebra()
    rng = np.random.default_rng(seed)
    sub = LinearSubspace.span(rng.standard_normal((k, g.dim)), g.dim, g.tol) if k else LinearSubspace.zero(g.dim)
    right = np.eye(g.dim) if ideal else sub.basis
    invariant, closed, cert = _closure_certificate(g, sub, right)
    assert invariant == sub.contains_all(sub.basis @ g.theta.T, g.tol)
    assert closed == g.brackets_within(sub.basis, right, sub)
    assert (cert["residual"] <= cert["bound"]) == (invariant and closed)
