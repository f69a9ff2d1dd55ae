"""The two routes of ``mat_log`` and of the chart relation's principal root.

A matrix that passes the normality gate (every catalog Cartan matrix does)
takes the polar/Cayley split of ``numkernel._normal_parts``, two stacked
``eigh`` calls; any other matrix takes the Denman-Beavers roots.  Values
are judged against scipy's ``logm``/``sqrtm`` where the input is well
conditioned and against closed forms on diagonal spd and rotation blocks.
The chart domain stays the ball ``|C - I|_2 < 1``: on a fixed sample set
the decided shares are those of the Denman-Beavers-only kernel.
"""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from oracles import (
    CHART_MODELS,
    chart_models,  # noqa: F401  (a fixture)
    close_logs,
    count_calls,
    oracle_log,
    oracle_relates_group,
    oracle_sqrt,
    passes_the_gate,
    same_bits,
)
from test_case_digests import load_case_bytes
from test_stacked_chart import cartan_stack

from symspaces import numkernel
from symspaces.catalog import parse_model
from symspaces.lts import LinearSubspace
from symspaces.numkernel import DEFAULT_TOL, DomainError, Tolerance, _principal_roots, mat_log, op_norm
from symspaces.quotient import ChartRelation
from symspaces.symspace import Points, SymPoint, exp_points, log_points

NOT_NORMAL = np.array([[1.0, 0.3], [0.0, 1.1]])


# an spd(3) Cartan matrix far along a contracting direction: in the ball, but
# its eigenvalue 9e-17 makes a Denman-Beavers iterate exactly singular
SINGULAR_IN_BALL = np.array([
    [0.5713979306610106, -0.007620195512753484, 0.37585555122984],
    [-0.007620195512753464, 0.00010165019033782045, -0.005012425876764602],
    [0.3758555512298398, -0.005012425876764613, 0.2472311998372958],
])
NOT_NORMAL_3 = np.array([[1.0, 0.3, 0.0], [0.0, 1.1, 0.0], [0.0, 0.0, 0.9]])


def rotation(theta):
    return np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])


# ---------------------------------------------------------------------------
# route choice


def test_no_catalog_case_takes_the_fallback(monkeypatch):
    roots = count_calls(monkeypatch, numkernel, "_sqrt_denman_beavers")
    splits = count_calls(monkeypatch, numkernel, "_normal_parts")
    load_case_bytes().run_cases()  # every case of the three workloads
    assert roots == []
    assert splits


def test_a_matrix_that_is_not_normal_takes_the_fallback(monkeypatch):
    calls = count_calls(monkeypatch, numkernel, "_sqrt_denman_beavers")
    stack = np.array([np.diag([1.2, 0.9]), NOT_NORMAL, rotation(0.4)])
    assert passes_the_gate(stack).tolist() == [True, False, True]
    out = mat_log(stack)
    assert [len(args[0]) for args in calls] == [1]  # one root, of the one slice that is not normal
    assert same_bits(out[1], oracle_log(NOT_NORMAL))
    assert close_logs(out[1], scipy.linalg.logm(NOT_NORMAL))


def test_a_singular_root_iterate_fails_only_its_slice():
    assert op_norm(SINGULAR_IN_BALL - np.eye(3)) < 1.0 and not passes_the_gate(SINGULAR_IN_BALL[None])[0]
    with pytest.raises(DomainError, match="converge"):
        oracle_log(SINGULAR_IN_BALL)
    with pytest.raises(DomainError, match="converge"):
        mat_log(SINGULAR_IN_BALL)
    out = mat_log(np.array([NOT_NORMAL_3, SINGULAR_IN_BALL, NOT_NORMAL_3]))
    assert np.isnan(out[1]).all()
    assert same_bits(out[[0, 2]], np.array([oracle_log(NOT_NORMAL_3)] * 2))


@pytest.mark.parametrize("size, passes", [(1e-13, True), (1e-6, False)])
def test_the_gate_reads_the_distance_from_normal(chart_models, size, passes):
    c = cartan_stack(chart_models["spd(3)"].pair, 4, [0.2])[0]
    e = np.random.default_rng(4).standard_normal(c.shape)
    assert passes_the_gate((c + size * e / np.linalg.norm(e))[None]).tolist() == [passes]


def test_a_small_singular_value_tightens_the_gate():
    # |[U, P^2]|_F = 2.9e-10 passes a gate at scale max(|C|_F^2, 1), but the
    # route would miss logm by 1.4e-8; in units of sigma_min^2 = 4e-4 it fails
    a = np.array([[1.0, 3e-10], [0.0, 0.02]])
    assert not passes_the_gate(a[None])[0]
    with np.errstate(divide="ignore", invalid="ignore"):
        route = numkernel._normal_logs(numkernel._normal_parts(a[None])[0])[0]
    assert not DEFAULT_TOL.close(route, scipy.linalg.logm(a))
    assert same_bits(mat_log(a), oracle_log(a))
    assert DEFAULT_TOL.close(mat_log(a), scipy.linalg.logm(a))


@pytest.mark.parametrize("sigma, passes", [(1e-3, True), (1e-6, False)])
def test_an_ill_conditioned_matrix_takes_the_fallback(monkeypatch, sigma, passes):
    # diag(sigma, 1) is normal with no residual at all, but w = sigma^2 - 1
    # carries a rounding of about eps, which log1p(w) / 2 reads in units of sigma^2
    calls = count_calls(monkeypatch, numkernel, "_sqrt_denman_beavers")
    a = np.diag([sigma, 1.0])
    assert passes_the_gate(a[None]).tolist() == [passes]
    out = mat_log(a)
    assert bool(calls) is not passes
    assert DEFAULT_TOL.close(out, np.diag([np.log(sigma), 0.0]))
    if not passes:
        assert same_bits(out, oracle_log(a))


def test_a_relation_on_ill_conditioned_points_is_the_group_bodys(chart_models):
    # spd(2) points with a Cartan eigenvalue 1e-6: S^-1 Y S^-1 magnifies the
    # error of the root S by about 1e6, so their roots come from the fallback
    pair = chart_models["spd(2)"].pair
    m = pair.dim_minus
    rng = np.random.default_rng(1)
    gx = []
    for _ in range(12):
        q = np.linalg.qr(rng.standard_normal((2, 2)))[0]
        gx.append(q @ np.diag([1e-3, rng.uniform(0.5, 2.0)]) @ q.T)
    gx = np.array(gx)
    xs = SymPoint.from_group(pair, gx)
    assert not passes_the_gate(np.array([x.cartan for x in xs])).any()
    for row in range(m):
        n = LinearSubspace(m, np.eye(m)[row : row + 1])
        w = np.concatenate([0.3 * rng.standard_normal((6, 1)) @ n.basis, 0.3 * rng.standard_normal((6, m))])
        gy = gx @ pair.exp(pair.minus_to_matrix(w))
        got = ChartRelation(pair, n)(xs, SymPoint.from_group(pair, gy))
        assert got == [oracle_relates_group(pair, n, g, h) for g, h in zip(gx, gy)]


def test_an_overflowing_slice_does_not_fail_the_block(chart_models):
    # C^T C of a Cartan matrix with entries near 1e160 is not finite: the slice
    # fails the gate and takes the fallback, and the other slices keep their answers.
    # Its Frobenius norm overflows too, so SymPoint and Points refuse it, but a
    # stack the package computed is wrapped unchecked and may still hold one
    pair = chart_models["spd(2)"].pair
    m = pair.dim_minus
    rng = np.random.default_rng(3)
    vs = 0.3 * rng.standard_normal((4, m))
    xs = exp_points(pair, vs)
    ys = exp_points(pair, vs + 0.2 * rng.standard_normal((4, m)))
    relation = ChartRelation(pair, LinearSubspace(m, np.eye(m)[:1]))
    huge = 1e160 * np.array([[1.0, 2.0], [2.0, 5.0]])
    for make in (lambda: SymPoint(pair, huge.tolist()), lambda: Points(pair, huge[None])):
        with pytest.raises(ValueError, match="finite Frobenius norm"):
            make()
    assert not passes_the_gate(huge[None])[0]
    wide_xs = Points._wrap(pair, np.concatenate([xs.cartans, huge[None]]))
    wide_ys = Points._wrap(pair, np.concatenate([ys.cartans, ys.cartans[:1]]))
    assert relation(wide_xs, wide_ys) == relation(xs, ys) + [None]


@settings(deadline=None, max_examples=60)
@given(
    spec=st.sampled_from(["spd(2)", "spd(3)"]),
    seed=st.integers(0, 2**32 - 1),
    radius=st.floats(0.3, 15.0),
    size=st.sampled_from([0.0, 1e-12, 1e-9, 1e-6]),
)
def test_a_contracting_matrix_fails_the_gate_or_logs_within_tolerance(chart_models, spec, seed, radius, size):
    # far along a negative-definite direction of spd the Cartan matrix stays
    # in the ball while its smallest eigenvalue falls to exp(-2 radius)
    pair = chart_models[spec].pair
    rng = np.random.default_rng(seed)
    v = pair.minus_to_matrix(rng.standard_normal(pair.dim_minus))
    v *= radius / np.linalg.norm(v)
    v -= (np.linalg.eigvalsh(v).max() + 0.1) * np.eye(len(v))
    c = exp_points(pair, [pair.matrix_to_minus(v)])[0].cartan
    e = rng.standard_normal(c.shape)
    a = c + size * e / np.linalg.norm(e)
    if op_norm(a - np.eye(len(a))) >= 1.0:  # the perturbation moved an eigenvalue near 0 below it
        with pytest.raises(DomainError):
            mat_log(a)
    elif passes_the_gate(a[None])[0]:
        assert DEFAULT_TOL.close(mat_log(a), scipy.linalg.logm(a))
    else:
        try:
            want = oracle_log(a)
        except DomainError:  # an eigenvalue so small that a root iterate is singular
            with pytest.raises(DomainError, match="converge"):
                mat_log(a)
        else:
            assert same_bits(mat_log(a), want)


@settings(deadline=None, max_examples=60)
@given(
    spec=st.sampled_from(CHART_MODELS),
    seed=st.integers(0, 2**32 - 1),
    radius=st.floats(0.0, 0.3),
    size=st.floats(-12.0, -6.0),
    upper=st.booleans(),
)
def test_a_near_normal_matrix_fails_the_gate_or_logs_within_tolerance(chart_models, spec, seed, radius, size, upper):
    # a catalog Cartan matrix moved off the normal matrices by 1e-12 to 1e-6,
    # in a random or a strictly upper-triangular (Jordan-like) direction
    c = cartan_stack(chart_models[spec].pair, seed, [radius])[0]
    e = np.random.default_rng(seed).standard_normal(c.shape)
    if upper:
        e = np.triu(e, 1)
    a = c + 10.0**size * e / np.linalg.norm(e)
    assume(op_norm(a - np.eye(len(a))) < 1.0)
    if passes_the_gate(a[None])[0]:
        assert DEFAULT_TOL.close(mat_log(a), scipy.linalg.logm(a))


# ---------------------------------------------------------------------------
# values


def test_closed_forms_on_spd_and_rotation_blocks():
    d = np.array([1.3, 0.6])
    a = scipy.linalg.block_diag(rotation(0.7), np.diag(d), rotation(-0.2))
    assert passes_the_gate(a[None])[0]
    turn = np.array([[0.0, -1.0], [1.0, 0.0]])  # the generator of rotation(theta)
    want = scipy.linalg.block_diag(0.7 * turn, np.diag(np.log(d)), -0.2 * turn)
    assert close_logs(mat_log(a), want, 1e-15)
    roots, rooted = _principal_roots(a[None], DEFAULT_TOL)
    assert close_logs(roots[0], scipy.linalg.block_diag(rotation(0.35), np.diag(np.sqrt(d)), rotation(-0.1)), 1e-15)
    assert rooted.tolist() == [True]


@pytest.mark.parametrize("spec", CHART_MODELS)
def test_catalog_roots_are_scipys(chart_models, spec):
    # rotation angles up to 2.4, well off the cut locus at pi
    stack = cartan_stack(chart_models[spec].pair, 6, np.linspace(0.0, 1.2, 13))
    roots, rooted = _principal_roots(stack, DEFAULT_TOL)
    assert rooted.all()
    for s, a in zip(roots, stack):
        assert close_logs(s, scipy.linalg.sqrtm(a), 1e-12)
        assert same_bits(s, _principal_roots(a[None], DEFAULT_TOL)[0][0])


def test_a_cut_locus_slice_is_nan_without_a_retry(monkeypatch):
    # U + I is exactly singular on a half turn; the other slices of the stack keep their roots
    roots_calls = count_calls(monkeypatch, numkernel, "_sqrt_denman_beavers")
    stack = np.array([scipy.linalg.block_diag(rotation(0.5), [[1.0]]), np.diag([-1.0, -1.0, 1.0]), np.diag([1.5, 0.5, 1.0])])
    roots, rooted = _principal_roots(stack, DEFAULT_TOL)
    assert roots_calls == []
    assert np.isnan(roots[1]).all()
    assert rooted.tolist() == [True, False, True]
    for i in (0, 2):
        assert close_logs(roots[i], scipy.linalg.sqrtm(stack[i]), 1e-15)


def test_a_root_that_is_not_normal_takes_the_fallback(monkeypatch):
    calls = []
    verdicts = Tolerance.verdicts

    def counted(self, residuals, scales):
        calls.append(np.shape(residuals))
        return verdicts(self, residuals, scales)

    monkeypatch.setattr(Tolerance, "verdicts", counted)
    roots, rooted = _principal_roots(np.array([np.diag([1.2, 0.9]), NOT_NORMAL]), DEFAULT_TOL)
    assert calls == [(2, 2), (1,)]  # the block's gate and root check, then the fallback's root check
    assert same_bits(roots[1], oracle_sqrt(NOT_NORMAL, DEFAULT_TOL))
    assert rooted.tolist() == [True, True]
    assert close_logs(roots[1], scipy.linalg.sqrtm(NOT_NORMAL), 1e-14)


# ---------------------------------------------------------------------------
# the chart domain

# decided points of log_points(exp_points(V)) on 100 random directions per
# radius (default_rng(0) per model, one draw per radius), as the
# Denman-Beavers-only kernel decided them
DECIDED = {
    "spd(2)": {0.5: 53, 1.0: 26, 2.0: 33, 4.0: 24},
    "spd(4)": {0.5: 61, 1.0: 9, 2.0: 3, 4.0: 0},
    "sphere(2)": {1.2: 0, 1.5: 0, 1.56: 0},
    "grassmann(2,5)": {1.0: 1},
    "product(sphere(2),spd(2))": {0.5: 70, 1.0: 30, 2.0: 2},
}


@pytest.mark.parametrize("spec", DECIDED)
def test_the_chart_domain_is_the_ball(spec):
    pair = parse_model(spec).pair
    rng = np.random.default_rng(0)
    for radius, want in DECIDED[spec].items():
        v = rng.standard_normal((100, pair.dim_minus))
        v *= radius / np.linalg.norm(v, axis=1, keepdims=True)
        points = exp_points(pair, v)
        logs = log_points(pair, points)
        assert sum(log is not None for log in logs) == want
        for x, log, w in zip(points, logs, v):
            assert (log is not None) == (op_norm(x.cartan - np.eye(pair.ambient_n)) < 1.0)
            assert log is None or np.allclose(log, w, rtol=0.0, atol=1e-9)
