"""The two routes of ``mat_log`` and of the chart relation's principal root.

A matrix that passes the normality gate (every catalog Cartan matrix does)
takes the polar/Cayley split of ``numkernel._normal_parts``: a polar factor
that is the identity up to rounding (``P`` of an orthogonal Cartan matrix,
``U`` of a symmetric one) takes its two-term series, the other one a stacked
``eigh``; any other matrix takes the Denman-Beavers roots.  Values are
judged against scipy's ``logm``/``sqrtm`` where the input is well
conditioned, against closed forms on diagonal spd and rotation blocks, and
against ``mpmath`` at 50 digits on either side of the series threshold.
The chart domain stays the ball ``|C - I|_2 < 1``: on a fixed sample set
the decided shares are those of the Denman-Beavers-only kernel, and on the
edge of the ball each verdict is the SVD's.  A spy holds the LAPACK budget
of the chart kernel on ``chart_queries``.
"""

import mpmath
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
    lapack_spy,
    oracle_log,
    oracle_log_and_roots,
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
    out = mat_log(stack, DEFAULT_TOL)
    assert [len(args[0]) for args in calls] == [1]  # one root, of the one slice that is not normal
    assert same_bits(out[1], oracle_log(NOT_NORMAL))
    assert close_logs(out[1], scipy.linalg.logm(NOT_NORMAL))


def test_a_singular_root_iterate_fails_only_its_slice():
    assert op_norm(SINGULAR_IN_BALL - np.eye(3)) < 1.0 and not passes_the_gate(SINGULAR_IN_BALL[None])[0]
    with pytest.raises(DomainError, match="converge"):
        oracle_log(SINGULAR_IN_BALL)
    with pytest.raises(DomainError, match="converge"):
        mat_log(SINGULAR_IN_BALL, DEFAULT_TOL)
    out = mat_log(np.array([NOT_NORMAL_3, SINGULAR_IN_BALL, NOT_NORMAL_3]), DEFAULT_TOL)
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
    assert same_bits(mat_log(a, DEFAULT_TOL), oracle_log(a))
    assert DEFAULT_TOL.close(mat_log(a, DEFAULT_TOL), scipy.linalg.logm(a))


@pytest.mark.parametrize("sigma, passes", [(1e-3, True), (1e-6, False)])
def test_an_ill_conditioned_matrix_takes_the_fallback(monkeypatch, sigma, passes):
    # diag(sigma, 1) is normal with no residual at all, but w = sigma^2 - 1
    # carries a rounding of about eps, which log1p(w) / 2 reads in units of sigma^2
    calls = count_calls(monkeypatch, numkernel, "_sqrt_denman_beavers")
    a = np.diag([sigma, 1.0])
    assert passes_the_gate(a[None]).tolist() == [passes]
    out = mat_log(a, DEFAULT_TOL)
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
            mat_log(a, DEFAULT_TOL)
    elif passes_the_gate(a[None])[0]:
        assert DEFAULT_TOL.close(mat_log(a, DEFAULT_TOL), scipy.linalg.logm(a))
    else:
        try:
            want = oracle_log(a)
        except DomainError:  # an eigenvalue so small that a root iterate is singular
            with pytest.raises(DomainError, match="converge"):
                mat_log(a, DEFAULT_TOL)
        else:
            assert same_bits(mat_log(a, DEFAULT_TOL), want)


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
        assert DEFAULT_TOL.close(mat_log(a, DEFAULT_TOL), scipy.linalg.logm(a))


# ---------------------------------------------------------------------------
# values


def test_closed_forms_on_spd_and_rotation_blocks():
    d = np.array([1.3, 0.6])
    a = scipy.linalg.block_diag(rotation(0.7), np.diag(d), rotation(-0.2))
    assert passes_the_gate(a[None])[0]
    turn = np.array([[0.0, -1.0], [1.0, 0.0]])  # the generator of rotation(theta)
    want = scipy.linalg.block_diag(0.7 * turn, np.diag(np.log(d)), -0.2 * turn)
    assert close_logs(mat_log(a, DEFAULT_TOL), want, 1e-15)
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


# ---------------------------------------------------------------------------
# the trivial polar factor and the ball, without LAPACK where they can be


def rotation3(theta):
    return scipy.linalg.block_diag(rotation(theta), [[1.0]])


def mpmath_fn(a, fn):
    # fn of a matrix at 50 digits, rounded to float64
    with mpmath.workdps(50):
        return np.array(fn(mpmath.matrix(a.tolist())).tolist(), dtype=float)


def series_flags(a):
    # whether P and U of each slice take their series
    p, _, q = numkernel._normal_parts(a)[0]
    return p.series.tolist(), q.series.tolist()


def assert_log_and_root_are_mpmaths(c):
    log, root = mat_log(c, DEFAULT_TOL), _principal_roots(c[None], DEFAULT_TOL)
    assert close_logs(log, mpmath_fn(c, mpmath.logm), 1e-15)
    assert close_logs(root[0][0], mpmath_fn(c, mpmath.sqrtm), 1e-15) and root[1].tolist() == [True]
    assert close_logs(log, oracle_log_and_roots(c)[0], 1e-14)


@pytest.mark.parametrize("scale", [0.99, 1.01])
def test_a_rotation_at_the_series_threshold_of_p(scale):
    # R diag(1 + t, 1 + t, 1 - t) with |C^T C - I|_F just below or above 2^-20
    t = scale * 2.0**-20 / (2.0 * np.sqrt(3.0))
    c = rotation3(0.5) @ np.diag([1.0 + t, 1.0 + t, 1.0 - t])
    assert series_flags(c[None]) == ([scale < 1.0], [False])
    assert_log_and_root_are_mpmaths(c)


@pytest.mark.parametrize("scale", [0.99, 1.01])
def test_an_spd_matrix_at_the_series_threshold_of_u(scale):
    # diag(1.5, 1.5, 0.7) turned by theta in the plane of its double
    # eigenvalue: K^T K = tan^2(theta/2) I_2, of norm just below or above 2^-40
    theta = 2.0 * np.arctan(np.sqrt(scale * 2.0**-40 / np.sqrt(2.0)))
    c = rotation3(theta) @ np.diag([1.5, 1.5, 0.7])
    assert series_flags(c[None]) == ([False], [scale < 1.0])
    assert_log_and_root_are_mpmaths(c)


def test_a_stack_mixes_the_series_and_eigh_slice_by_slice(chart_models):
    # each slice of a stack of spd and sphere points is the bits of its own call
    stack = np.concatenate([cartan_stack(chart_models[spec].pair, 2, [0.0, 0.2, 0.4]) for spec in ("spd(3)", "sphere(2)")])
    p_series, u_series = series_flags(stack)
    assert p_series == [True, False, False, True, True, True] and u_series == [True, True, True, True, False, False]
    logs, (roots, rooted) = mat_log(stack, DEFAULT_TOL), _principal_roots(stack, DEFAULT_TOL)
    assert rooted.all()
    for a, log, root in zip(stack, logs, roots):
        assert same_bits(log, mat_log(a, DEFAULT_TOL)) and same_bits(root, _principal_roots(a[None], DEFAULT_TOL)[0][0])
        assert close_logs(log, scipy.linalg.logm(a), 1e-14)


def edge_stack():
    """Matrices ``I + D``, ``D = Q diag(sigma) R^T`` with ``sigma_max`` and
    ``|D|_F`` within 1e-15 of 1 (before rounding), of rank 1 and of full
    rank, in sizes 2 to 4."""
    rng = np.random.default_rng(5)
    stack = []
    for n in (2, 3, 4):
        for rest in (0.0, 1e-8):  # the other singular values: rank 1, or full rank
            for delta in (-1e-15, -4e-16, -2e-16, 0.0, 2e-16, 4e-16, 1e-15):
                q, r = (np.linalg.qr(rng.standard_normal((n, n)))[0] for _ in range(2))
                sigma = np.array([1.0 + delta] + [rest] * (n - 1))
                d = q @ np.diag(sigma) @ r.T
                assert abs(np.linalg.norm(d) - 1.0) <= 2e-15
                stack.append(np.eye(n) + d)
    return stack


def test_the_ball_on_its_edge_is_the_svds():
    # neither norm decides these slices, so each verdict is the SVD's
    by_size = {}
    for c in edge_stack():
        by_size.setdefault(len(c), []).append(c)
    for c in map(np.array, by_size.values()):
        d = c - np.eye(c.shape[-1])  # the D that mat_log decides on
        want = (np.linalg.svd(d, compute_uv=False).max(axis=-1) < 1.0).tolist()
        assert True in want and False in want
        with pytest.MonkeyPatch.context() as mp:
            slices = lapack_spy(mp, ("svd",))
            assert numkernel._in_ball(d) == want
            assert slices["svd"] == len(d)
        failed = numkernel._mat_log_stack(c, DEFAULT_TOL)[1]
        assert [f != numkernel._LOG_DOMAIN for f in failed] == want


def test_the_ball_off_its_edge_takes_one_norm():
    # |D|_F < 1 decides the first slice and a column of norm above 1 the next
    # two (a quarter turn: |D|_F = 2, |D|_2 = sqrt(2)); a turn by 0.9 has
    # |D|_F = 1.23 and largest column 0.87 = |D|_2, so neither norm decides
    # it, and f = |(D^T D)^4|_F^(1/8) = 0.87 * 2^(1/16) = 0.91 < 1 does
    d = np.array([0.3 * rotation(0.3), np.diag([1.0 + 1e-9, 0.0]), rotation(np.pi / 2) - np.eye(2), rotation(0.9) - np.eye(2)])
    with pytest.MonkeyPatch.context() as mp:
        slices = lapack_spy(mp, ("svd",))
        assert numkernel._in_ball(d) == [True, False, False, True]
        assert slices["svd"] == 0
    assert numkernel._in_ball(d) == (np.linalg.svd(d, compute_uv=False).max(axis=-1) < 1.0).tolist()


def test_the_ball_between_its_norms_takes_the_power_bound():
    # f bounds |D|_2 in [f 2^(-1/16), f]: 0.7 times the all-ones matrix
    # (columns 0.99, |D|_2 = f = 1.4) lies outside, and 0.99 I (f = 1.03,
    # f 2^(-1/16) = 0.99) is the one slice whose bounds straddle 1
    d = np.array([np.full((2, 2), 0.7), 0.99 * np.eye(2), rotation(0.9) - np.eye(2)])
    with pytest.MonkeyPatch.context() as mp:
        slices = lapack_spy(mp, ("svd",))
        assert numkernel._in_ball(d) == [False, True, True]
        assert slices["svd"] == 1


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(1, 5),
    seed=st.integers(0, 2**32 - 1),
    scale=st.floats(0.5, 2.0),
    rank=st.integers(1, 5),
)
def test_the_ball_verdict_is_the_svds(n, seed, scale, rank):
    # near the edge, over the whole range the power bound leaves to the SVD
    rng = np.random.default_rng(seed)
    q, r = (np.linalg.qr(rng.standard_normal((n, n)))[0] for _ in range(2))
    sigma = np.sort(rng.uniform(0.0, 1.0, n))[::-1]
    sigma[min(rank, n):] = 0.0
    d = np.array([q @ np.diag(scale * sigma / sigma[0]) @ r.T, q @ np.diag(sigma) @ r.T])
    assert numkernel._in_ball(d) == (np.linalg.svd(d, compute_uv=False).max(axis=-1) < 1.0).tolist()


def test_two_chart_queries_passes_keep_the_lapack_budget():
    # 2,094 det, 4,188 eigh and 2,532 svd slices when every slice took both
    # eigendecompositions, the Cayley solve's det and the ball's svd; 398 svd
    # slices when every slice between the ball's two norms took it, and 150
    # since the power bound decides most of those
    case_bytes = load_case_bytes()
    with pytest.MonkeyPatch.context() as mp:
        slices = lapack_spy(mp, ("det", "eigh", "svd"))
        for group in range(2):
            case_bytes.run_cases("chart_queries", group)
    assert slices["det"] == 0
    assert 0 < slices["eigh"] <= 2000
    assert 0 < slices["svd"] <= 180
