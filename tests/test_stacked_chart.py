"""The stacked normal chart: ``mat_log`` on a stack, ``log_points``, and the
batched relation and membership tests, against the 2-D calls they replace.

Each slice of a stacked log must be the bits of the 2-D call, whose value
is judged against scipy's log (``oracles.oracle_principal_log``); a matrix
that is not normal takes the fallback route, whose oracle is the former 2-D
body (``oracles.oracle_log``), kept verbatim up to naming.  The batched
relation and membership tests must answer as a loop of single calls, and
the samplers that use them must leave the generator where that loop does.
"""

import dataclasses
import functools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    CHART_MODELS,
    chart_models,  # noqa: F401  (a fixture)
    close_logs,
    count_calls,
    oracle_log,
    oracle_log_and_roots,
    oracle_member,
    oracle_principal_log,
    oracle_relates,
    passes_the_gate,
    same_bits,
)

from symspaces import lts, numkernel, sympair, symspace
from symspaces.catalog import parse_model
from symspaces.lts import LinearSubspace, ideal_bracket_plus_n, psi_representation
from symspaces.numkernel import DEFAULT_TOL, DomainError, mat_log
from symspaces.quotient import ChartRelation, quotient_theorem_pipeline
from symspaces.reports import reflection_axiom_report
from symspaces.subspace import (
    CERTIFICATION_GRID,
    ChartMembership,
    exp_chart_split,
    generate_integral,
    lts_of_subspace,
    split_complement_criterion,
)
from symspaces.symspace import (
    SymPoint,
    base_point,
    cartan_distance,
    exp_point,
    exp_points,
    log_point,
    log_points,
    mu,
    tau_action,
)

def cartan_stack(pair, seed, radii):
    """Cartan matrices of points at the given chart radii, in random directions."""
    rng = np.random.default_rng(seed)
    vs = []
    for r in radii:
        v = rng.standard_normal(pair.dim_minus)
        vs.append(r * v / max(np.linalg.norm(v), 1e-300))
    return np.array([x.cartan for x in exp_points(pair, vs)])


def assert_slice_is_the_single_call(out, a):
    """Slice ``out`` of a stacked log of ``a`` is bit for bit the 2-D call: NaN
    with its DomainError outside the ball, and scipy's log inside."""
    try:
        ref = oracle_principal_log(a)
    except DomainError as exc:
        assert np.isnan(out).all()
        with pytest.raises(DomainError, match=str(exc).replace("|", r"\|")):
            mat_log(a)
        return False
    assert same_bits(out, mat_log(a))
    assert close_logs(out, ref)
    return True


# ---------------------------------------------------------------------------
# mat_log on a stack


class TestStackedMatLog:
    @settings(deadline=None, max_examples=40)
    @given(
        spec=st.sampled_from(CHART_MODELS),
        seed=st.integers(0, 2**32 - 1),
        radii=st.lists(st.floats(0.0, 1.5), min_size=0, max_size=10),
    )
    def test_each_slice_is_the_single_call(self, chart_models, spec, seed, radii):
        pair = chart_models[spec].pair
        stack = cartan_stack(pair, seed, radii)
        if not radii:
            stack = np.zeros((0, pair.ambient_n, pair.ambient_n))
        out = mat_log(stack)
        assert out.shape == stack.shape
        for i in range(len(radii)):
            assert_slice_is_the_single_call(out[i], stack[i])

    def test_one_stack_mixes_root_counts_and_the_ball(self):
        # matrices that are not normal take the roots and the atanh series:
        # each slice is the bits of the former 2-D body
        rng = np.random.default_rng(11)
        radii = [0.02, 0.1, 0.2, 0.3, 0.7, 0.05, 0.25, 1.5]
        steps = rng.standard_normal((len(radii), 3, 3))
        stack = np.array([np.eye(3) + r * d / np.linalg.norm(d) for r, d in zip(radii, steps)])
        assert not passes_the_gate(stack).any()
        out = mat_log(stack)
        roots, inside = set(), 0
        for i, a in enumerate(stack):
            try:
                ref, r = oracle_log_and_roots(a)
            except DomainError:
                assert np.isnan(out[i]).all()
                continue
            assert same_bits(out[i], ref) and same_bits(mat_log(a), ref)
            roots.add(r)
            inside += 1
        assert inside < len(stack)
        assert {0, 1, 2} <= roots

    def test_out_of_ball_slices_do_not_fail_the_stack(self):
        stack = np.array([np.diag([2.5, 1.0]), np.diag([1.1, 0.95]), np.diag([-0.5, 1.0])])
        out = mat_log(stack)
        assert np.isnan(out[0]).all() and np.isnan(out[2]).all()
        assert close_logs(out[1], np.diag(np.log([1.1, 0.95])), 1e-15)

    def test_every_slice_outside_the_ball(self):
        stack = np.array([3.0 * np.eye(3), -np.eye(3), 5.0 * np.eye(3)])
        out = mat_log(stack)
        assert out.shape == stack.shape
        assert np.isnan(out).all()

    @pytest.mark.parametrize("shape", [(0, 3, 3), (0, 0, 0), (4, 0, 0)])
    def test_empty_stacks(self, shape):
        out = mat_log(np.zeros(shape))
        assert out.shape == shape

    def test_empty_matrix(self):
        assert mat_log(np.zeros((0, 0))).shape == (0, 0)

    def test_diverged_slice_is_reported_alone(self, monkeypatch):
        # a square root that never moves its input forces the 40-root limit
        # on a matrix that is not normal
        monkeypatch.setattr(numkernel, "_sqrt_denman_beavers", lambda a, tol: a)
        far, near = np.array([[1.5, 0.1], [0.0, 1.0]]), np.array([[1.1, 0.05], [0.0, 1.0]])
        assert not passes_the_gate(np.array([far, near])).any()
        with pytest.raises(DomainError, match="square-root reduction failed to converge"):
            mat_log(far)
        out = mat_log(np.array([far, near]))
        assert np.isnan(out[0]).all()
        assert same_bits(out[1], oracle_log(near))

    def test_input_is_not_modified(self, chart_models):
        stack = cartan_stack(chart_models["spd(3)"].pair, 5, [0.1, 0.3, 0.9])
        before = stack.copy()
        mat_log(stack)
        assert same_bits(stack, before)

    def test_non_finite_slice_raises(self):
        stack = np.array([np.eye(2), np.full((2, 2), np.nan)])
        with pytest.raises(ValueError, match="finite"):
            mat_log(stack)


# ---------------------------------------------------------------------------
# log_points


class TestLogPoints:
    @pytest.mark.parametrize("spec", CHART_MODELS)
    def test_each_point_is_log_point_or_none(self, chart_models, spec):
        pair = chart_models[spec].pair
        rng = np.random.default_rng(3)
        points = exp_points(pair, [r * rng.standard_normal(pair.dim_minus) for r in np.linspace(0, 1.2, 30)])
        logs = log_points(pair, points)
        assert any(v is None for v in logs) or spec == "sphere(2)"
        for x, v in zip(points, logs):
            try:
                ref = log_point(pair, x)
            except DomainError:
                assert v is None
                continue
            assert same_bits(v, ref)

    def test_blocks_bound_each_stacked_log(self, chart_models, monkeypatch):
        pair = chart_models["spd(3)"].pair
        monkeypatch.setattr(symspace, "MAX_STACK_FLOATS", 4 * pair.ambient_n ** 2)
        calls = count_calls(monkeypatch, numkernel, "_mat_log_stack")
        rng = np.random.default_rng(8)
        points = exp_points(pair, [0.05 * rng.standard_normal(pair.dim_minus) for _ in range(10)])
        logs = log_points(pair, points)
        assert [len(args[0]) for args in calls] == [4, 4, 2]
        for x, v in zip(points, logs):
            assert same_bits(v, log_point(pair, x))

    def test_empty_sequence(self, chart_models):
        assert log_points(chart_models["spd(2)"].pair, []) == []

    def test_point_of_another_pair_raises(self, chart_models):
        x = base_point(chart_models["spd(2)"].pair)
        with pytest.raises(ValueError, match="does not belong"):
            log_points(chart_models["sphere(2)"].pair, [x])


def mixed_block(pair):
    """Points inside and outside the log ball, and with a half-log off
    g_minus (a point of another pair, or with a non-finite Cartan matrix,
    raises at the boundary: see ``test_a_block_with_a_bad_point_raises``)."""
    rng = np.random.default_rng(31)
    inside = exp_points(pair, [0.2 * rng.standard_normal(pair.dim_minus) for _ in range(3)])
    outside = exp_points(pair, [3.0 * rng.standard_normal(pair.dim_minus) for _ in range(2)])
    turn = np.array([[np.cos(0.3), -np.sin(0.3)], [np.sin(0.3), np.cos(0.3)]])  # in the ball, log skew
    off_minus = SymPoint(pair, turn)
    return [inside[0], outside[0], inside[1], off_minus, outside[1], inside[2], off_minus]


def log_point_or_error(pair, x):
    try:
        return log_point(pair, x)
    except ValueError as exc:
        return exc


class TestChartLogs:
    @pytest.mark.parametrize("block", [None, 2, 4])
    def test_a_mixed_block_is_log_point_error_for_error(self, chart_models, monkeypatch, block):
        pair = chart_models["spd(2)"].pair
        if block is not None:
            monkeypatch.setattr(symspace, "MAX_STACK_FLOATS", block * pair.ambient_n ** 2)
        points = mixed_block(pair)
        got = symspace._chart_logs(pair, points)
        want = [log_point_or_error(pair, x) for x in points]
        assert [type(v) for v in got] == [type(v) for v in want]
        assert [type(v) for v in want[:5]] == [np.ndarray, DomainError, np.ndarray, ValueError, DomainError]
        for v, ref in zip(got, want):
            if isinstance(ref, ValueError):
                assert str(v) == str(ref)
            else:
                assert same_bits(v, ref)
        assert "is not in g_minus" in str(want[3])

    def test_a_block_with_a_bad_point_raises(self, chart_models):
        pair, other = chart_models["spd(2)"].pair, chart_models["sphere(2)"].pair
        n = pair.ambient_n
        with pytest.raises(ValueError, match="finite"):
            SymPoint(pair, np.full((n, n), np.nan))
        with pytest.raises(ValueError, match="does not belong"):
            symspace._chart_logs(pair, mixed_block(pair) + [base_point(other)])

    def test_one_coordinate_call_per_block(self, chart_models, monkeypatch):
        pair = chart_models["spd(2)"].pair
        monkeypatch.setattr(symspace, "MAX_STACK_FLOATS", 4 * pair.ambient_n ** 2)
        calls = count_calls(monkeypatch, sympair, "_coords_each")
        singles = count_calls(monkeypatch, sympair, "_coords")
        symspace._chart_logs(pair, mixed_block(pair))
        # the live logs of each block of 4: the out-of-ball points take none
        assert [len(args[2]) for args in calls] == [3, 2] and not singles


class TestContainsEach:
    def oracle_contains(self, sub, v, tol):
        # the former per-vector body of LinearSubspace.contains
        v = np.asarray(v, dtype=float)
        return sub.distance(v) <= tol.abs_eps + tol.rel_eps * abs(max(float(np.linalg.norm(v)), 1.0))

    @pytest.mark.parametrize("m,d", [(1, 0), (1, 1), (3, 1), (5, 2), (6, 6)])
    def test_each_row_is_contains(self, m, d):
        rng = np.random.default_rng(41 + m * 7 + d)
        sub = LinearSubspace(m, rng.standard_normal((d, m)))
        inside = rng.standard_normal((6, d)) @ sub.basis * rng.uniform(0.01, 50.0, size=(6, 1))
        off = inside + 1e-9 * rng.standard_normal((6, m)) * rng.uniform(0.0, 60.0, size=(6, 1))
        rows = np.vstack([inside, off, rng.standard_normal((4, m)), np.zeros((1, m))])
        got = sub.contains_each(rows, DEFAULT_TOL)
        assert got == [sub.contains(v, DEFAULT_TOL) for v in rows]
        assert got == [self.oracle_contains(sub, v, DEFAULT_TOL) for v in rows]
        assert sub.contains_all(rows, DEFAULT_TOL) == all(got)
        assert True in got and (False in got or d == m)
        assert sub.contains_each(np.zeros((0, m))) == []


# ---------------------------------------------------------------------------
# the batched relation and membership tests


def relation_points(pair, seed, count=40):
    """Pairs of points near and far from each other, some moved by tau."""
    rng = np.random.default_rng(seed)
    xs = exp_points(pair, [0.3 * rng.standard_normal(pair.dim_minus) for _ in range(count)])
    ys = exp_points(pair, [rng.uniform(0.0, 1.0) * rng.standard_normal(pair.dim_minus) for _ in range(count)])
    ys = [tau_action(pair, pair.random_element(rng, letters=1, scale=0.3), y) if i % 3 == 0 else y for i, y in enumerate(ys)]
    return xs, ys


class TestChartRelation:
    @pytest.mark.parametrize("spec", CHART_MODELS)
    def test_none_exactly_where_the_single_call_catches_domain_error(self, chart_models, spec):
        pair = chart_models[spec].pair
        m = pair.dim_minus
        relation = ChartRelation(pair, LinearSubspace(m, np.eye(m)[:1]))
        xs, ys = relation_points(pair, 21)
        got = relation(xs, ys)
        want = [oracle_relates(pair, relation.n, x, y) for x, y in zip(xs, ys)]
        assert got == want
        assert got == [relation([x], [y])[0] for x, y in zip(xs, ys)]
        assert None in want or spec == "sphere(2)"
        assert True in want or False in want

    def test_pipeline_relation_is_batched(self, chart_models):
        model = parse_model("product(sphere(2),sphere(2))")
        qr = quotient_theorem_pipeline(model.pair, model.subspace_by_name("left_factor").seed)
        assert isinstance(qr.relation.relates, ChartRelation)

    def test_one_stacked_log_per_block(self, chart_models, monkeypatch):
        pair = chart_models["spd(2)"].pair
        relation = ChartRelation(pair, LinearSubspace.zero(pair.dim_minus))
        xs, ys = relation_points(pair, 4, count=12)
        calls = count_calls(monkeypatch, numkernel, "_mat_log_stack")
        relation(xs, ys)
        assert [len(args[0]) for args in calls] == [12]

    def test_empty(self, chart_models):
        pair = chart_models["spd(2)"].pair
        assert ChartRelation(pair, LinearSubspace.zero(pair.dim_minus))([], []) == []

    def test_one_row_wise_verdict_per_call(self, chart_models, monkeypatch):
        pair = chart_models["spd(2)"].pair
        m = pair.dim_minus
        relation = ChartRelation(pair, LinearSubspace(m, np.eye(m)[:1]))
        member = ChartMembership(pair, LinearSubspace(m, np.eye(m)[:1]))
        xs, ys = relation_points(pair, 6, count=12)
        calls = []
        real = LinearSubspace.contains_each
        monkeypatch.setattr(LinearSubspace, "contains_each", lambda sub, v, tol: calls.append(len(v)) or real(sub, v, tol))
        relation(xs, ys)
        member(xs + ys)
        assert len(calls) == 2 and calls[0] <= 12 and calls[1] <= 24

    def test_a_rootless_slice_is_unknown_and_keeps_the_others(self, chart_models):
        # a singular Cartan matrix fails the stacked square root; its pair
        # alone answers None, as the loop of single calls does
        pair = chart_models["spd(2)"].pair
        relation = ChartRelation(pair, LinearSubspace.zero(pair.dim_minus))
        xs, ys = relation_points(pair, 5, count=4)
        singular = SymPoint(pair, np.zeros((pair.ambient_n,) * 2))
        assert oracle_relates(pair, relation.n, singular, ys[2]) is None
        assert relation([singular], [ys[2]]) == [None]
        block = xs[:2] + [singular] + xs[3:]
        got = relation(block, ys)
        assert got == [oracle_relates(pair, relation.n, x, y) for x, y in zip(block, ys)]
        assert got[2] is None and got[:2] + got[3:] == relation(xs[:2] + xs[3:], ys[:2] + ys[3:])


class TestChartMembership:
    @pytest.mark.parametrize("spec", CHART_MODELS)
    def test_none_exactly_where_the_single_call_catches_value_error(self, chart_models, spec):
        model = chart_models[spec]
        pair = model.pair
        seed = LinearSubspace(pair.dim_minus, np.eye(pair.dim_minus)[:1])
        member = generate_integral(seed, pair).membership
        assert isinstance(member, ChartMembership)
        rng = np.random.default_rng(13)
        vs = [r * rng.standard_normal(pair.dim_minus) for r in np.linspace(0.0, 1.3, 24)]
        vs += [t * np.eye(pair.dim_minus)[0] for t in (0.1, -0.4, 0.8)]
        points = exp_points(pair, vs)
        got = member(points)
        want = [oracle_member(pair, member.seed, x) for x in points]
        assert got == want
        assert got == [member([x])[0] for x in points]
        assert True in want and False in want
        assert None in want or spec == "sphere(2)"

    def test_point_of_another_pair_raises(self, chart_models):
        pair, other = chart_models["spd(2)"].pair, chart_models["sphere(2)"].pair
        member = generate_integral(LinearSubspace.zero(pair.dim_minus), pair).membership
        points = [base_point(pair), base_point(other), exp_point(pair, 0.1 * np.ones(pair.dim_minus))]
        for block in (points, points[1:2]):
            with pytest.raises(ValueError, match="point does not belong to the given pair"):
                member(block)
        assert member(points[::2]) == [True, False]

    def test_empty(self, chart_models):
        pair = chart_models["spd(2)"].pair
        assert generate_integral(LinearSubspace.zero(pair.dim_minus), pair).membership([]) == []


def per_point(space):
    """The same subspace with its chart membership called on one-point blocks."""
    member = space.membership
    return dataclasses.replace(space, membership=lambda points: [member([x])[0] for x in points])


class TestSamplersOnBatchedMembership:
    @pytest.mark.parametrize("spec", CHART_MODELS)
    @pytest.mark.parametrize("seed", [0, 9])
    def test_generator_state_and_reports_are_unchanged(self, chart_models, spec, seed):
        pair = chart_models[spec].pair
        m = pair.dim_minus
        n = LinearSubspace(m, np.eye(m)[:1])
        space = generate_integral(n, pair)
        results = []
        for candidate in (space, per_point(space)):
            rng = np.random.default_rng(seed)
            chart = exp_chart_split(candidate, n, rng=rng).as_dict()
            split = split_complement_criterion(candidate, n, n.complement(), rng=rng)
            results.append((json.dumps(chart), split, rng.bit_generator.state))
        assert results[0] == results[1]

    @pytest.mark.parametrize("spec", ["sphere(2)", "spd(2)"])
    def test_refutation_rewinds_the_generator_like_the_loop(self, chart_models, spec):
        # N is generated by e1 and F is span(e1): the first kept sample lies in N
        pair = chart_models[spec].pair
        m = pair.dim_minus
        space = generate_integral(LinearSubspace(m, np.eye(m)[:1]), pair)
        n = LinearSubspace(m, np.eye(m)[1:])
        f_comp = LinearSubspace(m, np.eye(m)[:1])
        states = []
        for candidate in (space, per_point(space)):
            rng = np.random.default_rng(2)
            assert split_complement_criterion(candidate, n, f_comp, rng=rng) is False
            states.append(rng.bit_generator.state)
        assert states[0] == states[1]

    def test_certification_grid_is_one_stacked_log(self, chart_models, monkeypatch):
        pair = chart_models["spd(3)"].pair
        space = generate_integral(LinearSubspace(pair.dim_minus, np.eye(pair.dim_minus)[:2]), pair)
        calls = count_calls(monkeypatch, numkernel, "_mat_log_stack")
        lts_of_subspace(space)
        # the base point and the whole ray grid in one stack
        assert [len(args[0]) for args in calls] == [1 + 2 * len(CERTIFICATION_GRID)]


# ---------------------------------------------------------------------------
# the verify path on the stacked chart


def oracle_reflection_report(model, rng, samples=25):
    pair = model.pair
    vs, moves = [], []
    for _ in range(3 * samples):
        vs.append(0.4 * rng.standard_normal(pair.dim_minus))
        moved = rng.uniform() < 0.25
        moves.append(pair.random_element(rng, letters=1, scale=0.3) if moved else None)
    points = [x if g is None else tau_action(pair, g, x) for x, g in zip(exp_points(pair, vs), moves)]
    res_invol = res_fix = res_auto = 0.0
    for i in range(samples):
        x, y, z = points[3 * i : 3 * i + 3]
        res_invol = max(res_invol, cartan_distance(mu(x, mu(x, y)), y))
        res_fix = max(res_fix, cartan_distance(mu(x, x), x))
        res_auto = max(res_auto, cartan_distance(mu(x, mu(y, z)), mu(mu(x, y), mu(x, z))))
    b = base_point(pair)
    h = 1e-5
    res_neg = 0.0
    for i in range(pair.dim_minus):
        e = np.zeros(pair.dim_minus)
        e[i] = 1.0
        fp = log_point(pair, mu(b, exp_point(pair, h * e)))
        fm = log_point(pair, mu(b, exp_point(pair, -h * e)))
        res_neg = max(res_neg, float(np.linalg.norm((fp - fm) / (2 * h) + e)))
    ratios = []
    worst = 0.0
    for _ in range(4):
        u = rng.standard_normal(pair.dim_minus)
        w = rng.standard_normal(pair.dim_minus)
        u /= max(np.linalg.norm(u), 1e-12)
        w /= max(np.linalg.norm(w), 1e-12)

        def gap(eps):
            got = log_point(pair, mu(exp_point(pair, eps * u), exp_point(pair, eps * w)))
            return float(np.linalg.norm(got - eps * (2 * u - w)))

        g1, g2 = gap(0.08), gap(0.04)
        worst = max(worst, g1 / (0.08 ** 2) if g1 > 1e-13 else 0.0)
        if g1 > 1e-12:
            ratios.append(g1 / max(g2, 1e-300))
    return {
        "symmetry_involutive": res_invol,
        "symmetry_fixes_point": res_fix,
        "symmetry_automorphism": res_auto,
        "base_derivative_plus_id": res_neg,
        "tangent_product_quadratic_bound": worst,
        "tangent_product_richardson_ratios": ratios,
        "max_residual": max(res_invol, res_fix, res_auto, res_neg),
    }


class TestReflectionReport:
    @pytest.mark.parametrize("spec", CHART_MODELS + ("sphere(4)", "spd(4)", "torus_abelian(sqrt2)"))
    @pytest.mark.parametrize("seed", [1, 850414789])
    def test_report_bytes_and_generator_match_the_per_point_suite(self, spec, seed):
        model = parse_model(spec)
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = reflection_axiom_report(model, rng, samples=6)
        want = oracle_reflection_report(model, ref_rng, samples=6)
        assert json.dumps(got) == json.dumps(want)
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_one_stacked_log(self, chart_models, monkeypatch):
        calls = count_calls(monkeypatch, numkernel, "_mat_log_stack")
        singles = count_calls(monkeypatch, symspace, "log_point")
        reflection_axiom_report(chart_models["spd(3)"], np.random.default_rng(0), samples=3)
        m = chart_models["spd(3)"].pair.dim_minus
        assert [len(args[0]) for args in calls] == [2 * m + 8]
        assert singles == []

    def test_a_failing_log_raises_the_single_calls_error(self, chart_models, monkeypatch):
        # every slice but the first fails: the second point's error is raised
        model = chart_models["spd(2)"]
        stacked = numkernel._mat_log_stack

        def failing(a, tol):
            out, _ = stacked(a, tol)
            return out, [None] + [f"slice {i}" for i in range(1, len(a))]

        monkeypatch.setattr(symspace, "_mat_log_stack", failing)
        with pytest.raises(DomainError, match="^slice 1$"):
            reflection_axiom_report(model, np.random.default_rng(0), samples=2)


# ---------------------------------------------------------------------------
# one g_minus triple system per algebra


def count_triple_builds(monkeypatch) -> list:
    """Record the algebra of each build of ``SymmetricLieAlgebra.minus_lts``."""
    original = vars(lts.SymmetricLieAlgebra)["minus_lts"].func
    builds = []

    def counted(g):
        builds.append(g)
        return original(g)

    prop = functools.cached_property(counted)
    prop.__set_name__(lts.SymmetricLieAlgebra, "minus_lts")
    monkeypatch.setattr(lts.SymmetricLieAlgebra, "minus_lts", prop)
    return builds


class TestMinusIdealOnce:
    @pytest.mark.parametrize(
        "spec, ideal",
        [("product(sphere(2),sphere(2))", "left_factor"), ("spd(3)", "center")],
    )
    def test_one_check_per_pipeline_run(self, spec, ideal, monkeypatch):
        # the congruence and the two ideals of a run each check n against
        # the one triple system
        builds = count_triple_builds(monkeypatch)
        model = parse_model(spec)
        n = model.subspace_by_name(ideal).seed
        ideals = count_calls(monkeypatch, lts, "is_ideal")
        quotient_theorem_pipeline(model.pair, n, rng=np.random.default_rng(0))
        g = model.pair.algebra()
        assert builds == [g]
        assert sum(system is g.minus_lts for system, *_ in ideals) == 3

    def test_each_caller_keeps_its_message(self, chart_models):
        pair = chart_models["spd(2)"].pair
        g = pair.algebra()
        # e_0 alone spans no ideal of the spd(2) triple system
        n_full = pair.minus_subspace_to_full(LinearSubspace(pair.dim_minus, np.eye(pair.dim_minus)[:1]))
        for _ in range(2):
            with pytest.raises(ValueError, match="^requires an ideal of the triple system g_minus$"):
                ideal_bracket_plus_n(g, n_full, pair.tol)
            with pytest.raises(ValueError, match="^psi requires an ideal of the triple system g_minus$"):
                psi_representation(g, n_full, pair.tol)

    def test_a_new_subspace_is_checked_again(self, chart_models, monkeypatch):
        source = chart_models["product(sphere(2),spd(2))"].pair
        builds = count_triple_builds(monkeypatch)
        pair = sympair.MatrixSymmetricPair(source.ambient_n, source.plus_mats, source.minus_mats, source.sigma)
        g = pair.algebra()
        m = pair.dim_minus
        ideals = count_calls(monkeypatch, lts, "is_ideal")
        left = pair.minus_subspace_to_full(LinearSubspace(m, np.eye(m)[:2]))
        whole = pair.minus_subspace_to_full(LinearSubspace.full(m))
        for n_full in (left, left, whole, left):
            psi_representation(g, n_full, pair.tol)
        assert [system is g.minus_lts for system, *_ in ideals] == [True] * 4  # every call checks again
        assert builds == [g]
