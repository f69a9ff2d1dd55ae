"""Each single-point operation is the one-element case of its stacked body.

``mat_exp`` on one matrix, ``exp_point``, ``SymPoint.from_group`` on one
matrix, ``log_point`` and the one-element blocks of ``ChartRelation`` and
``ChartMembership`` run their stacked paths on one element.  The oracles
(``oracles``, and ``oracle_from_group`` below) are the separate
single-point bodies they replace, kept verbatim up to naming.  Every
single call must give the oracle's bits, equal the one-element stacked
call, raise the oracle's exception type and message where it raises, and
make exactly one stacked kernel call.  ``log_point`` is the exception: its
log is judged by value against scipy's (``oracle_principal_log``), since a
normal Cartan matrix takes the polar/Cayley route of ``mat_log``.
"""

import dataclasses
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    CHART_MODELS,
    chart_models,  # noqa: F401  (a fixture)
    close_logs,
    count_calls,
    oracle_exp_point,
    oracle_log_point,
    oracle_mat_exp,
    oracle_member,
    oracle_relates,
    same_bits,
)
from test_cartan_first import build_stack, slice_kinds
from test_stacked_chart import relation_points

from symspaces import numkernel, subspace, symspace
from symspaces.catalog import parse_model
from symspaces.lts import LinearSubspace
from symspaces.numkernel import DEFAULT_TOL, DomainError, as_matrix, mat_exp
from symspaces.quotient import ChartRelation
from symspaces.subspace import (
    CERTIFICATION_GRID,
    ChartSplitError,
    ReflectionSubspace,
    base_only,
    exp_chart_split,
    generate_integral,
    lts_of_subspace,
    mu_closure_check,
    split_complement_criterion,
    whole_space,
)
from symspaces.sympair import group_sigma
from symspaces.symspace import SymPoint, exp_point, exp_points, log_point, log_points

def outcome(fn, *args):
    """``("value", result)`` of a call, or ``(exception type, message)``."""
    try:
        return "value", fn(*args)
    except Exception as exc:
        return type(exc), str(exc)


def same_outcome(a, b) -> bool:
    if a[0] != "value" or b[0] != "value":
        return a == b
    x, y = a[1], b[1]
    if isinstance(x, SymPoint):
        return same_bits(x.cartan, y.cartan)
    if isinstance(x, list):
        return len(x) == len(y) and all(same_outcome(("value", u), ("value", w)) for u, w in zip(x, y))
    if isinstance(x, np.ndarray):
        return same_bits(x, y)
    return x == y


# ---------------------------------------------------------------------------
# the single-point bodies that the one-element stacked calls replace


def oracle_from_group(pair, g):
    g = as_matrix(g, square=True)
    return SymPoint(pair, g @ np.linalg.inv(group_sigma(pair, g)))


# ---------------------------------------------------------------------------
# inputs


def chart_vectors(pair, seed):
    """Vectors from the base point to well outside the log's ball."""
    rng = np.random.default_rng(seed)
    return [r * rng.standard_normal(pair.dim_minus) for r in np.linspace(0.0, 1.5, 16)]


def other_pair(spec):
    # a chart model with the same ambient size where there is one
    return {"sphere(2)": "spd(3)", "spd(3)": "sphere(2)"}.get(spec, "spd(2)" if spec != "spd(2)" else "sphere(2)")


def nan_point(pair):
    # a non-finite Cartan matrix is refused at the boundary: it makes no point
    n = pair.ambient_n
    return SymPoint(pair, np.full((n, n), np.nan))


def assert_nan_point_is_refused(pair):
    got = outcome(nan_point, pair)
    assert got[0] is ValueError and "finite" in got[1]


def patch_log_off_minus(monkeypatch, pair):
    """Add a g_plus matrix to every stacked log; return it for the oracle."""
    extra = 0.3 * pair.plus_mats[0]
    stacked = numkernel._mat_log_stack

    def shifted(a, tol):
        out, failed = stacked(a, tol)
        return out + extra, failed

    monkeypatch.setattr(symspace, "_mat_log_stack", shifted)
    return extra


# ---------------------------------------------------------------------------
# mat_exp on one matrix


class TestMatExp:
    @settings(deadline=None, max_examples=60)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(0, 8), kinds=st.lists(slice_kinds(), min_size=1, max_size=4))
    def test_a_matrix_is_the_former_body_and_the_one_slice_stack(self, seed, n, kinds):
        for a in build_stack(seed, n, kinds):
            got = mat_exp(a)
            assert same_bits(got, oracle_mat_exp(a))
            assert same_bits(got, mat_exp(a[None])[0])

    @pytest.mark.parametrize(
        "a",
        [np.full((2, 2), np.inf), np.ones((2, 3)), np.ones(3), 1e20 * np.eye(3)],
        ids=["non-finite", "non-square", "1-D", "over-budget"],
    )
    def test_errors_are_the_former_bodys(self, a):
        want = outcome(oracle_mat_exp, a)
        assert want[0] != "value"
        assert outcome(mat_exp, a) == want

    def test_one_stacked_call(self, monkeypatch):
        calls = count_calls(monkeypatch, numkernel, "_mat_exp_stack")
        mat_exp(build_stack(2, 3, ["large"])[0])
        assert [a.shape for (a,) in calls] == [(1, 3, 3)]


# ---------------------------------------------------------------------------
# exp_point and from_group


class TestPointConstructors:
    @pytest.mark.parametrize("spec", CHART_MODELS)
    def test_exp_point(self, chart_models, spec):
        pair = chart_models[spec].pair
        vs = chart_vectors(pair, 1) + [np.full(pair.dim_minus, 40.0)]
        for v in vs:
            got = outcome(exp_point, pair, v)
            assert same_outcome(got, outcome(oracle_exp_point, pair, v))
            assert same_outcome(got, ("value", exp_points(pair, [v])[0]))

    @pytest.mark.parametrize("v", [np.ones(7), np.full(3, 1e20)], ids=["wrong length", "over budget"])
    def test_exp_point_errors(self, chart_models, v):
        pair = chart_models["spd(2)"].pair
        want = outcome(oracle_exp_point, pair, v)
        assert want[0] != "value"
        assert outcome(exp_point, pair, v) == want
        assert outcome(lambda: exp_points(pair, [v])[0]) == want

    @pytest.mark.parametrize("spec", CHART_MODELS)
    def test_from_group(self, chart_models, spec):
        pair = chart_models[spec].pair
        rng = np.random.default_rng(4)
        gs = [pair.random_element(rng, letters=2, scale=s) for s in (0.1, 0.5, 2.0)]
        gs += list(mat_exp(pair.minus_to_matrix(chart_vectors(pair, 2))))
        for g in gs:
            got = SymPoint.from_group(pair, g)
            assert same_outcome(("value", got), ("value", oracle_from_group(pair, g)))
            assert same_outcome(("value", got), ("value", SymPoint.from_group(pair, g[None])[0]))

    @pytest.mark.parametrize(
        "make",
        [
            lambda n: np.zeros((n, n)),
            lambda n: np.diag([0.0] + [1.0] * (n - 1)),
            lambda n: np.full((n, n), np.nan),
            lambda n: np.ones((n, n + 1)),
        ],
        ids=["zero", "singular", "non-finite", "non-square"],
    )
    def test_from_group_errors(self, chart_models, make):
        pair = chart_models["spd(3)"].pair
        g = make(pair.ambient_n)
        want = outcome(oracle_from_group, pair, g)
        assert want[0] != "value"
        assert outcome(SymPoint.from_group, pair, g) == want
        assert outcome(lambda: SymPoint.from_group(pair, g[None])[0]) == want

    def test_one_stacked_call_each(self, chart_models, monkeypatch):
        pair = chart_models["spd(3)"].pair
        exps = count_calls(monkeypatch, numkernel, "_mat_exp_stack")
        x = exp_point(pair, 0.2 * np.ones(pair.dim_minus))
        assert [a.shape[0] for (a,) in exps] == [1]
        sigmas = count_calls(monkeypatch, symspace, "group_sigma")
        SymPoint.from_group(pair, x.cartan)
        assert [g.shape for _, g in sigmas] == [(1, 3, 3)]
        assert len(exps) == 1


# ---------------------------------------------------------------------------
# log_point, ChartRelation and ChartMembership


class TestChartReaders:
    @pytest.mark.parametrize("spec", CHART_MODELS)
    @pytest.mark.parametrize("off_minus", [False, True], ids=["log in g_minus", "log off g_minus"])
    def test_log_point(self, chart_models, spec, off_minus, monkeypatch):
        pair = chart_models[spec].pair
        other = chart_models[other_pair(spec)].pair
        assert_nan_point_is_refused(pair)
        points = list(exp_points(pair, chart_vectors(pair, 3))) + [exp_point(other, 0.1 * np.ones(other.dim_minus))]
        extra = patch_log_off_minus(monkeypatch, pair) if off_minus else 0.0
        kinds = set()
        for x in points:
            got = outcome(log_point, pair, x)
            want = outcome(oracle_log_point, pair, x, extra)
            # the value is judged against scipy's log, the rest to the message
            assert got[0] == want[0] and (close_logs(got[1], want[1]) if got[0] == "value" else got == want)
            kinds.add(got[0])
            # log_points answers None where log_point raises DomainError
            want = ("value", [None]) if got[0] is DomainError else ("value", [got[1]]) if got[0] == "value" else got
            assert same_outcome(outcome(log_points, pair, [x]), want)
        assert {DomainError, ValueError} <= kinds
        assert ("value" in kinds) != off_minus

    @pytest.mark.parametrize("spec", CHART_MODELS)
    @pytest.mark.parametrize("off_minus", [False, True], ids=["log in g_minus", "log off g_minus"])
    def test_chart_relation(self, chart_models, spec, off_minus, monkeypatch):
        pair = chart_models[spec].pair
        n = LinearSubspace(pair.dim_minus, np.eye(pair.dim_minus)[:1])
        relation = ChartRelation(pair, n)
        xs, ys = (list(column) for column in relation_points(pair, 6, count=12))
        other = chart_models[other_pair(spec)].pair
        if other.ambient_n == pair.ambient_n:
            xs.append(exp_point(other, 0.1 * np.ones(other.dim_minus)))
            ys.append(exp_point(other, -0.2 * np.ones(other.dim_minus)))
        singular = SymPoint(pair, np.zeros((pair.ambient_n,) * 2))  # its square root fails
        xs, ys = xs + [singular, ys[0]], ys + [ys[1], singular]
        extra = patch_log_off_minus(monkeypatch, pair) if off_minus else 0.0
        kinds = set()
        for x, y in zip(xs, ys):
            got = outcome(lambda: relation([x], [y])[0])
            assert got == outcome(oracle_relates, pair, n, x, y, extra)
            kinds.add(got[0] if got[0] != "value" else got[1])
        # a pair of points over another pair raises "does not belong", as every block function does
        assert (ValueError in kinds) == (other.ambient_n == pair.ambient_n) or off_minus
        assert [relation([x], [y])[0] for x, y in zip(xs[-2:], ys[-2:])] == [None, None]
        assert None in kinds
        assert (ValueError in kinds) or not off_minus
        assert (True in kinds or False in kinds) != off_minus

    @pytest.mark.parametrize("spec", CHART_MODELS)
    @pytest.mark.parametrize("off_minus", [False, True], ids=["log in g_minus", "log off g_minus"])
    def test_chart_membership(self, chart_models, spec, off_minus, monkeypatch):
        pair = chart_models[spec].pair
        member = generate_integral(LinearSubspace(pair.dim_minus, np.eye(pair.dim_minus)[:1]), pair).membership
        other = chart_models[other_pair(spec)].pair
        assert_nan_point_is_refused(pair)
        vs = chart_vectors(pair, 5) + [t * np.eye(pair.dim_minus)[0] for t in (0.1, -0.4)]
        points = list(exp_points(pair, vs)) + [exp_point(other, 0.1 * np.ones(other.dim_minus))]
        extra = patch_log_off_minus(monkeypatch, pair) if off_minus else 0.0
        answers = []
        for x in points:
            got = outcome(lambda: member([x])[0])
            assert got == outcome(oracle_member, pair, member.seed, x, extra)
            answers.append(got[1] if got[0] == "value" else got[0])
        # the point of another pair raises at the boundary, and the block with it too
        assert answers[-1] is ValueError and outcome(member, points)[0] is ValueError
        assert (True in answers) != off_minus

    def test_one_stacked_log_each(self, chart_models, monkeypatch):
        pair = chart_models["spd(2)"].pair
        m = pair.dim_minus
        x, y = exp_points(pair, [0.1 * np.ones(m), -0.2 * np.ones(m)])
        member = generate_integral(LinearSubspace(m, np.eye(m)[:1]), pair).membership
        relation = ChartRelation(pair, LinearSubspace(m, np.eye(m)[:1]))
        for call in (lambda: log_point(pair, x), lambda: member([x]), lambda: relation([x], [y])):
            calls = count_calls(monkeypatch, numkernel, "_mat_log_stack")
            call()
            assert [a.shape[0] for a, _ in calls] == [1]
            monkeypatch.undo()


# ---------------------------------------------------------------------------
# the samplers call each membership once per block


def counted_membership(space):
    """``space`` with its membership wrapped to record the size of each block."""
    blocks = []
    original = space.membership

    def counted(points):
        blocks.append(len(points))
        return original(points)

    return dataclasses.replace(space, membership=counted), blocks


class TestMembershipBlocks:
    def count_member_calls(self, monkeypatch):
        calls = []
        original = ReflectionSubspace.member

        def counted(self, x):
            calls.append(x)
            return original(self, x)

        monkeypatch.setattr(ReflectionSubspace, "member", counted)
        return calls

    def test_each_sampler_reads_one_block(self, chart_models, monkeypatch):
        pair = chart_models["spd(2)"].pair
        m = pair.dim_minus
        space, blocks = counted_membership(whole_space(pair))
        calls = self.count_member_calls(monkeypatch)
        lts_of_subspace(space)
        assert blocks == [1 + m * len(CERTIFICATION_GRID)]  # the base point with every ray
        del blocks[:]
        whole = LinearSubspace(m, np.eye(m))
        exp_chart_split(space, whole, rng=np.random.default_rng(0), samples=7, start_radius=0.5)
        assert blocks == [7]
        del blocks[:]
        line = LinearSubspace(m, np.eye(m)[:1])
        assert not split_complement_criterion(space, line, line.complement(), rng=np.random.default_rng(0), samples=9)
        assert blocks == [9]  # the first sample is a member; the block is not followed by another
        assert calls == []  # no sampler goes through ``member``

    def test_a_chart_membership_reads_the_base_point_with_the_grid(self, chart_models, monkeypatch):
        pair = chart_models["spd(2)"].pair
        m = pair.dim_minus
        space = generate_integral(LinearSubspace(m, np.eye(m)[:1]), pair)
        calls = self.count_member_calls(monkeypatch)
        batches = count_calls(monkeypatch, numkernel, "_mat_log_stack")
        lts_of_subspace(space)
        assert calls == []
        assert [a.shape[0] for a, _ in batches] == [1 + len(CERTIFICATION_GRID)]

    @pytest.mark.parametrize(
        "spec,name",
        [
            ("spd(2)", "diagonal"),
            ("spd(2)", "center"),
            ("spd(2)", "whole_space"),
            ("spd(2)", "base_only"),
            ("torus_abelian(sqrt2)", "axis_line"),
            ("torus_abelian(sqrt2)", "dense_line"),
            ("torus_abelian(1/2)", "dense_line"),
            ("product(sphere(2),spd(2))", "left_factor"),
        ],
    )
    def test_catalog_memberships_are_read_in_one_call_per_block(self, spec, name, monkeypatch):
        model = parse_model(spec)
        pair, m = model.pair, model.pair.dim_minus
        if name == "whole_space":
            space = whole_space(pair)
        elif name == "base_only":
            space = base_only(pair)
        else:
            space = model.subspace_by_name(name).subspace
        space, blocks = counted_membership(space)
        calls = self.count_member_calls(monkeypatch)
        n = lts_of_subspace(space)
        assert blocks == [1 + n.dim * len(CERTIFICATION_GRID)]  # the base point with every ray

        del blocks[:]
        try:
            report = exp_chart_split(space, n, rng=np.random.default_rng(0))
        except ChartSplitError as exc:  # the dense line at slope sqrt 2 fails to the floor
            report = exc.report
        assert len(blocks) == len(report.history)  # one block per radius

        del blocks[:]
        size = max(1, symspace.MAX_STACK_FLOATS // pair.ambient_n**2)
        split_complement_criterion(space, n, n.complement(), rng=np.random.default_rng(0), samples=200)
        assert sum(blocks) <= (200 if n.dim < m else 0)
        assert all(b <= size for b in blocks) and len(blocks) == -(-sum(blocks) // size)

        del blocks[:]
        mu_closure_check(space, np.random.default_rng(0), samples=30)
        assert len(blocks) == 2 and blocks[0] == 60  # the samples, then the products of member pairs
        assert calls == []


# ---------------------------------------------------------------------------
# LinearSubspace.distance


def oracle_distance(q, v):
    # the one-row projection of ``distances``, on a 1-D vector
    row = v[None]
    return float(np.linalg.norm(row - (row @ q.T) @ q, axis=-1)[0])


class TestDistance:
    @settings(deadline=None, max_examples=40)
    @given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 8), data=st.data())
    def test_each_row_is_the_one_row_call(self, seed, m, data):
        rng = np.random.default_rng(seed)
        d = data.draw(st.integers(0, m))
        sub = LinearSubspace.span(rng.standard_normal((d, m)), m, DEFAULT_TOL)
        vs = rng.standard_normal((30, m)) * rng.uniform(1e-6, 10.0, size=(30, 1))
        got = sub.distances(vs)
        for i, v in enumerate(vs):
            assert same_bits(got[i], sub.distance(v))
            assert same_bits(sub.distance(v), oracle_distance(sub.basis, v))
            assert sub.distance(v) == pytest.approx(np.linalg.norm(v - sub.project(v)), abs=1e-12)

    def test_chart_split_takes_two_distances_calls_per_radius(self, monkeypatch):
        calls = []

        def spy(name):
            original = getattr(LinearSubspace, name)

            def counted(self, vectors):
                if sys._getframe(1).f_code.co_name == "exp_chart_split":
                    calls.append((name, len(np.atleast_2d(vectors))))
                return original(self, vectors)

            monkeypatch.setattr(LinearSubspace, name, counted)

        spy("distance")
        spy("distances")
        # the dense line is refuted at every radius down to the floor
        sub = parse_model("torus_abelian(sqrt2)").subspace_by_name("dense_line")
        with pytest.raises(ChartSplitError) as failed:
            exp_chart_split(sub.subspace, sub.seed, rng=np.random.default_rng(0), samples=40)
        history = failed.value.report.history
        assert len(history) > 5
        want = []
        for radius, _ in history:  # the samples, then the probes in the ball
            probes = [p for p in sub.subspace.probes(radius, None) if np.linalg.norm(p.vector) <= radius]
            want += [("distances", 40), ("distances", len(probes))]
        assert calls == want
        assert any(count for _, count in want[1::2])
