"""Point blocks are arrays: one validated ``Points(pair, cartans)`` stack.

``Points.of`` is the one converting entry: it checks the pair of every point,
whose matrix ``SymPoint`` checked when the point was made; the public
``Points(pair, cartans)`` checks its stack as ``SymPoint`` checks a matrix.
Every producer of points returns a ``Points``, every consumer takes one (or a
sequence of points through ``Points.of``), and a point of another pair or a
bad Cartan matrix raises ``ValueError``.  Two spies pin the boundary:
``as_matrix`` runs only in public entry points and their bodies, and a
``weak_submersion_check`` block checks no point.
"""

import contextlib
import io
import sys

import numpy as np
import pytest
from oracles import same_bits

from symspaces import catalog, cli, lts, numkernel, quotient, reports, subspace, sympair, symspace
from symspaces.lts import LinearSubspace
from symspaces.quotient import ChartRelation, _discrepancies, quotient_theorem_pipeline, weak_submersion_check
from symspaces.subspace import generate_integral
from symspaces.sympair import PairMorphism
from symspaces.symspace import (
    Points,
    SymPoint,
    base_point,
    cartan_distances,
    exp_points,
    log_points,
    mu,
    mu_points,
    same_points,
    sym_morphism,
    tau_actions,
)

FOREIGN = "point does not belong to the given pair"
A = np.array([[1.0, 2.0], [2.0, 5.0]])


def block(pair, count, seed=0, scale=0.3):
    rng = np.random.default_rng(seed)
    return exp_points(pair, scale * rng.standard_normal((count, pair.dim_minus)))


# ---------------------------------------------------------------------------
# the block type


class TestPoints:
    def test_of_returns_a_block_over_the_pair_as_it_is(self, spd):
        xs = block(spd.pair, 3)
        assert Points.of(spd.pair, xs) is xs

    def test_of_stacks_a_sequence_once(self, spd):
        xs = list(block(spd.pair, 3))
        got = Points.of(spd.pair, xs)
        assert got.pair is spd.pair and got.cartans.shape == (3, 2, 2) and got.cartans.dtype == np.float64
        assert same_bits(got.cartans, np.array([x.cartan for x in xs]))
        assert Points.of(spd.pair, []).cartans.shape == (0, 2, 2)

    def test_of_refuses_another_pair(self, spd, sphere):
        with pytest.raises(ValueError, match=FOREIGN):
            Points.of(spd.pair, block(sphere.pair, 2))
        with pytest.raises(ValueError, match=FOREIGN):
            Points.of(spd.pair, [base_point(spd.pair), base_point(sphere.pair)])

    def test_indexing(self, spd):
        xs = block(spd.pair, 5)
        assert len(xs) == 5
        assert all(isinstance(x, SymPoint) and same_bits(x.cartan, c) for x, c in zip(xs, xs.cartans))
        assert isinstance(xs[1], SymPoint) and same_bits(xs[-1].cartan, xs.cartans[4])
        assert isinstance(xs[np.int64(2)], SymPoint)
        for index, rows in ((slice(1, 4), [1, 2, 3]), ([4, 0, 0], [4, 0, 0]), (np.arange(5) % 2 == 0, [0, 2, 4])):
            got = xs[index]
            assert isinstance(got, Points) and got.pair is spd.pair
            assert same_bits(got.cartans, xs.cartans[rows])

    def test_concatenation(self, spd, sphere):
        xs, ys = block(spd.pair, 2), block(spd.pair, 3, seed=1)
        for other in (ys, list(ys)):
            got = xs + other
            assert got.pair is spd.pair and same_bits(got.cartans, np.concatenate([xs.cartans, ys.cartans]))
        with pytest.raises(ValueError, match=FOREIGN):
            xs + block(sphere.pair, 1)

    def test_the_stack_is_read_only(self, spd):
        mats = np.tile(np.eye(2), (2, 1, 1))
        xs = Points(spd.pair, mats)
        assert mats.flags.writeable  # the caller's array keeps its flags
        for write in (lambda: xs.cartans.__setitem__((0, 0, 0), 2.0), lambda: xs[0].cartan.__setitem__((0, 0), 2.0)):
            with pytest.raises(ValueError, match="read-only"):
                write()


# ---------------------------------------------------------------------------
# SymPoint(pair, cartan) and Points(pair, cartans) check what they are given


class TestPointValidation:
    def test_a_matrix_of_the_wrong_shape_is_refused(self, spd):
        # a 3x3 point over spd(2) used to reach mu_points, which returned a 3x3 point
        with pytest.raises(ValueError, match="expected 2x2 Cartan matrices"):
            SymPoint(spd.pair, np.eye(3))
        with pytest.raises(ValueError, match="expected 2x2 Cartan matrices"):
            SymPoint(spd.pair, np.ones(2))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_a_non_finite_matrix_is_refused(self, spd, bad):
        with pytest.raises(ValueError, match="finite"):
            SymPoint(spd.pair, np.array([[1.0, bad], [bad, 1.0]]))

    def test_a_matrix_whose_norm_overflows_is_refused(self, spd):
        # at 1e200 the Frobenius norms overflowed and same_points read inf <= inf as True
        with pytest.raises(ValueError, match="finite Frobenius norm"):
            SymPoint(spd.pair, 1e200 * A)
        big = SymPoint(spd.pair, 1e150 * A)  # still representable, and told apart
        assert same_points([big], [SymPoint(spd.pair, 3e150 * A)]) == [False]

    @pytest.mark.parametrize("bad", [np.eye(3)[None], np.eye(2), np.full((1, 2, 2), np.nan), (1e200 * A)[None]])
    def test_a_public_block_checks_its_stack(self, spd, bad):
        # Points(pair, cartans) checks as SymPoint does: a 1e200 * A block used
        # to read as the same point as 3e200 * A
        with pytest.raises(ValueError, match="expected 2x2 Cartan matrices|finite"):
            Points(spd.pair, bad)

    def test_a_public_block_keeps_a_copy(self, spd):
        mats = [(0.5 * A).tolist()]
        xs = Points(spd.pair, mats)
        mats[0][0][0] = 7.0
        assert xs.cartans[0, 0, 0] == 0.5 and xs.cartans.dtype == np.float64

    def test_the_point_keeps_a_copy(self, spd):
        data = (0.5 * A).tolist()
        x = SymPoint(spd.pair, data)
        data[0][0] = 7.0
        assert x.cartan[0, 0] == 0.5 and not x.cartan.flags.writeable
        assert x.to_json()["cartan"] == (0.5 * A).tolist()


# ---------------------------------------------------------------------------
# producers return Points, consumers take them or a sequence


class TestProducersAndConsumers:
    def test_producers_return_points(self, spd, product):
        pair = spd.pair
        xs, ys = block(pair, 4), block(pair, 4, seed=1)
        gs = pair.exp(pair.to_matrix(0.2 * np.random.default_rng(2).standard_normal((4, pair.dim))))
        f = product.designated_morphisms[0].morphism
        n = LinearSubspace(pair.dim_minus, np.eye(pair.dim_minus)[:1])
        gaps, rooted = _discrepancies(pair, xs, ys)
        left = product.subspace_by_name("left_factor").seed
        project = quotient_theorem_pipeline(product.pair, left, rng=np.random.default_rng(0)).projection_points
        made = {
            "exp_points": (xs, pair),
            "mu_points": (mu_points(xs, ys), pair),
            "tau_actions": (tau_actions(pair, gs, xs), pair),
            "from_group": (SymPoint.from_group(pair, gs), pair),
            "SymMorphism.many": (f.many(block(f.source, 3)), f.target),
            "PointProjection": (project(block(product.pair, 3)), project.target),
            "_discrepancies": (gaps, pair),
        }
        for name, (got, want_pair) in made.items():
            assert isinstance(got, Points) and got.pair is want_pair, name
        assert rooted.dtype == bool and len(gaps) == int(rooted.sum()) and len(rooted) == 4
        assert ChartRelation(pair, n)(xs, ys) == ChartRelation(pair, n)(list(xs), list(ys))

    def test_an_overflowing_exponential_fails_only_its_own_slice(self, spd):
        # a stack the package computed is wrapped unchecked: an exp_points slice
        # that overflows fails in the chart with the entry check's error, alone
        pair = spd.pair
        with np.errstate(over="ignore", invalid="ignore"):
            xs = exp_points(pair, [[400.0, 0.0, 0.0], [0.1, 0.0, 0.0]])
        assert not np.isfinite(xs.cartans[0]).all()
        with pytest.raises(ValueError, match="matrix entries must be finite"):
            log_points(pair, xs)
        membership = generate_integral(LinearSubspace(pair.dim_minus, np.eye(pair.dim_minus)[:1]), pair).membership
        assert membership(xs) == [None] + membership(xs[1:])
        assert membership(xs[1:]) == [True]

    def test_a_morphism_without_a_group_rule(self, spd):
        f = spd.designated_morphisms[0].morphism
        rule_less = PairMorphism(
            source=f.source, target=f.target, algebra_map=f.pair_morphism.algebra_map, group_rule=None
        )
        empty = sym_morphism(rule_less).many([])
        assert empty.pair is f.target and empty.cartans.shape == (0, 2, 2)
        for call in (sym_morphism(rule_less).many, lambda xs: rule_less.map_group(xs[0].cartan)):
            with pytest.raises(ValueError, match="no group rule"):
                call([base_point(f.source)])

    def test_consumers_answer_a_block_as_its_sequence(self, models):
        for model in models.values():
            pair = model.pair
            xs, ys = block(pair, 6), block(pair, 6, seed=1)
            assert same_points(xs, ys) == same_points(list(xs), list(ys))
            assert cartan_distances(xs, ys) == cartan_distances(list(xs), list(ys))
            logs, seq = log_points(pair, xs), log_points(pair, list(xs))
            assert all(same_bits(a, b) for a, b in zip(logs, seq))
            for sub in model.designated_subspaces:
                if sub.subspace is not None:
                    assert sub.subspace.membership(xs) == sub.subspace.membership(list(xs)), sub.name
            relation = model.extras.get("line_relation")
            if relation is not None:
                assert relation.relates(xs, ys) == relation.relates(list(xs), list(ys))

    def test_one_rule_for_a_point_of_another_pair(self, models):
        spd, sphere = models["spd(2)"], models["sphere(2)"]
        pair = spd.pair
        xs, stranger = list(block(pair, 2)), base_point(sphere.pair)
        bad = xs + [stranger]
        torus = models["torus_abelian(sqrt2)"]
        tx = list(block(torus.pair, 2))
        calls = {
            "mu_points": lambda: mu_points(bad, xs + xs[:1]),
            "same_points": lambda: same_points(bad, xs + xs[:1]),
            "cartan_distances": lambda: cartan_distances(bad, xs + xs[:1]),
            "tau_actions": lambda: tau_actions(pair, np.tile(np.eye(2), (3, 1, 1)), bad),
            "log_points": lambda: log_points(pair, bad),
            "SymMorphism.many": lambda: spd.designated_morphisms[0].morphism.many(bad),
            "ChartRelation": lambda: ChartRelation(pair, LinearSubspace.zero(pair.dim_minus))(bad, xs + xs[:1]),
            "chart membership": lambda: generate_integral(LinearSubspace.zero(pair.dim_minus), pair).membership(bad),
            "torus relation": lambda: torus.extras["line_relation"].relates(tx + [stranger], tx + tx[:1]),
        }
        for sub in (s for model in (spd, sphere, torus) for s in model.designated_subspaces):
            if sub.subspace is not None:
                own = sub.subspace.pair
                other = spd.pair if own is not spd.pair else sphere.pair
                calls[sub.name] = lambda s=sub.subspace, o=other: s.membership([base_point(s.pair), base_point(o)])
        calls["mu"] = lambda: mu(xs[0], stranger)
        for name, call in calls.items():
            with pytest.raises(ValueError, match=FOREIGN):
                call()


# ---------------------------------------------------------------------------
# the boundary, seen by spies


# the public entry points that may check a matrix argument with as_matrix
AS_MATRIX_CALLERS = {
    "symspaces.numkernel.mat_exp",
    "symspaces.numkernel.mat_log",
    "symspaces.numkernel.numerical_rank",
    "symspaces.numkernel.nullspace",
    "symspaces.lts.LinearSubspace.__post_init__",  # the public constructor
    "symspaces.lts.LinearSubspace.span",
    "symspaces.sympair.SigmaRule.__post_init__",
    "symspaces.sympair.SigmaRule.apply",
    "symspaces.sympair.SigmaRule.derivative",
    "symspaces.sympair._coords",  # the body of matrix_coords and matrix_to_minus
    "symspaces.sympair.PairMorphism.map_group",
    "symspaces.sympair.group_sigma",
    "symspaces.symspace.SymPoint.from_group",
    "symspaces.symspace.tau_action",
    "symspaces.symspace.tau_actions",
}

CLI_CASES = (
    ["verify", "--model", "product(sphere(2),sphere(2))", "--seed", "1"],
    ["quotient", "--model", "product(sphere(2),sphere(2))", "--ideal", "left_factor", "--seed", "1"],
    ["subspace", "--model", "spd(2)", "--seed", "1"],
)


def test_as_matrix_runs_only_in_public_entry_points(monkeypatch):
    # each call records its chain of package frames, the immediate caller first
    original = numkernel.as_matrix
    chains = []

    def spy(*args, **kwargs):
        frame, chain = sys._getframe(1), []
        while frame is not None and frame.f_globals.get("__name__", "").startswith("symspaces."):
            chain.append(f"{frame.f_globals['__name__']}.{frame.f_code.co_qualname}")
            frame = frame.f_back
        chains.append(chain)
        return original(*args, **kwargs)

    for mod in (numkernel, lts, sympair, symspace, subspace, quotient, catalog, reports, cli):
        if getattr(mod, "as_matrix", None) is original:
            monkeypatch.setattr(mod, "as_matrix", spy)
    for argv in CLI_CASES:
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv) == 0
    callers = {chain[0] for chain in chains}
    assert callers and callers <= AS_MATRIX_CALLERS, sorted(callers - AS_MATRIX_CALLERS)
    # no block body reaches as_matrix, not even through a public entry point
    for private in ("symspace._chart_logs", "quotient._discrepancies", "symspace.SymMorphism.many"):
        assert not [chain for chain in chains if f"symspaces.{private}" in chain], private


def test_a_submersion_block_checks_no_point(product, monkeypatch):
    left = product.subspace_by_name("left_factor").seed
    qr = quotient_theorem_pipeline(product.pair, left, rng=np.random.default_rng(0))
    checks, inits = [], []
    checked, init = symspace._checked, SymPoint.__init__

    def counted_check(pair, cartans):
        checks.append(cartans.shape)
        return checked(pair, cartans)

    def counted_init(self, pair, cartan):
        inits.append(pair)
        init(self, pair, cartan)

    monkeypatch.setattr(symspace, "_checked", counted_check)
    monkeypatch.setattr(SymPoint, "__init__", counted_init)
    report = weak_submersion_check(qr, np.random.default_rng(1), samples=40)
    assert report["ok"] and checks == [] and inits == []
    SymPoint(product.pair, np.eye(6))  # the spies do see a checked point
    assert len(checks) == 1 and len(inits) == 1
