"""Cartan-first points: the stacked exponential, points that are their
Cartan matrices, and the batched verify suites against the per-sample
suites they replace."""

import struct

import numpy as np
import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import count_calls, oracle_exp_point, oracle_mu, oracle_tau_action, same_bits

from symspaces import numkernel
from symspaces.catalog import parse_model
from symspaces.lts import check_lts_axioms
from symspaces.numkernel import DomainError, mat_exp
from symspaces.reports import VERIFY_GATE, verify_model
from symspaces.symspace import (
    SymPoint,
    apply_symmetries,
    base_point,
    cartan_distance,
    exp_point,
    exp_points,
    log_point,
    lts_of_pair,
    mu_points,
    tau_actions,
)

THETA13 = 5.371920351148152

VERIFY_LADDER = (
    "sphere(2)",
    "sphere(3)",
    "sphere(4)",
    "sphere(5)",
    "spd(2)",
    "spd(3)",
    "spd(4)",
    "spd(5)",
    "grassmann(2,5)",
    "product(sphere(3),sphere(3))",
    "product(spd(3),spd(3))",
    "product(grassmann(2,5),grassmann(2,5))",
)
# spd(4) at both seeds reads a max_residual within 20% of the 1e-8 gate
PROGRAM_SEEDS = (850414789, 1704495683)


def slice_kinds():
    # zero slices, slices below theta_13 (no squaring) and above it (squaring)
    return st.sampled_from(("zero", "small", "large"))


def build_stack(seed, n, kinds):
    rng = np.random.default_rng(seed)
    stack = np.zeros((len(kinds), n, n))
    for i, kind in enumerate(kinds):
        if kind == "zero" or n == 0:
            continue
        a = rng.standard_normal((n, n))
        lo, hi = (0.01, 0.9 * THETA13) if kind == "small" else (1.1 * THETA13, 60.0)
        stack[i] = a * (rng.uniform(lo, hi) / np.linalg.norm(a, 1))
    return stack


class TestStackedMatExp:
    @settings(deadline=None, max_examples=60)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(0, 8),
        kinds=st.lists(slice_kinds(), min_size=0, max_size=8),
    )
    def test_each_slice_is_the_single_call(self, seed, n, kinds):
        stack = build_stack(seed, n, kinds)
        out = mat_exp(stack)
        assert out.shape == stack.shape
        for i in range(len(kinds)):
            assert same_bits(out[i], mat_exp(stack[i]))

    @settings(deadline=None, max_examples=40)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 8),
        kinds=st.lists(slice_kinds(), min_size=1, max_size=8),
    )
    def test_one_norm_is_numpys(self, seed, n, kinds):
        stack = build_stack(seed, n, kinds)
        norms = numkernel._norm1(stack)
        for i in range(len(kinds)):
            assert same_bits(norms[i], np.linalg.norm(stack[i], 1))
            assert same_bits(numkernel._norm1(stack[i]), np.linalg.norm(stack[i], 1))

    def test_mixed_stack_squares_each_slice_its_own_count(self):
        stack = build_stack(3, 4, ["large", "zero", "small", "large"])
        out = mat_exp(stack)
        for i in range(4):
            assert same_bits(out[i], mat_exp(stack[i]))
        assert same_bits(out[1], np.eye(4))

    def test_input_is_not_modified(self):
        stack = build_stack(5, 3, ["large", "small"])
        before = stack.copy()
        mat_exp(stack)
        assert same_bits(stack, before)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_slice_raises_like_the_single_call(self, bad):
        stack = build_stack(1, 3, ["small", "small", "large"])
        stack[1, 0, 2] = bad
        with pytest.raises(ValueError) as single:
            mat_exp(stack[1])
        with pytest.raises(ValueError) as stacked:
            mat_exp(stack)
        assert type(stacked.value) is type(single.value)
        assert str(stacked.value) == str(single.value)

    def test_non_square_stack_raises_like_the_single_call(self):
        stack = np.ones((2, 3, 4))
        with pytest.raises(ValueError) as single:
            mat_exp(stack[0])
        with pytest.raises(ValueError) as stacked:
            mat_exp(stack)
        assert str(stacked.value) == str(single.value)

    def test_squaring_budget_raises_like_the_single_call(self):
        stack = build_stack(2, 3, ["small", "large", "small"])
        stack[1] *= 1e20
        with pytest.raises(DomainError) as single:
            mat_exp(stack[1])
        with pytest.raises(DomainError) as stacked:
            mat_exp(stack)
        assert str(stacked.value) == str(single.value)

    def test_overflowing_norm_is_a_budget_error(self):
        a = np.full((2, 2), 1e308)
        with np.errstate(over="ignore"):
            with pytest.raises(DomainError, match="scaling budget"):
                mat_exp(a)
            with pytest.raises(DomainError, match="scaling budget"):
                mat_exp(a[None])

    def test_rejects_higher_rank_arrays(self):
        with pytest.raises(ValueError, match="ndim=4"):
            mat_exp(np.zeros((1, 1, 2, 2)))


class TestExpPoints:
    @pytest.mark.parametrize("spec", ["sphere(3)", "spd(3)", "product(sphere(2),spd(2))", "grassmann(2,5)"])
    def test_equals_exp_point_bit_for_bit(self, spec):
        pair = parse_model(spec).pair
        rng = np.random.default_rng(11)
        vs = [s * rng.standard_normal(pair.dim_minus) for s in (0.0, 0.1, 0.4, 2.0, 9.0)]
        batch = exp_points(pair, vs)
        single = [exp_point(pair, v) for v in vs]
        for got, want in zip(batch, single):
            assert same_bits(got.cartan, want.cartan)

    def test_empty_batch(self, sphere):
        empty = exp_points(sphere.pair, [])
        assert empty.pair is sphere.pair and empty.cartans.shape == (0, 3, 3) and list(empty) == []

    def test_wrong_length_row_raises_like_exp_point(self, sphere):
        with pytest.raises(ValueError, match="wrong length"):
            exp_points(sphere.pair, [np.zeros(2), np.zeros(3)])


def close_points(x, y, rel=1e-12) -> bool:
    return np.linalg.norm(x.cartan - y.cartan) <= rel * max(np.linalg.norm(x.cartan), 1.0)


class TestCartanPoints:
    @pytest.mark.parametrize(
        "spec, kind",
        [
            ("sphere(2)", "conjugation"),
            ("spd(2)", "transpose_inverse"),
            ("product(sphere(2),spd(2))", "composite"),
        ],
    )
    def test_cartan_matrices_are_the_group_formulas(self, spec, kind):
        # each point operation is the point of the group element it stands for
        pair = parse_model(spec).pair
        assert pair.sigma.kind == kind
        rng = np.random.default_rng(4)
        v, w = (0.4 * rng.standard_normal(pair.dim_minus) for _ in range(2))
        gx, gy = mat_exp(pair.minus_to_matrix(np.array([v, w])))
        x, y = exp_point(pair, v), exp_point(pair, w)
        g = pair.random_element(rng, letters=1, scale=0.3)
        moved = tau_actions(pair, g[None], [y])[0]
        gm = g @ gy
        sig = pair.sigma
        assert close_points(x, SymPoint.from_group(pair, gx)) and close_points(y, SymPoint.from_group(pair, gy))
        assert close_points(moved, SymPoint.from_group(pair, gm))
        prod = SymPoint.from_group(pair, gx @ np.linalg.inv(sig.apply(gx)) @ sig.apply(gm))
        assert close_points(mu_points([x], [moved])[0], prod)

    def test_eager_points_compute_nothing(self, spd, monkeypatch):
        calls = count_calls(monkeypatch, numkernel, "mat_exp")
        b = base_point(spd.pair)
        x = SymPoint.from_group(spd.pair, np.diag([2.0, 1.0]))
        assert same_bits(b.cartan, np.eye(2)) and same_bits(x.cartan, np.diag([4.0, 1.0]))
        assert calls == []

    def test_tau_action_still_checks_invertibility_eagerly(self, spd):
        x = exp_point(spd.pair, np.array([0.1, 0.2, 0.3]))
        with pytest.raises(ValueError, match="invertible"):
            tau_actions(spd.pair, np.zeros((1, 2, 2)), [x])

    def test_exp_point_budget_error_raises_at_construction(self, spd):
        with pytest.raises(DomainError):
            exp_point(spd.pair, np.array([1e20, 0.0, 0.0]))

    def test_long_fold_is_the_eager_fold(self, spd):
        # a fold of 3000 symmetries, against an eager fold of Cartan products
        pair = spd.pair
        rng = np.random.default_rng(9)
        word = exp_points(pair, [0.001 * rng.standard_normal(3) for _ in range(3000)])
        folded = apply_symmetries(word, base_point(pair))
        eager = base_point(pair)
        for p in reversed(word):
            eager = SymPoint(pair, p.cartan @ np.linalg.inv(eager.cartan) @ p.cartan)
        assert same_bits(folded.cartan, eager.cartan)


# ---------------------------------------------------------------------------
# oracle: the per-sample suites


def oracle_one_param(pair, v, t):
    return oracle_exp_point(pair, t * np.asarray(v, dtype=float))


def oracle_random_point(model, rng, scale=0.4):
    pair = model.pair
    v = scale * rng.standard_normal(pair.dim_minus)
    x = oracle_exp_point(pair, v)
    if rng.uniform() < 0.25:
        g = pair.random_element(rng, letters=1, scale=0.3)
        x = oracle_tau_action(pair, g, x)
    return x


def oracle_reflection_axiom_report(model, rng, samples=25):
    pair = model.pair
    res_invol = res_fix = res_auto = 0.0
    for _ in range(samples):
        x = oracle_random_point(model, rng)
        y = oracle_random_point(model, rng)
        z = oracle_random_point(model, rng)
        res_invol = max(res_invol, cartan_distance(oracle_mu(x, oracle_mu(x, y)), y))
        res_fix = max(res_fix, cartan_distance(oracle_mu(x, x), x))
        res_auto = max(
            res_auto,
            cartan_distance(oracle_mu(x, oracle_mu(y, z)), oracle_mu(oracle_mu(x, y), oracle_mu(x, z))),
        )

    b = base_point(pair)
    h = 1e-5
    res_neg = 0.0
    for i in range(pair.dim_minus):
        e = np.zeros(pair.dim_minus)
        e[i] = 1.0
        fp = log_point(pair, oracle_mu(b, oracle_exp_point(pair, h * e)))
        fm = log_point(pair, oracle_mu(b, oracle_exp_point(pair, -h * e)))
        res_neg = max(res_neg, float(np.linalg.norm((fp - fm) / (2 * h) + e)))

    ratios = []
    worst = 0.0
    for _ in range(4):
        u = rng.standard_normal(pair.dim_minus)
        w = rng.standard_normal(pair.dim_minus)
        u /= max(np.linalg.norm(u), 1e-12)
        w /= max(np.linalg.norm(w), 1e-12)

        def gap(eps):
            got = log_point(pair, oracle_mu(oracle_exp_point(pair, eps * u), oracle_exp_point(pair, eps * w)))
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


def oracle_functoriality_report(model, rng, samples=50):
    out = {}
    for named in model.designated_morphisms:
        f = named.morphism
        worst = 0.0
        amap = f.minus_map
        for _ in range(samples):
            v = 0.3 * rng.standard_normal(f.source.dim_minus)
            lhs = f(oracle_exp_point(f.source, v))
            rhs = oracle_exp_point(f.target, amap @ v)
            worst = max(worst, cartan_distance(lhs, rhs))
        out[named.name] = worst
    return out


def oracle_one_param_report(model, rng, samples=10):
    pair = model.pair
    worst = 0.0
    for _ in range(samples):
        v = 0.3 * rng.standard_normal(pair.dim_minus)
        s, t = rng.uniform(-1.0, 1.0, size=2)
        lhs = oracle_mu(oracle_one_param(pair, v, s), oracle_one_param(pair, v, t))
        rhs = oracle_one_param(pair, v, 2 * s - t)
        worst = max(worst, cartan_distance(lhs, rhs))
    return worst


def oracle_verify_model(model, rng, samples=25):
    pair = model.pair
    report = {
        "model": model.name,
        "params": {k: str(v) for k, v in model.params.items()},
        "label": pair.label,
        "dim_minus": pair.dim_minus,
    }
    report["pair"] = pair.validate(rng)
    report["algebra"] = pair.algebra().validate()
    report["lts_axioms"] = check_lts_axioms(lts_of_pair(pair)).as_dict()
    report["reflection"] = oracle_reflection_axiom_report(model, rng, samples)
    report["one_param_homomorphism"] = oracle_one_param_report(model, rng)
    report["exp_functoriality"] = oracle_functoriality_report(model, rng)
    worst = max(
        report["pair"]["max_residual"],
        report["algebra"]["max_residual"],
        report["lts_axioms"]["max_residual"],
        report["reflection"]["max_residual"],
        report["one_param_homomorphism"],
        max(report["exp_functoriality"].values(), default=0.0),
    )
    report["max_residual"] = worst
    report["ok"] = bool(worst < VERIFY_GATE)
    return report


def assert_same_report(got, want, path="report"):
    assert type(got) is type(want), path
    if isinstance(want, dict):
        assert got.keys() == want.keys(), path
        for key in want:
            assert_same_report(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), path
        for i, (a, b) in enumerate(zip(got, want)):
            assert_same_report(a, b, f"{path}[{i}]")
    elif isinstance(want, float):
        assert struct.pack("<d", got) == struct.pack("<d", want), (path, got, want)
    else:
        assert got == want, path


@pytest.fixture(scope="module")
def ladder():
    return {spec: parse_model(spec) for spec in VERIFY_LADDER}


class TestBatchedSuitesMatchTheOracle:
    @pytest.mark.parametrize("seed", PROGRAM_SEEDS)
    @pytest.mark.parametrize("spec", VERIFY_LADDER)
    def test_verify_report_is_bit_identical(self, ladder, spec, seed):
        model = ladder[spec]
        got = verify_model(model, np.random.default_rng(seed))
        want = oracle_verify_model(model, np.random.default_rng(seed))
        assert_same_report(got, want)

    def test_verify_makes_a_third_of_the_eager_exponentials(self, ladder, monkeypatch):
        model = ladder["sphere(3)"]
        calls = count_calls(monkeypatch, numkernel, "_mat_exp_stack")  # the body of every exponential
        points = count_calls(monkeypatch, oracles, "oracle_mat_exp")
        oracle_verify_model(model, np.random.default_rng(1))
        eager = len(calls) + len(points)
        calls.clear()
        verify_model(model, np.random.default_rng(1))
        assert 0 < 3 * len(calls) <= eager
