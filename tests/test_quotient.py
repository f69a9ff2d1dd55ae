import contextlib
import dataclasses
import io
import json

import numpy as np
import pytest
from oracles import squared_projection

from symspaces import cli
from symspaces.lts import LinearSubspace, is_ideal, quotient_lts
from symspaces.quotient import (
    FaithfulnessError,
    QuotientGateError,
    congruence_from_ideal,
    quotient_theorem_pipeline,
    weak_submersion_check,
)
from symspaces.subspace import base_only, lts_of_subspace, whole_space
from symspaces.symspace import base_point, exp_point, lts_of_pair, mu_points


def relates(rel, x, y):
    """The relation's answer on the one-pair block."""
    return rel.relates([x], [y])[0]


def project(qr, x):
    """The projection of the one-point block."""
    return qr.projection_points([x])[0]


@pytest.fixture(scope="module")
def product_quotient(models):
    product = models["product(sphere(2),sphere(2))"]
    sub = product.subspace_by_name("left_factor")
    return quotient_theorem_pipeline(
        product.pair, sub.seed, subspace=sub.subspace, rng=np.random.default_rng(42)
    )


def system_is_ideal(n_space) -> bool:
    """Whether the extracted system of a subspace is an ideal of the ambient system."""
    return is_ideal(lts_of_pair(n_space.pair), lts_of_subspace(n_space))


class TestNormalIdeal:
    def test_base_only_relation_gives_zero_ideal(self, models):
        for model in models.values():
            assert system_is_ideal(base_only(model.pair))

    def test_whole_space_gives_full_ideal(self, models):
        for model in models.values():
            assert system_is_ideal(whole_space(model.pair))

    def test_product_factor_is_normal_with_ideal_system(self, product):
        left = product.subspace_by_name("left_factor").subspace
        assert system_is_ideal(left)

    def test_sphere_circle_is_not_ideal(self, sphere):
        circle = sphere.subspace_by_name("great_circle").subspace
        assert not system_is_ideal(circle)


class TestCongruenceFromIdeal:
    def test_zero_ideal_is_equality_relation(self, sphere, rng):
        rel = congruence_from_ideal(sphere.pair, LinearSubspace.zero(2))
        x = exp_point(sphere.pair, 0.2 * rng.standard_normal(2))
        y = exp_point(sphere.pair, 0.2 * rng.standard_normal(2))
        assert relates(rel, x, x) is True
        assert relates(rel, x, y) is False

    def test_full_ideal_is_total_on_chart(self, sphere, rng):
        rel = congruence_from_ideal(sphere.pair, LinearSubspace.full(2))
        for _ in range(3):
            x = exp_point(sphere.pair, 0.2 * rng.standard_normal(2))
            y = exp_point(sphere.pair, 0.2 * rng.standard_normal(2))
            assert relates(rel, x, y) is True

    def test_product_relates_iff_second_blocks_agree(self, product, rng):
        pair = product.pair
        rel = congruence_from_ideal(pair, LinearSubspace(4, np.eye(4)[:2]))
        v1, v2, w1 = (0.2 * rng.standard_normal(2) for _ in range(3))
        x = exp_point(pair, np.concatenate([v1, v2]))
        y_same = exp_point(pair, np.concatenate([w1, v2]))
        y_diff = exp_point(pair, np.concatenate([w1, v2 + np.array([0.21, 0.0])]))
        assert relates(rel, x, y_same) is True
        assert relates(rel, x, y_diff) is False
        # block oracle: equality of the second-factor Cartan blocks
        assert np.allclose(x.cartan[3:, 3:], y_same.cartan[3:, 3:], atol=1e-12)
        assert not np.allclose(x.cartan[3:, 3:], y_diff.cartan[3:, 3:], atol=1e-3)

    def test_equivalence_axioms_sampled(self, product, rng):
        pair = product.pair
        n = LinearSubspace(4, np.eye(4)[:2])
        rel = congruence_from_ideal(pair, n)
        for _ in range(10):
            v = 0.15 * rng.standard_normal(4)
            x = exp_point(pair, v)
            u = 0.15 * rng.standard_normal(2)
            y = exp_point(pair, v + np.concatenate([u, np.zeros(2)]))
            w = 0.1 * rng.standard_normal(2)
            z = exp_point(pair, v + np.concatenate([w, np.zeros(2)]))
            assert relates(rel, x, x) is True  # reflexive
            assert relates(rel, x, y) is True
            assert relates(rel, y, x) is True  # symmetric
            assert relates(rel, y, z) is True  # transitive chain
            assert relates(rel, x, z) is True

    def test_congruence_respects_mu(self, product, rng):
        pair = product.pair
        rel = congruence_from_ideal(pair, LinearSubspace(4, np.eye(4)[:2]))
        for _ in range(5):
            v = 0.1 * rng.standard_normal(4)
            shift1 = np.concatenate([0.1 * rng.standard_normal(2), np.zeros(2)])
            shift2 = np.concatenate([0.1 * rng.standard_normal(2), np.zeros(2)])
            x1, y1 = exp_point(pair, v), exp_point(pair, v + shift1)
            v2 = 0.1 * rng.standard_normal(4)
            x2, y2 = exp_point(pair, v2), exp_point(pair, v2 + shift2)
            assert relates(rel, x1, y1) is True and relates(rel, x2, y2) is True
            assert rel.relates(mu_points([x1], [x2]), mu_points([y1], [y2])) == [True]

    def test_inner_automorphisms_preserve_classes(self, product, rng):
        pair = product.pair
        rel = congruence_from_ideal(pair, LinearSubspace(4, np.eye(4)[:2]))
        for _ in range(5):
            v = 0.1 * rng.standard_normal(4)
            shift = np.concatenate([0.1 * rng.standard_normal(2), np.zeros(2)])
            x, y = exp_point(pair, v), exp_point(pair, v + shift)
            z = exp_point(pair, 0.1 * rng.standard_normal(4))
            assert relates(rel, x, y) is True
            assert rel.relates(mu_points([z], [x]), mu_points([z], [y])) == [True]

    def test_unknown_outside_chart(self, spd):
        rel = congruence_from_ideal(spd.pair, LinearSubspace.zero(3))
        far = exp_point(spd.pair, np.array([3.0, 0.0, 0.0]))
        assert relates(rel, base_point(spd.pair), far) is None

    def test_requires_ideal(self, sphere):
        line = LinearSubspace(2, np.array([[1.0, 0.0]]))
        with pytest.raises(ValueError):
            congruence_from_ideal(sphere.pair, line)


class TestPipelinePositive:
    def test_product_factor_quotient_shape(self, product_quotient):
        qr = product_quotient
        assert qr.quotient_pair.ambient_n == 3
        assert qr.quotient_pair.dim_minus == 2
        assert qr.l_algebra.dim == 3
        assert qr.report["rank_checks"]["projection_rank"] == 2

    def test_quotient_tensor_matches_quotient_lts(self, product, product_quotient):
        # the pipeline's quotient system equals the abstract m/n tensor
        m = lts_of_pair(product.pair)
        n = product.subspace_by_name("left_factor").seed
        want, _ = quotient_lts(m, n)
        got = lts_of_pair(product_quotient.quotient_pair)
        assert np.max(np.abs(got.tensor - want.tensor)) < 1e-8

    def test_quotient_isomorphic_to_second_sphere(self, product, product_quotient, models):
        sphere = models["sphere(2)"]
        want = lts_of_pair(sphere.pair).tensor
        got = lts_of_pair(product_quotient.quotient_pair).tensor
        assert np.max(np.abs(got - want)) < 1e-8

    def test_projection_functoriality(self, product, product_quotient, rng):
        qr = product_quotient
        pair = product.pair
        for _ in range(100):
            v = 0.3 * rng.standard_normal(4)
            lhs = project(qr, exp_point(pair, v))
            rhs = exp_point(qr.quotient_pair, qr.projection_algebra @ v)
            assert lhs.same(rhs)

    def test_weak_submersion(self, product_quotient, rng):
        assert weak_submersion_check(product_quotient, rng, samples=100)["ok"]

    def test_relates_iff_projections_agree(self, product, product_quotient, rng):
        qr = product_quotient
        pair = product.pair
        agree = 0
        for _ in range(100):
            v = 0.15 * rng.standard_normal(4)
            w = 0.15 * rng.standard_normal(4)
            if rng.uniform() < 0.5:
                w[2:] = v[2:]  # force relation in about half the samples
            x, y = exp_point(pair, v), exp_point(pair, w)
            related = relates(qr.relation, x, y)
            same_proj = project(qr, x).same(project(qr, y))
            assert related is not None
            assert related == same_proj
            agree += int(related)
        assert 0 < agree < 100

    @pytest.mark.parametrize("samples", [0, -3])
    def test_needs_at_least_one_sample(self, product_quotient, samples):
        # with no sample there is no pass rate to report
        with pytest.raises(ValueError, match="samples must be at least 1"):
            weak_submersion_check(product_quotient, np.random.default_rng(0), samples=samples)

    def test_corrupted_projection_fails_check(self, product_quotient):
        # one row of two: the algebra projection has rank 1, so its kernel is not n,
        # while the certificates and the sampled law, which never read it, still pass
        qr = product_quotient
        bad = dataclasses.replace(qr, projection_algebra=qr.projection_algebra[:1])
        result = weak_submersion_check(bad, np.random.default_rng(0), samples=10)
        assert result["ok"] is False
        assert result["sample_pass_rates"]["projection_morphism"] == 1.0
        assert weak_submersion_check(qr, np.random.default_rng(0), samples=10)["ok"] is True

    def test_non_morphism_projection_fails_check(self, product_quotient):
        # squaring the Cartan matrix keeps the linear part and the fibres
        # near the base point, but breaks pi(mu(x, y)) = mu(pi x, pi y)
        qr = product_quotient
        bad = dataclasses.replace(qr, projection_points=squared_projection(qr))
        result = weak_submersion_check(bad, np.random.default_rng(0), samples=30)
        assert result["ok"] is False
        assert result["sample_pass_rates"]["projection_morphism"] < 1.0
        assert weak_submersion_check(qr, np.random.default_rng(0), samples=30) == {
            "ok": True,
            "sample_pass_rates": {"projection_morphism": 1.0, "kernel_relation": 1.0},
        }

    def test_sphere_zero_ideal_gives_adjoint_realization(self, sphere):
        qr = quotient_theorem_pipeline(
            sphere.pair, LinearSubspace.zero(2), rng=np.random.default_rng(42)
        )
        assert qr.quotient_pair.ambient_n == 3
        assert qr.quotient_pair.dim_minus == 2
        got = lts_of_pair(qr.quotient_pair).tensor
        want = lts_of_pair(sphere.pair).tensor
        assert np.max(np.abs(got - want)) < 1e-8
        assert weak_submersion_check(qr, np.random.default_rng(42), samples=30)["ok"]

    def test_full_ideal_gives_point_quotient(self, sphere):
        qr = quotient_theorem_pipeline(
            sphere.pair, LinearSubspace.full(2), rng=np.random.default_rng(42)
        )
        assert qr.quotient_pair.dim_minus == 0
        assert qr.projection_algebra.shape == (0, 2)
        # the projection is constant
        a = project(qr, exp_point(sphere.pair, np.array([0.3, 0.0])))
        b = project(qr, base_point(sphere.pair))
        assert a.same(b)
        assert weak_submersion_check(qr, np.random.default_rng(42), samples=10)["ok"]

    def test_spd_center_gives_trace_free_quotient(self, spd):
        cen = spd.subspace_by_name("center")
        qr = quotient_theorem_pipeline(
            spd.pair, cen.seed, subspace=cen.subspace, rng=np.random.default_rng(42)
        )
        # gl(2) / (center) = sl(2): three dimensions, two of them odd
        assert qr.quotient_pair.ambient_n == 3
        assert qr.quotient_pair.dim_minus == 2
        assert weak_submersion_check(qr, np.random.default_rng(42), samples=50)["ok"]


class TestPipelineNegative:
    def test_dense_line_rejected_by_gate(self, torus):
        line = torus.subspace_by_name("dense_line")
        with pytest.raises(QuotientGateError) as exc:
            quotient_theorem_pipeline(
                torus.pair, line.seed, subspace=line.subspace,
                rng=np.random.default_rng(42),
            )
        assert exc.value.report is not None
        assert exc.value.report["ok"] is False

    def test_spd_zero_ideal_has_no_faithful_realization(self, spd):
        with pytest.raises(FaithfulnessError):
            quotient_theorem_pipeline(
                spd.pair, LinearSubspace.zero(3), rng=np.random.default_rng(42)
            )

    def test_non_ideal_rejected(self, sphere):
        line = LinearSubspace(2, np.array([[1.0, 0.0]]))
        with pytest.raises(ValueError):
            quotient_theorem_pipeline(sphere.pair, line, rng=np.random.default_rng(42))

    def test_mismatched_subspace_rejected(self, product):
        left = product.subspace_by_name("left_factor")
        wrong_seed = LinearSubspace(4, np.eye(4)[2:])
        with pytest.raises(ValueError):
            quotient_theorem_pipeline(
                product.pair, wrong_seed, subspace=left.subspace,
                rng=np.random.default_rng(42),
            )


class TestIdealContainment:
    def test_bracket_ideal_inside_kernel_ideal(self, product_quotient, product):
        from symspaces.lts import ideal_bracket_plus_n

        pair = product.pair
        n_full = pair.minus_subspace_to_full(product.subspace_by_name("left_factor").seed)
        l_brk = ideal_bracket_plus_n(pair.algebra(), n_full)
        assert product_quotient.l_algebra.contains_subspace(l_brk, pair.tol)


class TestRankVerdicts:
    @pytest.mark.parametrize(
        "spec, ideal",
        [("product(sphere(2),sphere(2))", "left_factor"), ("spd(3)", "center"), ("product(sphere(2),sphere(2))", "")],
    )
    def test_a_quotient_run_takes_its_ranks_from_the_tolerance(self, spec, ideal, monkeypatch):
        # no rank verdict of a run goes through numpy's own cutoff
        calls = []
        original = np.linalg.matrix_rank

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "matrix_rank", counted)
        with contextlib.redirect_stdout(io.StringIO()) as out:
            code = cli.main(["quotient", "--model", spec, "--ideal", ideal, "--seed", "1"])
        report = json.loads(out.getvalue())
        assert code == 0 and report["weak_submersion"] is True
        ranks = report["rank_checks"]
        assert ranks["projection_rank"] == ranks["expected_rank"] == report["quotient_dim_minus"]
        assert calls == []
