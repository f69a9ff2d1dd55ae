import numpy as np
import pytest

from symspaces.lts import LinearSubspace
from symspaces.subspace import (
    CertificationError,
    ChartSplitError,
    ReflectionSubspace,
    base_only,
    exp_chart_split,
    generate_integral,
    kernel_subspace,
    lts_of_subspace,
    lts_roundtrip_check,
    mu_closure_check,
    preimage_subspace,
    split_complement_criterion,
    whole_space,
)
from symspaces.sympair import MatrixSymmetricPair, PairMorphism, SigmaRule
from symspaces.symspace import base_point, exp_point, mu, sym_morphism


class TestLtsOfSubspace:
    def test_whole_space_gives_full_system(self, models):
        for model in models.values():
            n = lts_of_subspace(whole_space(model.pair))
            assert n.dim == model.pair.dim_minus

    def test_base_only_gives_zero(self, models):
        for model in models.values():
            n = lts_of_subspace(base_only(model.pair))
            assert n.dim == 0

    def test_sphere_circle_is_one_dimensional(self, sphere):
        circle = sphere.subspace_by_name("great_circle")
        n = lts_of_subspace(circle.subspace)
        assert n.dim == 1
        # matches the +1 eigenspace of the reflection derivative: span{e0}
        assert n.contains(np.array([1.0, 0.0]))

    def test_certification_failure_returns_witness(self, sphere):
        # candidate says "everything" but membership holds only at the base
        pair = sphere.pair
        ident = sphere.designated_morphisms[0].morphism

        def only_base(points):
            return [x.is_base() for x in points]

        fake = ReflectionSubspace(
            pair=pair, membership=only_base, kind="fixed_point",
            label="fake", automorphism=ident,
        )
        with pytest.raises(CertificationError) as exc:
            lts_of_subspace(fake)
        v, t = exc.value.witness
        assert v is not None and abs(t) >= 0.1

    def test_spd_diagonal_candidate_from_constraints(self, spd):
        diag = spd.subspace_by_name("diagonal")
        n = lts_of_subspace(diag.subspace)
        assert n.dim == 2
        for row in n.basis:
            # diagonal directions only: the off-diagonal coordinate vanishes
            assert abs(row[2]) <= 1e-7

    def test_spd_center_candidate(self, spd):
        cen = spd.subspace_by_name("center")
        n = lts_of_subspace(cen.subspace)
        assert n.dim == 1
        assert n.contains(np.array([1.0, 1.0, 0.0]) / np.sqrt(2))


class TestGenerateIntegral:
    def test_zero_seed_contains_only_base(self, spd, rng):
        pair = spd.pair
        sub = generate_integral(LinearSubspace.zero(pair.dim_minus), pair)
        assert sub.member(base_point(pair)) is True
        v = 0.2 * rng.standard_normal(pair.dim_minus)
        assert sub.member(exp_point(pair, v)) is False

    def test_full_seed_true_on_chart_domain(self, spd, rng):
        pair = spd.pair
        sub = generate_integral(LinearSubspace.full(pair.dim_minus), pair)
        for _ in range(10):
            v = 0.2 * rng.standard_normal(pair.dim_minus)
            assert sub.member(exp_point(pair, v)) is True

    def test_unknown_outside_chart(self, spd):
        pair = spd.pair
        sub = generate_integral(LinearSubspace.full(pair.dim_minus), pair)
        far = exp_point(pair, np.array([3.0, 0.0, 0.0]))
        assert sub.member(far) is None

    def test_spd_diagonal_seed_membership(self, spd, rng):
        pair = spd.pair
        seed = LinearSubspace(pair.dim_minus, np.eye(pair.dim_minus)[:2])
        sub = generate_integral(seed, pair)
        hits = 0
        for _ in range(100):
            v = rng.standard_normal(pair.dim_minus)
            v *= 0.2 / max(np.linalg.norm(v), 1e-12)  # stay in the chart domain
            if rng.uniform() < 0.5:
                v[2] = 0.0  # diagonal direction
            want = abs(v[2]) <= 1e-10
            got = sub.member(exp_point(pair, v))
            assert got == want
            hits += int(want)
        assert 0 < hits < 100

    def test_rejects_non_subsystem_seed(self, product):
        pair = product.pair
        tilted = LinearSubspace(
            4, np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 1.0, 0.0]])
        )
        from symspaces.lts import is_subsystem
        from symspaces.symspace import lts_of_pair

        if not is_subsystem(lts_of_pair(pair), tilted):
            with pytest.raises(ValueError):
                generate_integral(tilted, pair)

    def test_mu_closure_sampled(self, models, rng):
        for model in models.values():
            for sub in model.designated_subspaces:
                space = generate_integral(sub.seed, model.pair)
                assert mu_closure_check(space, rng)


class TestRoundtrip:
    def test_zero_and_full(self, models):
        for model in models.values():
            m = model.pair.dim_minus
            assert lts_roundtrip_check(LinearSubspace.zero(m), model.pair)
            assert lts_roundtrip_check(LinearSubspace.full(m), model.pair)

    def test_designated_seeds(self, models):
        for model in models.values():
            for sub in model.designated_subspaces:
                assert lts_roundtrip_check(sub.seed, model.pair), (model.name, sub.name)


class TestChartSplit:
    def test_whole_space_passes_at_initial_radius(self, spd, rng):
        space = whole_space(spd.pair)
        n = lts_of_subspace(space)
        rep = exp_chart_split(space, n, rng)
        assert rep.ok and rep.radius == 1.0

    def test_sphere_circle_passes_at_half(self, sphere, rng):
        circle = sphere.subspace_by_name("great_circle")
        n = lts_of_subspace(circle.subspace)
        rep = exp_chart_split(circle.subspace, n, rng, start_radius=0.5)
        assert rep.ok and rep.radius == 0.5

    def test_dense_line_fails_to_the_floor(self, torus, rng):
        line = torus.subspace_by_name("dense_line")
        n = lts_of_subspace(line.subspace)
        with pytest.raises(ChartSplitError) as exc:
            exp_chart_split(line.subspace, n, rng)
        rep = exc.value.report
        assert not rep.ok
        assert rep.radius <= 1e-3
        assert rep.witness is not None and np.linalg.norm(rep.witness) > 0
        # every attempted radius carried a violation
        assert all(v > 0 for _, v in rep.history)

    def test_axis_line_passes(self, torus, rng):
        axis = torus.subspace_by_name("axis_line")
        n = lts_of_subspace(axis.subspace)
        rep = exp_chart_split(axis.subspace, n, rng)
        assert rep.ok


class TestSplitComplement:
    def test_base_only_with_full_complement(self, spd, rng):
        space = base_only(spd.pair)
        n = LinearSubspace.zero(spd.pair.dim_minus)
        assert split_complement_criterion(space, n, n.complement(), rng)

    def test_sphere_circle_with_orthogonal_complement(self, sphere, rng):
        circle = sphere.subspace_by_name("great_circle")
        n = lts_of_subspace(circle.subspace)
        assert split_complement_criterion(circle.subspace, n, n.complement(), rng)

    def test_dense_line_is_refuted_by_lattice_witness(self, torus, rng):
        line = torus.subspace_by_name("dense_line")
        n = lts_of_subspace(line.subspace)
        assert split_complement_criterion(line.subspace, n, n.complement(), rng) is False

    def test_non_complement_rejected(self, spd, rng):
        space = whole_space(spd.pair)
        n = lts_of_subspace(space)  # full
        with pytest.raises(ValueError):
            split_complement_criterion(space, n, LinearSubspace.full(spd.pair.dim_minus), rng)


class TestPreimageAndKernel:
    def test_identity_preimage_is_same_membership(self, sphere, rng):
        ident = sphere.designated_morphisms[0].morphism
        circle = sphere.subspace_by_name("great_circle").subspace
        pre = preimage_subspace(ident, circle)
        for _ in range(10):
            v = 0.3 * rng.standard_normal(2)
            x = exp_point(sphere.pair, v)
            assert pre.member(x) == circle.member(x)
        n = lts_of_subspace(pre)
        assert n.dim == 1

    def test_whole_target_pulls_back_to_whole_source(self, product):
        proj = next(m for m in product.designated_morphisms if m.name == "proj_left").morphism
        pre = preimage_subspace(proj, whole_space(proj.target))
        n = lts_of_subspace(pre)
        assert n.dim == product.pair.dim_minus

    def test_diagonal_preimage_of_left_factor_is_base(self, product):
        diag = next(m for m in product.designated_morphisms if m.name == "diag_embed").morphism
        left = product.subspace_by_name("left_factor").subspace
        pre = preimage_subspace(diag, left)
        n = lts_of_subspace(pre)
        # A^-1(m1 + 0) for A = diagonal embedding is {v : (v, v) in m1 + 0} = 0
        assert n.dim == 0
        x = exp_point(diag.source, np.array([0.3, 0.1]))
        assert pre.member(x) is False
        assert pre.member(base_point(diag.source)) is True

    def test_kernel_of_projection_is_other_factor(self, product):
        proj = next(m for m in product.designated_morphisms if m.name == "proj_left").morphism
        ker = kernel_subspace(proj)
        n = lts_of_subspace(ker)
        assert n.dim == 2
        # oracle: nullspace of the minus map, computed directly
        from symspaces.numkernel import nullspace

        want = nullspace(proj.minus_map)
        assert n.equals(LinearSubspace(4, want.T))
        x = exp_point(product.pair, np.array([0.0, 0.0, 0.2, -0.1]))
        assert ker.member(x) is True
        y = exp_point(product.pair, np.array([0.2, 0.0, 0.0, 0.0]))
        assert ker.member(y) is False

    def test_constant_map_kernel_is_everything(self, sphere, rng):
        trivial_pair = MatrixSymmetricPair(
            ambient_n=1,
            plus_mats=np.zeros((0, 1, 1)),
            minus_mats=np.zeros((0, 1, 1)),
            sigma=SigmaRule("conjugation", np.eye(1)),
            label="point",
        )
        collapse = PairMorphism(
            source=sphere.pair,
            target=trivial_pair,
            algebra_map=np.zeros((0, 3)),
            group_rule=lambda g: np.eye(1),
            label="collapse",
        )
        f = sym_morphism(collapse)
        ker = kernel_subspace(f)
        n = lts_of_subspace(ker)
        assert n.dim == sphere.pair.dim_minus
        x = exp_point(sphere.pair, 0.4 * rng.standard_normal(2))
        assert ker.member(x) is True

    def test_not_pointed_rejected(self, product, sphere):
        diag = next(m for m in product.designated_morphisms if m.name == "diag_embed").morphism

        def never(points):
            return [False] * len(points)

        unpointed = ReflectionSubspace(
            pair=product.pair, membership=never, kind="generated",
            label="empty", seed=LinearSubspace.zero(4),
        )
        with pytest.raises(ValueError):
            preimage_subspace(diag, unpointed)


class TestPreimageRankLaw:
    def test_rank_exact_equality_on_catalog_morphisms(self, product, sphere):
        # Lts(f^-1(N2)) = A^-1(n2), rank-exact, on three catalog morphisms
        left = product.subspace_by_name("left_factor").subspace
        diag = next(m for m in product.designated_morphisms if m.name == "diag_embed").morphism
        swap = next(m for m in product.designated_morphisms if m.name == "swap").morphism
        proj = next(m for m in product.designated_morphisms if m.name == "proj_left").morphism

        cases = [
            (diag, left),
            (swap, left),
            (proj, base_only(proj.target)),
        ]
        for f, n2_space in cases:
            pre = preimage_subspace(f, n2_space)
            extracted = lts_of_subspace(pre)
            n2 = lts_of_subspace(n2_space)
            comp = n2.complement().basis
            from symspaces.numkernel import nullspace

            if comp.shape[0]:
                pullback = nullspace(comp @ f.minus_map).T
            else:
                pullback = np.eye(f.source.dim_minus)
            want = LinearSubspace.span(pullback, f.source.dim_minus)
            assert extracted.dim == want.dim
            assert extracted.equals(want)


class TestKernelOfInjective:
    def test_kernel_of_injective_morphism_is_base_only(self, product, rng):
        diag = next(m for m in product.designated_morphisms if m.name == "diag_embed").morphism
        ker = kernel_subspace(diag)
        n = lts_of_subspace(ker)
        assert n.dim == 0
        assert ker.member(base_point(diag.source)) is True
        v = 0.2 * rng.standard_normal(diag.source.dim_minus)
        assert ker.member(exp_point(diag.source, v)) is False
