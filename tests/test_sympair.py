import math

import numpy as np
import pytest
import scipy.linalg
from oracles import in_fixed_group, relation_group_product, trotter_group_commutator, trotter_group_sum

from symspaces.lts import LinearSubspace, VerificationError
from symspaces.numkernel import DEFAULT_TOL, mat_exp
from symspaces.sympair import (
    MatrixSymmetricPair,
    PairMorphism,
    SigmaRule,
    apply_pair_morphism,
    group_sigma,
)

E11 = np.array([[1.0, 0.0], [0.0, 0.0]])
E12 = np.array([[0.0, 1.0], [0.0, 0.0]])
E21 = E12.T
E22 = np.array([[0.0, 0.0], [0.0, 1.0]])


def rotation(theta: float, n: int = 3):
    r = np.eye(n)
    r[0, 0] = r[1, 1] = math.cos(theta)
    r[0, 1] = -math.sin(theta)
    r[1, 0] = math.sin(theta)
    return r


class TestSigmaRule:
    def test_conjugation_needs_theta(self):
        with pytest.raises(ValueError):
            SigmaRule("conjugation")

    def test_theta_must_square_to_pm_identity(self):
        with pytest.raises(ValueError):
            SigmaRule("conjugation", np.diag([2.0, 1.0]))

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            SigmaRule("flip")

    def test_json_roundtrip(self):
        rule = SigmaRule("conjugation", np.diag([1.0, -1.0]))
        back = SigmaRule.from_json(rule.to_json())
        assert back.kind == rule.kind
        assert np.allclose(back.theta, rule.theta)


class TestGroupSigma:
    def test_identity_fixed(self, models):
        for model in models.values():
            n = model.pair.ambient_n
            assert np.allclose(group_sigma(model.pair, np.eye(n)), np.eye(n))

    def test_spd_inverse_transpose_hand_value(self, spd):
        got = group_sigma(spd.pair, np.diag([2.0, 3.0]))
        assert np.allclose(got, np.diag([0.5, 1.0 / 3.0]), atol=1e-14)

    def test_sphere_pole_rotation_is_fixed(self, sphere):
        # rotations of the first two axes commute with diag(1,1,-1)
        r = rotation(0.7)
        assert np.allclose(group_sigma(sphere.pair, r), r, atol=1e-14)
        assert in_fixed_group(sphere.pair, r)

    def test_involutive_on_random_elements(self, models, rng):
        for model in models.values():
            pair = model.pair
            for _ in range(100):
                g = pair.random_element(rng)
                gg = group_sigma(pair, group_sigma(pair, g))
                assert np.linalg.norm(gg - g) < 1e-9

    def test_rejects_singular(self, spd):
        with pytest.raises(ValueError):
            group_sigma(spd.pair, np.zeros((2, 2)))


class TestFixedGroup:
    def test_spd_orthogonal_is_fixed(self, spd):
        r = np.array([[math.cos(0.3), -math.sin(0.3)], [math.sin(0.3), math.cos(0.3)]])
        assert in_fixed_group(spd.pair, r)

    def test_spd_diagonal_stretch_is_not(self, spd):
        assert not in_fixed_group(spd.pair, np.diag([2.0, 1.0]))


class TestPairStructure:
    def test_eigenspace_bracket_relations(self, models, rng):
        for model in models.values():
            rep = model.pair.validate(rng, samples=5)
            assert rep["eigenspace_brackets"] <= 1e-10
            assert rep["sigma_exp_theta"] <= 1e-9

    def test_non_eigenvector_basis_rejected(self):
        # theta(E12) = -E21 is not proportional to E12
        with pytest.raises(ValueError):
            MatrixSymmetricPair(
                ambient_n=2,
                plus_mats=np.zeros((0, 2, 2)),
                minus_mats=np.array([E12, E21]),
                sigma=SigmaRule("transpose_inverse"),
                label="broken",
            )

    def test_structure_tensor_closure_failure_detected(self):
        # [E11, E12+E21] = E12 - E21 is skew and escapes the chosen span
        pair = MatrixSymmetricPair(
            ambient_n=2,
            plus_mats=np.zeros((0, 2, 2)),
            minus_mats=np.array([E11, (E12 + E21) / math.sqrt(2)]),
            sigma=SigmaRule("transpose_inverse"),
            label="broken",
        )
        with pytest.raises(VerificationError):
            pair.structure_tensor

    def test_coordinate_roundtrip(self, spd, rng):
        pair = spd.pair
        v = rng.standard_normal(pair.dim)
        assert np.allclose(pair.matrix_coords(pair.to_matrix(v)), v, atol=1e-12)
        w = rng.standard_normal(pair.dim_minus)
        assert np.allclose(pair.matrix_to_minus(pair.minus_to_matrix(w)), w, atol=1e-12)

    def test_minus_coords_reject_plus_elements(self, spd):
        skew = (E12 - E21) / math.sqrt(2)
        with pytest.raises(ValueError):
            spd.pair.matrix_to_minus(skew)

    def test_json_roundtrip(self, models):
        for model in models.values():
            pair = model.pair
            back = MatrixSymmetricPair.from_json(pair.to_json(), pair.tol)
            assert back.ambient_n == pair.ambient_n
            assert back.dim_plus == pair.dim_plus
            assert np.allclose(back.basis_mats, pair.basis_mats)
            assert np.allclose(back.structure_tensor, pair.structure_tensor)


class TestTrotterGroup:
    def test_commuting_exact_for_every_k(self, spd):
        x, y = E11, E22
        target = np.diag([math.e, math.e])
        for k in (1, 2, 7, 64):
            got = trotter_group_sum(spd.pair, x, y, k)
            assert np.linalg.norm(got - target) <= 1e-12

    def test_offdiagonal_pair_at_k_1024(self, spd):
        got = trotter_group_sum(spd.pair, E12, E21, 1024)
        want = scipy.linalg.expm(E12 + E21)
        assert np.linalg.norm(got - want) < 1e-2

    def test_error_halves_with_k(self, spd):
        want = scipy.linalg.expm(E12 + E21)
        errs = []
        for kexp in range(4, 13):
            got = trotter_group_sum(spd.pair, E12, E21, 2 ** kexp)
            errs.append(np.linalg.norm(got - want))
        for a, b in zip(errs, errs[1:]):
            assert b < a * 1.1  # monotone within slack
        for a, b in list(zip(errs, errs[1:]))[2:]:
            assert 0.4 <= b / a <= 0.6  # first-order rate

    def test_commutator_commuting_gives_identity(self, spd):
        for k in (1, 3, 16):
            got = trotter_group_commutator(spd.pair, E11, E22, k)
            assert np.linalg.norm(got - np.eye(2)) <= 1e-12
        # and the limit target exp([x,y]) is the identity as well
        assert np.allclose(scipy.linalg.expm(E11 @ E22 - E22 @ E11), np.eye(2))

    def test_commutator_converges_to_bracket_exp(self, spd):
        # [E12, E21] = E11 - E22, by direct matrix arithmetic
        bracket = E12 @ E21 - E21 @ E12
        assert np.allclose(bracket, E11 - E22)
        want = scipy.linalg.expm(bracket)
        err_small = np.linalg.norm(trotter_group_commutator(spd.pair, E12, E21, 64) - want)
        err_large = np.linalg.norm(trotter_group_commutator(spd.pair, E12, E21, 1024) - want)
        assert err_large < 5e-3
        assert err_large < err_small

    def test_zero_letter_collapses_to_identity(self, spd):
        got = trotter_group_commutator(spd.pair, np.zeros((2, 2)), E21, 9)
        assert np.allclose(got, np.eye(2), atol=1e-12)

    def test_k_validation(self, spd):
        with pytest.raises(ValueError):
            trotter_group_sum(spd.pair, E11, E22, 0)


class TestRelationGroupProduct:
    def test_trivial_l_components(self, spd, rng):
        l_alg = _spd_center(spd)
        g, h = spd.pair.random_element(rng), spd.pair.random_element(rng)
        rg, rl = relation_group_product(spd.pair, l_alg, (g, np.eye(2)), (h, np.eye(2)))
        assert np.allclose(rg, g @ h, atol=1e-12)
        assert np.allclose(rl, np.eye(2), atol=1e-12)

    def test_reduces_to_l_product_at_identity(self, spd):
        l_alg = _spd_center(spd)
        l1, l2 = np.diag([1.1, 1.1]), np.diag([0.8, 0.8])
        rg, rl = relation_group_product(
            spd.pair, l_alg, (np.eye(2), l1), (np.eye(2), l2)
        )
        assert np.allclose(rg, np.eye(2))
        assert np.allclose(rl, l1 @ l2, atol=1e-14)

    def test_product_group_block_oracle(self, product, rng):
        pair = product.pair
        # L = the first so(3) factor: coordinates [plus_a, minus_a] of the block
        idx = [0, 2, 3]
        l_alg = LinearSubspace(pair.dim, np.eye(pair.dim)[idx])
        ga = scipy.linalg.expm(pair.to_matrix(0.3 * rng.standard_normal(pair.dim)))
        gb = scipy.linalg.expm(pair.to_matrix(0.3 * rng.standard_normal(pair.dim)))
        la = scipy.linalg.expm(pair.to_matrix(0.2 * _coords_in(pair, idx, rng)))
        lb = scipy.linalg.expm(pair.to_matrix(0.2 * _coords_in(pair, idx, rng)))
        rg, rl = relation_group_product(pair, l_alg, (ga, la), (gb, lb))
        # block oracle: compute the same product with raw matrices
        want_l = np.linalg.inv(gb) @ la @ gb @ lb
        assert np.allclose(rg, ga @ gb, atol=1e-12)
        assert np.allclose(rl, want_l, atol=1e-12)
        # second coordinate stays block: lower-right block is the identity
        assert np.allclose(rl[3:, 3:], np.eye(3), atol=1e-10)

    def test_group_axioms_sampled(self, product, rng):
        pair = product.pair
        idx = [0, 2, 3]
        l_alg = LinearSubspace(pair.dim, np.eye(pair.dim)[idx])

        def rand_pair():
            g = scipy.linalg.expm(pair.to_matrix(0.2 * rng.standard_normal(pair.dim)))
            l = scipy.linalg.expm(pair.to_matrix(0.2 * _coords_in(pair, idx, rng)))
            return (g, l)

        ident = (np.eye(pair.ambient_n), np.eye(pair.ambient_n))
        for _ in range(5):
            a, b, c = rand_pair(), rand_pair(), rand_pair()
            left = relation_group_product(pair, l_alg, relation_group_product(pair, l_alg, a, b), c)
            right = relation_group_product(pair, l_alg, a, relation_group_product(pair, l_alg, b, c))
            assert np.allclose(left[0], right[0], atol=1e-10)
            assert np.allclose(left[1], right[1], atol=1e-10)
            gi, li = relation_group_product(pair, l_alg, a, ident)
            assert np.allclose(gi, a[0], atol=1e-12)
            assert np.allclose(li, a[1], atol=1e-12)

    def test_non_ideal_rejected(self, spd):
        # the diagonal subsystem of Sym(2) is not a Lie ideal of gl(2)
        bad = LinearSubspace(spd.pair.dim, np.eye(spd.pair.dim)[[1]])
        with pytest.raises(ValueError):
            relation_group_product(
                spd.pair, bad, (np.eye(2), np.eye(2)), (np.eye(2), np.eye(2))
            )


def _spd_center(spd) -> LinearSubspace:
    pair = spd.pair
    coords = pair.matrix_coords(np.eye(2))
    return LinearSubspace.span(coords.reshape(1, -1), pair.dim, DEFAULT_TOL)


def _coords_in(pair, idx, rng) -> np.ndarray:
    v = np.zeros(pair.dim)
    v[idx] = rng.standard_normal(len(idx))
    return v


class TestPairMorphism:
    def test_catalog_morphisms_validate(self, models, rng):
        for model in models.values():
            for named in model.designated_morphisms:
                rep = named.morphism.pair_morphism.validate(rng)
                assert rep["max_residual"] <= 1e-9, (model.name, named.name)

    def test_identity_word(self, sphere):
        f = sphere.designated_morphisms[0].morphism.pair_morphism
        assert np.allclose(apply_pair_morphism(f, []), np.eye(3))

    def test_diagonal_embedding_on_ray(self, product):
        diag = next(m for m in product.designated_morphisms if m.name == "diag_embed")
        f = diag.morphism.pair_morphism
        x = f.source.basis_mats[1]
        got = apply_pair_morphism(f, [0.4 * x])
        block = mat_exp(0.4 * x)
        want = np.zeros((6, 6))
        want[:3, :3] = block
        want[3:, 3:] = block
        assert np.allclose(got, want, atol=1e-12)

    def test_projection_word_matches_block_extraction(self, product, rng):
        proj = next(m for m in product.designated_morphisms if m.name == "proj_left")
        f = proj.morphism.pair_morphism
        letters = [
            product.pair.to_matrix(0.3 * rng.standard_normal(product.pair.dim))
            for _ in range(2)
        ]
        got = apply_pair_morphism(f, letters)
        want = (mat_exp(letters[0]) @ mat_exp(letters[1]))[:3, :3]
        assert np.allclose(got, want, atol=1e-12)

    def test_word_fallback_without_group_rule(self, sphere):
        f0 = sphere.designated_morphisms[0].morphism.pair_morphism
        f = PairMorphism(
            source=f0.source, target=f0.target, algebra_map=f0.algebra_map, group_rule=None
        )
        x = 0.3 * f.source.basis_mats[0]
        assert np.allclose(apply_pair_morphism(f, [x]), mat_exp(x), atol=1e-12)

    def test_shape_validation(self, sphere, spd):
        with pytest.raises(ValueError):
            PairMorphism(
                source=sphere.pair, target=spd.pair, algebra_map=np.eye(3)
            )
