import math

import numpy as np
import pytest

from symspaces.lts import VerificationError
from symspaces.numkernel import mat_exp
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
