import math

import numpy as np
import pytest
import scipy.linalg

from symspaces.numkernel import DomainError
from symspaces.symspace import (
    SymPoint,
    apply_symmetries,
    base_point,
    cartan_distance,
    chain_identity_check,
    exp_point,
    log_point,
    lts_of_pair,
    mu_points,
    one_param,
    tau_actions,
    translation,
    trotter_bracket_sym,
    trotter_sum_sym,
)

E11 = np.array([[1.0, 0.0], [0.0, 0.0]])
S12 = np.array([[0.0, 1.0], [1.0, 0.0]])


def spd_coords(pair, mat):
    return pair.matrix_to_minus(mat)


class TestPointsAndMu:
    def test_base_point(self, models):
        for model in models.values():
            b = base_point(model.pair)
            assert np.array_equal(b.cartan, np.eye(model.pair.ambient_n))

    def test_mu_fixes_its_own_point(self, models, rng):
        for model in models.values():
            v = 0.3 * rng.standard_normal(model.pair.dim_minus)
            x = exp_point(model.pair, v)
            assert mu_points([x], [x])[0].same(x)

    def test_spd_hand_arithmetic(self, spd):
        # x with Cartan diag(4,1): mu(x, base) has Cartan x I^-1 x = diag(16,1)
        x = SymPoint.from_group(spd.pair, np.diag([2.0, 1.0]))
        assert np.allclose(x.cartan, np.diag([4.0, 1.0]))
        got = mu_points([x], [base_point(spd.pair)])[0]
        assert np.allclose(got.cartan, np.diag([16.0, 1.0]), atol=1e-12)

    def test_mu_base_inverts_cartan(self, spd, rng):
        v = 0.4 * rng.standard_normal(spd.pair.dim_minus)
        y = exp_point(spd.pair, v)
        got = mu_points([base_point(spd.pair)], [y])[0]
        assert np.allclose(got.cartan, np.linalg.inv(y.cartan), atol=1e-12)

    def test_cartan_satisfies_sigma_inverse_identity(self, models, rng):
        for model in models.values():
            pair = model.pair
            g = pair.random_element(rng)
            x = SymPoint.from_group(pair, g)
            sig_c = pair.sigma.apply(x.cartan)
            assert np.allclose(sig_c, np.linalg.inv(x.cartan), atol=1e-9)

    def test_pair_mismatch_rejected(self, sphere, spd):
        with pytest.raises(ValueError):
            mu_points([base_point(sphere.pair)], [base_point(spd.pair)])


class TestExpLog:
    def test_exp_zero_is_base(self, models):
        for model in models.values():
            pair = model.pair
            assert exp_point(pair, np.zeros(pair.dim_minus)).is_base()

    def test_spd_scalar_oracle(self, spd):
        v = spd_coords(spd.pair, np.diag([1.0, 0.0]))
        got = exp_point(spd.pair, v)
        assert np.allclose(got.cartan, np.diag([math.exp(2.0), 1.0]), atol=1e-12)

    def test_sphere_ray_closed_form(self, sphere):
        # direction A0/sqrt2 at parameter pi/2: Cartan = exp(2 * (pi/2) * A0/sqrt2)
        t = math.pi / 2
        v = np.array([t, 0.0])
        got = exp_point(sphere.pair, v).cartan
        ang = 2 * t / math.sqrt(2)
        want = np.eye(3)
        want[0, 0] = want[2, 2] = math.cos(ang)
        want[0, 2] = math.sin(ang)
        want[2, 0] = -math.sin(ang)
        assert np.allclose(got, want, atol=1e-12)

    def test_log_base_is_zero(self, models):
        for model in models.values():
            pair = model.pair
            assert np.allclose(log_point(pair, base_point(pair)), 0.0)

    def test_log_roundtrip(self, models, rng):
        for model in models.values():
            pair = model.pair
            for _ in range(20):
                v = rng.standard_normal(pair.dim_minus)
                v *= 0.19 / max(np.linalg.norm(v), 1e-12)
                got = log_point(pair, exp_point(pair, v))
                assert np.linalg.norm(got - v) <= 1e-10

    def test_spd_scalar_log(self, spd):
        # scalar oracle inside the principal-branch ball: cartan diag(e^0.5, 1)
        x = SymPoint.from_group(spd.pair, np.diag([math.exp(0.25), 1.0]))
        assert np.allclose(x.cartan, np.diag([math.exp(0.5), 1.0]))
        got = spd.pair.minus_to_matrix(log_point(spd.pair, x))
        assert np.allclose(got, np.diag([0.25, 0.0]), atol=1e-12)

    def test_log_outside_domain_raises(self, spd):
        far = exp_point(spd.pair, spd_coords(spd.pair, np.diag([3.0, 0.0])))
        with pytest.raises(DomainError):
            log_point(spd.pair, far)


class TestOneParamAndTranslation:
    def test_alpha_zero_is_base(self, spd, rng):
        v = rng.standard_normal(spd.pair.dim_minus)
        assert one_param(spd.pair, v, 0.0).is_base()

    def test_alpha_one_is_exp(self, spd, rng):
        v = 0.4 * rng.standard_normal(spd.pair.dim_minus)
        assert one_param(spd.pair, v, 1.0).same(exp_point(spd.pair, v))

    def test_homomorphism_property(self, models, rng):
        for model in models.values():
            pair = model.pair
            v = 0.3 * rng.standard_normal(pair.dim_minus)
            got = mu_points([one_param(pair, v, 1.0)], [one_param(pair, v, 0.0)])[0]
            assert got.same(exp_point(pair, 2.0 * v))

    def test_translation_zero_is_identity(self, spd, rng):
        pair = spd.pair
        v = rng.standard_normal(pair.dim_minus)
        x = exp_point(pair, 0.3 * rng.standard_normal(pair.dim_minus))
        assert translation(pair, v, 0.0, x).same(x)

    def test_translation_shifts_along_curve(self, models, rng):
        for model in models.values():
            pair = model.pair
            v = 0.4 * rng.standard_normal(pair.dim_minus)
            t, s = 0.3, 0.5
            got = translation(pair, v, s, one_param(pair, v, t))
            assert got.same(exp_point(pair, (t + s) * v)), model.name

    def test_zero_direction_translation_is_identity(self, spd, rng):
        pair = spd.pair
        x = exp_point(pair, 0.3 * rng.standard_normal(pair.dim_minus))
        got = translation(pair, np.zeros(pair.dim_minus), 0.7, x)
        assert got.same(x)


class TestTauAction:
    def test_identity_acts_trivially(self, spd, rng):
        x = exp_point(spd.pair, 0.3 * rng.standard_normal(spd.pair.dim_minus))
        assert tau_actions(spd.pair, np.eye(2)[None], [x])[0].same(x)

    def test_base_maps_to_coset_point(self, models, rng):
        for model in models.values():
            pair = model.pair
            g = pair.random_element(rng)
            got = tau_actions(pair, g[None], [base_point(pair)])[0]
            assert got.same(SymPoint.from_group(pair, g))

    def test_tau_is_product_automorphism(self, models, rng):
        for model in models.values():
            pair = model.pair
            g = pair.random_element(rng, letters=1, scale=0.3)
            x = exp_point(pair, 0.3 * rng.standard_normal(pair.dim_minus))
            y = exp_point(pair, 0.3 * rng.standard_normal(pair.dim_minus))
            lhs = tau_actions(pair, g[None], mu_points([x], [y]))[0]
            moved = tau_actions(pair, np.stack([g, g]), [x, y])
            rhs = mu_points(moved[:1], moved[1:])[0]
            assert lhs.same(rhs)

    def test_tau_squared_is_double_symmetry(self, models, rng):
        # for sigma(g) = g^-1 (g = exp of a minus vector): tau_g^2 = mu_gK o mu_K
        for model in models.values():
            pair = model.pair
            v = 0.3 * rng.standard_normal(pair.dim_minus)
            g = pair.exp(pair.minus_to_matrix(v))
            x = exp_point(pair, 0.25 * rng.standard_normal(pair.dim_minus))
            lhs = tau_actions(pair, (g @ g)[None], [x])[0]
            gk = SymPoint.from_group(pair, g)
            rhs = mu_points([gk], mu_points([base_point(pair)], [x]))[0]
            assert lhs.same(rhs), model.name

    def test_rejects_singular(self, spd):
        with pytest.raises(ValueError):
            tau_actions(spd.pair, np.zeros((1, 2, 2)), [base_point(spd.pair)])


class TestTrotterSum:
    def test_commuting_exact_for_all_k(self, spd):
        # diagonal directions commute
        x = spd_coords(spd.pair, np.diag([0.7, 0.0]))
        y = spd_coords(spd.pair, np.diag([0.0, -0.4]))
        target = exp_point(spd.pair, x + y)
        for k in (1, 2, 7, 33):
            assert cartan_distance(trotter_sum_sym(spd.pair, x, y, k), target) <= 1e-12

    def test_noncommuting_error_and_rate(self, spd):
        pair = spd.pair
        x = spd_coords(pair, E11)
        y = spd_coords(pair, S12 / math.sqrt(2))
        target_cartan = scipy.linalg.expm(2.0 * (E11 + S12 / math.sqrt(2)))
        errs = {}
        for kexp in range(4, 13):
            got = trotter_sum_sym(pair, x, y, 2 ** kexp)
            errs[kexp] = float(np.linalg.norm(got.cartan - target_cartan))
        assert errs[10] < 1e-2
        for kexp in range(6, 12):
            assert 0.4 <= errs[kexp + 1] / errs[kexp] <= 0.6

    def test_single_step_with_zero_second_slot(self, spd, rng):
        v = 0.6 * rng.standard_normal(spd.pair.dim_minus)
        got = trotter_sum_sym(spd.pair, v, np.zeros_like(v), 1)
        assert cartan_distance(got, exp_point(spd.pair, v)) <= 1e-12

    def test_transform_matches_naive_fold(self, spd, rng):
        pair = spd.pair
        x = 0.5 * rng.standard_normal(pair.dim_minus)
        y = 0.5 * rng.standard_normal(pair.dim_minus)
        k = 9
        fast = trotter_sum_sym(pair, x, y, k)
        word = []
        for _ in range(k):
            word.append(exp_point(pair, x / (2 * k)))
            word.append(exp_point(pair, -y / (2 * k)))
        naive = apply_symmetries(word, base_point(pair))
        assert cartan_distance(fast, naive) <= 1e-11

    def test_k_validation(self, spd):
        with pytest.raises(ValueError):
            trotter_sum_sym(spd.pair, np.zeros(3), np.zeros(3), 0)


class TestTrotterBracket:
    def test_zero_slot_collapses_exactly(self, spd, rng):
        pair = spd.pair
        z = 0.5 * rng.standard_normal(pair.dim_minus)
        got = trotter_bracket_sym(pair, np.zeros(3), 0.4 * np.ones(3), z, 4, 4)
        assert got.is_base()
        got_y = trotter_bracket_sym(pair, 0.4 * np.ones(3), np.zeros(3), z, 4, 4)
        assert got_y.is_base()

    def test_spd_unit_vectors_measured_table(self, spd):
        # frozen behavior for the unit-norm example inputs: convergence in
        # sqrt(k)/l is slow, errors stay O(1) at these scales (monotone)
        pair = spd.pair
        x = spd_coords(pair, E11)
        y = spd_coords(pair, S12)
        z = x
        comm = E11 @ S12 - S12 @ E11
        bracket = comm @ E11 - E11 @ comm
        target = scipy.linalg.expm(2.0 * bracket)
        errs = []
        for m in (8, 16, 32):
            got = trotter_bracket_sym(pair, x, y, z, m, m)
            errs.append(float(np.linalg.norm(got.cartan - target)))
        assert errs[0] == pytest.approx(3.760, rel=0.02)
        assert errs[1] == pytest.approx(2.914, rel=0.02)
        assert errs[2] == pytest.approx(2.203, rel=0.02)
        assert errs[2] < errs[1] < errs[0]

    def test_spd_scaled_vectors_converge(self, spd):
        pair = spd.pair
        lam = 0.4
        x = spd_coords(pair, lam * E11)
        y = spd_coords(pair, lam * S12)
        z = x
        xm, ym, zm = lam * E11, lam * S12, lam * E11
        comm = xm @ ym - ym @ xm
        bracket = comm @ zm - zm @ comm
        target = scipy.linalg.expm(2.0 * bracket)
        errs = []
        for m in (8, 16, 32):
            got = trotter_bracket_sym(pair, x, y, z, m, m)
            errs.append(float(np.linalg.norm(got.cartan - target)))
        assert errs[2] < 5e-2
        assert errs[2] < errs[1] < errs[0]

    def test_sphere_orthonormal_against_so3_oracle(self, sphere):
        pair = sphere.pair
        lam = 0.5
        x = np.array([lam, 0.0])
        y = np.array([0.0, lam])
        z = y
        xm, ym, zm = (pair.minus_to_matrix(v) for v in (x, y, z))
        comm = xm @ ym - ym @ xm
        bracket = comm @ zm - zm @ comm
        target = scipy.linalg.expm(2.0 * bracket)
        got = trotter_bracket_sym(pair, x, y, z, 32, 32)
        assert float(np.linalg.norm(got.cartan - target)) < 5e-2

    def test_transform_matches_naive_fold(self, spd, rng):
        pair = spd.pair
        x = 0.4 * rng.standard_normal(pair.dim_minus)
        y = 0.4 * rng.standard_normal(pair.dim_minus)
        z = 0.4 * rng.standard_normal(pair.dim_minus)
        k, l = 3, 2
        fast = trotter_bracket_sym(pair, x, y, z, k, l)
        c = 1.0 / (2 * l * math.sqrt(k))
        g_word = [
            exp_point(pair, c * x), exp_point(pair, -c * y),
            exp_point(pair, -c * x), exp_point(pair, c * y),
        ] * (l * l)
        h_word = [
            exp_point(pair, c * x), exp_point(pair, c * y),
            exp_point(pair, -c * x), exp_point(pair, -c * y),
        ] * (l * l)
        ez = exp_point(pair, z / (2 * k))
        word = (g_word + [ez] + h_word + [ez]) * (k * k)
        naive = apply_symmetries(word, base_point(pair))
        assert cartan_distance(fast, naive) <= 1e-10


class TestChainIdentity:
    def test_single_pair_with_zero_y(self, spd, rng):
        v = 0.5 * rng.standard_normal(spd.pair.dim_minus)
        resid = chain_identity_check(spd.pair, [v], [np.zeros_like(v)])
        assert resid <= 1e-12

    def test_all_zero_words(self, models):
        for model in models.values():
            m = model.pair.dim_minus
            resid = chain_identity_check(model.pair, [np.zeros(m)] * 3, [np.zeros(m)] * 3)
            assert resid == 0.0

    def test_random_three_term_words(self, models, rng):
        for model in models.values():
            pair = model.pair
            for _ in range(10):
                xs = [0.4 * rng.standard_normal(pair.dim_minus) for _ in range(3)]
                ys = [0.4 * rng.standard_normal(pair.dim_minus) for _ in range(3)]
                assert chain_identity_check(pair, xs, ys) < 1e-9

    def test_length_mismatch(self, spd):
        with pytest.raises(ValueError):
            chain_identity_check(spd.pair, [np.zeros(3)], [])


class TestLtsOfPair:
    def test_abelian_pair_has_zero_tensor(self, torus):
        assert np.allclose(lts_of_pair(torus.pair).tensor, 0.0)

    def test_sphere_tensor_is_scaled_curvature_formula(self, sphere):
        got = lts_of_pair(sphere.pair).tensor
        formula = np.zeros((2, 2, 2, 2))
        for i in range(2):
            for j in range(2):
                for k in range(2):
                    if j == k:
                        formula[i, j, k, i] += 1.0
                    if i == k:
                        formula[i, j, k, j] -= 1.0
        # the matrix double-commutator convention gives -1/2 times the
        # curvature formula in this Frobenius-orthonormal basis
        assert np.allclose(got, -0.5 * formula, atol=1e-12)

    def test_spd_tensor_matches_symbolic_expansion(self, spd):
        import sympy as sp

        basis = [
            sp.Matrix([[1, 0], [0, 0]]),
            sp.Matrix([[0, 0], [0, 1]]),
            sp.Matrix([[0, 1], [1, 0]]) / sp.sqrt(2),
        ]
        m = lts_of_pair(spd.pair)
        for i in range(3):
            for j in range(3):
                for k in range(3):
                    comm = basis[i] * basis[j] - basis[j] * basis[i]
                    want = comm * basis[k] - basis[k] * comm
                    got = sp.zeros(2, 2)
                    for l in range(3):
                        got += float(m.tensor[i, j, k, l]) * basis[l]
                    diff = (got - want).evalf()
                    assert max(abs(float(v)) for v in diff) < 1e-12


class TestSymMorphism:
    def test_identity_morphism_is_identity(self, sphere, rng):
        f = sphere.designated_morphisms[0].morphism
        x = exp_point(sphere.pair, 0.4 * rng.standard_normal(2))
        assert f(x).same(x)

    def test_projection_on_exp_points(self, product, rng):
        proj = next(m for m in product.designated_morphisms if m.name == "proj_left").morphism
        v = 0.4 * rng.standard_normal(4)
        got = proj(exp_point(product.pair, v))
        want = exp_point(proj.target, v[:2])
        assert got.same(want)

    def test_diagonal_preserves_base(self, product):
        diag = next(m for m in product.designated_morphisms if m.name == "diag_embed").morphism
        assert diag.base_check()

    def test_exp_functoriality_sampled(self, models, rng):
        for model in models.values():
            for named in model.designated_morphisms:
                f = named.morphism
                a = f.minus_map
                for _ in range(50):
                    v = 0.3 * rng.standard_normal(f.source.dim_minus)
                    assert f(exp_point(f.source, v)).same(exp_point(f.target, a @ v))


class TestTangentProduct:
    def test_product_linearizes_to_2v_minus_w(self, models, rng):
        # in normal coordinates mu(Exp(eps u), Exp(eps w)) = Exp(eps(2u - w)) + O(eps^2),
        # checked by Richardson extrapolation (the symmetric word is actually cubic)
        for model in models.values():
            pair = model.pair
            for _ in range(3):
                u = rng.standard_normal(pair.dim_minus)
                w = rng.standard_normal(pair.dim_minus)
                u /= max(np.linalg.norm(u), 1e-12)
                w /= max(np.linalg.norm(w), 1e-12)

                def gap(eps):
                    from symspaces.symspace import log_point

                    got = log_point(pair, mu_points([exp_point(pair, eps * u)], [exp_point(pair, eps * w)])[0])
                    return float(np.linalg.norm(got - eps * (2 * u - w)))

                g1, g2 = gap(0.08), gap(0.04)
                assert g1 <= 0.08 ** 2 * 5.0
                if g1 > 1e-12:
                    assert g1 / g2 >= 3.5, model.name


class TestBracketLDirection:
    def test_error_decreases_in_l_at_fixed_k(self, spd):
        pair = spd.pair
        lam = 0.5
        x = pair.matrix_to_minus(lam * E11)
        y = pair.matrix_to_minus(lam * S12)
        z = x
        xm, ym = lam * E11, lam * S12
        comm = xm @ ym - ym @ xm
        bracket = comm @ (lam * E11) - (lam * E11) @ comm
        target = exp_point(pair, pair.matrix_to_minus(bracket))
        errs = [
            cartan_distance(trotter_bracket_sym(pair, x, y, z, 8, l), target)
            for l in (4, 8, 16, 32)
        ]
        for a, b in zip(errs, errs[1:]):
            assert b < a
