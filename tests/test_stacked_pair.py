"""Stacked symmetric pair: SigmaRule on (k, n, n) stacks and the pair checks
built on stacked kernels, against the per-matrix loops they replace.

The loops below are the former bodies of ``SigmaRule``,
``MatrixSymmetricPair`` and the morphism helpers, kept as oracles.
"""

import numpy as np
import pytest
from oracles import same_bits

from symspaces.catalog import parse_model
from symspaces.lts import LinearSubspace, VerificationError
from symspaces.numkernel import as_matrix, mat_exp
from symspaces.sympair import (
    MatrixSymmetricPair,
    SigmaRule,
    apply_pair_morphism,
    trotter_group_commutator,
    trotter_group_sum,
)
from symspaces.symspace import lts_of_pair

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
# one catalog pair per sigma kind
KIND_MODELS = {
    "conjugation": "sphere(2)",
    "transpose_inverse": "spd(3)",
    "composite": "product(sphere(2),spd(2))",
}


@pytest.fixture(scope="module")
def ladder():
    return {spec: parse_model(spec).pair for spec in VERIFY_LADDER}


@pytest.fixture(scope="module")
def kind_pairs():
    return {kind: parse_model(spec).pair for kind, spec in KIND_MODELS.items()}


# -- the per-matrix oracles ---------------------------------------------------


def loop_apply(rule, g):
    g = as_matrix(g, square=True)
    if rule.kind == "conjugation":
        return rule.theta @ g @ np.linalg.inv(rule.theta)
    if rule.kind == "transpose_inverse":
        return np.linalg.inv(g).T
    return rule.theta @ np.linalg.inv(g).T @ np.linalg.inv(rule.theta)


def loop_derivative(rule, x):
    x = as_matrix(x, square=True)
    if rule.kind == "conjugation":
        return rule.theta @ x @ np.linalg.inv(rule.theta)
    if rule.kind == "transpose_inverse":
        return -x.T
    return -rule.theta @ x.T @ np.linalg.inv(rule.theta)


def loop_random_element(pair, rng, letters=2, scale=0.5):
    g = np.eye(pair.ambient_n)
    for _ in range(letters):
        g = g @ mat_exp(pair.random_algebra_element(rng, scale), pair.tol)
    return g


def loop_eigenspace_brackets(t, p):
    inc = 0.0
    for i in range(len(t)):
        for j in range(len(t)):
            c = t[i, j]
            if (i >= p) == (j >= p):
                inc = max(inc, float(np.linalg.norm(c[p:])))
            else:
                inc = max(inc, float(np.linalg.norm(c[:p])))
    return inc


def loop_validate(pair, rng=None, samples=20):
    out = {}
    out["eigenspace_brackets"] = loop_eigenspace_brackets(pair.structure_tensor, pair.dim_plus)
    ray = 0.0
    for x in pair.basis_mats:
        for tval in (0.05, 0.3):
            lhs = loop_apply(pair.sigma, mat_exp(tval * x, pair.tol))
            rhs = mat_exp(tval * loop_derivative(pair.sigma, x), pair.tol)
            ray = max(ray, float(np.linalg.norm(lhs - rhs)))
    out["sigma_exp_theta"] = ray
    invol = 0.0
    rng = rng or np.random.default_rng(0)
    for _ in range(samples):
        g = loop_random_element(pair, rng)
        invol = max(invol, float(np.linalg.norm(loop_apply(pair.sigma, loop_apply(pair.sigma, g)) - g)))
    out["sigma_involutive"] = invol
    out["max_residual"] = max(out.values())
    return out


def loop_structure_tensor(pair):
    d, b = pair.dim, pair.basis_mats
    t = np.zeros((d, d, d))
    for i in range(d):
        for j in range(i + 1, d):
            c = pair.matrix_coords(b[i] @ b[j] - b[j] @ b[i])
            t[i, j] = c
            t[j, i] = -c
    return t


def loop_morphism_rays(f):
    src, tgt, a = f.source, f.target, f.algebra_map
    ray = 0.0
    for i in range(src.dim):
        for tval in (0.1, 0.7):
            lhs = f.group_rule(mat_exp(tval * src.basis_mats[i], src.tol))
            rhs = mat_exp(tval * tgt.to_matrix(a[:, i]), tgt.tol)
            ray = max(ray, float(np.linalg.norm(lhs - rhs)))
    return ray


def small_pairs():
    """A dim-0 and a dim-1 pair of 2 x 2 matrices (the dim-1 one is a line of spd(2))."""
    rule = SigmaRule("transpose_inverse")
    empty = np.zeros((0, 2, 2))
    zero = MatrixSymmetricPair(2, empty, empty, rule, label="zero")
    line = MatrixSymmetricPair(2, empty, np.diag([1.0, 0.0])[None], rule, label="line")
    return zero, line


# -- SigmaRule ----------------------------------------------------------------


class TestStackedSigmaRule:
    @pytest.mark.parametrize("kind", sorted(KIND_MODELS))
    def test_stack_is_bitwise_the_loop_per_slice(self, kind, kind_pairs):
        pair = kind_pairs[kind]
        assert pair.sigma.kind == kind
        rng = np.random.default_rng(7)
        groups = np.array([pair.random_element(rng) for _ in range(5)])
        algebra = pair.basis_mats
        applied, derived = pair.sigma.apply(groups), pair.sigma.derivative(algebra)
        assert applied.shape == groups.shape and derived.shape == algebra.shape
        for g, got in zip(groups, applied):
            assert same_bits(got, pair.sigma.apply(g))
            assert same_bits(got, loop_apply(pair.sigma, g))
        for x, got in zip(algebra, derived):
            assert same_bits(got, pair.sigma.derivative(x))
            assert same_bits(got, loop_derivative(pair.sigma, x))

    @pytest.mark.parametrize("kind", sorted(KIND_MODELS))
    def test_empty_stack(self, kind, kind_pairs):
        rule, n = kind_pairs[kind].sigma, kind_pairs[kind].ambient_n
        empty = np.zeros((0, n, n))
        assert rule.apply(empty).shape == (0, n, n)
        assert rule.derivative(empty).shape == (0, n, n)

    def test_inverse_is_computed_once(self, kind_pairs):
        rule = kind_pairs["conjugation"].sigma
        assert same_bits(rule._theta_inv, np.linalg.inv(rule.theta))

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_theta_square_tolerance(self, sign):
        # J squares to -I, diag(1, -1) to +I; both exactly
        theta = np.diag([1.0, -1.0]) if sign > 0 else np.array([[0.0, -1.0], [1.0, 0.0]])
        for kind in ("conjugation", "composite"):
            assert same_bits(SigmaRule(kind, theta).theta, theta)
        off = theta * (1.0 + 5e-8)  # the square is off by 1e-7, inside numpy's allclose
        assert np.allclose(off @ off, sign * np.eye(2))
        with pytest.raises(ValueError, match="square to"):
            SigmaRule("conjugation", off)


# -- MatrixSymmetricPair ------------------------------------------------------


class TestStackedPairChecks:
    def test_validate_is_bitwise_the_loop(self, ladder):
        for spec, pair in ladder.items():
            rng_new, rng_old = np.random.default_rng(11), np.random.default_rng(11)
            got, want = pair.validate(rng_new), loop_validate(pair, rng_old)
            assert list(got) == list(want), spec
            for key in want:
                assert same_bits(got[key], want[key]), (spec, key)
            assert rng_new.bit_generator.state == rng_old.bit_generator.state, spec

    def test_eigenspace_brackets_is_bitwise_the_loop_on_any_tensor(self):
        # a random tensor breaks every bracket relation, so each parity case picks its own part
        rng = np.random.default_rng(17)
        for d in range(0, 6):
            for p in range(0, d + 1):
                zeros = np.zeros((d, 2, 2))  # any basis: validate reads the tensor set below
                pair = MatrixSymmetricPair(2, zeros[:p], zeros[p:], SigmaRule("transpose_inverse"))
                t = rng.standard_normal((d, d, d)) * rng.uniform(0.01, 3.0, size=(d, d, 1))
                pair.__dict__["structure_tensor"] = t  # in place of the cached tensor
                got = pair.validate(np.random.default_rng(0), samples=1)["eigenspace_brackets"]
                assert same_bits(got, loop_eigenspace_brackets(t, p)), (d, p)

    def test_validate_default_rng(self, kind_pairs):
        pair = kind_pairs["composite"]
        assert pair.validate() == loop_validate(pair)

    @pytest.mark.parametrize("letters", [0, 1, 2])
    def test_random_element_is_bitwise_the_loop(self, letters, ladder):
        for spec, pair in ladder.items():
            rng_new, rng_old = np.random.default_rng(3), np.random.default_rng(3)
            got = pair.random_element(rng_new, letters=letters, scale=0.3)
            assert same_bits(got, loop_random_element(pair, rng_old, letters, 0.3)), spec
            assert rng_new.bit_generator.state == rng_old.bit_generator.state

    def test_zero_letters_is_the_identity(self, sphere):
        got = sphere.pair.random_element(np.random.default_rng(0), letters=0)
        assert same_bits(got, np.eye(sphere.pair.ambient_n))
        with pytest.raises(ValueError, match="letters"):
            sphere.pair.random_element(np.random.default_rng(0), letters=-1)

    def test_structure_tensor_matches_the_pair_loop(self, ladder):
        for spec, pair in ladder.items():
            want = loop_structure_tensor(pair)
            scale = max(float(np.max(np.abs(want))), 1.0)
            assert np.max(np.abs(pair.structure_tensor - want)) <= 1e-15 * scale, spec

    def test_non_closed_basis_keeps_its_message(self, sphere):
        pair = sphere.pair
        # g_minus alone: [x_i, x_j] lands in the dropped g_plus
        broken = MatrixSymmetricPair(pair.ambient_n, np.zeros((0, 3, 3)), pair.minus_mats, pair.sigma)
        with pytest.raises(
            VerificationError,
            match=r"^algebra basis is not closed under commutator: matrix does not lie in the algebra \(residual ",
        ):
            broken.structure_tensor

    def test_eigenvector_check_still_rejects(self, sphere):
        pair = sphere.pair
        with pytest.raises(ValueError, match="not theta eigenvectors"):
            MatrixSymmetricPair(pair.ambient_n, pair.minus_mats, pair.plus_mats, pair.sigma)

    def test_minus_subspace_to_full_pads_plus_coordinates(self, product):
        pair = product.pair
        sub = LinearSubspace(pair.dim_minus, np.eye(pair.dim_minus)[:2])
        full = pair.minus_subspace_to_full(sub)
        assert full.ambient_dim == pair.dim and full.dim == 2
        assert np.allclose(full.basis[:, : pair.dim_plus], 0.0)
        assert pair.minus_subspace_to_full(LinearSubspace.zero(pair.dim_minus)).dim == 0


class TestSmallPairs:
    def test_dim_zero_and_one(self):
        zero, line = small_pairs()
        for pair, dim in ((zero, 0), (line, 1)):
            assert pair.dim == dim
            assert pair.structure_tensor.shape == (dim, dim, dim)
            assert not pair.structure_tensor.any()
            rep = pair.validate(np.random.default_rng(1))
            assert rep == loop_validate(pair, np.random.default_rng(1))
            assert rep["max_residual"] < 1e-12
            for letters in (0, 2):
                got = pair.random_element(np.random.default_rng(2), letters=letters)
                assert same_bits(got, loop_random_element(pair, np.random.default_rng(2), letters))
        # dim 0: every random element is the identity
        assert same_bits(zero.random_element(np.random.default_rng(2)), np.eye(2))
        assert lts_of_pair(line).dim == 1


# -- exponential words ----------------------------------------------------------


class TestStackedWords:
    def test_trotter_steps_are_bitwise_the_loop(self, spd):
        pair = spd.pair
        x, y = pair.minus_to_matrix([1.0, 0.0, 0.2]), pair.minus_to_matrix([0.0, 0.3, 1.0])
        for k in (1, 3, 16):
            e = lambda a: mat_exp(a, pair.tol)  # noqa: E731
            want_sum = np.linalg.matrix_power(e(x / k) @ e(y / k), k)
            want_comm = np.linalg.matrix_power(e(x / k) @ e(y / k) @ e(-x / k) @ e(-y / k), k * k)
            assert same_bits(trotter_group_sum(pair, x, y, k), want_sum)
            assert same_bits(trotter_group_commutator(pair, x, y, k), want_comm)

    def test_morphism_rays_are_bitwise_the_loop(self):
        for spec in ("sphere(2)", "product(sphere(2),sphere(2))", "product(spd(2),spd(2))"):
            for designated in parse_model(spec).designated_morphisms:
                f = designated.morphism.pair_morphism
                if f.group_rule is not None:
                    assert same_bits(f.validate()["group_exp"], loop_morphism_rays(f)), (spec, designated.name)

    def test_apply_pair_morphism_matches_the_loop(self, product):
        rng = np.random.default_rng(5)
        for designated in product.designated_morphisms:
            f = designated.morphism.pair_morphism
            word = [f.source.random_algebra_element(rng, 0.4) for _ in range(3)]
            g = np.eye(f.source.ambient_n)
            for x in word:
                g = g @ mat_exp(x, f.source.tol)
            assert same_bits(apply_pair_morphism(f, word), f.group_rule(g))
            h = np.eye(f.target.ambient_n)
            for x in word:
                h = h @ mat_exp(f.map_algebra_matrix(x), f.target.tol)
            bare = type(f)(f.source, f.target, f.algebra_map)
            assert np.allclose(apply_pair_morphism(bare, word), h, atol=1e-13)
            assert same_bits(apply_pair_morphism(bare, []), np.eye(f.target.ambient_n))
