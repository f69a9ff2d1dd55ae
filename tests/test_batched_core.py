"""The batched subspace core agrees with the per-vector paths it replaced."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symspaces.lts import (
    LieTripleSystem,
    LinearSubspace,
    VerificationError,
    _basis_brackets,
    _verify_theta_invariant_ideal,
    ideal_ker_psi_plus_n,
)
from symspaces.symspace import lts_of_pair


def random_subspace(rng, ambient: int, k: int) -> LinearSubspace:
    if k == 0:
        return LinearSubspace.zero(ambient)
    if k == ambient:
        return LinearSubspace.full(ambient)
    return LinearSubspace.span(rng.standard_normal((k, ambient)), ambient)


def probe_vectors(rng, sub: LinearSubspace, count: int) -> np.ndarray:
    """Members, near-members, clear non-members and zero, far from any threshold."""
    d = sub.ambient_dim
    rows = []
    for i in range(count):
        inside = rng.standard_normal(sub.dim) @ sub.onb() if sub.dim else np.zeros(d)
        off = rng.standard_normal(d)
        off -= sub.project(off)
        rows.append(inside + (0.0, 1e-13, 1e-6, 1.0)[i % 4] * off)
    rows.append(np.zeros(d))
    return np.array(rows).reshape(-1, d)


class TestRowwiseContainment:
    @settings(deadline=None, max_examples=40)
    @given(st.integers(0, 10 ** 6), st.integers(1, 6), st.data())
    def test_matches_per_vector_tests(self, seed, ambient, data):
        rng = np.random.default_rng(seed)
        sub = random_subspace(rng, ambient, data.draw(st.integers(0, ambient)))
        vecs = probe_vectors(rng, sub, data.draw(st.integers(0, 8)))
        dists = sub.distances(vecs)
        want = np.array([sub.distance(v) for v in vecs])
        assert dists.shape == (len(vecs),)
        assert np.allclose(dists, want, rtol=0.0, atol=1e-12)
        assert sub.contains_all(vecs) == all(sub.contains(v) for v in vecs)
        for v in vecs:
            assert sub.contains_all(v[None]) == sub.contains(v)

    @pytest.mark.parametrize("k", [0, 3])
    def test_empty_input(self, k):
        sub = random_subspace(np.random.default_rng(0), 3, k)
        for empty in (np.zeros((0, 3)), []):
            assert sub.distances(empty).shape == (0,)
            assert sub.contains_all(empty)

    def test_zero_and_full_subspaces(self):
        vecs = np.array([[0.0, 0.0], [3.0, 4.0]])
        assert np.allclose(LinearSubspace.zero(2).distances(vecs), [0.0, 5.0])
        assert not LinearSubspace.zero(2).contains_all(vecs)
        assert LinearSubspace.zero(2).contains_all(vecs[:1])
        assert np.allclose(LinearSubspace.full(2).distances(vecs), 0.0)
        assert LinearSubspace.full(2).contains_all(vecs)

    def test_rejects_wrong_width(self):
        with pytest.raises(ValueError, match="ambient dimension"):
            LinearSubspace.full(3).distances(np.zeros((2, 4)))


class TestCachedOnb:
    @settings(deadline=None, max_examples=25)
    @given(st.integers(0, 10 ** 6), st.integers(1, 6), st.data())
    def test_computed_once_and_read_only(self, seed, ambient, data):
        rng = np.random.default_rng(seed)
        sub = random_subspace(rng, ambient, data.draw(st.integers(0, ambient)))
        q = sub.onb()
        assert sub.onb() is q
        if sub.dim:
            assert np.array_equal(q, np.linalg.svd(sub.basis)[2][: sub.dim])
        with pytest.raises(ValueError, match="read-only"):
            q[...] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            sub.basis[...] = 1.0

    def test_basis_does_not_alias_the_input(self):
        rows = np.eye(3)[:2].copy()
        sub = LinearSubspace(3, rows)
        q = sub.onb().copy()
        rows[0] = [0.0, 0.0, 1.0]
        assert np.array_equal(sub.onb(), q)


class TestBasisBrackets:
    @settings(deadline=None, max_examples=40)
    @given(st.integers(0, 10 ** 6), st.integers(1, 5), st.data())
    def test_matches_four_operand_einsum(self, seed, d, data):
        rng = np.random.default_rng(seed)
        m = LieTripleSystem(d, rng.standard_normal((d,) * 4))
        a, b, c = (rng.standard_normal((data.draw(st.integers(0, 4)), d)) for _ in range(3))
        got = _basis_brackets(m, a, b, c)
        want = np.einsum("ijkl,ai,bj,ck->abcl", m.tensor, a, b, c).reshape(-1, d)
        assert got.shape == want.shape
        scale = max(float(np.max(np.abs(want), initial=0.0)), 1.0)
        assert np.allclose(got, want, rtol=0.0, atol=1e-12 * scale)


class TestStackedMatrixCoords:
    @settings(deadline=None, max_examples=25)
    @given(st.integers(0, 10 ** 6), st.integers(0, 4))
    def test_stack_equals_per_matrix_calls(self, models, seed, k):
        rng = np.random.default_rng(seed)
        for model in models.values():
            pair = model.pair
            mats = np.tensordot(rng.standard_normal((k, pair.dim)), pair.basis_mats, axes=1)
            got = pair.matrix_coords(mats)
            assert got.shape == (k, pair.dim)
            for row, mat in zip(got, mats):
                single = pair.matrix_coords(mat)
                # one matrix keeps the plain single-column solve, bit for bit
                ref = np.linalg.lstsq(pair._flat_basis, mat.reshape(-1), rcond=None)[0]
                assert np.array_equal(single, ref)
                assert np.allclose(row, single, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("bad_at", [0, 2])
    def test_off_span_element_raises_like_a_single_call(self, sphere, bad_at):
        pair = sphere.pair
        mats = list(pair.basis_mats)
        mats.insert(bad_at, np.eye(pair.ambient_n))
        with pytest.raises(ValueError) as single:
            pair.matrix_coords(np.eye(pair.ambient_n))
        with pytest.raises(ValueError) as stacked:
            pair.matrix_coords(np.array(mats))
        assert "does not lie in the algebra" in str(single.value)
        assert str(stacked.value) == str(single.value)

    def test_non_finite_element_raises_like_a_single_call(self, sphere):
        pair = sphere.pair
        bad = np.full((pair.ambient_n, pair.ambient_n), np.nan)
        with pytest.raises(ValueError) as single:
            pair.matrix_coords(bad)
        with pytest.raises(ValueError) as stacked:
            pair.matrix_coords(np.array([pair.basis_mats[0], bad]))
        assert "finite" in str(single.value)
        assert str(stacked.value) == str(single.value)


def fresh_lts_tensor(pair) -> np.ndarray:
    """The per-element loop build of the triple tensor, without the cache."""
    m = pair.dim_minus
    tensor = np.zeros((m, m, m, m))
    mats = pair.minus_mats
    for i in range(m):
        for j in range(m):
            comm = mats[i] @ mats[j] - mats[j] @ mats[i]
            for k in range(m):
                tensor[i, j, k] = pair.matrix_to_minus(comm @ mats[k] - mats[k] @ comm)
    return tensor


class TestMemoizedLtsOfPair:
    def test_equals_a_fresh_loop_build(self, models):
        for model in models.values():
            first = lts_of_pair(model.pair)
            assert lts_of_pair(model.pair) is first
            assert np.array_equal(first.tensor, fresh_lts_tensor(model.pair))
            assert first.label == model.pair.label
            with pytest.raises(ValueError, match="read-only"):
                first.tensor[...] = 0.0


class TestLieIdealHelper:
    def loop_reference(self, g, left, right, sub):
        return all(sub.contains(g.bracket_vec(x, y)) for x in left for y in right)

    def test_agrees_with_the_pairwise_loop(self, product):
        pair = product.pair
        g = pair.algebra()
        left = product.subspace_by_name("left_factor").seed
        ideal = ideal_ker_psi_plus_n(g, pair.minus_subspace_to_full(left), pair.tol)
        rng = np.random.default_rng(3)
        cases = [ideal, LinearSubspace.zero(g.dim), LinearSubspace.full(g.dim)]
        cases += [random_subspace(rng, g.dim, k) for k in (1, 3, 5)]
        seen = set()
        for sub in cases:
            for left_rows, right_rows in ((sub.basis, np.eye(g.dim)), (sub.onb(), sub.onb())):
                want = self.loop_reference(g, left_rows, right_rows, sub)
                assert g.brackets_within(left_rows, right_rows, sub, pair.tol) == want
                seen.add(want)
        assert seen == {True, False}

    def test_non_ideal_still_raises_its_message(self, product):
        g = product.pair.algebra()
        theta_stable = LinearSubspace(g.dim, np.eye(g.dim)[:1])  # one plus direction
        with pytest.raises(VerificationError, match="probe is not a Lie ideal"):
            _verify_theta_invariant_ideal(g, theta_stable, product.pair.tol, "probe")
