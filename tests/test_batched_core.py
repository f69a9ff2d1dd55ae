"""The batched subspace core agrees with the per-vector paths it replaced."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import CHART_MODELS, count_calls, oracle_contains, oracle_lts_tensor, oracle_project_onto, same_bits
from test_case_digests import load_case_bytes

from symspaces import lts, quotient
from symspaces.catalog import parse_model
from symspaces.lts import (
    LieTripleSystem,
    LinearSubspace,
    SymmetricLieAlgebra,
    VerificationError,
    _basis_brackets,
    _verify_theta_invariant,
    ideal_ker_psi_plus_n,
)
from symspaces.numkernel import DEFAULT_TOL, _svd_cut
from symspaces.quotient import quotient_theorem_pipeline
from symspaces.symspace import lts_of_pair


def random_subspace(rng, ambient: int, k: int) -> LinearSubspace:
    if k == 0:
        return LinearSubspace.zero(ambient)
    if k == ambient:
        return LinearSubspace.full(ambient)
    return LinearSubspace.span(rng.standard_normal((k, ambient)), ambient, DEFAULT_TOL)


def probe_vectors(rng, sub: LinearSubspace, count: int) -> np.ndarray:
    """Members, near-members, clear non-members and zero, far from any threshold."""
    d = sub.ambient_dim
    rows = []
    for i in range(count):
        inside = rng.standard_normal(sub.dim) @ sub.basis if sub.dim else np.zeros(d)
        off = rng.standard_normal(d)
        off -= oracle_project_onto(sub, off)
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
        assert sub.contains_all(vecs, DEFAULT_TOL) == all(oracle_contains(sub, v, DEFAULT_TOL) for v in vecs)
        for v in vecs:
            assert sub.contains_all(v[None], DEFAULT_TOL) == oracle_contains(sub, v, DEFAULT_TOL)

    @pytest.mark.parametrize("k", [0, 3])
    def test_empty_input(self, k):
        sub = random_subspace(np.random.default_rng(0), 3, k)
        for empty in (np.zeros((0, 3)), []):
            assert sub.distances(empty).shape == (0,)
            assert sub.contains_all(empty, DEFAULT_TOL)

    def test_zero_and_full_subspaces(self):
        vecs = np.array([[0.0, 0.0], [3.0, 4.0]])
        assert np.allclose(LinearSubspace.zero(2).distances(vecs), [0.0, 5.0])
        assert not LinearSubspace.zero(2).contains_all(vecs, DEFAULT_TOL)
        assert LinearSubspace.zero(2).contains_all(vecs[:1], DEFAULT_TOL)
        assert np.allclose(LinearSubspace.full(2).distances(vecs), 0.0)
        assert LinearSubspace.full(2).contains_all(vecs, DEFAULT_TOL)

    def test_rejects_wrong_width(self):
        with pytest.raises(ValueError, match="ambient dimension"):
            LinearSubspace.full(3).distances(np.zeros((2, 4)))


def svd_spy(mp):
    """Count ``numpy.linalg.svd`` calls for the rest of the monkeypatch context."""
    calls = []
    original = np.linalg.svd

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    mp.setattr(np.linalg, "svd", counted)
    return calls


class TestCachedOnb:
    """Each subspace holds one basis, orthonormal and read-only, from one SVD."""

    @settings(deadline=None, max_examples=25)
    @given(st.integers(0, 10 ** 6), st.integers(1, 6), st.data())
    def test_computed_once_and_read_only(self, seed, ambient, data):
        rng = np.random.default_rng(seed)
        k = data.draw(st.integers(0, ambient))
        rows = rng.standard_normal((k, ambient))
        with pytest.MonkeyPatch.context() as mp:
            calls = svd_spy(mp)
            spanned = LinearSubspace.span(rows, ambient, DEFAULT_TOL)
            assert len(calls) == (1 if k else 0)
            built = LinearSubspace(ambient, rows)
            assert len(calls) == (2 if k else 0)
            comp = spanned.complement()
            made = len(calls)
            assert made == (3 if k else 0)  # the complement of the zero subspace is full
            for sub in (spanned, built, comp, LinearSubspace.zero(ambient), LinearSubspace.full(ambient)):
                q = sub.basis
                assert sub.basis is q and sub.onb() is q
                assert np.allclose(q @ q.T, np.eye(sub.dim), rtol=0.0, atol=1e-14)
                sub.distances(rows)
                sub.contains_all(rows, DEFAULT_TOL)
                with pytest.raises(ValueError, match="read-only"):
                    q[...] = 1.0
            assert len(calls) == made  # no SVD on access
        assert spanned.dim == built.dim == k == ambient - comp.dim
        assert spanned.equals(built, DEFAULT_TOL)

    def test_basis_does_not_alias_the_input(self):
        rows = np.eye(3)[:2].copy()
        sub = LinearSubspace(3, rows)
        q = sub.basis.copy()
        rows[0] = [0.0, 0.0, 1.0]
        assert np.array_equal(sub.basis, q)

    def test_the_constructor_decides_with_its_one_svd(self):
        with pytest.MonkeyPatch.context() as mp:
            calls = svd_spy(mp)
            with pytest.raises(ValueError, match="linearly dependent"):
                LinearSubspace(3, [[1.0, 2.0, 0.0], [2.0, 4.0, 0.0]])
            assert len(calls) == 1
        with pytest.raises(ValueError, match="finite"):
            LinearSubspace(2, [[1.0, np.nan]])
        with pytest.raises(ValueError, match="ambient dimension"):
            LinearSubspace(2, np.eye(3))


class TestContainsSubspace:
    """``contains_subspace`` (behind ``equals``) projects the other orthonormal
    basis, with no SVD."""

    @settings(deadline=None, max_examples=40)
    @given(st.integers(0, 10 ** 6), st.integers(1, 6), st.data())
    def test_matches_the_rank_of_the_stacked_bases(self, seed, ambient, data):
        rng = np.random.default_rng(seed)
        sub = random_subspace(rng, ambient, data.draw(st.integers(0, ambient)))
        rows = probe_vectors(rng, sub, data.draw(st.integers(1, ambient)))[:-1]
        rows = rows[np.linalg.norm(rows, axis=1) > 1e-3]  # drop zero rows
        other = LinearSubspace.span(rows, ambient, DEFAULT_TOL) if len(rows) else LinearSubspace.zero(ambient)
        want = _svd_cut(np.vstack([sub.basis, other.basis]), DEFAULT_TOL)[2] == sub.dim
        with pytest.MonkeyPatch.context() as mp:
            calls = svd_spy(mp)
            assert sub.contains_subspace(other, DEFAULT_TOL) == want
            assert sub.equals(other, DEFAULT_TOL) == (want and sub.dim == other.dim)
            assert calls == []

    def test_two_quotient_ladder_passes_make_fewer_svds(self):
        # 520 at the point-block layer; the projection test removes 68, the
        # designated subspaces a pass never reads another 30, and the kernel
        # rows of nullspace, wrapped as they are, the 38 cuts they had again
        # (384); psi's one cut giving l's complement, one ideal test per run
        # and the wrapped psi kernel and g_minus rows remove 178 more
        case_bytes = load_case_bytes()
        with pytest.MonkeyPatch.context() as mp:
            calls = svd_spy(mp)
            for group in range(2):
                case_bytes.run_cases("quotient_ladder", group)
        assert len(calls) <= 206

    def test_one_ideal_test_per_quotient_op(self, monkeypatch):
        # 46 on two passes when the congruence, span[g-,n]+n and psi each decided n
        case_bytes = load_case_bytes()
        calls = count_calls(monkeypatch, lts, "is_ideal")
        for group in range(2):
            ops = len(case_bytes.run_cases("quotient_ladder", group))
            assert len(calls) == ops, f"{len(calls)} is_ideal calls for {ops} quotient ops"
            calls.clear()


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
            flat = pair.basis_mats.reshape(pair.dim, -1).T
            for row, mat in zip(got, mats):
                single = pair.matrix_coords(mat)
                assert np.array_equal(row, single)
                # the cached pseudo-inverse agrees with the least-squares solve it replaced
                ref = np.linalg.lstsq(flat, mat.reshape(-1), rcond=None)[0]
                assert np.allclose(single, ref, rtol=0.0, atol=1e-12 * max(np.linalg.norm(ref), 1.0))

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


class TestMemoizedLtsOfPair:
    def test_equals_a_fresh_loop_build(self, models):
        for spec in (*models, *CHART_MODELS):
            pair = parse_model(spec).pair
            first = lts_of_pair(pair)
            assert lts_of_pair(pair) is first and first is pair.algebra().minus_lts
            want = oracle_lts_tensor(pair)
            assert first.tensor.shape == want.shape, spec
            scale = max(float(np.max(np.abs(want), initial=0.0)), 1.0)
            assert np.max(np.abs(first.tensor - want), initial=0.0) <= 1e-14 * scale, spec
            assert first.label == pair.label
            with pytest.raises(ValueError, match="read-only"):
                first.tensor[...] = 0.0

    def test_minus_basis_is_the_coordinate_axes(self, models):
        # the algebra's g_minus rows are e_p, ..., e_{d-1}, so its triple
        # system is in the pair's g_minus coordinates
        for spec in (*models, *CHART_MODELS, "torus_abelian(1/2)", "product(grassmann(2,5),grassmann(2,5))"):
            pair = parse_model(spec).pair
            g = pair.algebra()
            assert same_bits(g.minus_basis.basis, np.eye(pair.dim)[pair.dim_plus:]), spec
            assert same_bits(g.plus_basis.basis, np.eye(pair.dim)[:pair.dim_plus]), spec


def einsum_bracket(g, x, y) -> np.ndarray:
    """One Lie bracket [x, y] by a single einsum: the per-pair oracle of ``brackets``."""
    return np.einsum("ijl,i,j->l", g.bracket_tensor, x, y)


class TestLieIdealHelper:
    def loop_reference(self, g, left, right, sub):
        return all(oracle_contains(sub, einsum_bracket(g, x, y), DEFAULT_TOL) for x in left for y in right)

    def test_agrees_with_the_pairwise_loop(self, product):
        pair = product.pair
        g = pair.algebra()
        left = product.subspace_by_name("left_factor").seed
        ideal = ideal_ker_psi_plus_n(g, pair.minus_subspace_to_full(left))
        rng = np.random.default_rng(3)
        cases = [ideal, LinearSubspace.zero(g.dim), LinearSubspace.full(g.dim)]
        cases += [random_subspace(rng, g.dim, k) for k in (1, 3, 5)]
        seen = set()
        for sub in cases:
            for left_rows, right_rows in ((sub.basis, np.eye(g.dim)), (sub.basis, sub.basis)):
                want = self.loop_reference(g, left_rows, right_rows, sub)
                assert g.brackets_within(left_rows, right_rows, sub) == want
                seen.add(want)
        assert seen == {True, False}

    def test_non_ideal_still_raises_its_message(self, product):
        g = product.pair.algebra()
        theta_stable = LinearSubspace(g.dim, np.eye(g.dim)[:1])  # one plus direction
        with pytest.raises(VerificationError, match="probe is not a Lie ideal"):
            _verify_theta_invariant(g, theta_stable, np.eye(g.dim), "probe")


class TestStackedLieBrackets:
    @settings(deadline=None, max_examples=60)
    @given(st.integers(0, 10 ** 6), st.integers(0, 6), st.integers(0, 4), st.integers(0, 4))
    def test_matches_the_pairwise_loop(self, seed, dim, n_left, n_right):
        rng = np.random.default_rng(seed)
        t = rng.standard_normal((dim,) * 3)
        t -= t.transpose(1, 0, 2)
        g = SymmetricLieAlgebra(dim, t, np.eye(dim), LinearSubspace.full(dim), LinearSubspace.zero(dim))
        left = rng.standard_normal((n_left, dim))
        right = rng.standard_normal((n_right, dim))
        got = g.brackets(left, right)
        want = np.array([[einsum_bracket(g, x, y) for y in right] for x in left]).reshape(n_left, n_right, dim)
        assert got.shape == (n_left, n_right, dim)
        # |[x, y]_l| <= sum |t| max|x| max|y|
        scale = max(np.abs(t).sum() * np.abs(left).max(initial=0.0) * np.abs(right).max(initial=0.0), 1.0)
        assert np.all(np.abs(got - want) <= 1e-14 * scale)


def per_entry_ad_ql(g, comp, vec) -> np.ndarray:
    """The per-entry operator of [vec, .] on the span of the rows ``comp`` that
    the stacked form replaced."""
    d_out = comp.shape[0]
    op = np.array([[comp[a] @ einsum_bracket(g, vec, comp[b]) for b in range(d_out)] for a in range(d_out)])
    return op.reshape(d_out, d_out)


EXPLICIT_LEFT = "1,0,0,0,0,0;0,1,0,0,0,0;0,0,1,0,0,0"


def ad_on_span_calls(monkeypatch, spec, ideal):
    """Every ``_ad_on_span`` call of one pipeline run, as ``(g, comp, rows, result)``:
    psi's operators on g_minus/n first, then the realization's on g/l."""
    model = parse_model(spec)
    m = model.pair.dim_minus
    space = None
    if ideal == "zero":
        seed = LinearSubspace.zero(m)
    elif ideal == "full":
        seed = LinearSubspace.full(m)
    elif ";" in ideal:
        rows = np.array([[float(v) for v in row.split(",")] for row in ideal.split(";")])
        seed = LinearSubspace.span(rows, m, model.pair.tol)
    else:
        sub = model.subspace_by_name(ideal)
        seed, space = sub.seed, sub.subspace
    calls = []
    real = lts._ad_on_span

    def spy(g, comp, rows):
        out = real(g, comp, rows)
        calls.append((g, comp, rows, out))
        return out

    for module in (lts, quotient):  # quotient binds the name at import
        monkeypatch.setattr(module, "_ad_on_span", spy)
    qr = quotient_theorem_pipeline(model.pair, seed, subspace=space, rng=np.random.default_rng(0))
    return qr, calls


class TestStackedAdjointOnQuotient:
    @pytest.mark.parametrize(
        "spec,ideal,d_out",
        [
            ("product(sphere(2),sphere(2))", "left_factor", 3),
            ("product(sphere(3),sphere(3))", "left_factor", 6),
            ("product(grassmann(2,5),grassmann(2,5))", "left_factor", 10),
            ("product(sphere(3),sphere(3))", EXPLICIT_LEFT, 6),
            ("product(sphere(2),sphere(2))", "zero", 6),  # d_out = dim
            ("product(sphere(2),sphere(2))", "full", 0),
        ],
    )
    def test_bitwise_on_product_models(self, monkeypatch, spec, ideal, d_out):
        qr, calls = ad_on_span_calls(monkeypatch, spec, ideal)
        assert qr.report["quotient_dim"] == d_out
        # psi's operators, then the kernel stack and the faithfulness operators, then the plus and minus matrices
        (g, _, plus, _), *realization = calls
        assert same_bits(plus, g.plus_basis.basis)
        assert len(realization) == (4 if d_out else 2)
        assert all(len(comp) == d_out for _, comp, _, _ in realization)
        for g, comp, rows, got in calls:
            assert got.shape == (len(rows), len(comp), len(comp))
            want = np.array([per_entry_ad_ql(g, comp, r) for r in rows]).reshape(got.shape)
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("spec", ["spd(3)", "spd(4)"])
    def test_close_on_spd_centers(self, monkeypatch, spec):
        _, calls = ad_on_span_calls(monkeypatch, spec, "center")
        assert len(calls) == 5
        for g, comp, rows, got in calls:
            want = np.array([per_entry_ad_ql(g, comp, r) for r in rows]).reshape(got.shape)
            scale = max(float(np.max(np.abs(want), initial=0.0)), 1.0)
            assert np.all(np.abs(got - want) <= 1e-15 * scale)

    def test_pipeline_makes_no_per_entry_bracket(self, monkeypatch):
        model = parse_model("product(grassmann(2,5),grassmann(2,5))")
        sub = model.subspace_by_name("left_factor")
        counts = {"einsum": 0}
        real_einsum = np.einsum

        def einsum(*args, **kwargs):
            counts["einsum"] += 1
            return real_einsum(*args, **kwargs)

        monkeypatch.setattr(np, "einsum", einsum)
        quotient_theorem_pipeline(model.pair, sub.seed, subspace=sub.subspace, rng=np.random.default_rng(0))
        # psi's operators come from the stacked bracket too
        assert counts["einsum"] == 0
