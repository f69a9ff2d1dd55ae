import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symspaces import lts
from symspaces.catalog import parse_model
from symspaces.lts import (
    LieTripleSystem,
    LinearSubspace,
    LtsMorphism,
    SymmetricLieAlgebra,
    VerificationError,
    _minus_ideal,
    algebra_from_json,
    algebra_to_json,
    check_lts_axioms,
    direct_sum_lts,
    displacement_algebra,
    ideal_bracket_plus_n,
    ideal_ker_psi_plus_n,
    ideal_report,
    is_ideal,
    is_subsystem,
    psi_representation,
    quotient_lts,
    standard_embedding,
)
from symspaces.numkernel import DEFAULT_TOL, _svd_cut
from symspaces.symspace import lts_of_pair


def sphere_formula_lts(dim: int = 2) -> LieTripleSystem:
    """The bracket [x,y,z] = <y,z> x - <x,z> y as a structure tensor."""
    t = np.zeros((dim,) * 4)
    for i in range(dim):
        for j in range(dim):
            for k in range(dim):
                if j == k:
                    t[i, j, k, i] += 1.0
                if i == k:
                    t[i, j, k, j] -= 1.0
    return LieTripleSystem(dim, t, label="sphere_formula")


def abelian_lts(dim: int = 3) -> LieTripleSystem:
    return LieTripleSystem(dim, np.zeros((dim,) * 4), label="abelian")


class TestAxioms:
    def test_abelian_passes_with_zero_residual(self):
        rep = check_lts_axioms(abelian_lts(3))
        assert rep.max_residual == 0.0
        assert rep.passed(DEFAULT_TOL)

    def test_sphere_formula_passes(self):
        rep = check_lts_axioms(sphere_formula_lts(2))
        assert rep.passed(DEFAULT_TOL)

    def test_sphere_formula_symbolic_oracle(self):
        # independent check of all three axioms with exact symbols
        import sympy as sp

        xs = sp.symbols("x0 x1 y0 y1 z0 z1 u0 u1 v0 v1 w0 w1")
        x, y, z = sp.Matrix(xs[0:2]), sp.Matrix(xs[2:4]), sp.Matrix(xs[4:6])
        u, v, w = sp.Matrix(xs[6:8]), sp.Matrix(xs[8:10]), sp.Matrix(xs[10:12])

        def br(a, b, c):
            return (b.dot(c)) * a - (a.dot(c)) * b

        assert sp.simplify(br(x, x, y)) == sp.zeros(2, 1)
        assert sp.simplify(br(x, y, z) + br(y, z, x) + br(z, x, y)) == sp.zeros(2, 1)
        lhs = br(x, y, br(u, v, w))
        rhs = br(br(x, y, u), v, w) + br(u, br(x, y, v), w) + br(u, v, br(x, y, w))
        assert sp.simplify(lhs - rhs) == sp.zeros(2, 1)

    def test_constructed_violation_fails_antisymmetry(self):
        t = np.zeros((2,) * 4)
        t[0, 0, 1, 0] = 1.0  # [e1, e1, e2] = e1 breaks [x,x,y] = 0
        rep = check_lts_axioms(LieTripleSystem(2, t))
        assert not rep.passed(DEFAULT_TOL)
        assert rep.antisymmetry >= 1.0

    def test_zero_dim_is_legal(self):
        rep = check_lts_axioms(LieTripleSystem(0, np.zeros((0, 0, 0, 0))))
        assert rep.passed(DEFAULT_TOL)


class TestBracket:
    def test_sphere_example(self):
        m = sphere_formula_lts(2)
        e1, e2 = np.eye(2)
        assert np.allclose(m.bracket(e1, e2, e2), e1)
        assert np.allclose(m.bracket(e2, e1, e1), e2)

    @settings(deadline=None, max_examples=25)
    @given(st.integers(0, 10 ** 6))
    def test_first_slot_antisymmetry(self, seed):
        rng = np.random.default_rng(seed)
        m = sphere_formula_lts(2)
        x, y = rng.standard_normal(2), rng.standard_normal(2)
        assert np.linalg.norm(m.bracket(x, x, y)) <= 1e-12

    def test_spd_lts_matches_matrix_commutators(self, spd):
        # ambient gl(2) oracle: [ [X,Y], Z ] computed with raw matmuls
        m = lts_of_pair(spd.pair)
        x_mat = np.array([[1.0, 0.0], [0.0, 0.0]])
        y_mat = np.array([[0.0, 1.0], [1.0, 0.0]])
        z_mat = x_mat
        comm = x_mat @ y_mat - y_mat @ x_mat
        want = comm @ z_mat - z_mat @ comm
        got_coords = m.bracket(
            spd.pair.matrix_to_minus(x_mat),
            spd.pair.matrix_to_minus(y_mat),
            spd.pair.matrix_to_minus(z_mat),
        )
        assert np.allclose(spd.pair.minus_to_matrix(got_coords), want, atol=1e-12)

    def test_dimension_mismatch_raises(self):
        with pytest.raises(ValueError):
            sphere_formula_lts(2).bracket(np.zeros(3), np.zeros(2), np.zeros(2))


class TestSubsystemsAndIdeals:
    def test_full_and_zero_are_subsystems(self):
        m = sphere_formula_lts(2)
        assert is_subsystem(m, LinearSubspace.full(2))
        assert is_subsystem(m, LinearSubspace.zero(2))

    def test_sphere_line_is_subsystem_by_brute_force(self):
        m = sphere_formula_lts(2)
        line = LinearSubspace(2, np.array([[1.0, 0.0]]))
        # brute force: the only basis triple is (e1, e1, e1) whose bracket is 0
        assert np.allclose(m.bracket(*([np.array([1.0, 0.0])] * 3)), 0.0)
        assert is_subsystem(m, line)

    def test_sphere_line_is_not_ideal(self):
        m = sphere_formula_lts(2)
        line = LinearSubspace(2, np.array([[1.0, 0.0]]))
        e1, e2 = np.eye(2)
        # [e1, e2, e2] = e1 stays, but [e1, e2, e1] = -e2 escapes the line
        assert np.allclose(m.bracket(e1, e2, e1), -e2)
        assert not is_ideal(m, line)

    def test_direct_sum_factor_is_ideal(self):
        m = direct_sum_lts(sphere_formula_lts(2), sphere_formula_lts(2))
        factor = LinearSubspace(4, np.eye(4)[:2])
        assert is_ideal(m, factor)
        assert is_subsystem(m, factor)

    def test_full_space_is_ideal(self):
        assert is_ideal(sphere_formula_lts(2), LinearSubspace.full(2))

    def test_ideal_report_slots(self):
        m = sphere_formula_lts(2)
        rep = ideal_report(m, LinearSubspace(2, np.array([[1.0, 0.0]])))
        assert rep["n_m_m"] > 0.5  # definite failure

    def test_ideal_implies_subsystem_on_zoo(self, models):
        for model in models.values():
            m = lts_of_pair(model.pair)
            for sub in model.designated_subspaces:
                if is_ideal(m, sub.seed):
                    assert is_subsystem(m, sub.seed)


class TestQuotient:
    def test_direct_sum_quotient_recovers_second_factor(self):
        a, b = sphere_formula_lts(2), sphere_formula_lts(2)
        m = direct_sum_lts(a, b)
        factor = LinearSubspace(4, np.eye(4)[:2])
        quot, proj = quotient_lts(m, factor)
        assert quot.dim == 2
        # orthogonal complement of the first factor is exactly the second copy
        assert np.allclose(quot.tensor, b.tensor, atol=1e-12)
        assert proj.is_valid()

    def test_quotient_by_everything_is_zero_dim(self):
        m = sphere_formula_lts(2)
        quot, _ = quotient_lts(m, LinearSubspace.full(2))
        assert quot.dim == 0

    def test_quotient_by_zero_is_identity(self):
        m = sphere_formula_lts(2)
        quot, proj = quotient_lts(m, LinearSubspace.zero(2))
        assert np.allclose(quot.tensor, m.tensor, atol=1e-12)
        assert np.allclose(np.abs(proj.matrix), np.eye(2), atol=1e-12)

    def test_non_ideal_rejected(self):
        m = sphere_formula_lts(2)
        with pytest.raises(ValueError):
            quotient_lts(m, LinearSubspace(2, np.array([[1.0, 0.0]])))

    def test_projection_kernel_is_the_ideal(self):
        m = direct_sum_lts(abelian_lts(1), sphere_formula_lts(2))
        factor = LinearSubspace(3, np.eye(3)[:1])
        _, proj = quotient_lts(m, factor)
        from symspaces.numkernel import nullspace

        ker = nullspace(proj.matrix, DEFAULT_TOL)
        assert ker.shape[1] == 1
        assert abs(abs(float(ker[:, 0] @ np.eye(3)[0])) - 1.0) <= 1e-12


class TestStandardEmbedding:
    def test_abelian_has_no_plus_part(self):
        m = abelian_lts(3)
        h = standard_embedding(m, LinearSubspace.full(3))
        assert h.plus_basis.dim == 0
        assert h.minus_basis.dim == 3
        assert np.allclose(h.bracket_tensor, 0.0)

    def test_zero_seed_gives_zero_algebra(self):
        h = standard_embedding(sphere_formula_lts(2), LinearSubspace.zero(2))
        assert h.dim == 0

    def test_sphere_formula_dimension_and_inner_map(self):
        m = sphere_formula_lts(2)
        h = standard_embedding(m, LinearSubspace.full(2))
        assert h.dim == 3
        assert h.plus_basis.dim == 1
        # hand oracle: D_{e1,e2} e1 = [e1,e2,e1] = -e2, D_{e1,e2} e2 = e1
        d = m.operator(np.eye(2)[0], np.eye(2)[1])
        assert np.allclose(d @ np.eye(2)[0], [0.0, -1.0])
        assert np.allclose(d @ np.eye(2)[1], [1.0, 0.0])

    def test_triple_bracket_reproduction(self):
        # [[x, y], z] in the embedding equals [x, y, z] in the system
        for m in (sphere_formula_lts(2), abelian_lts(2)):
            h = standard_embedding(m, LinearSubspace.full(m.dim))
            r = h.plus_basis.dim
            for i in range(m.dim):
                for j in range(m.dim):
                    for k in range(m.dim):
                        e = np.eye(h.dim)
                        inner = h.brackets(e[r + i][None], e[r + j][None])[0]
                        got = h.brackets(inner, e[r + k][None])[0, 0]
                        want = m.bracket(np.eye(m.dim)[i], np.eye(m.dim)[j], np.eye(m.dim)[k])
                        assert np.allclose(got[r:], want, atol=1e-10)
                        assert np.allclose(got[:r], 0.0, atol=1e-10)

    def test_embedding_is_valid_symmetric_algebra(self):
        h = standard_embedding(sphere_formula_lts(2), LinearSubspace.full(2))
        assert h.validate()["max_residual"] <= 1e-10

    def test_pair_sphere_embeds_to_so3(self, sphere):
        # the Lie triple system of the actual sphere pair embeds into a
        # compact algebra: its Killing form is negative definite (so(3));
        # the abstract formula bracket gives the indefinite dual instead
        def killing_eigs(h):
            ads = [h.ad(e) for e in np.eye(h.dim)]
            k = np.array([[np.trace(a @ b) for b in ads] for a in ads])
            return np.linalg.eigvalsh(k)

        m_pair = lts_of_pair(sphere.pair)
        h_pair = standard_embedding(m_pair, LinearSubspace.full(2))
        assert h_pair.dim == 3
        assert np.all(killing_eigs(h_pair) < 0)

        h_formula = standard_embedding(sphere_formula_lts(2), LinearSubspace.full(2))
        eigs = killing_eigs(h_formula)
        assert np.any(eigs > 0) and np.any(eigs < 0)

    def test_requires_subsystem(self):
        m = sphere_formula_lts(2)
        msum = direct_sum_lts(m, m)
        # span{(e1,0side), (e2,e1)}: [y,x,x] = (e2, 0) escapes the span
        tilted = LinearSubspace(
            4, np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 1.0, 0.0]])
        )
        assert not is_subsystem(msum, tilted)
        with pytest.raises(ValueError):
            standard_embedding(msum, tilted)


class TestPsiRepresentation:
    def test_full_ideal_kernel_is_everything(self, sphere):
        g = sphere.pair.algebra()
        n = sphere.pair.minus_subspace_to_full(LinearSubspace.full(2))
        rep = psi_representation(g, n)
        assert rep.kernel.dim == g.plus_basis.dim
        assert rep.quotient_basis.shape[0] == 0

    def test_zero_ideal_matches_direct_ad_nullspace(self, sphere):
        g = sphere.pair.algebra()
        rep = psi_representation(g, LinearSubspace.zero(g.dim))
        # oracle: stack the action of each plus vector on the minus onb
        q = g.minus_basis.basis
        stacked = []
        for x in g.plus_basis.basis:
            op = q @ (g.ad(x) @ q.T)
            stacked.append(op.reshape(-1))
        from symspaces.numkernel import nullspace

        ker = nullspace(np.array(stacked).T, DEFAULT_TOL)
        assert rep.kernel.dim == ker.shape[1] == 0

    def test_product_kernel_is_silent_factor(self, product):
        g = product.pair.algebra()
        n = product.pair.minus_subspace_to_full(
            LinearSubspace(4, np.eye(4)[:2])
        )
        rep = psi_representation(g, n)
        # the first-factor rotations act trivially on the second factor
        assert rep.kernel.dim == 1

    def test_kernel_and_its_complement_split_g_plus(self, models):
        seen = 0
        for model in models.values():
            pair = model.pair
            g = pair.algebra()
            for sub in model.designated_subspaces:
                if not is_ideal(lts_of_pair(pair), sub.seed):
                    continue
                rep = psi_representation(g, pair.minus_subspace_to_full(sub.seed))
                both = np.vstack([rep.kernel.basis, rep.kernel_complement])
                assert np.allclose(both @ both.T, np.eye(g.plus_basis.dim), rtol=0.0, atol=1e-14)
                assert g.plus_basis.contains_all(both, pair.tol)
                # psi is injective on the complement
                ops = np.tensordot(rep.kernel_complement @ g.plus_basis.basis.T, rep.operators, axes=1)
                assert _svd_cut(ops.reshape(len(ops), len(rep.quotient_basis) ** 2), pair.tol)[2] == len(ops)
                seen += rep.kernel.dim > 0 and len(ops) > 0
        assert seen

    def test_hypothesis_violation_raises(self):
        # center added to the plus part: g_plus strictly exceeds [g-, g-]
        g = _so3_split_plus_center()
        with pytest.raises(ValueError):
            psi_representation(g, LinearSubspace.zero(g.dim))


def _so3_split_plus_center() -> SymmetricLieAlgebra:
    """so(3) eigensplit (1 plus, 2 minus) with an extra central plus line."""
    t = np.zeros((4, 4, 4))

    def setbr(i, j, coeffs):
        t[i, j] = coeffs
        t[j, i] = -np.asarray(coeffs, dtype=float)

    # basis: f0 = rotation fixing the pole (plus), f1, f2 = minus, f3 = center
    setbr(0, 1, [0.0, 0.0, 1.0, 0.0])   # [f0, f1] = f2
    setbr(0, 2, [0.0, -1.0, 0.0, 0.0])  # [f0, f2] = -f1
    setbr(1, 2, [1.0, 0.0, 0.0, 0.0])   # [f1, f2] = f0
    theta = np.diag([1.0, -1.0, -1.0, 1.0])
    plus = LinearSubspace(4, np.eye(4)[[0, 3]])
    minus = LinearSubspace(4, np.eye(4)[[1, 2]])
    return SymmetricLieAlgebra(4, t, theta, plus, minus, label="so3+center")


class TestIdealConstructions:
    def test_ker_psi_plus_n_full(self, sphere):
        g = sphere.pair.algebra()
        n = sphere.pair.minus_subspace_to_full(LinearSubspace.full(2))
        l = ideal_ker_psi_plus_n(g, n)
        assert l.dim == g.dim

    def test_ker_psi_plus_n_zero_for_faithful_action(self, sphere):
        g = sphere.pair.algebra()
        l = ideal_ker_psi_plus_n(g, LinearSubspace.zero(g.dim))
        assert l.dim == 0

    def test_product_componentwise(self, product):
        g = product.pair.algebra()
        n = product.pair.minus_subspace_to_full(LinearSubspace(4, np.eye(4)[:2]))
        l = ideal_ker_psi_plus_n(g, n)
        # oracle: the whole first so(3) block, computed componentwise
        first_block = LinearSubspace(6, np.eye(6)[[0, 2, 3]])
        # coordinates: [plus_a, plus_b, minus_a(2), minus_b(2)]
        want = LinearSubspace(6, np.eye(6)[[0, 2, 3]])
        assert l.dim == 3
        assert l.contains_subspace(want, DEFAULT_TOL)

    def test_bracket_plus_n_zero(self, sphere):
        g = sphere.pair.algebra()
        assert ideal_bracket_plus_n(g, LinearSubspace.zero(g.dim)).dim == 0

    def test_bracket_plus_n_full(self, sphere):
        g = sphere.pair.algebra()
        n = sphere.pair.minus_subspace_to_full(LinearSubspace.full(2))
        assert ideal_bracket_plus_n(g, n).dim == g.dim

    def test_containment_bracket_in_kerpsi(self, models):
        for model in models.values():
            pair = model.pair
            g = pair.algebra()
            m = lts_of_pair(pair)
            for sub in model.designated_subspaces:
                if not is_ideal(m, sub.seed):
                    continue
                n = pair.minus_subspace_to_full(sub.seed)
                l_brk = ideal_bracket_plus_n(g, n)
                l_psi = ideal_ker_psi_plus_n(g, n)
                assert l_psi.contains_subspace(l_brk, pair.tol)


CATALOG_ALGEBRAS = (
    "sphere(2)",
    "sphere(3)",
    "spd(2)",
    "spd(3)",
    "grassmann(1,3)",
    "grassmann(2,5)",
    "torus_abelian(sqrt2)",
    "torus_abelian(1/2)",
    "product(sphere(2),sphere(2))",
    "product(spd(2),sphere(3))",
)


def two_einsum_minus_tensor(g: SymmetricLieAlgebra) -> np.ndarray:
    """The g_minus triple tensor by the two-einsum formula the helper replaced."""
    q = g.minus_basis.basis
    inner = np.einsum("ijl,ai,bj->abl", g.bracket_tensor, q, q)
    vals = np.einsum("ijl,abi,cj->abcl", g.bracket_tensor, inner, q)
    return vals @ q.T


class TestMinusIdealHelper:
    @pytest.mark.parametrize("spec", CATALOG_ALGEBRAS + ("so3+center",))
    def test_triple_tensor_matches_the_two_einsum_formula(self, monkeypatch, spec):
        g = _so3_split_plus_center() if spec == "so3+center" else parse_model(spec).pair.algebra()
        seen = []
        real = lts.is_ideal

        def spy(m, n):
            seen.append(m.tensor)
            return real(m, n)

        monkeypatch.setattr(lts, "is_ideal", spy)
        q, n_m = _minus_ideal(g, LinearSubspace.zero(g.dim), "unused")
        assert np.array_equal(q, g.minus_basis.basis)
        assert n_m.dim == 0 and n_m.ambient_dim == q.shape[0]
        (got,) = seen
        want = two_einsum_minus_tensor(g)
        assert got.shape == want.shape
        assert np.all(np.abs(got - want) <= 1e-14)

    def test_each_caller_keeps_its_message(self, product):
        pair = product.pair
        g = pair.algebra()
        diagonal = pair.minus_subspace_to_full(product.subspace_by_name("diagonal").seed)
        with pytest.raises(ValueError, match="^psi requires an ideal of the triple system g_minus$"):
            psi_representation(g, diagonal)
        with pytest.raises(ValueError, match="^requires an ideal of the triple system g_minus$"):
            ideal_bracket_plus_n(g, diagonal)
        plus_line = LinearSubspace(g.dim, np.eye(g.dim)[:1])
        for build in (psi_representation, ideal_bracket_plus_n):
            with pytest.raises(ValueError, match="not contained in the \\(-1\\)-eigenspace"):
                build(g, plus_line)

    def test_escaping_triple_bracket_is_a_verification_error(self):
        # a minus part that is no triple system: [[f1, f0 + f3], f1] = f0 leaves it
        g = _so3_split_plus_center()
        minus = LinearSubspace(4, np.array([[0.0, 1.0, 0.0, 0.0], [1.0, 0.0, 0.0, 1.0]]))
        bad = SymmetricLieAlgebra(g.dim, g.bracket_tensor, g.theta, minus.complement(), minus)
        with pytest.raises(VerificationError, match="leaves the \\(-1\\)-eigenspace"):
            _minus_ideal(bad, LinearSubspace.zero(4), "unused")


class TestDisplacementAlgebra:
    def test_already_generated_gives_full(self, sphere):
        g = sphere.pair.algebra()
        assert displacement_algebra(g).dim == g.dim

    def test_center_is_dropped(self):
        g = _so3_split_plus_center()
        disp = displacement_algebra(g)
        assert disp.dim == 3
        assert not disp.contains_all(np.eye(4)[3], DEFAULT_TOL)

    def test_abelian_keeps_only_minus(self, torus):
        g = torus.pair.algebra()
        disp = displacement_algebra(g)
        assert disp.dim == torus.pair.dim_minus


class TestMorphismAndSerialization:
    def test_lts_morphism_projection_valid(self):
        a = sphere_formula_lts(2)
        m = direct_sum_lts(a, a)
        quot, proj = quotient_lts(m, LinearSubspace(4, np.eye(4)[:2]))
        assert isinstance(proj, LtsMorphism)
        assert proj.residual() <= 1e-12

    def test_invalid_morphism_detected(self):
        m = sphere_formula_lts(2)
        bad = LtsMorphism(source=m, target=m, matrix=np.array([[2.0, 0.0], [0.0, 1.0]]))
        assert not bad.is_valid()

    def test_lts_json_roundtrip(self):
        m = sphere_formula_lts(2)
        back = algebra_from_json(algebra_to_json(m))
        assert isinstance(back, LieTripleSystem)
        assert np.allclose(back.tensor, m.tensor)
        assert back.label == m.label

    def test_symmetric_algebra_json_roundtrip(self, sphere):
        g = sphere.pair.algebra()
        back = algebra_from_json(algebra_to_json(g))
        assert isinstance(back, SymmetricLieAlgebra)
        assert np.allclose(back.bracket_tensor, g.bracket_tensor)
        assert np.allclose(back.theta, g.theta)
        assert back.plus_basis.dim == g.plus_basis.dim
        assert back.validate()["max_residual"] <= 1e-10


class TestLinearSubspace:
    def test_rejects_dependent_basis(self):
        with pytest.raises(ValueError):
            LinearSubspace(2, np.array([[1.0, 0.0], [2.0, 0.0]]))

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_span_rejects_non_finite_vectors(self, bad):
        # an SVD of non-finite rows would otherwise give a zero subspace or fail to converge
        with pytest.raises(ValueError, match="finite"):
            LinearSubspace.span([[bad, 0.0, 0.0]], 3, DEFAULT_TOL)

    def test_span_trims_rank(self):
        sub = LinearSubspace.span(np.array([[1.0, 0.0], [2.0, 0.0]]), 2, DEFAULT_TOL)
        assert sub.dim == 1

    def test_complement_and_containment(self):
        sub = LinearSubspace(3, np.array([[1.0, 0.0, 0.0]]))
        comp = sub.complement()
        assert comp.dim == 2
        assert comp.contains_each([[1.0, 0.0, 0.0], [0.0, 1.0, -2.0]], DEFAULT_TOL) == [False, True]

    def test_distance_to_the_projection(self):
        # the projection of (1, 0) onto the line of (1, 1) is (1/2, 1/2)
        sub = LinearSubspace(2, np.array([[1.0, 1.0]]))
        assert sub.distance(np.array([1.0, 0.0])) == pytest.approx(np.sqrt(0.5), abs=1e-15)
