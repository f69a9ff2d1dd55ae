"""The coordinate maps of a pair take stacks, one body per direction.

``to_matrix``/``minus_to_matrix`` map a vector or a ``(k, d)`` stack of
rows; each row is bit for bit the vector call and the ``tensordot`` body it
replaced (kept below as the oracle).  ``matrix_coords``/``matrix_to_minus``
map a matrix or a ``(k, n, n)`` stack through the pair's cached
pseudo-inverse, each row bit for bit its single call and within rounding of
the least-squares solve it replaced, and each matrix passes its own residual
test.  The callers that looped over the map one vector or one matrix at a
time make stacked calls.
"""

import io
from contextlib import redirect_stdout

import numpy as np
import pytest
from oracles import same_bits

from symspaces import cli, sympair
from symspaces.catalog import parse_model
from symspaces.lts import LinearSubspace, VerificationError
from symspaces.numkernel import DomainError
from symspaces.quotient import quotient_theorem_pipeline
from symspaces.sympair import MatrixSymmetricPair, SigmaRule, relation_group_product
from symspaces.symspace import chain_identity_check, exp_points, lts_of_pair

# every catalog family, with the spd and product sizes where a single
# (k, d) @ (d, n*n) product would round differently from the per-row one
COORD_MODELS = (
    "sphere(2)",
    "sphere(3)",
    "sphere(5)",
    "spd(2)",
    "spd(3)",
    "spd(5)",
    "grassmann(1,3)",
    "grassmann(2,5)",
    "torus_abelian(sqrt2)",
    "torus_abelian(1/2)",
    "product(sphere(2),spd(2))",
    "product(spd(3),spd(3))",
    "product(grassmann(2,5),grassmann(2,5))",
)
QUOTIENT = "quotient of product(spd(2),sphere(2)) by left_factor"


@pytest.fixture(scope="module")
def coord_pairs():
    pairs = {spec: parse_model(spec).pair for spec in COORD_MODELS}
    model = parse_model("product(spd(2),sphere(2))")
    sub = model.subspace_by_name("left_factor")
    result = quotient_theorem_pipeline(model.pair, sub.seed, subspace=sub.subspace, rng=np.random.default_rng(0))
    pairs[QUOTIENT] = result.quotient_pair
    return pairs


def tensordot_map(coords, mats):
    # the per-vector forward body the stacked map replaced
    return np.tensordot(np.asarray(coords, dtype=float), mats, axes=1)


def lstsq_coords(mats, x):
    # the per-matrix least-squares body the pseudo-inverse replaced, without its residual test
    coords, *_ = np.linalg.lstsq(mats.reshape(len(mats), -1).T, x.reshape(-1, 1), rcond=None)
    return coords[:, 0]


def assert_lstsq_coords(coords, mats, x):
    ref = lstsq_coords(mats, x)
    assert np.allclose(coords, ref, rtol=0.0, atol=1e-12 * max(np.linalg.norm(ref), 1.0))


def coordinate_rows(rng, d):
    rows = rng.standard_normal((9, d)) * rng.uniform(0.01, 3.0, size=(9, 1))
    rows[0] = 0.0
    return rows


class TestForwardMap:
    @pytest.mark.parametrize("spec", COORD_MODELS + (QUOTIENT,))
    def test_stacked_rows_are_the_vector_call(self, coord_pairs, spec):
        pair = coord_pairs[spec]
        rng = np.random.default_rng(11)
        for fn, mats in ((pair.to_matrix, pair.basis_mats), (pair.minus_to_matrix, pair.minus_mats)):
            rows = coordinate_rows(rng, len(mats))
            for stack in (rows, np.asfortranarray(rows), list(rows)):
                got = fn(stack)
                assert got.shape == (len(rows), pair.ambient_n, pair.ambient_n)
                for row, mat in zip(rows, got):
                    assert same_bits(mat, fn(row)), spec
                    assert same_bits(mat, tensordot_map(row, mats)), spec

    def test_wrong_lengths_raise(self, coord_pairs):
        pair = coord_pairs["spd(2)"]
        for fn, d, what in ((pair.to_matrix, 4, "full-algebra"), (pair.minus_to_matrix, 3, "g_minus")):
            message = f"{what} coordinate vector has the wrong length"
            for bad in (np.ones(d + 1), np.ones((2, d - 1)), [np.ones(d), np.ones(d + 1)], np.ones((2, 2, d)), 1.0):
                with pytest.raises(ValueError, match=message):
                    fn(bad)
        with pytest.raises(ValueError, match="g_minus coordinate vector has the wrong length"):
            chain_identity_check(pair, [np.zeros(3)], [np.zeros(2)])

    def test_empty_stacks(self, coord_pairs):
        pair = coord_pairs["sphere(2)"]
        assert pair.to_matrix(np.zeros((0, pair.dim))).shape == (0, 3, 3)
        empty = exp_points(pair, [])
        assert empty.pair is pair and empty.cartans.shape == (0, 3, 3)


class TestInverseMap:
    @pytest.mark.parametrize("spec", COORD_MODELS + (QUOTIENT,))
    def test_a_one_matrix_stack_is_the_2d_call(self, coord_pairs, spec):
        pair = coord_pairs[spec]
        rng = np.random.default_rng(12)
        for to_mat, to_coords, basis in (
            (pair.to_matrix, pair.matrix_coords, pair.basis_mats),
            (pair.minus_to_matrix, pair.matrix_to_minus, pair.minus_mats),
        ):
            mats = to_mat(coordinate_rows(rng, len(basis)))
            stacked = to_coords(mats)
            for x, row in zip(mats, stacked):
                single = to_coords(x)
                assert same_bits(to_coords(x[None])[0], single), spec
                assert same_bits(row, single), spec
                assert_lstsq_coords(single, basis, x)

    def test_a_repeated_basis_matrix_gets_the_minimum_norm_coordinates(self, coord_pairs):
        spd = coord_pairs["spd(2)"]
        minus = np.concatenate([spd.minus_mats, spd.minus_mats[:1]])  # rank-deficient g_minus basis
        pair = MatrixSymmetricPair(2, spd.plus_mats, minus, spd.sigma, label="repeated")
        rng = np.random.default_rng(13)
        for to_coords, basis in ((pair.matrix_coords, pair.basis_mats), (pair.matrix_to_minus, pair.minus_mats)):
            xs = spd.minus_to_matrix(coordinate_rows(rng, spd.dim_minus))
            stacked = to_coords(xs)
            for x, row in zip(xs, stacked):
                assert same_bits(row, to_coords(x))
                assert_lstsq_coords(row, basis, x)
                # the repeated matrix splits its weight evenly, as the minimum norm requires
                assert np.isclose(row[-1], row[-len(minus)], rtol=0.0, atol=1e-12)

    def test_the_singular_value_cutoff_is_the_lstsq_one(self):
        # a second basis matrix about 5e-15 from the first: its singular value
        # ratio lies under lstsq's cutoff max(M, N) * eps = 2.2e-14 for 10 x 10
        # matrices but over numpy's default pinv cutoff 1e-15
        rng = np.random.default_rng(14)
        a, b = (s + s.T for s in rng.standard_normal((2, 10, 10)))
        a, b = a / np.linalg.norm(a), b / np.linalg.norm(b)
        minus = np.array([a, a + 5e-15 * b])
        pair = MatrixSymmetricPair(10, np.zeros((0, 10, 10)), minus, SigmaRule("transpose_inverse"))
        got = pair.matrix_to_minus(a)
        assert_lstsq_coords(got, minus, a)
        assert np.isclose(got[0], got[1], rtol=0.0, atol=1e-9)

    def test_the_first_matrix_outside_the_span_names_its_residual(self, coord_pairs):
        pair = coord_pairs["spd(2)"]
        inside = pair.minus_to_matrix([0.3, -1.0, 0.5])
        skew = np.array([[0.0, 1.0], [-1.0, 0.0]])
        for bad, fn, outside in (
            (skew, pair.matrix_to_minus, "is not in g_minus"),
            (skew + np.eye(2), pair.matrix_to_minus, "is not in g_minus"),
            (np.array([[0.0, 2.0], [0.0, 0.0]]), pair.matrix_to_minus, "is not in g_minus"),
        ):
            with pytest.raises(ValueError, match=outside) as single:
                fn(bad)
            with pytest.raises(ValueError) as stacked:
                fn(np.array([inside, bad, inside, 3.0 * bad]))
            assert str(stacked.value) == str(single.value)
        sphere = coord_pairs["sphere(2)"]
        sym = np.diag([1.0, 2.0, 0.0])
        with pytest.raises(ValueError, match="does not lie in the algebra") as single:
            sphere.matrix_coords(sym)
        with pytest.raises(ValueError) as stacked:
            sphere.matrix_coords(np.array([sphere.basis_mats[0], sym]))
        assert str(stacked.value) == str(single.value)

    def test_each_matrix_is_judged_at_its_own_scale(self, coord_pairs):
        pair = coord_pairs["spd(2)"]
        off = 1e-7 * np.array([[0.0, 1.0], [-1.0, 0.0]])  # outside g_minus by 1.4e-7
        big = pair.minus_to_matrix([1e4, 0.0, 0.0]) + off  # threshold 1e-10 + 1e-9 * |big|, about 1.4e-5
        assert pair.matrix_to_minus(np.array([big, big])).shape == (2, 3)
        with pytest.raises(ValueError, match=r"is not in g_minus \(residual 1\.41e-07\)") as single:
            pair.matrix_to_minus(off)
        with pytest.raises(ValueError) as stacked:
            pair.matrix_to_minus(np.array([big, off]))
        assert str(stacked.value) == str(single.value)

    def test_a_zero_dimensional_basis_rejects_non_zero_matrices(self):
        empty = np.zeros((0, 2, 2))
        zero = MatrixSymmetricPair(2, empty, empty, SigmaRule("transpose_inverse"), label="zero")
        for fn, outside in ((zero.matrix_coords, "does not lie in the algebra"), (zero.matrix_to_minus, "is not in g_minus")):
            assert fn(np.zeros((2, 2))).shape == (0,)
            assert fn(np.zeros((3, 2, 2))).shape == (3, 0)
            with pytest.raises(ValueError, match=rf"matrix {outside} \(residual 1\.41e\+00\)"):
                fn(np.eye(2))
            with pytest.raises(ValueError, match=outside):
                fn(np.array([np.zeros((2, 2)), np.eye(2)]))
        assert same_bits(zero.to_matrix(np.zeros(0)), np.zeros((2, 2)))
        assert same_bits(zero.minus_to_matrix(np.zeros((3, 0))), np.zeros((3, 2, 2)))

    def test_triple_system_keeps_its_message(self, monkeypatch):
        spd = parse_model("spd(2)").pair
        pair = MatrixSymmetricPair(spd.ambient_n, spd.plus_mats, spd.minus_mats, spd.sigma)
        # a bracket tensor whose [g_plus, g_minus] leaks into g_plus sends
        # [[x, y], z] out of g_minus
        leaky = spd.structure_tensor.copy()
        p = pair.dim_plus
        leaky[0, p, 0], leaky[p, 0, 0] = 1.0, -1.0
        monkeypatch.setattr(MatrixSymmetricPair, "structure_tensor", property(lambda self: leaky))
        with pytest.raises(VerificationError, match=r"^triple bracket leaves the \(-1\)-eigenspace$"):
            lts_of_pair(pair)


# ---------------------------------------------------------------------------
# the callers make stacked calls


@pytest.fixture()
def map_calls(monkeypatch):
    """``(method, ndim of the argument)`` of every coordinate-map call."""
    calls = []
    for name in ("to_matrix", "minus_to_matrix", "matrix_coords", "matrix_to_minus"):
        real = getattr(MatrixSymmetricPair, name)

        def spy(self, x, _real=real, _name=name):
            calls.append((_name, np.ndim(x)))
            return _real(self, x)

        monkeypatch.setattr(MatrixSymmetricPair, name, spy)
    return calls


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--model", "sphere(2)", "--seed", "3"],
        ["verify", "--model", "product(sphere(2),spd(2))", "--seed", "3"],
        ["trotter", "--model", "spd(2)", "--x", "0.4,0,0", "--y", "0,0,0.56", "--z", "0.4,0,0", "--k-min", "8", "--k-max", "16"],
        ["quotient", "--model", "product(spd(2),sphere(2))", "--ideal", "left_factor", "--seed", "3"],
    ],
    ids=["verify sphere", "verify product", "trotter bracket", "quotient"],
)
def test_cli_verbs_map_stacks(map_calls, argv):
    with redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
    forward = [d for name, d in map_calls if name in ("to_matrix", "minus_to_matrix")]
    assert forward and all(d == 2 for d in forward), forward
    # matrix_coords always takes a stack; a single matrix_to_minus is a chart log or the bracket target
    assert all(d == 3 for name, d in map_calls if name == "matrix_coords")


def test_chain_identity_makes_two_stacked_maps(coord_pairs, map_calls):
    pair = coord_pairs["spd(3)"]
    rng = np.random.default_rng(5)
    xs, ys = list(0.2 * rng.standard_normal((4, pair.dim_minus))), list(0.2 * rng.standard_normal((4, pair.dim_minus)))
    assert chain_identity_check(pair, xs, ys) < 1e-9
    assert map_calls == [("minus_to_matrix", 2), ("minus_to_matrix", 2)]
    assert chain_identity_check(pair, [], []) < 1e-12


def test_sphere_circle_reflection_is_one_solve(map_calls):
    parse_model("sphere(2)")
    assert [d for name, d in map_calls if name == "matrix_coords"] and all(
        d == 3 for name, d in map_calls if name == "matrix_coords"
    )


# ---------------------------------------------------------------------------
# the relation-group product leaves the log domain to mat_log


class TestRelationGroupLogDomain:
    def setup(self, monkeypatch, log):
        model = parse_model("spd(2)")
        center = LinearSubspace(model.pair.dim, model.pair.matrix_coords(np.eye(2))[None])
        monkeypatch.setattr(sympair, "mat_log", log)
        return model.pair, center

    def test_no_principal_log_means_no_chart_check(self, monkeypatch):
        def no_log(a, tol):
            raise DomainError("outside")

        pair, center = self.setup(monkeypatch, no_log)
        g = np.diag([1.0, 2.0])
        rg, rl = relation_group_product(pair, center, (g, 3.0 * np.eye(2)), (np.eye(2), np.eye(2)))
        assert same_bits(rg, g) and same_bits(rl, 3.0 * np.eye(2))

    def test_any_log_mat_log_gives_is_checked(self, monkeypatch):
        # far outside the ball |l - I| < 1: the chart check still runs when mat_log answers
        pair, center = self.setup(monkeypatch, lambda a, tol: np.diag([1.0, -1.0]))
        with pytest.raises(VerificationError, match="left the ideal's chart"):
            relation_group_product(pair, center, (np.eye(2), 5.0 * np.eye(2)), (np.eye(2), np.eye(2)))
