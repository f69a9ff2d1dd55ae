"""The coordinate maps of a pair take stacks, one body per direction.

``to_matrix``/``minus_to_matrix`` map a vector or a ``(k, d)`` stack of
rows; each row is bit for bit the vector call and the ``tensordot`` body it
replaced (kept below as the oracle).  ``matrix_coords``/``matrix_to_minus``
map a matrix or a ``(k, n, n)`` stack through the pair's cached
pseudo-inverse, each row bit for bit its single call and within rounding of
the least-squares solve it replaced, and each matrix passes its own residual
test.  That test rebuilds every matrix of a stack from one ``(k, d) @ (d,
n*n)`` product; on stacks that mix matrices inside and outside the span it
fails the same matrices, with the same messages, as the former per-row body
(``oracles.oracle_coords_each``).  The callers that looped over the map
one vector or one matrix at a time make stacked calls.
"""

import io
from contextlib import redirect_stdout

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import oracle_coords_each, same_bits

from symspaces import cli
from symspaces.catalog import parse_model
from symspaces.lts import VerificationError
from symspaces.quotient import quotient_theorem_pipeline
from symspaces.sympair import _NOT_IN_ALGEBRA, MatrixSymmetricPair, SigmaRule, _coords_each, _coords_stack
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


def mixed_stack(pair, minus: bool, seed: int, lead: tuple, offsets: list) -> tuple:
    """A ``lead + (n, n)`` stack of matrices of the span, each moved off it by its
    offset times ``max(|x|, 1)`` along a unit matrix orthogonal to the span (no
    move where the span is every matrix), and whether each was moved."""
    mats, pinv = (pair.minus_mats, pair._minus_pinv) if minus else (pair.basis_mats, pair._basis_pinv)
    d, n = len(mats), pair.ambient_n
    rng = np.random.default_rng(seed)
    count = len(offsets)
    flat_mats = mats.reshape(d, n * n)
    inside = (rng.standard_normal((count, d)) * 10.0 ** rng.uniform(-3.0, 3.0, (count, 1))) @ flat_mats
    noise = rng.standard_normal((count, n * n))
    normal = noise - (noise @ pinv) @ flat_mats
    norms = np.linalg.norm(normal, axis=1)
    moved = (np.array(offsets) > 0.0) & (norms > 1e-6)
    step = np.where(moved, offsets, 0.0) * np.maximum(np.linalg.norm(inside, axis=1), 1.0) / np.maximum(norms, 1e-6)
    x = inside + step[:, None] * normal
    return mats, pinv, x.reshape(lead + (n, n)), moved


RESIDUAL_MODELS = ("sphere(2)", "spd(2)", "spd(3)", "grassmann(2,5)", "product(sphere(2),spd(2))", QUOTIENT)


class TestVectorizedResidual:
    """The residual test rebuilds the matrices from one product for the stack;
    the former per-row body is the oracle of its verdicts and its messages."""

    @settings(max_examples=80, deadline=None)
    @given(
        spec=st.sampled_from(RESIDUAL_MODELS),
        minus=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
        lead=st.sampled_from([(1,), (5,), (2, 1), (3, 4), (1, 6)]),
        data=st.data(),
    )
    def test_failing_matrices_and_messages_match_the_per_row_body(self, coord_pairs, spec, minus, seed, lead, data):
        pair = coord_pairs[spec]
        count = int(np.prod(lead))
        offsets = data.draw(st.lists(st.one_of(st.just(0.0), st.floats(1e-6, 1e2)), min_size=count, max_size=count))
        mats, pinv, x, moved = mixed_stack(pair, minus, seed, lead, offsets)
        outside = "is not in g_minus" if minus else _NOT_IN_ALGEBRA
        coords, errors = _coords_each(mats, pinv, x, pair.tol, outside)
        want_coords, want_errors = oracle_coords_each(mats, pinv, x, pair.tol, outside)
        assert same_bits(coords, want_coords) and coords.shape == lead + (len(mats),)
        assert [e is not None for e in errors] == [e is not None for e in want_errors] == moved.tolist()
        assert [str(e) for e in errors] == [str(e) for e in want_errors]
        failing = [e for e in want_errors if e is not None]
        if failing:
            with pytest.raises(ValueError) as first:
                _coords_stack(mats, pinv, x, pair.tol, outside)
            assert str(first.value) == str(failing[0])
            assert str(first.value).startswith(f"matrix {outside} (residual ")
        else:
            assert same_bits(_coords_stack(mats, pinv, x, pair.tol, outside), want_coords)

    def test_a_group_stack_names_its_first_failing_matrix(self, coord_pairs):
        # groups of the point projection's shape: the first matrix of the
        # third group is the first outside the span, in row-major order
        pair = coord_pairs["product(sphere(2),spd(2))"]
        offsets = [0.0, 0.0, 0.0, 0.0, 1e-3, 0.5]
        mats, pinv, x, moved = mixed_stack(pair, False, 3, (3, 2), offsets)
        assert moved.tolist() == [False] * 4 + [True, True]
        errors = _coords_each(mats, pinv, x, pair.tol, _NOT_IN_ALGEBRA)[1]
        assert [e is None for e in errors] == [True] * 4 + [False, False]
        with pytest.raises(ValueError, match=r"^matrix does not lie in the algebra \(residual [0-9.]+e[+-][0-9]+\)$") as first:
            _coords_stack(mats, pinv, x, pair.tol, _NOT_IN_ALGEBRA)
        assert str(first.value) == str(errors[4])


# ---------------------------------------------------------------------------
# the callers make stacked calls


@pytest.fixture()
def map_calls(monkeypatch):
    """``(method, ndim of the argument)`` of every coordinate-map call."""
    calls = []
    for name in ("to_matrix", "minus_to_matrix", "matrix_coords", "_algebra_coords", "matrix_to_minus"):
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
    # matrix_coords and its unchecked body always take a stack; a single
    # matrix_to_minus is a chart log or the bracket target
    assert all(d == 3 for name, d in map_calls if name in ("matrix_coords", "_algebra_coords"))


def test_chain_identity_makes_two_stacked_maps(coord_pairs, map_calls):
    pair = coord_pairs["spd(3)"]
    rng = np.random.default_rng(5)
    xs, ys = list(0.2 * rng.standard_normal((4, pair.dim_minus))), list(0.2 * rng.standard_normal((4, pair.dim_minus)))
    assert chain_identity_check(pair, xs, ys) < 1e-9
    assert map_calls == [("minus_to_matrix", 2), ("minus_to_matrix", 2)]
    assert chain_identity_check(pair, [], []) < 1e-12


def test_sphere_circle_reflection_is_one_solve(map_calls):
    parse_model("sphere(2)").subspace_by_name("great_circle")  # built on request
    assert [d for name, d in map_calls if name == "_algebra_coords"] and all(
        d == 3 for name, d in map_calls if name in ("matrix_coords", "_algebra_coords")
    )
