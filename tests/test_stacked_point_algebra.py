"""The stacked point algebra: ``mu_points``, ``cartan_distances``,
``same_points``, ``tau_actions`` and ``SymMorphism.many``.

The oracles below are the per-point bodies of the point product,
``cartan_distance``, ``SymPoint.same``, the action ``(g, hK) -> ghK`` and
``SymMorphism.__call__`` that the stacked bodies replace, kept verbatim up
to naming and re-pinned to points that are their Cartan matrices.  Each slice of a stacked call, and each
single call, must give the oracle's bits; the verify suites and the submersion check must make
a fixed number of stacked calls, whatever their sample count.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import count_calls, oracle_mu, oracle_require_same_pair, oracle_tau_action, same_bits, same_point

from symspaces import symspace
from symspaces.catalog import parse_model
from symspaces.numkernel import DEFAULT_TOL, Tolerance
from symspaces.quotient import quotient_theorem_pipeline, weak_submersion_check
from symspaces.reports import functoriality_report, one_param_report, reflection_axiom_report, verify_model
from symspaces.subspace import fixed_point_subspace, lts_of_subspace
from symspaces.sympair import MatrixSymmetricPair, SigmaRule
from symspaces.symspace import (
    SymMorphism,
    SymPoint,
    base_point,
    cartan_distance,
    cartan_distances,
    exp_points,
    mu_points,
    same_points,
    tau_actions,
)

# one model per sigma kind (conjugation, transpose_inverse, composite), and
# one with the diagonal, swap and projection morphisms of a product
MODELS = ("sphere(2)", "spd(2)", "product(sphere(2),spd(2))", "product(sphere(2),sphere(2))")


_ZOO = {}


def catalog_model(spec):
    if spec not in _ZOO:
        _ZOO[spec] = parse_model(spec)
    return _ZOO[spec]


@pytest.fixture(scope="module")
def zoo():
    return {spec: catalog_model(spec) for spec in MODELS}


# ---------------------------------------------------------------------------
# the per-point bodies that the stacked calls replace


def oracle_cartan_distance(x, y):
    oracle_require_same_pair(x, y)
    return float(np.linalg.norm(x.cartan - y.cartan))


def oracle_same(x, y):
    oracle_require_same_pair(x, y)
    return x.pair.tol.close(x.cartan, y.cartan)


def oracle_image(f, x):
    if x.pair is not f.source:
        raise ValueError("point does not belong to the given pair")
    return SymPoint(f.target, f.pair_morphism.map_group(x.cartan))


def mixed_points(pair, rng, k):
    """``k`` points of every kind the package makes: exponentials,
    tau-translates and products."""
    vs = [0.4 * rng.standard_normal(pair.dim_minus) for _ in range(3 * k)]
    points = exp_points(pair, vs)
    gs = pair._random_elements(rng, k, 1, 0.3)
    moved = tau_actions(pair, gs, points[k : 2 * k])
    products = mu_points(points[:k], moved)
    return [p for triple in zip(points[2 * k :], moved, products) for p in triple][:k]


# ---------------------------------------------------------------------------
# each slice is the single call


@pytest.mark.parametrize("spec", MODELS)
@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 7))
def test_each_slice_is_the_old_single_call(spec, seed, k):
    model = catalog_model(spec)
    pair = model.pair
    rng = np.random.default_rng(seed)
    xs, ys = mixed_points(pair, rng, k), mixed_points(pair, rng, k)
    ys[0] = xs[0]  # one pair of equal points, so same_points meets a True

    products = mu_points(xs, ys)
    for x, y, got in zip(xs, ys, products):
        assert same_point(got, oracle_mu(x, y))
    twice = mu_points(xs, products)  # products of products
    for x, p, got in zip(xs, products, twice):
        assert same_point(got, oracle_mu(x, p))

    distances = cartan_distances(xs, ys)
    same = same_points(xs, products)
    for i, (x, y) in enumerate(zip(xs, ys)):
        assert type(distances[i]) is float
        assert same_bits(distances[i], oracle_cartan_distance(x, y))
        assert same_bits(cartan_distance(x, y), distances[i])
        assert same[i] is oracle_same(x, products[i]) is x.same(products[i])
    assert same_points([xs[0]], [ys[0]]) == [True]

    gs = pair._random_elements(rng, k, 2, 0.5)
    moved = tau_actions(pair, gs, xs)
    for g, x, got in zip(gs, xs, moved):
        assert same_point(got, oracle_tau_action(pair, g, x))

    for named in model.designated_morphisms:
        f = named.morphism
        sources = mixed_points(f.source, rng, k)
        images = f.many(sources)
        assert len(images) == k
        for x, got in zip(sources, images):
            assert got.pair is f.target
            assert same_point(got, oracle_image(f, x))
            assert same_point(f(x), got)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    k=st.integers(0, 6),
    n=st.integers(1, 6),
    scale=st.sampled_from([1e-12, 1e-9, 1e-6, 1.0, 1e3, 1e12]),
)
def test_same_points_is_close_per_slice(seed, k, n, scale):
    rng = np.random.default_rng(seed)
    a = scale * rng.standard_normal((k, n, n))
    # near copies at, inside and outside the tolerance, and unrelated slices
    b = a + rng.choice([0.0, 1e-11, 1e-9, 1e-6, 1.0], size=(k, 1, 1)) * rng.standard_normal((k, n, n))
    b[::3] = rng.standard_normal((len(b[::3]), n, n))
    for tol in (DEFAULT_TOL, Tolerance(abs_eps=1e-6, rel_eps=1e-3)):
        # a pair with no basis: same_points reads only the Cartan matrices and the tolerance
        pair = MatrixSymmetricPair(n, np.zeros((0, n, n)), np.zeros((0, n, n)), SigmaRule("transpose_inverse"), tol=tol)
        got = same_points([SymPoint(pair, x) for x in a], [SymPoint(pair, y) for y in b])
        assert got == [tol.close(x, y) for x, y in zip(a, b)]
        assert all(type(v) is bool for v in got)


# ---------------------------------------------------------------------------
# edges


def test_unequal_columns_raise(zoo):
    pair = zoo["sphere(2)"].pair
    xs = exp_points(pair, [np.zeros(2), np.ones(2)])
    for call in (mu_points, cartan_distances, same_points):
        with pytest.raises(ValueError, match="unequal columns: 2 and 1 points"):
            call(xs, xs[:1])
        with pytest.raises(ValueError, match="unequal columns: 0 and 2 points"):
            call([], xs)
    with pytest.raises(ValueError, match="unequal columns: 1 group elements and 2 points"):
        tau_actions(pair, [np.eye(3)], xs)
    with pytest.raises(ValueError, match="unequal columns: 3 group elements and 2 points"):
        tau_actions(pair, np.stack([np.eye(3)] * 3), xs)


def test_a_single_matrix_is_no_stack(zoo):
    # its three rows would otherwise be taken for three matrices
    pair = zoo["sphere(2)"].pair
    xs = exp_points(pair, [np.zeros(2)] * 3)
    with pytest.raises(ValueError, match="expected a stack of group elements, got a single matrix"):
        tau_actions(pair, np.eye(3), xs)


def test_one_singular_element_fails_the_stack(zoo):
    pair = zoo["spd(2)"].pair
    xs = exp_points(pair, [np.zeros(3)] * 3)
    with pytest.raises(ValueError, match="tau requires an invertible group element"):
        tau_actions(pair, [np.eye(2), np.zeros((2, 2)), np.eye(2)], xs)


def test_mixed_pairs_keep_their_message(zoo):
    x = base_point(zoo["sphere(2)"].pair)
    y = base_point(zoo["product(sphere(2),sphere(2))"].pair)
    z = base_point(zoo["sphere(2)"].pair)
    for call in (mu_points, cartan_distances, same_points):
        with pytest.raises(ValueError, match="point does not belong to the given pair"):
            call([x], [y])
        with pytest.raises(ValueError, match="point does not belong to the given pair"):
            call([x, y], [z, y])  # each pair of points agrees, the batch does not
    for call in (cartan_distance, SymPoint.same):
        with pytest.raises(ValueError, match="point does not belong to the given pair"):
            call(x, y)


def test_empty_batches(zoo):
    model = zoo["product(sphere(2),sphere(2))"]
    pair = model.pair
    assert mu_points([], []) == []
    assert cartan_distances([], []) == []
    assert same_points([], []) == []
    for empty in (tau_actions(pair, [], []), tau_actions(pair, np.empty((0, 6, 6)), [])):
        assert empty.pair is pair and empty.cartans.shape == (0, 6, 6)
    for named in model.designated_morphisms:
        f = named.morphism
        empty = f.many([])
        assert empty.pair is f.target and empty.cartans.shape == (0,) + (f.target.ambient_n,) * 2


def test_an_image_of_a_foreign_point_raises(zoo):
    f = zoo["product(sphere(2),spd(2))"].designated_morphisms[0].morphism
    foreign = base_point(zoo["sphere(2)"].pair)
    for call in (f, lambda x: f.many([base_point(f.source), x])):
        with pytest.raises(ValueError, match="point does not belong to the given pair"):
            call(foreign)


@pytest.mark.parametrize("spec", MODELS)
def test_no_samples_give_zero_residuals(zoo, spec):
    model = zoo[spec]
    rng = np.random.default_rng(3)
    report = reflection_axiom_report(model, rng, samples=0)
    assert [report[k] for k in ("symmetry_involutive", "symmetry_fixes_point", "symmetry_automorphism")] == [0.0] * 3
    assert one_param_report(model, rng, samples=0) == 0.0
    assert functoriality_report(model, rng, samples=0) == {n.name: 0.0 for n in model.designated_morphisms}


# ---------------------------------------------------------------------------
# long chains


def test_long_chain_of_stacked_products_is_the_eager_chain(zoo):
    # 3000 stacked products, each over the previous batch
    pair = zoo["spd(2)"].pair
    rng = np.random.default_rng(9)
    word = exp_points(pair, [0.001 * rng.standard_normal(3) for _ in range(6000)])
    stacked = [base_point(pair), base_point(pair)]
    eager = [base_point(pair), base_point(pair)]
    for step in range(3000):
        ps = word[2 * step : 2 * step + 2]
        stacked = mu_points(ps, stacked)
        eager = [oracle_mu(p, e) for p, e in zip(ps, eager)]
    for got, want in zip(stacked, eager):
        assert same_point(got, want)


# ---------------------------------------------------------------------------
# one stacked call per suite


@pytest.mark.parametrize("samples", [3, 25])
def test_verify_suites_make_one_stacked_call_per_law(zoo, samples, monkeypatch):
    model = zoo["product(sphere(2),sphere(2))"]
    calls = {
        name: count_calls(monkeypatch, symspace, name)
        for name in ("mu_points", "cartan_distances", "same_points", "_tau_actions")
    }
    images = []
    many = SymMorphism.many
    monkeypatch.setattr(SymMorphism, "many", lambda self, points: images.append(1) or many(self, points))
    verify_model(model, np.random.default_rng(7), samples=samples)
    # reflection: 7 products for the three laws and 2 for the chart laws; one_param: 1
    assert len(calls["mu_points"]) == 10
    # reflection 3, one_param 1, functoriality one per morphism
    assert len(calls["cartan_distances"]) == 4 + len(model.designated_morphisms)
    assert len(calls["_tau_actions"]) == 1
    assert calls["same_points"] == []
    assert len(images) == len(model.designated_morphisms)


@pytest.fixture(scope="module")
def product_quotient(zoo):
    product = zoo["product(sphere(2),sphere(2))"]
    sub = product.subspace_by_name("left_factor")
    return quotient_theorem_pipeline(product.pair, sub.seed, subspace=sub.subspace, rng=np.random.default_rng(42))


@pytest.mark.parametrize("samples", [4, 60])
def test_submersion_check_makes_one_stacked_call_per_block(product_quotient, samples, monkeypatch):
    names = ("mu_points", "same_points", "_tau_actions")
    calls = {name: count_calls(monkeypatch, symspace, name) for name in names}
    result = weak_submersion_check(product_quotient, np.random.default_rng(1), samples=samples)
    assert result["ok"]
    assert [len(calls[name]) for name in names] == [2, 2, 1]


# ---------------------------------------------------------------------------
# the fixed-point membership


def oracle_fixed_member(automorphism, x):
    return oracle_same(oracle_image(automorphism, x), x)


def test_fixed_point_membership_block_is_the_single_member(zoo):
    model = zoo["product(sphere(2),sphere(2))"]
    pair = model.pair
    swap = next(n.morphism for n in model.designated_morphisms if n.name == "swap")
    space = fixed_point_subspace(pair, swap)
    rng = np.random.default_rng(11)
    vs = [0.3 * rng.standard_normal(4) for _ in range(12)]
    vs += [np.concatenate([v[:2], v[:2]]) for v in vs[:6]]  # on the diagonal: members
    points = exp_points(pair, vs)
    want = [oracle_fixed_member(swap, x) for x in points]
    assert True in want and False in want
    assert space.membership(points) == want
    assert [space.member(x) for x in points] == want
    assert space.membership([]) == []


def test_certification_grid_takes_one_image_call(zoo, monkeypatch):
    space = zoo["sphere(2)"].subspace_by_name("great_circle").subspace
    sizes = []
    many = SymMorphism.many

    def counted(self, points):
        points = list(points)
        sizes.append(len(points))
        return many(self, points)

    monkeypatch.setattr(SymMorphism, "many", counted)
    cand = lts_of_subspace(space)
    # the base point and every ray of the grid in one block
    assert sizes == [1 + 8 * cand.dim]
