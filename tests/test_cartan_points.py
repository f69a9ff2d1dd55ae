"""Points are their Cartan matrices: the relations, morphisms and the quotient
projection act on Cartan stacks, judged on a fixed panel against the former
bodies, which act on explicit group elements of the points.

For a homomorphism ``phi`` with ``phi o sigma = sigma' o phi`` the point
``phi(g) K'`` has Cartan matrix ``phi(g sigma(g)^-1)``, so each image is a
formula in the Cartan matrix.  The chart relation takes the principal root
``S`` of ``X`` as the representative of ``x``; it has no root on the cut
locus (a Cartan eigenvalue -1), where it answers None and the group-element
body may decide.  Those are the only answers allowed to differ, and they are
counted.
"""

import collections

import numpy as np
import pytest
from oracles import oracle_relates, oracle_relates_group

from symspaces.catalog import TORUS_RELATION_GRID, parse_model
from symspaces.lts import LinearSubspace
from symspaces.numkernel import _principal_roots
from symspaces.quotient import ChartRelation, congruence_from_ideal, quotient_theorem_pipeline
from symspaces.symspace import SymPoint, exp_point

# the quotients of the quotient ladder: (model, ideal)
LADDER = (
    ("product(sphere(2),sphere(2))", "left_factor"),
    ("product(sphere(3),sphere(3))", "left_factor"),
    ("product(grassmann(2,5),grassmann(2,5))", "left_factor"),
    ("spd(3)", "center"),
    ("spd(4)", "center"),
)
# seven models with twelve designated morphisms between them, every sigma kind among them
MORPHISM_MODELS = (
    "sphere(2)",
    "spd(2)",
    "grassmann(1,3)",
    "torus_abelian(sqrt2)",
    "product(sphere(2),sphere(2))",
    "product(spd(2),spd(2))",
    "product(sphere(2),spd(2))",
)


def relative_gap(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.linalg.norm(a - b) / max(np.linalg.norm(b), 1.0))


def panel_elements(pair, rng, count=40) -> np.ndarray:
    """Group elements of ``count`` exponential points and of ``count`` tau-translates."""
    gs = pair.exp(pair.minus_to_matrix(0.4 * rng.standard_normal((2 * count, pair.dim_minus))))
    gs[count:] = pair._random_elements(rng, count, 1, 0.3) @ gs[count:]
    return gs


def panel_pairs(pair, rng, shifts) -> tuple:
    """Group elements of ``x`` and ``y`` for each panel point ``x``: ``y = x exp(w)``
    with ``w`` from ``shifts``, then ``y`` an exponential point near the base."""
    gs = panel_elements(pair, rng)
    related = gs @ pair.exp(pair.minus_to_matrix(shifts(len(gs))))
    unrelated = pair.exp(pair.minus_to_matrix(0.3 * rng.standard_normal((len(gs), pair.dim_minus))))
    return np.concatenate([gs, gs]), np.concatenate([related, unrelated])


@pytest.fixture(scope="module")
def ladder():
    out = {}
    for spec, name in LADDER:
        model = parse_model(spec)
        out[spec] = (model.pair, model.subspace_by_name(name).seed)
    return out


# ---------------------------------------------------------------------------
# relations


@pytest.mark.parametrize("spec", [spec for spec, _ in LADDER])
def test_chart_relation_keeps_the_panel_counts(ladder, spec):
    pair, n = ladder[spec]
    relation = congruence_from_ideal(pair, n)
    rng = np.random.default_rng(0)
    gx, gy = panel_pairs(pair, rng, lambda k: 0.3 * rng.standard_normal((k, n.dim)) @ n.basis)
    got = relation.relates(SymPoint.from_group(pair, gx), SymPoint.from_group(pair, gy))
    want = [oracle_relates_group(pair, relation.n_minus, g, h) for g, h in zip(gx, gy)]
    assert collections.Counter(got) == collections.Counter(want)
    assert {True, None} <= set(got)


@pytest.mark.parametrize("slope", ["sqrt2", "1/2"])
def test_torus_line_relation_keeps_the_panel_counts(slope):
    model = parse_model(f"torus_abelian({slope})")
    pair, lattice = model.pair, model.extras["lattice"]
    rng = np.random.default_rng(2)
    gx, gy = panel_pairs(pair, rng, lambda k: np.outer(rng.uniform(-2.0, 2.0, k), [1.0, lattice.slope]))
    got = model.extras["line_relation"].relates(SymPoint.from_group(pair, gx), SymPoint.from_group(pair, gy))
    gaps = SymPoint.from_group(pair, np.linalg.inv(gx) @ gy)
    want = lattice.members_float(gaps, **TORUS_RELATION_GRID)
    assert collections.Counter(got) == collections.Counter(want)
    assert {True, False} <= set(got)


def cut_locus_elements(pair) -> list:
    """Exact quarter turns in each plane of a basis direction of g_minus: their
    points have Cartan eigenvalue -1 exactly."""
    out = []
    for a in pair.minus_mats:
        i, j = np.argwhere(a > 0)[0]
        g = np.eye(pair.ambient_n)
        g[i, i] = g[j, j] = 0.0
        g[i, j], g[j, i] = 1.0, -1.0
        out.append(g)
    return out


@pytest.mark.parametrize("spec", ["sphere(2)", "product(sphere(2),sphere(2))"])
def test_cut_locus_slices_are_the_only_new_unknowns(spec):
    # a block mixing cut-locus and ordinary points, each y = x exp(w) with w in n:
    # the cut-locus pairs answer None, where the group-element body answers True
    pair = parse_model(spec).pair
    m = pair.dim_minus
    n = LinearSubspace(m, np.eye(m)[:1])
    relation = ChartRelation(pair, n)
    rng = np.random.default_rng(5)
    cut = cut_locus_elements(pair)
    ordinary = pair.exp(pair.minus_to_matrix(0.4 * rng.standard_normal((m, m))))
    gx = np.array([g for both in zip(cut, ordinary) for g in both])
    gy = gx @ pair.exp(pair.minus_to_matrix(0.3 * rng.standard_normal((2 * m, 1)) @ n.basis))
    xs, ys = SymPoint.from_group(pair, gx), SymPoint.from_group(pair, gy)
    assert all(np.isclose(np.linalg.eigvals(x.cartan), -1.0).any() for x in xs[::2])
    roots, rooted = _principal_roots(np.array([x.cartan for x in xs]), pair.tol)
    assert np.isnan(roots[::2]).all() and not rooted[::2].any()

    got = relation(xs, ys)
    want = [oracle_relates_group(pair, n, g, h) for g, h in zip(gx, gy)]
    assert want == [True] * (2 * m)
    new_unknowns = [i for i, (a, b) in enumerate(zip(got, want)) if a != b]
    assert new_unknowns == list(range(0, 2 * m, 2))  # m new Nones, one per cut-locus point
    assert [got[i] for i in new_unknowns] == [None] * m
    assert got == [oracle_relates(pair, n, x, y) for x, y in zip(xs, ys)]


# ---------------------------------------------------------------------------
# morphisms and the quotient projection


def test_morphism_images_are_the_images_of_group_elements():
    checked = 0
    for spec in MORPHISM_MODELS:
        for named in parse_model(spec).designated_morphisms:
            f = named.morphism
            gs = panel_elements(f.source, np.random.default_rng(1))
            images = f.many(SymPoint.from_group(f.source, gs))
            for g, image in zip(gs, images):
                want = SymPoint.from_group(f.target, f.pair_morphism.map_group(g))
                assert image.pair is f.target
                assert relative_gap(image.cartan, want.cartan) <= 1e-14, (spec, named.name)
            checked += 1
    assert checked == 12


@pytest.mark.parametrize("spec", [spec for spec, _ in LADDER])
def test_projection_images_are_ad_of_group_elements(ladder, spec):
    pair, n = ladder[spec]
    qr = quotient_theorem_pipeline(pair, n, rng=np.random.default_rng(0))
    project = qr.projection_points
    gs = panel_elements(pair, np.random.default_rng(3))
    for g, image in zip(gs, project(SymPoint.from_group(pair, gs))):
        # Ad(g) on g/l, realized from g as the former projection did
        coords = pair.matrix_coords(g @ project.comp_mats @ np.linalg.inv(g))
        want = SymPoint.from_group(qr.quotient_pair, project.comp @ coords.T)
        assert image.pair is qr.quotient_pair
        assert relative_gap(image.cartan, want.cartan) <= 1e-12


def test_a_point_is_its_cartan_matrix(ladder):
    pair, _ = ladder["spd(3)"]
    x = exp_point(pair, np.full(pair.dim_minus, 0.1))
    assert SymPoint.__slots__ == ("pair", "cartan")
    assert x.to_json() == {"pair_label": pair.label, "cartan": x.cartan.tolist()}
