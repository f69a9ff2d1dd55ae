"""Every point oracle answers a block.

A membership takes a list of points, a relation two equal-length lists and
the quotient projection a list of points; each returns one answer per point
(or pair).  For every oracle of the package the block answer must be, bit
for bit, the answers of its one-element blocks, and an empty block must give
``[]``.  The per-point bodies below are the ones the block bodies of the
catalog constraints, the preimage membership and the torus relation
replace, kept verbatim up to naming.
"""

import numpy as np
import pytest
from oracles import oracle_project_onto, oracle_tau_action, same_bits

from symspaces.catalog import TORUS_RELATION_GRID, parse_model
from symspaces.lts import LinearSubspace
from symspaces.numkernel import DEFAULT_TOL, Tolerance
from symspaces.quotient import _discrepancies, congruence_from_ideal, quotient_theorem_pipeline
from symspaces.subspace import (
    base_only,
    generate_integral,
    kernel_subspace,
    lts_of_subspace,
    preimage_subspace,
    whole_space,
)
from symspaces.symspace import SymPoint, base_point, exp_point, exp_points, same_points


def same_answers(got, want) -> bool:
    """Equal lists of True, False and None, each of the same type."""
    return got == want and [type(v) for v in got] == [type(v) for v in want]


def morphism(model, name):
    return next(m.morphism for m in model.designated_morphisms if m.name == name)


def probe_points(pair, n: LinearSubspace, seed: int) -> list:
    """Points of the subspace's system, random points near and far, and the base point."""
    rng = np.random.default_rng(seed)
    m = pair.dim_minus
    vs = [t * v for v in n.basis for t in (0.1, -0.5, 1.0)]
    vs += [scale * rng.standard_normal(m) for scale in (1e-9, 0.3, 1.0, 3.0) for _ in range(4)]
    return exp_points(pair, vs) + [base_point(pair)]


# ---------------------------------------------------------------------------
# memberships


def membership_cases():
    spd, torus = parse_model("spd(2)"), parse_model("torus_abelian(sqrt2)")
    product, sphere = parse_model("product(sphere(2),sphere(2))"), parse_model("sphere(2)")
    line = LinearSubspace(spd.pair.dim_minus, np.eye(spd.pair.dim_minus)[:1])
    left = product.subspace_by_name("left_factor").subspace
    return {
        "diagonal": spd.subspace_by_name("diagonal").subspace,
        "center": spd.subspace_by_name("center").subspace,
        "left_factor": left,
        "axis_line": torus.subspace_by_name("axis_line").subspace,
        "whole_space": whole_space(sphere.pair),
        "base_only": base_only(spd.pair),
        "great_circle": sphere.subspace_by_name("great_circle").subspace,
        "generate_integral": generate_integral(line, spd.pair),
        "dense_line": torus.subspace_by_name("dense_line").subspace,
        "preimage": preimage_subspace(morphism(product, "swap"), left),
        "kernel": kernel_subspace(morphism(product, "proj_left")),
    }


@pytest.fixture(scope="module")
def memberships():
    out = {}
    for i, (name, space) in enumerate(membership_cases().items()):
        out[name] = (space, probe_points(space.pair, lts_of_subspace(space), i))
    return out


MEMBERSHIPS = (
    "diagonal", "center", "left_factor", "axis_line", "whole_space", "base_only",
    "great_circle", "generate_integral", "dense_line", "preimage", "kernel",
)


@pytest.mark.parametrize("name", MEMBERSHIPS)
def test_a_membership_block_is_its_one_point_blocks(memberships, name):
    space, points = memberships[name]
    got = space.membership(points)
    assert same_answers(got, [space.membership([x])[0] for x in points])
    assert same_answers(got, [space.member(x) for x in points])
    assert True in got and (False in got or name == "whole_space")
    assert space.membership([]) == []


def test_the_cases_name_every_membership(memberships):
    assert set(memberships) == set(MEMBERSHIPS)
    # the chart membership leaves the far points undecided
    assert None in memberships["generate_integral"][0].membership(memberships["generate_integral"][1])


def oracle_preimage_member(f, n2_space, x):
    return n2_space.member(f(x))


@pytest.mark.parametrize("name", ["preimage", "kernel"])
def test_preimage_block_is_the_per_point_body(memberships, name):
    space, points = memberships[name]
    f, _ = space.backing
    # the swap pulls back the left factor; the kernel is the preimage of the target's base point
    n2_space = base_only(f.target) if name == "kernel" else memberships["left_factor"][0]
    assert n2_space.pair is f.target
    want = [oracle_preimage_member(f, n2_space, x) for x in points]
    assert same_answers(space.membership(points), want)


# ---------------------------------------------------------------------------
# the catalog constraints


def oracle_offdiag(cartan):
    return cartan[~np.eye(cartan.shape[0], dtype=bool)]


def oracle_scalar(cartan):
    k = cartan.shape[0]
    dev = cartan - (np.trace(cartan) / k) * np.eye(k)
    return dev.ravel()


def oracle_second_block_identity(cartan):
    return (cartan[2:, 2:] - np.eye(2)).ravel()


def oracle_right_block_identity(n_a):
    return lambda cartan: (cartan[n_a:, n_a:] - np.eye(cartan.shape[0] - n_a)).ravel()


def oracle_no_constraints(cartan):
    return np.zeros(0)


def oracle_at_base(cartan):
    return (cartan - np.eye(cartan.shape[0])).ravel()


def constraint_cases():
    out = []
    for n in range(2, 11):
        spd = parse_model(f"spd({n})")
        out.append((spd.pair, spd.subspace_by_name("diagonal").subspace.constraints, oracle_offdiag))
        out.append((spd.pair, spd.subspace_by_name("center").subspace.constraints, oracle_scalar))
    torus = parse_model("torus_abelian(sqrt2)")
    out.append((torus.pair, torus.subspace_by_name("axis_line").subspace.constraints, oracle_second_block_identity))
    for spec, n_a in (("product(sphere(2),spd(2))", 3), ("product(spd(2),spd(3))", 2)):
        product = parse_model(spec)
        left = product.subspace_by_name("left_factor").subspace
        out.append((product.pair, left.constraints, oracle_right_block_identity(n_a)))
    for spec in ("sphere(2)", "spd(3)"):
        pair = parse_model(spec).pair
        out.append((pair, whole_space(pair).constraints, oracle_no_constraints))
        out.append((pair, base_only(pair).constraints, oracle_at_base))
    return out


def test_each_constraint_row_is_the_per_point_body():
    rng = np.random.default_rng(5)
    names = set()
    for pair, constraints, oracle in constraint_cases():
        n = pair.ambient_n
        for count in (0, 1, 500):
            cartans = rng.standard_normal((count, n, n)) * rng.uniform(0.0, 100.0, (count, 1, 1))
            cartans[: count // 2] += np.eye(n)
            rows = constraints(cartans)
            assert rows.shape == (count, oracle(np.eye(n)).size), constraints.constraint_name
            for row, cartan in zip(rows, cartans):
                assert same_bits(row, oracle(cartan)), constraints.constraint_name
        names.add(constraints.constraint_name)
    assert names == {
        "cartan_offdiagonal_zero", "cartan_scalar", "second_block_identity",
        "right_block_identity", "none", "cartan_equals_identity",
    }


# ---------------------------------------------------------------------------
# relations


def relation_pairs(pair, n: LinearSubspace, seed: int) -> tuple:
    """Pairs related through n, pairs moved by tau, random pairs and one far pair."""
    rng = np.random.default_rng(seed)
    m = pair.dim_minus
    vs = [0.3 * rng.standard_normal(m) for _ in range(12)]
    xs = exp_points(pair, vs)
    shifts = [pair.exp(pair.minus_to_matrix(oracle_project_onto(n, 0.2 * rng.standard_normal(m)))) for _ in range(4)]
    ys = [SymPoint.from_group(pair, pair.exp(pair.minus_to_matrix(v)) @ g) for v, g in zip(vs[:4], shifts)]
    ys += [oracle_tau_action(pair, pair.random_element(rng, letters=1, scale=0.3), x) for x in xs[4:8]]
    ys += exp_points(pair, [rng.standard_normal(m) for _ in range(4)])
    far = exp_point(pair, 3.0 * np.eye(m)[-1])
    return xs + [base_point(pair)], ys + [far]


@pytest.fixture(scope="module")
def relations():
    product, torus = parse_model("product(sphere(2),sphere(2))"), parse_model("torus_abelian(sqrt2)")
    spd = parse_model("spd(2)")
    chart = congruence_from_ideal(product.pair, product.subspace_by_name("left_factor").seed)
    spd_chart = congruence_from_ideal(spd.pair, LinearSubspace.zero(spd.pair.dim_minus))
    line = torus.extras["line_relation"]
    return {
        name: (rel, relation_pairs(rel.pair, rel.n_minus, i))
        for i, (name, rel) in enumerate((("chart", chart), ("spd_chart", spd_chart), ("line_relation", line)))
    }


@pytest.mark.parametrize("name", ["chart", "spd_chart", "line_relation"])
def test_a_relation_block_is_its_one_pair_blocks(relations, name):
    rel, (xs, ys) = relations[name]
    got = rel.relates(xs, ys)
    assert same_answers(got, [rel.relates([x], [y])[0] for x, y in zip(xs, ys)])
    assert True in got and False in got
    assert None in got or name != "spd_chart"  # the far pair leaves the log's ball
    assert rel.relates([], []) == []


@pytest.mark.parametrize("name", ["chart", "line_relation"])
def test_columns_of_unequal_length_raise(relations, name):
    # a one-point column would otherwise broadcast against the other
    rel, (xs, ys) = relations[name]
    for short, long in ((xs[:1], ys[:3]), (xs[:3], ys[:1]), ([], ys[:1])):
        with pytest.raises(ValueError, match="unequal columns"):
            rel.relates(short, long)


def oracle_line_relates(lattice, pair, x, y):
    point = SymPoint(pair, np.linalg.inv(x.cartan) @ y.cartan)
    return lattice.members_float([point], **TORUS_RELATION_GRID)[0]


def test_line_relation_block_is_the_per_pair_body(relations):
    rel, (xs, ys) = relations["line_relation"]
    lattice = parse_model("torus_abelian(sqrt2)").extras["lattice"]
    want = [oracle_line_relates(lattice, rel.pair, x, y) for x, y in zip(xs, ys)]
    assert same_answers(rel.relates(xs, ys), want)


# ---------------------------------------------------------------------------
# the quotient projection


@pytest.mark.parametrize("ideal", ["zero", "left_factor", "full"])
def test_a_projection_block_is_its_one_point_blocks(ideal):
    product = parse_model("product(sphere(2),sphere(2))")
    m = product.pair.dim_minus
    n = {
        "zero": LinearSubspace.zero(m),
        "left_factor": product.subspace_by_name("left_factor").seed,
        "full": LinearSubspace.full(m),
    }[ideal]
    project = quotient_theorem_pipeline(product.pair, n, rng=np.random.default_rng(0)).projection_points
    points = probe_points(product.pair, n, 3)
    got = project(points)
    assert len(got) == len(points)
    for x, px in zip(points, got):
        (one,) = project([x])
        assert px.pair is one.pair and same_bits(px.cartan, one.cartan)
    empty = project([])
    assert empty.pair is project.target and len(empty) == 0


# ---------------------------------------------------------------------------
# one tolerance decision per block


@pytest.mark.parametrize("k", [1, 7])
def test_a_block_takes_one_verdicts_call(monkeypatch, k):
    # a per-row loop over the block would make k calls, each on one residual
    spd = parse_model("spd(2)")
    pair = spd.pair
    rng = np.random.default_rng(k)
    xs = exp_points(pair, 0.3 * rng.standard_normal((k, pair.dim_minus)))
    ys = exp_points(pair, 0.3 * rng.standard_normal((k, pair.dim_minus)))
    algebra = pair.to_matrix(rng.standard_normal((k, pair.dim)))
    line = LinearSubspace(pair.dim_minus, np.eye(pair.dim_minus)[:1])
    vectors = rng.standard_normal((k, pair.dim_minus))
    diagonal = spd.subspace_by_name("diagonal").subspace
    assert diagonal.kind == "algebraic"

    calls = []
    verdicts = Tolerance.verdicts

    def counted(self, residuals, scales):
        calls.append(np.shape(residuals))
        return verdicts(self, residuals, scales)

    monkeypatch.setattr(Tolerance, "verdicts", counted)
    for label, decide, shape in (
        ("_coords_each", lambda: pair.matrix_coords(algebra), (k,)),
        ("same_points", lambda: same_points(xs, ys), (k,)),
        ("algebraic membership", lambda: diagonal.membership(xs), (k,)),
        ("contains_each", lambda: line.contains_each(vectors, DEFAULT_TOL), (k,)),
        # the normality gate and the root check of a block of normal Cartan matrices
        ("the relation's root check", lambda: _discrepancies(pair, xs, ys), (2, k)),
    ):
        del calls[:]
        decide()
        assert calls == [shape], label
