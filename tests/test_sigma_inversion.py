"""The quotient path inverts Cartan matrices through sigma.

A Cartan matrix ``C = g sigma(g)^-1`` has ``sigma(C) = C^-1``, and so has a
confirmed principal root ``S`` of one, which is a transvection
representative.  So the point projection takes ``C M_b sigma(C)``, and the
chart relation takes the discrepancy ``S^-1 Y S^-1`` with ``S^-1 =
sigma(S)``: no LU for a conjugation-type pair.  Both are judged against
their former LU bodies (``oracles.oracle_projection_inv`` and
``oracles.oracle_discrepancies_inv``) within their rounding: both
approximate the same inverse, each with an error of about eps times the
condition number, and neither is the closer one in general.  On the panel of
``test_cartan_points``, with cut-locus blocks, the relation answers as
``oracles.oracle_relates`` pair by pair.  A spy holds the LAPACK budget of
two ``quotient_ladder`` passes.
"""

import collections
import functools

import numpy as np
import pytest
from oracles import (
    benchmark_cases,
    lapack_spy,
    load_case_bytes,
    oracle_discrepancies_inv,
    oracle_projection_inv,
    oracle_relates,
)
from test_cartan_points import LADDER, cut_locus_elements, panel_elements, panel_pairs, relative_gap

from symspaces.catalog import parse_model
from symspaces.numkernel import _principal_roots
from symspaces.quotient import _discrepancies, quotient_theorem_pipeline
from symspaces.symspace import Points, SymPoint, exp_points, mu_points, same_points, tau_actions

# every model of the benchmark cases, with grassmann(1,3) and the rational torus
SIGMA_MODELS = tuple(dict.fromkeys([argv[2] for argv in benchmark_cases()] + ["grassmann(1,3)", "torus_abelian(1/2)"]))
# the ladder quotients whose pair is compact, so that it has a cut locus
COMPACT = ("product(sphere(2),sphere(2))", "product(sphere(3),sphere(3))", "product(grassmann(2,5),grassmann(2,5))")


@pytest.fixture(scope="module")
def quotients():
    out = {}
    for spec, name in LADDER:
        model = parse_model(spec)
        out[spec] = quotient_theorem_pipeline(model.pair, model.subspace_by_name(name).seed, rng=np.random.default_rng(0))
    return out


def panel_points(pair) -> Points:
    """The panel's exponential and tau-translated points, then mu of consecutive pairs of them."""
    xs = SymPoint.from_group(pair, panel_elements(pair, np.random.default_rng(3)))
    return xs + mu_points(xs[0::2], xs[1::2])


@pytest.mark.parametrize("spec", SIGMA_MODELS)
def test_sigma_inverts_every_cartan_matrix(spec):
    # exponential, tau-translated and mu points, and the confirmed roots of all of them
    pair = parse_model(spec).pair
    rng = np.random.default_rng(7)
    xs = exp_points(pair, 0.4 * rng.standard_normal((24, pair.dim_minus)))
    moved = tau_actions(pair, pair._random_elements(rng, 24, 1, 0.3), xs)
    points = xs + moved + mu_points(xs, moved)
    roots, rooted = _principal_roots(points.cartans, pair.tol)
    assert rooted.sum() >= 24
    eye = np.eye(pair.ambient_n)
    for c in np.concatenate([points.cartans, roots[rooted]]):
        assert pair.tol.close(pair.sigma.apply(c) @ c, eye)


@pytest.mark.parametrize("spec", [spec for spec, _ in LADDER])
def test_projection_is_the_lu_body_within_rounding(quotients, spec):
    project = quotients[spec].projection_points
    points = panel_points(project.source)
    got, want = project(points), oracle_projection_inv(project, points)
    assert got.pair is want.pair is project.target
    assert len(got) == len(points) == 120
    # 1e-12 up to a condition number of 100 (every compact point), then in
    # step with it: spd(4)'s mu points reach 1.1e6, and a gap of 1.1e-12
    for a, b, cond in zip(got.cartans, want.cartans, np.linalg.cond(points.cartans)):
        assert relative_gap(a, b) <= 1e-14 * max(cond, 100.0)


def panel_blocks(pair, n) -> tuple:
    """The x and y points of the relation panel: ``y = x exp(w)`` with ``w`` in n
    and ``y`` near the base, then, for a compact pair, cut-locus points ``x`` and
    ordinary ones, each with a ``y = x exp(w)``."""
    rng = np.random.default_rng(0)
    gx, gy = panel_pairs(pair, rng, lambda k: 0.3 * rng.standard_normal((k, n.dim)) @ n.basis)
    if pair.label in COMPACT:
        cut = np.array(cut_locus_elements(pair))
        ordinary = pair.exp(pair.minus_to_matrix(0.4 * rng.standard_normal((len(cut), pair.dim_minus))))
        blocks = np.concatenate([cut, ordinary])
        shifts = pair.exp(pair.minus_to_matrix(0.3 * rng.standard_normal((len(blocks), n.dim)) @ n.basis))
        gx, gy = np.concatenate([gx, blocks]), np.concatenate([gy, blocks @ shifts])
    return SymPoint.from_group(pair, gx), SymPoint.from_group(pair, gy)


@pytest.mark.parametrize("spec", [spec for spec, _ in LADDER])
def test_discrepancies_are_the_lu_body_within_rounding(quotients, spec):
    relation = quotients[spec].relation
    xs, ys = panel_blocks(relation.pair, relation.n_minus)
    got, rooted = _discrepancies(relation.pair, xs, ys)
    want, want_rooted = oracle_discrepancies_inv(relation.pair, xs, ys)
    assert rooted.tolist() == want_rooted.tolist()
    assert len(got) == rooted.sum() >= 120
    # 1e-12 in units of the first-order rounding of S^-1 Y S^-1 from that of
    # S^-1, cond(S) |S^-1|^2 |Y| / max(|D|, 1): up to 10 on the compact pairs
    roots = np.linalg.inv(_principal_roots(xs.cartans[rooted], relation.pair.tol)[0])
    norm = functools.partial(np.linalg.norm, axis=(1, 2))
    scales = np.linalg.cond(roots) * norm(roots) ** 2 * norm(ys.cartans[rooted]) / np.maximum(norm(want.cartans), 1.0)
    assert all(relative_gap(a, b) <= 1e-12 * scale for a, b, scale in zip(got.cartans, want.cartans, scales))
    assert all(same_points(got, want))


@pytest.mark.parametrize("spec", [spec for spec, _ in LADDER])
def test_relation_verdicts_are_the_oracles_on_the_panel(quotients, spec):
    relation = quotients[spec].relation
    pair, n = relation.pair, relation.n_minus
    xs, ys = panel_blocks(pair, n)
    got = relation.relates(xs, ys)
    want = [oracle_relates(pair, n, x, y) for x, y in zip(xs, ys)]
    assert got == want
    counts = collections.Counter(got)
    assert counts == collections.Counter(want)
    assert counts[True] and len(counts) >= 2
    if spec in COMPACT:
        assert counts[None] >= len(cut_locus_elements(pair))


@pytest.mark.parametrize("spec", ["product(sphere(2),sphere(2))", "spd(3)"])  # sigma by conjugation, and by transpose-inverse
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_a_non_finite_point_fails_the_projection(quotients, spec, bad):
    project = quotients[spec].projection_points
    pair = project.source
    cartans = exp_points(pair, 0.2 * np.random.default_rng(1).standard_normal((3, pair.dim_minus))).cartans.copy()
    cartans[1, 0, 1] = bad
    block = Points._wrap(pair, cartans)
    for call in (project, lambda points: oracle_projection_inv(project, points)):
        with np.errstate(invalid="ignore", over="ignore"):
            with pytest.raises(ValueError, match=r"^matrix does not lie in the algebra \(residual nan\)$"):
                call(block)


def test_two_quotient_ladder_passes_keep_the_lapack_budget():
    # 8,079 inv and 766 svd slices in the package when the projection and the
    # relation inverted by LU and every slice between the ball's two norms
    # took the SVD; 4,645 and 229 after that; 1,522 and 154 since the
    # morphism law runs 32 samples, n is wrapped into the full algebra and
    # the algebra projection is checked by GEMMs
    case_bytes = load_case_bytes()
    with pytest.MonkeyPatch.context() as mp:
        slices = lapack_spy(mp, ("inv", "svd"), caller="symspaces")
        for group in range(2):
            case_bytes.run_cases("quotient_ladder", group)
    assert 0 < slices["inv"] <= 1700
    assert 0 < slices["svd"] <= 170
