"""Verification suites producing deterministic report dictionaries.

Everything here is sampling-based plumbing shared by the CLI and the
acceptance tests; all randomness flows through one seeded generator so
reports are reproducible byte-for-byte.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .catalog import ModelDescriptor
from .lts import check_lts_axioms
from .subspace import (
    ChartSplitError,
    exp_chart_split,
    generate_integral,
    lts_of_subspace,
    split_complement_criterion,
)
from .symspace import (
    Points,
    _chart_logs,
    _raise_first,
    _scattered,
    _tau_actions,
    cartan_distance,
    cartan_distances,
    exp_point,
    exp_points,
    lts_of_pair,
    mu_points,
    trotter_bracket_sym,
    trotter_sum_sym,
)

__all__ = [
    "reflection_axiom_report",
    "verify_model",
    "trotter_sum_table",
    "trotter_bracket_table",
    "subspace_report",
]

# Absolute pass gate of every ``verify`` report (``_gated``): ``ok`` is ``max_residual < VERIFY_GATE``.
VERIFY_GATE = 1e-8

# The tangent-product check of ``reflection_axiom_report`` reads a chart gap
# at or below these floors as rounding: a gap <= QUADRATIC_GAP_FLOOR adds 0 to
# the quadratic bound, and a Richardson ratio needs a gap above RICHARDSON_GAP_FLOOR.
# Fixed: both are absolute gaps, which do not follow the run's tolerance.
QUADRATIC_GAP_FLOOR = 1e-13
RICHARDSON_GAP_FLOOR = 1e-12


def reflection_axiom_report(model: ModelDescriptor, rng: np.random.Generator, samples: int = 25) -> dict:
    """Sampled reflection-space axioms plus the two linearized base-point laws."""
    pair = model.pair
    # draw every sample point first, in the order of the per-point draws
    # (a moved point's letter is random_element's draw, exponentiated in one stacked call)
    vs, moved, letters = [], [], []
    for i in range(3 * samples):
        vs.append(0.4 * rng.standard_normal(pair.dim_minus))
        if rng.uniform() < 0.25:
            moved.append(i)
            letters.append(0.3 * rng.standard_normal(pair.dim))
    points = exp_points(pair, vs)
    elements = pair._elements_from_words(np.reshape(letters, (len(letters), 1, pair.dim)))
    points = _scattered(points, moved, _tau_actions(pair, elements, points[moved]))
    # each axiom over all samples at once, one stacked product per mu of the per-sample law
    xs, ys, zs = points[0::3], points[1::3], points[2::3]
    xy = mu_points(xs, ys)
    involution = cartan_distances(mu_points(xs, xy), ys)
    fixed = cartan_distances(mu_points(xs, xs), xs)
    automorphism = cartan_distances(mu_points(xs, mu_points(ys, zs)), mu_points(xy, mu_points(xs, zs)))
    res_invol = res_fix = res_auto = 0.0
    for d_invol, d_fix, d_auto in zip(involution, fixed, automorphism):
        res_invol = max(res_invol, d_invol)
        res_fix = max(res_fix, d_fix)
        res_auto = max(res_auto, d_auto)

    # derivative of the base symmetry in normal coordinates is -identity, and
    # the tangent-space product v.w = 2v - w is second-order in the chart;
    # both checks take their points from one exp_points and one log_points call
    m = pair.dim_minus
    h = 1e-5
    units = []
    for _ in range(4):
        u = rng.standard_normal(m)
        w = rng.standard_normal(m)
        u /= max(np.linalg.norm(u), 1e-12)
        w /= max(np.linalg.norm(w), 1e-12)
        units.append((u, w))
    epsilons = (0.08, 0.04)
    steps = [s * h * e for e in np.eye(m) for s in (1.0, -1.0)]
    words = [eps * v for u, w in units for eps in epsilons for v in (u, w)]
    points = exp_points(pair, steps + words)
    base = Points._wrap(pair, np.tile(np.eye(pair.ambient_n), (len(steps), 1, 1)))
    reflected = mu_points(base, points[: len(steps)])
    products = mu_points(points[len(steps) :: 2], points[len(steps) + 1 :: 2])
    logs = _raise_first(_chart_logs(pair, reflected + products))  # log_point of each, or its first error

    res_neg = 0.0
    for e, fp, fm in zip(np.eye(m), logs[0 : len(steps) : 2], logs[1 : len(steps) : 2]):
        res_neg = max(res_neg, float(np.linalg.norm((fp - fm) / (2 * h) + e)))

    ratios = []
    worst = 0.0
    gaps = iter(logs[len(steps) :])
    for u, w in units:
        g1, g2 = (float(np.linalg.norm(next(gaps) - eps * (2 * u - w))) for eps in epsilons)
        worst = max(worst, g1 / (0.08 ** 2) if g1 > QUADRATIC_GAP_FLOOR else 0.0)
        if g1 > RICHARDSON_GAP_FLOOR:
            ratios.append(g1 / max(g2, 1e-300))
    return {
        "symmetry_involutive": res_invol,
        "symmetry_fixes_point": res_fix,
        "symmetry_automorphism": res_auto,
        "base_derivative_plus_id": res_neg,
        "tangent_product_quadratic_bound": worst,
        "tangent_product_richardson_ratios": ratios,
        "max_residual": max(res_invol, res_fix, res_auto, res_neg),
    }


def functoriality_report(model: ModelDescriptor, rng: np.random.Generator, samples: int = 50) -> dict:
    out = {}
    for named in model.designated_morphisms:
        f = named.morphism
        vs = [0.3 * rng.standard_normal(f.source.dim_minus) for _ in range(samples)]
        lhs = f.many(exp_points(f.source, vs))
        rhs = exp_points(f.target, [f.minus_map @ v for v in vs])
        worst = 0.0
        for d in cartan_distances(lhs, rhs):
            worst = max(worst, d)
        out[named.name] = worst
    return out


def one_param_report(model: ModelDescriptor, rng: np.random.Generator, samples: int = 10) -> float:
    pair = model.pair
    draws = []
    for _ in range(samples):
        v = 0.3 * rng.standard_normal(pair.dim_minus)
        s, t = rng.uniform(-1.0, 1.0, size=2)
        draws.append((v, s, t))
    # alpha_v(r) = exp_point(r * v): rows s*v, t*v and (2s - t)*v per sample
    points = exp_points(pair, [r * v for v, s, t in draws for r in (s, t, 2 * s - t)])
    worst = 0.0
    for d in cartan_distances(mu_points(points[0::3], points[1::3]), points[2::3]):
        worst = max(worst, d)
    return worst


def verify_model(model: ModelDescriptor, rng: Optional[np.random.Generator] = None, samples: int = 25) -> dict:
    """Full axiom/functoriality suite for one catalog model."""
    rng = rng or np.random.default_rng(42)
    pair = model.pair
    report = {
        "model": model.name,
        "params": {k: str(v) for k, v in model.params.items()},
        "label": pair.label,
        "dim_minus": pair.dim_minus,
    }
    report["pair"] = pair.validate(rng)
    report["algebra"] = pair.algebra().validate()
    report["lts_axioms"] = check_lts_axioms(lts_of_pair(pair)).as_dict()
    report["reflection"] = reflection_axiom_report(model, rng, samples)
    report["one_param_homomorphism"] = one_param_report(model, rng)
    report["exp_functoriality"] = functoriality_report(model, rng)
    worst = max(
        report["pair"]["max_residual"],
        report["algebra"]["max_residual"],
        report["lts_axioms"]["max_residual"],
        report["reflection"]["max_residual"],
        report["one_param_homomorphism"],
        max(report["exp_functoriality"].values(), default=0.0),
    )
    report["max_residual"] = worst
    return _gated(report)


def verify_algebra(algebra) -> dict:
    """Axiom report of a bare algebra descriptor: the triple-system axioms of a
    LieTripleSystem, or the ``validate`` residuals of a SymmetricLieAlgebra."""
    return _gated(check_lts_axioms(algebra).as_dict() if hasattr(algebra, "tensor") else algebra.validate())


def _gated(report: dict) -> dict:
    report["ok"] = bool(report["max_residual"] < VERIFY_GATE)
    return report


def trotter_sum_table(model: ModelDescriptor, x, y, ks) -> list:
    """Rows (k, cartan-frobenius error of the sum approximant)."""
    pair = model.pair
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    target = exp_point(pair, x + y)
    rows = []
    for k in ks:
        err = cartan_distance(trotter_sum_sym(pair, x, y, int(k)), target)
        rows.append({"k": int(k), "error": err})
    return rows


def trotter_bracket_table(model: ModelDescriptor, x, y, z, ks) -> list:
    """Rows (k, l, error) of the bracket approximant along the diagonal k = l."""
    pair = model.pair
    x, y, z = (np.asarray(v, dtype=float) for v in (x, y, z))
    xm, ym, zm = pair.minus_to_matrix([x, y, z])
    comm = xm @ ym - ym @ xm
    bracket = comm @ zm - zm @ comm
    target = exp_point(pair, pair.matrix_to_minus(bracket))
    rows = []
    for k in ks:
        pt = trotter_bracket_sym(pair, x, y, z, int(k), int(k))
        rows.append({"k": int(k), "l": int(k), "error": cartan_distance(pt, target)})
    return rows


def subspace_report(model: ModelDescriptor, rng: Optional[np.random.Generator] = None) -> dict:
    """Round-trip, chart-split and split-complement results for the model's
    designated subspaces."""
    rng = rng or np.random.default_rng(42)
    pair = model.pair
    out = {"model": model.name, "subspaces": {}}
    ok = True
    for sub in model.designated_subspaces:
        entry = {"expected_symmetric": sub.is_symmetric}
        generated = generate_integral(sub.seed, pair)
        extracted = lts_of_subspace(generated)
        entry["roundtrip"] = extracted.equals(sub.seed, pair.tol)  # the test of lts_roundtrip_check
        if sub.subspace is None:  # the generated subspace is the designated one: extract it once
            space, n = generated, extracted
        else:
            space, n = sub.subspace, lts_of_subspace(sub.subspace)
        entry["extracted_dim"] = n.dim
        entry["seed_dim"] = sub.seed.dim
        try:
            chart = exp_chart_split(space, n, rng=rng)
            entry["chart"] = chart.as_dict()
            entry["split_complement"] = split_complement_criterion(
                space, n, n.complement(), rng=rng
            )
            symmetric = bool(entry["split_complement"])
        except ChartSplitError as exc:
            entry["chart"] = exc.report.as_dict()
            entry["split_complement"] = False
            symmetric = False
        entry["symmetric"] = symmetric
        entry["matches_expectation"] = (
            symmetric == sub.is_symmetric and entry["roundtrip"] and n.dim == sub.seed.dim
        )
        ok = ok and entry["matches_expectation"]
        out["subspaces"][sub.name] = entry
    out["ok"] = ok
    return out
