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
    lts_roundtrip_check,
    split_complement_criterion,
)
from .symspace import (
    base_point,
    cartan_distance,
    exp_point,
    exp_points,
    log_point,
    lts_of_pair,
    mu,
    tau_action,
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

# Absolute pass gate of every ``verify`` report: ``ok`` is ``max_residual < VERIFY_GATE``.
VERIFY_GATE = 1e-8


def reflection_axiom_report(model: ModelDescriptor, rng: np.random.Generator, samples: int = 25) -> dict:
    """Sampled reflection-space axioms plus the two linearized base-point laws."""
    pair = model.pair
    # draw every sample point first, in the order of the per-point draws
    vs, moves = [], []
    for _ in range(3 * samples):
        vs.append(0.4 * rng.standard_normal(pair.dim_minus))
        moved = rng.uniform() < 0.25
        moves.append(pair.random_element(rng, letters=1, scale=0.3) if moved else None)
    points = [
        x if g is None else tau_action(pair, g, x) for x, g in zip(exp_points(pair, vs), moves)
    ]
    res_invol = res_fix = res_auto = 0.0
    for i in range(samples):
        x, y, z = points[3 * i : 3 * i + 3]
        res_invol = max(res_invol, cartan_distance(mu(x, mu(x, y)), y))
        res_fix = max(res_fix, cartan_distance(mu(x, x), x))
        res_auto = max(
            res_auto, cartan_distance(mu(x, mu(y, z)), mu(mu(x, y), mu(x, z)))
        )

    # derivative of the base symmetry in normal coordinates is -identity
    b = base_point(pair)
    h = 1e-5
    res_neg = 0.0
    for i in range(pair.dim_minus):
        e = np.zeros(pair.dim_minus)
        e[i] = 1.0
        fp = log_point(pair, mu(b, exp_point(pair, h * e)))
        fm = log_point(pair, mu(b, exp_point(pair, -h * e)))
        res_neg = max(res_neg, float(np.linalg.norm((fp - fm) / (2 * h) + e)))

    # tangent-space product v.w = 2v - w, second-order in the chart
    ratios = []
    worst = 0.0
    for _ in range(4):
        u = rng.standard_normal(pair.dim_minus)
        w = rng.standard_normal(pair.dim_minus)
        u /= max(np.linalg.norm(u), 1e-12)
        w /= max(np.linalg.norm(w), 1e-12)

        def gap(eps: float) -> float:
            got = log_point(pair, mu(exp_point(pair, eps * u), exp_point(pair, eps * w)))
            return float(np.linalg.norm(got - eps * (2 * u - w)))

        g1, g2 = gap(0.08), gap(0.04)
        worst = max(worst, g1 / (0.08 ** 2) if g1 > 1e-13 else 0.0)
        if g1 > 1e-12:
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
        lhs = [f(x) for x in exp_points(f.source, vs)]
        rhs = exp_points(f.target, [f.minus_map @ v for v in vs])
        worst = 0.0
        for a, b in zip(lhs, rhs):
            worst = max(worst, cartan_distance(a, b))
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
    for i in range(samples):
        xs, xt, rhs = points[3 * i : 3 * i + 3]
        worst = max(worst, cartan_distance(mu(xs, xt), rhs))
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
    report["ok"] = bool(worst < VERIFY_GATE)
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
    xm, ym, zm = (pair.minus_to_matrix(v) for v in (x, y, z))
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
        entry["roundtrip"] = lts_roundtrip_check(sub.seed, pair)
        space = sub.subspace if sub.subspace is not None else generate_integral(sub.seed, pair)
        n = lts_of_subspace(space)
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
