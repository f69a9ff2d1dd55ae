"""Congruence relations, normal subspaces, and the quotient pipeline.

The pipeline follows the constructive direction of the quotient theorem:
a triple-system ideal n gives the Lie-algebra ideal l = ker(psi) (+) n, the
quotient algebra g/l is realized by matrices through its adjoint-type
representation (with an explicit faithfulness check), and the projection
of points is the induced representation of the group.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .lts import (
    LinearSubspace,
    SymmetricLieAlgebra,
    ideal_bracket_plus_n,
    ideal_ker_psi_plus_n,
    is_ideal,
)
from .numkernel import _principal_roots, as_matrix, nullspace
from .subspace import (
    ChartSplitError,
    ReflectionSubspace,
    _chart_verdicts,
    exp_chart_split,
    generate_integral,
    lts_of_subspace,
    split_complement_criterion,
)
from .sympair import MatrixSymmetricPair, SigmaRule
from .symspace import (
    MAX_STACK_FLOATS,
    SymPoint,
    exp_point,
    exp_points,
    log_points,
    lts_of_pair,
    mu_points,
    same_points,
    tau_action,
    tau_actions,
)

__all__ = [
    "CongruenceRelation",
    "ChartRelation",
    "QuotientResult",
    "PointProjection",
    "QuotientGateError",
    "FaithfulnessError",
    "normal_lts_is_ideal",
    "congruence_from_ideal",
    "quotient_theorem_pipeline",
    "weak_submersion_check",
    "relation_closure_check",
]


class QuotientGateError(RuntimeError):
    """The gate failed: N is not a symmetric subspace, so the quotient cannot
    be made a symmetric space with a weak-submersion projection."""

    def __init__(self, message: str, report=None):
        super().__init__(message)
        self.report = report


class FaithfulnessError(RuntimeError):
    """ker(ad on g/l) exceeds l: the quotient group has no faithful
    adjoint-type matrix realization."""


@dataclass(frozen=True, eq=False)
class CongruenceRelation:
    """Equivalence relation on M induced by a normal integral subgroup.

    ``relates(xs, ys)`` takes two equal-length lists of points and answers
    for each pair in three values: True/False inside the normal-chart domain
    of the discrepancy, ``None`` outside it.
    """

    pair: MatrixSymmetricPair
    l_algebra: LinearSubspace  # full-algebra coordinates
    n_minus: LinearSubspace  # g_minus coordinates
    relates: Callable[[list, list], list]
    label: str = ""
    sequence_probes: Optional[Callable[[], list]] = None


def normal_lts_is_ideal(n_space: ReflectionSubspace) -> bool:
    """Extract the subspace's system and test the ideal condition in the ambient."""
    pair = n_space.pair
    n = lts_of_subspace(n_space)
    return is_ideal(lts_of_pair(pair), n, pair.tol)


class ChartRelation:
    """``relates`` through the normal chart of the Cartan discrepancy.

    Called on two lists of points, it answers for each pair whether the log
    of the discrepancy of ``y`` from ``x`` lies in n, or None outside the
    log's domain and where ``x`` has no confirmed principal root, from
    :func:`_discrepancies`, stacked logs and one row-wise ``contains_each``.
    """

    def __init__(self, pair: MatrixSymmetricPair, n: LinearSubspace):
        self.pair = pair
        self.n = n

    def __call__(self, xs: list, ys: list) -> list:
        gaps = _discrepancies(self.pair, xs, ys)
        logs = iter(log_points(self.pair, [d for d in gaps if d is not None]))
        return _chart_verdicts(self.n, [None if d is None else next(logs) for d in gaps], self.pair.tol)


def _discrepancies(pair: MatrixSymmetricPair, xs: list, ys: list) -> list:
    """The discrepancy point ``S^-1 Y S^-1`` of ``y`` from ``x`` for each pair
    of points, or None where no principal square root ``S`` of ``X`` is
    confirmed, from :func:`_principal_roots` and stacked products.

    ``S`` is a transvection representative of ``x``: ``sigma(S) = S^-1``,
    since ``sigma`` is an automorphism and ``sigma(X) = X^-1``.  Its root
    exists off the cut locus (no eigenvalue of ``X`` on the closed negative
    real axis); a root is taken only where ``S S`` is the same point as ``x``.
    """
    x, y = _cartan_columns(pair, xs, ys)
    if not xs:
        return []
    roots, rooted = _principal_roots(x, pair.tol)
    inv = np.linalg.inv(roots[rooted])
    gaps = iter(inv @ y[rooted] @ inv)
    return [SymPoint(pair, next(gaps)) if ok else None for ok in rooted.tolist()]


def _cartan_columns(pair: MatrixSymmetricPair, xs: list, ys: list) -> tuple:
    """The Cartan matrices of two equal-length lists of points as two
    validated ``(k, n, n)`` stacks."""
    if len(xs) != len(ys):
        raise ValueError(f"unequal columns: {len(xs)} and {len(ys)} points")
    n = pair.ambient_n
    return tuple(as_matrix(np.reshape([p.cartan for p in ps], (len(ps), n, n)), stack=True) for ps in (xs, ys))


def congruence_from_ideal(pair: MatrixSymmetricPair, n: LinearSubspace) -> CongruenceRelation:
    """Congruence relation of the normal integral subspace generated by an ideal.

    Builds the Lie ideal span[g_minus, n] (+) n and relates two points iff
    their Cartan discrepancy lands (chart-locally) in n after projection,
    i.e. vanishes in g_minus/n.
    """
    m = pair.dim_minus
    n = LinearSubspace.span(n.basis, m, pair.tol)
    if not is_ideal(lts_of_pair(pair), n, pair.tol):
        raise ValueError("congruence requires an ideal of the pair's triple system")
    l_alg = ideal_bracket_plus_n(pair.algebra(), pair.minus_subspace_to_full(n), pair.tol)
    return CongruenceRelation(
        pair=pair,
        l_algebra=l_alg,
        n_minus=n,
        relates=ChartRelation(pair, n),
        label=f"congruence({pair.label})",
    )


class PointProjection:
    """The quotient projection on points, induced by Ad on g/l.

    The image of the point with Cartan matrix C has Cartan matrix Ad(C) on
    g/l, since sigma' o Ad = Ad o sigma.  Called on a list of points, it
    projects them in blocks of :attr:`block` points, whose ``matrix_coords``
    right-hand side holds at most ``MAX_STACK_FLOATS``; each image is bit
    for bit the one-point call.
    """

    def __init__(self, source: MatrixSymmetricPair, target: MatrixSymmetricPair, comp: np.ndarray):
        self.source = source
        self.target = target
        self.comp = comp  # (d', d) orthonormal rows spanning a complement of l
        self.comp_mats = np.tensordot(comp, source.basis_mats, axes=1)  # (d', n, n): matrices of the rows of comp
        self.block = max(1, MAX_STACK_FLOATS // max(1, self.comp_mats.size))

    def __call__(self, points: list) -> list:
        if any(x.pair is not self.source for x in points):
            raise ValueError("point does not belong to the source pair")
        d_out, n = self.comp_mats.shape[0], self.source.ambient_n
        if not d_out:
            return [SymPoint(self.target, np.eye(1)) for _ in points]
        out = []
        for start in range(0, len(points), self.block):
            c = np.array([x.cartan for x in points[start:start + self.block]])
            # column b of point i: the complement coordinates of Ad(C_i) applied to comp[b]
            moved = c[:, None] @ self.comp_mats @ np.linalg.inv(c)[:, None]
            coords = self.source.matrix_coords(moved.reshape(-1, n, n)).reshape(len(c), d_out, -1)
            out += [SymPoint(self.target, a) for a in self.comp @ coords.transpose(0, 2, 1)]
        return out


@dataclass(frozen=True, eq=False)
class QuotientResult:
    """Quotient symmetric pair with its point and algebra projections."""

    quotient_pair: MatrixSymmetricPair
    projection_points: Callable[[list], list]  # a list of points -> their images
    projection_algebra: np.ndarray  # (quotient dim_minus, source dim_minus)
    l_algebra: LinearSubspace
    relation: CongruenceRelation
    report: dict = field(default_factory=dict)


def _split_theta_invariant(pair: MatrixSymmetricPair, l: LinearSubspace):
    """Split a theta-invariant subspace into eigenparts (as coordinate rows)."""
    p = pair.dim_plus
    d = pair.dim
    plus_rows = np.zeros((0, d))
    minus_rows = np.zeros((0, d))
    if l.dim:
        proj_p = l.basis.copy()
        proj_p[:, p:] = 0.0
        proj_m = l.basis.copy()
        proj_m[:, :p] = 0.0
        plus_rows = LinearSubspace.span(proj_p, d, pair.tol).basis
        minus_rows = LinearSubspace.span(proj_m, d, pair.tol).basis
        if plus_rows.shape[0] + minus_rows.shape[0] != l.dim:
            raise ValueError("subspace is not theta-invariant")
    return plus_rows, minus_rows


def _ad_ql(g: SymmetricLieAlgebra, comp: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The operator of [row, .] on g/l for each row, in the orthonormal
    complement coordinates ``comp``: entry ``(r, a, b)`` is ``comp[a] . [rows[r], comp[b]]``."""
    return comp @ g.brackets(rows, comp).transpose(0, 2, 1)


def quotient_theorem_pipeline(
    pair: MatrixSymmetricPair,
    n: LinearSubspace,
    subspace: Optional[ReflectionSubspace] = None,
    rng: Optional[np.random.Generator] = None,
) -> QuotientResult:
    """Run the quotient theorem constructively for an ideal n of Lts(M).

    Gate: the integral subspace of n must pass the chart-split and
    split-complement criteria (it must be a symmetric subspace); otherwise
    :class:`QuotientGateError`.  The quotient group is realized as matrices
    through the adjoint representation on g/l, which must have kernel
    exactly l (:class:`FaithfulnessError` otherwise).
    """
    rng = rng or np.random.default_rng(0)
    tol = pair.tol
    m = pair.dim_minus
    n = LinearSubspace.span(n.basis, m, tol)
    relation = congruence_from_ideal(pair, n)

    n_space = subspace if subspace is not None else generate_integral(n, pair)
    extracted = lts_of_subspace(n_space)
    if not extracted.equals(n, tol):
        raise ValueError("subspace system does not match the given ideal")
    try:
        chart = exp_chart_split(n_space, n, rng=rng)
    except ChartSplitError as exc:
        raise QuotientGateError(
            "no chart-split radius: N is not a symmetric subspace, so no weak-submersion quotient exists",
            report=exc.report.as_dict(),
        ) from exc
    f_comp = n.complement()
    if not split_complement_criterion(n_space, n, f_comp, rng=rng):
        raise QuotientGateError(
            "the complement ball meets N away from the base point: N is not a symmetric subspace",
            report=chart.as_dict(),
        )

    g_alg = pair.algebra()
    n_full = pair.minus_subspace_to_full(n)
    l_alg = ideal_ker_psi_plus_n(g_alg, n_full, tol)
    if not l_alg.contains_subspace(relation.l_algebra, tol):
        raise ValueError("internal: span[g-,n]+n escaped ker(psi)+n")

    # complement of l, chosen inside each theta eigenspace
    p, d = pair.dim_plus, pair.dim
    l_plus_rows, l_minus_rows = _split_theta_invariant(pair, l_alg)
    plus_block = LinearSubspace.span(l_plus_rows[:, :p], p, tol) if p else LinearSubspace.zero(0)
    minus_block = LinearSubspace.span(l_minus_rows[:, p:], m, tol) if m else LinearSubspace.zero(0)
    comp_plus = plus_block.complement().onb()  # rows in R^p
    comp_minus = minus_block.complement().onb()  # rows in R^m
    embed_plus = np.hstack([comp_plus, np.zeros((comp_plus.shape[0], m))])
    embed_minus = np.hstack([np.zeros((comp_minus.shape[0], p)), comp_minus])
    comp = np.vstack([embed_plus, embed_minus])  # (d', d) orthonormal, orthogonal to l
    d_out = comp.shape[0]
    p_out, m_out = comp_plus.shape[0], comp_minus.shape[0]

    stacked = _ad_ql(g_alg, comp, np.eye(d)).reshape(d, -1)  # row per basis vector
    kernel = LinearSubspace(d, nullspace(stacked.T, tol).T)
    faith_resid = max((float(np.linalg.norm(op)) for op in _ad_ql(g_alg, comp, l_alg.basis)), default=0.0)
    if not kernel.equals(l_alg, tol):
        raise FaithfulnessError(
            f"ker(ad on g/l) has dimension {kernel.dim}, expected {l_alg.dim}: "
            "no faithful matrix realization of the quotient group"
        )

    ambient = d_out if d_out > 0 else 1
    if d_out > 0:
        plus_mats = _ad_ql(g_alg, comp, embed_plus)
        minus_mats = _ad_ql(g_alg, comp, embed_minus)
        theta_mat = np.diag([1.0] * p_out + [-1.0] * m_out)
    else:
        plus_mats = np.zeros((0, 1, 1))
        minus_mats = np.zeros((0, 1, 1))
        theta_mat = np.eye(1)
    qpair = MatrixSymmetricPair(
        ambient_n=ambient,
        plus_mats=plus_mats,
        minus_mats=minus_mats,
        sigma=SigmaRule("conjugation", theta_mat),
        label=f"{pair.label}/quotient",
        tol=tol,
    )

    proj_algebra = embed_minus[:, p:] if m_out else np.zeros((0, m))
    report = {
        "l_basis": l_alg.basis.tolist(),
        "l_dim": l_alg.dim,
        "faithfulness_residual": faith_resid,
        "quotient_dim": d_out,
        "quotient_dim_minus": m_out,
        "quotient_tensor": qpair.structure_tensor.tolist(),
        "chart_radius": chart.radius,
        "rank_checks": {
            "projection_rank": int(np.linalg.matrix_rank(proj_algebra)) if proj_algebra.size else 0,
            "expected_rank": m_out,
        },
    }
    return QuotientResult(
        quotient_pair=qpair,
        projection_points=PointProjection(pair, qpair, comp),
        projection_algebra=proj_algebra,
        l_algebra=l_alg,
        relation=relation,
        report=report,
    )


def weak_submersion_check(
    qr: QuotientResult,
    rng: Optional[np.random.Generator] = None,
    samples: int = 100,
) -> dict:
    """Tangent map is a linear quotient map and the projection is a morphism.

    One sampled pass gives the verdict and the pass rates.  ``ok`` needs full
    row rank of the algebra projection, kernel equal to n, and
    pi(mu(x, y)) = mu(pi(x), pi(y)) on every sample, about 30% of them with
    x tau-translated.  ``sample_pass_rates`` holds the share of samples
    passing that law (``projection_morphism``) and the share of decidable
    samples where relates(x, y) agrees with pi(x) = pi(y)
    (``kernel_relation``, on the untranslated x).

    The samples run in blocks whose x0 and y stack, counted in the larger of
    the source and quotient matrices, holds at most ``MAX_STACK_FLOATS``.
    They are drawn in the order of a per-sample loop; a block's points come
    from stacked exponentials, its translations, products and point
    comparisons from one stacked call each, a :class:`PointProjection`
    projects them in blocks of its own and a :class:`ChartRelation` relates
    them in one call per block.
    """
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    rng = rng or np.random.default_rng(0)
    pair = qr.relation.pair
    tol = pair.tol
    project = qr.projection_points
    a = qr.projection_algebra
    m_out = qr.quotient_pair.dim_minus
    if a.size:
        ok = np.linalg.matrix_rank(a) == m_out
        ker = nullspace(a, tol).T
    else:
        ok = m_out == 0
        ker = np.eye(pair.dim_minus)
    ok = ok and LinearSubspace(pair.dim_minus, ker).equals(qr.relation.n_minus, tol)

    n = pair.ambient_n
    # a block's points, of the source and of the quotient, live until it is compared
    width = max(n, qr.quotient_pair.ambient_n)
    block = max(1, MAX_STACK_FLOATS // (2 * width * width))
    morph_pass = rel_pass = rel_total = 0
    for start in range(0, samples, block):
        us, vs, letters, moved = [], [], [], []
        for i in range(min(block, samples - start)):
            us.append(0.2 * rng.standard_normal(pair.dim_minus))
            vs.append(0.2 * rng.standard_normal(pair.dim_minus))
            if rng.uniform() < 0.3:
                moved.append(i)
                letters.append(0.2 * rng.standard_normal(pair.dim))  # random_algebra_element's draw
        count = len(us)
        points = exp_points(pair, us + vs)
        x0s, ys = points[:count], points[count:]
        xs = list(x0s)
        elements = pair._elements_from_words(np.reshape(letters, (len(letters), 1, pair.dim)))
        for i, x in zip(moved, tau_actions(pair, elements, [x0s[i] for i in moved])):
            xs[i] = x
        products = mu_points(xs, ys)

        projected = project(x0s + ys + [xs[i] for i in moved] + products)
        px0s, pys = projected[:count], projected[count:2 * count]
        pxs = list(px0s)
        for i, px in zip(moved, projected[2 * count:]):
            pxs[i] = px
        pmus = projected[2 * count + len(moved):]

        morph_pass += sum(same_points(pmus, mu_points(pxs, pys)))
        for related, same in zip(qr.relation.relates(x0s, ys), same_points(px0s, pys)):
            if related is not None:
                rel_total += 1
                rel_pass += int(related == same)
    return {
        "ok": bool(ok and morph_pass == samples),
        "sample_pass_rates": {
            "projection_morphism": morph_pass / samples,
            "kernel_relation": rel_pass / rel_total if rel_total else 1.0,
        },
    }


def relation_closure_check(
    relation: CongruenceRelation,
    rng: Optional[np.random.Generator] = None,
    samples: int = 10,
    steps: int = 5,
) -> dict:
    """Sequential-stability test of the relation along shrinking perturbations.

    Generic sequences are tau-translates of a related pair, which stay related
    and converge to a related limit.  Relations carrying their own probe
    sequences (the dense-line case) are tested through those as well; the
    report marks failure with the offending limit pair.
    """
    pair = relation.pair
    rng = rng or np.random.default_rng(0)
    m = pair.dim_minus
    for _ in range(samples):
        u = 0.2 * rng.standard_normal(m)
        w = 0.1 * rng.standard_normal(m)
        wn = relation.n_minus.project(w) if relation.n_minus.dim else np.zeros(m)
        x = exp_point(pair, u)
        y = SymPoint.from_group(pair, pair.exp(pair.minus_to_matrix(u)) @ pair.exp(pair.minus_to_matrix(wn)))
        if relation.relates([x], [y]) == [False]:
            return {"ok": False, "witness": "constructed related pair rejected"}
        direction = pair.random_algebra_element(rng, 0.2)
        gs = [pair.exp(0.2 / 2.0**i * direction) for i in range(steps)]
        if False in relation.relates([tau_action(pair, g, x) for g in gs], [tau_action(pair, g, y) for g in gs]):
            return {"ok": False, "witness": "tau translate left the relation"}
        if relation.relates([x], [y]) == [False]:
            return {"ok": False, "witness": "limit pair rejected"}
    if relation.sequence_probes is not None:
        for seq, limit in relation.sequence_probes():
            if False in relation.relates([xi for xi, _ in seq], [yi for _, yi in seq]):
                return {"ok": False, "witness": "probe sequence not inside the relation"}
            lx, ly = limit
            if relation.relates([lx], [ly]) != [True]:
                return {
                    "ok": False,
                    "witness": "limit of a related sequence escapes the relation",
                }
    return {"ok": True, "witness": None}
