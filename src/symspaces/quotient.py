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

from .lts import LinearSubspace, _ad_on_span, _bracket_plus_n, _ker_psi_plus_n, _psi, is_ideal
from .numkernel import _kernel_rows, _principal_roots
from .subspace import (
    ChartSplitError,
    ReflectionSubspace,
    _chart_verdicts,
    exp_chart_split,
    generate_integral,
    lts_of_subspace,
    split_complement_criterion,
)
from .sympair import _NOT_IN_ALGEBRA, MatrixSymmetricPair, SigmaRule, _coords_stack
from .symspace import (
    Points,
    SymPoint,
    _block_size,
    _point_columns,
    _scattered,
    _tau_actions,
    exp_points,
    log_points,
    lts_of_pair,
    mu_points,
    same_points,
)

__all__ = [
    "CongruenceRelation",
    "ChartRelation",
    "QuotientResult",
    "PointProjection",
    "QuotientGateError",
    "FaithfulnessError",
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

    ``relates(xs, ys)`` takes two equal-length blocks of points (each a
    :class:`Points`, or a sequence of points that :meth:`Points.of` stacks)
    and answers for each pair in three values: True/False inside the
    normal-chart domain of the discrepancy, ``None`` outside it.
    """

    pair: MatrixSymmetricPair
    l_algebra: LinearSubspace  # full-algebra coordinates
    n_minus: LinearSubspace  # g_minus coordinates
    relates: Callable[[Points, Points], list]
    label: str = ""
    sequence_probes: Optional[Callable[[], list]] = None


class ChartRelation:
    """``relates`` through the normal chart of the Cartan discrepancy.

    Called on two blocks of points, it answers for each pair whether the log
    of the discrepancy of ``y`` from ``x`` lies in n, or None outside the
    log's domain and where ``x`` has no confirmed principal root, from
    :func:`_discrepancies`, stacked logs and one row-wise ``contains_each``.
    """

    def __init__(self, pair: MatrixSymmetricPair, n: LinearSubspace):
        self.pair = pair
        self.n = n

    def __call__(self, xs, ys) -> list:
        gaps, rooted = _discrepancies(self.pair, xs, ys)
        logs = iter(log_points(self.pair, gaps))
        return _chart_verdicts(self.n, [next(logs) if ok else None for ok in rooted.tolist()], self.pair.tol)


def _discrepancies(pair: MatrixSymmetricPair, xs, ys) -> tuple:
    """The discrepancy points ``S^-1 Y S^-1`` of ``y`` from ``x``, for the pairs
    of points where a principal square root ``S`` of ``X`` is confirmed, and
    the boolean mask ``rooted`` of those pairs, from :func:`_principal_roots`
    and stacked products.

    ``S`` is a transvection representative of ``x``: ``sigma(S) = S^-1``,
    since ``sigma`` is an automorphism and ``sigma(X) = X^-1``, so ``S^-1``
    is taken as ``sigma(S)`` (no LU for a conjugation-type pair).  Its root
    exists off the cut locus (no eigenvalue of ``X`` on the closed negative
    real axis); a root is taken only where ``S S`` is the same point as ``x``.
    """
    xs, ys = _point_columns(xs, ys, pair)
    if not len(xs):
        return xs, np.zeros(0, dtype=bool)
    roots, rooted = _principal_roots(xs.cartans, pair.tol)
    inv = pair.sigma._apply(roots[rooted])
    return Points._wrap(pair, inv @ ys.cartans[rooted] @ inv), rooted


def congruence_from_ideal(pair: MatrixSymmetricPair, n: LinearSubspace) -> CongruenceRelation:
    """Congruence relation of the normal integral subspace generated by an ideal.

    Builds the Lie ideal span[g_minus, n] (+) n and relates two points iff
    their Cartan discrepancy lands (chart-locally) in n after projection,
    i.e. vanishes in g_minus/n.
    """
    return _congruence(pair, n)[0]


def _congruence(pair: MatrixSymmetricPair, n: LinearSubspace) -> tuple:
    """:func:`congruence_from_ideal` and n in full-algebra coordinates: the
    one ideal test of n, and the one ``n_full`` of a quotient run."""
    if not is_ideal(lts_of_pair(pair), n):
        raise ValueError("congruence requires an ideal of the pair's triple system")
    g = pair.algebra()
    n_full = pair.minus_subspace_to_full(n)
    relation = CongruenceRelation(
        pair=pair,
        l_algebra=_bracket_plus_n(g, g.minus_basis.basis, n_full),
        n_minus=n,
        relates=ChartRelation(pair, n),
        label=f"congruence({pair.label})",
    )
    return relation, n_full


class PointProjection:
    """The quotient projection on points, induced by Ad on g/l.

    The image of the point with Cartan matrix C has Cartan matrix Ad(C) on
    g/l, since sigma' o Ad = Ad o sigma.  Called on a block of points over
    the source, it returns the :class:`Points` of their images, projected in
    blocks of :attr:`block` points whose ``matrix_coords`` right-hand side
    holds at most ``MAX_STACK_FLOATS``.  Each point takes two GEMMs for
    ``C M_b sigma(C)`` over the matrices ``M_b`` of the rows of comp and one
    for their coordinates, so each image is bit for bit the one-point call.
    A Cartan matrix has ``sigma(C) = C^-1``; for a conjugation-type pair
    ``sigma(C)`` is two matrix products and no LU.  A non-finite point fails
    the residual test of its coordinates.
    """

    def __init__(self, source: MatrixSymmetricPair, target: MatrixSymmetricPair, comp: np.ndarray):
        self.source = source
        self.target = target
        self.comp = comp  # (d', d) orthonormal rows spanning a complement of l
        self.comp_mats = np.tensordot(comp, source.basis_mats, axes=1)  # (d', n, n): matrices of the rows of comp
        self._side_by_side = self.comp_mats.transpose(1, 0, 2).reshape(source.ambient_n, -1)  # [M_1 ... M_d']
        self.block = _block_size(self.comp_mats.size)

    def __call__(self, points) -> Points:
        cartans = Points.of(self.source, points).cartans
        src, d_out, n = self.source, self.comp_mats.shape[0], self.source.ambient_n
        if not d_out:
            return Points._wrap(self.target, np.ones((len(cartans), 1, 1)))
        out = [np.empty((0, d_out, d_out))]
        for start in range(0, len(cartans), self.block):
            c = cartans[start:start + self.block]
            k = len(c)
            left = (c @ self._side_by_side).reshape(k, n, d_out, n).transpose(0, 2, 1, 3)  # C M_b
            moved = (left.reshape(k, d_out * n, n) @ src.sigma._apply(c)).reshape(k, d_out, n, n)
            # column b of point i: the complement coordinates of Ad(C_i) applied to comp[b]
            coords = _coords_stack(src.basis_mats, src._basis_pinv, moved, src.tol, _NOT_IN_ALGEBRA)
            out.append(self.comp @ coords.transpose(0, 2, 1))
        return Points._wrap(self.target, np.concatenate(out))


@dataclass(frozen=True, eq=False)
class QuotientResult:
    """Quotient symmetric pair with its point and algebra projections."""

    quotient_pair: MatrixSymmetricPair
    projection_points: Callable[[Points], Points]  # a block of points -> their images
    projection_algebra: np.ndarray  # (quotient dim_minus, source dim_minus)
    l_algebra: LinearSubspace
    relation: CongruenceRelation
    report: dict = field(default_factory=dict)


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
    relation, n_full = _congruence(pair, n)

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

    # psi of the decided ideal n, on the complement F of n inside g_minus
    g_alg = pair.algebra()
    psi = _psi(g_alg, g_alg.minus_basis.basis, f_comp.basis)
    l_alg, ideal_certificate = _ker_psi_plus_n(g_alg, psi, n_full)
    if not l_alg.contains_subspace(relation.l_algebra, tol):
        raise ValueError("internal: span[g-,n]+n escaped ker(psi)+n")

    # complement of l = ker(psi) (+) n: psi's complements inside g_plus and inside g_minus
    comp = np.vstack([psi.kernel_complement, psi.quotient_basis])  # (d', d) orthonormal, orthogonal to l
    d, d_out = pair.dim, comp.shape[0]
    p_out, m_out = psi.kernel_complement.shape[0], psi.quotient_basis.shape[0]

    stacked = _ad_on_span(g_alg, comp, np.eye(d)).reshape(d, -1)  # row per basis vector
    kernel = LinearSubspace._wrap(d, _kernel_rows(stacked.T, tol))
    faith_resid = max((float(np.linalg.norm(op)) for op in _ad_on_span(g_alg, comp, l_alg.basis)), default=0.0)
    if not kernel.equals(l_alg, tol):
        raise FaithfulnessError(
            f"ker(ad on g/l) has dimension {kernel.dim}, expected {l_alg.dim}: "
            "no faithful matrix realization of the quotient group"
        )

    ambient = d_out if d_out > 0 else 1
    if d_out > 0:
        plus_mats = _ad_on_span(g_alg, comp, comp[:p_out])
        minus_mats = _ad_on_span(g_alg, comp, comp[p_out:])
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

    proj_algebra = f_comp.basis  # the g_minus block of comp, in g_minus coordinates
    report = {
        "l_basis": l_alg.basis.tolist(),
        "l_dim": l_alg.dim,
        "faithfulness_residual": faith_resid,
        "ideal_certificate": ideal_certificate,
        "complement_certificate": _orthonormal_complement(comp, l_alg.basis, tol),
        "quotient_dim": d_out,
        "quotient_dim_minus": m_out,
        "quotient_tensor": qpair.structure_tensor.tolist(),
        "chart_radius": chart.radius,
        "rank_checks": {
            "projection_rank": proj_algebra.shape[0],  # orthonormal rows: the rank is their count
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


def _orthonormal_complement(rows: np.ndarray, sub: np.ndarray, tol) -> dict:
    """The certificate that ``rows`` are orthonormal and orthogonal to the rows
    of ``sub``, from two GEMMs: ``{"orthogonal", "orthonormal"}``, each
    ``{"residual", "bound"}`` with the Frobenius norm of ``rows sub^T`` and of
    ``rows rows^T - I`` against the ``Tolerance`` bound at scale 1, the norm
    of an orthonormal row."""
    bound = float(tol._bounds(1.0))
    residuals = (rows @ sub.T, rows @ rows.T - np.eye(len(rows)))
    return {
        name: {"residual": float(np.linalg.norm(r)), "bound": bound}
        for name, r in zip(("orthogonal", "orthonormal"), residuals)
    }


def _certified(*certificates: dict) -> bool:
    # every residual within its bound; a NaN residual fails
    return all(c["residual"] <= c["bound"] for c in certificates)


def weak_submersion_check(
    qr: QuotientResult,
    rng: Optional[np.random.Generator] = None,
    samples: int = 32,
) -> dict:
    """Tangent map is a linear quotient map and the projection is a morphism.

    The verdict rests on the decided certificates of the run's report: the
    ideal certificate (theta(l) and [l, g] lie in l, the worst row against
    its bound), and the complement certificate (the rows of comp, which
    carry g/l, are orthonormal and orthogonal to l).  With l a theta-invariant
    Lie ideal, Ad on g/l is a homomorphism that commutes with sigma, so the
    projection C -> Ad(C) is a morphism.  ``ok`` also needs the algebra
    projection to be ``quotient dim_minus`` orthonormal rows orthogonal to n,
    so that its kernel is n (two GEMMs), and pi(mu(x, y)) = mu(pi(x),
    pi(y)) on every sample, about 30% of them with x tau-translated.

    The sampled law is a smoke test of :class:`PointProjection`'s code, not
    the proof of the morphism: 32 samples by default, since a sample is
    translated with probability 0.3, so that no sample exercises the
    translated branch with probability 0.7**32, about 1e-5, and a fault of
    the code shows on essentially every sample.  ``sample_pass_rates`` holds
    the share of samples passing that law (``projection_morphism``) and the
    share of decidable samples where relates(x, y) agrees with pi(x) = pi(y)
    (``kernel_relation``, on the untranslated x).

    Draws all x0 and y as ``0.2 * standard_normal((2, samples, dim_minus))``,
    then all translation coins as ``uniform(size=samples) < 0.3``, then the
    one-letter words of the ``t`` translated samples as ``0.2 *
    standard_normal((t, 1, dim))``.  The samples run in blocks whose x0 and y
    stack, counted in the larger of the source and quotient matrices, holds
    at most ``MAX_STACK_FLOATS``; each block is one :class:`Points` per step,
    from one stacked call each.
    """
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    rng = rng or np.random.default_rng(0)
    pair = qr.relation.pair
    project = qr.projection_points
    a, n_minus = qr.projection_algebra, qr.relation.n_minus
    # orthonormal rows orthogonal to n, as many as dim_minus - dim n: their kernel is n
    ok = len(a) == qr.quotient_pair.dim_minus == pair.dim_minus - n_minus.dim and _certified(
        qr.report["ideal_certificate"],
        *qr.report["complement_certificate"].values(),
        *_orthonormal_complement(a, n_minus.basis, pair.tol).values(),
    )

    uv = 0.2 * rng.standard_normal((2, samples, pair.dim_minus))
    flipped = np.flatnonzero(rng.uniform(size=samples) < 0.3)
    words = 0.2 * rng.standard_normal((len(flipped), 1, pair.dim))

    n = pair.ambient_n
    # a block's points, of the source and of the quotient, live until it is compared
    width = max(n, qr.quotient_pair.ambient_n)
    block = _block_size(2 * width * width)
    morph_pass = rel_pass = rel_total = 0
    for start in range(0, samples, block):
        stop = min(start + block, samples)
        count = stop - start
        lo, hi = np.searchsorted(flipped, [start, stop])
        moved = (flipped[lo:hi] - start).tolist()
        points = exp_points(pair, uv[:, start:stop].reshape(2 * count, pair.dim_minus))
        x0s, ys = points[:count], points[count:]
        translated = _tau_actions(pair, pair._elements_from_words(words[lo:hi]), x0s[moved])
        xs = _scattered(x0s, moved, translated)
        products = mu_points(xs, ys)

        projected = Points.of(qr.quotient_pair, project(x0s + ys + translated + products))
        px0s, pys = projected[:count], projected[count:2 * count]
        pxs = _scattered(px0s, moved, projected[2 * count:2 * count + len(moved)])
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
    and converge to that pair, checked first as their limit.  Relations
    carrying their own probe sequences (the dense-line case) are tested
    through those as well; the report marks failure with the offending limit
    pair.

    Draws all ``u`` and ``w`` as one ``standard_normal((2, samples,
    dim_minus))``, then all directions as one ``standard_normal((samples,
    dim))``.  Sample ``i`` translates ``x = exp(0.2 u)`` and ``y = exp(0.2 u)
    exp(n-part of 0.1 w)`` by ``exp(t 0.2 direction)`` for ``t = 0`` (the pair
    itself) and ``0.2 / 2**j``, ``j < steps``: one stacked exponential per
    quantity and one ``relates`` call for every pair and probe.  The first
    failing pair, in that order and then the probes', names the witness.
    """
    pair = relation.pair
    rng = rng or np.random.default_rng(0)
    uw = rng.standard_normal((2, samples, pair.dim_minus))
    directions = 0.2 * rng.standard_normal((samples, pair.dim))
    q = relation.n_minus.basis
    us = 0.2 * uw[0]
    factors = pair.exp(pair.minus_to_matrix(np.concatenate([us, (0.1 * uw[1] @ q.T) @ q])))
    xs, ys = exp_points(pair, us), SymPoint.from_group(pair, factors[:samples] @ factors[samples:])
    shrink = np.concatenate([[0.0], 0.2 / 2.0 ** np.arange(steps)])
    gs = pair.exp(pair.to_matrix((shrink[:, None] * directions[:, None]).reshape(-1, pair.dim)))
    index = np.repeat(np.arange(samples), steps + 1)
    lefts, rights = _tau_actions(pair, gs, xs[index]), _tau_actions(pair, gs, ys[index])
    escapes = "limit of a related sequence escapes the relation"
    witnesses = (["constructed related pair rejected"] + ["tau translate left the relation"] * steps) * samples
    for seq, (lx, ly) in relation.sequence_probes() if relation.sequence_probes is not None else []:
        lefts, rights = lefts + [xi for xi, _ in seq] + [lx], rights + [yi for _, yi in seq] + [ly]
        witnesses += ["probe sequence not inside the relation"] * len(seq) + [escapes]
    for verdict, witness in zip(relation.relates(lefts, rights), witnesses):
        if verdict is False or (verdict is None and witness == escapes):
            return {"ok": False, "witness": witness}
    return {"ok": True, "witness": None}
