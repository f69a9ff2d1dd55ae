"""Reflection, integral and symmetric subspaces of M = G/K.

A subspace is a membership oracle over points plus enough structure to
linearize it at the base point.  Membership may return ``None`` ("unknown")
outside the normal-chart domain: global membership in a generated integral
subspace is undecidable from finite data, and every criterion the theory
offers is local at the base point anyway.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .lts import LinearSubspace, VerificationError, is_subsystem
from .numkernel import Tolerance, _frobenius, _kernel_rows
from .symspace import (
    Points,
    SymMorphism,
    SymPoint,
    _block_size,
    _chart_logs,
    base_point,
    exp_points,
    lts_of_pair,
    mu_points,
    same_points,
)
from .sympair import MatrixSymmetricPair

__all__ = [
    "ProbeWitness",
    "ReflectionSubspace",
    "ChartMembership",
    "CertificationError",
    "ChartSplitError",
    "ChartReport",
    "algebraic_subspace",
    "fixed_point_subspace",
    "whole_space",
    "base_only",
    "generate_integral",
    "lts_of_subspace",
    "lts_roundtrip_check",
    "exp_chart_split",
    "split_complement_criterion",
    "preimage_subspace",
    "kernel_subspace",
    "mu_closure_check",
]

CERTIFICATION_GRID = (0.1, -0.1, 0.5, -0.5, 1.0, -1.0, 2.0, -2.0)

# Least absolute and relative tolerances of the nullspace cut of the algebraic
# candidate's central-difference Jacobian, whose O(h^2) noise lies well above eps.
# Derived from the run's tolerance: the cut takes each part of it, raised to its floor.
JACOBIAN_ABS_FLOOR, JACOBIAN_REL_FLOOR = 1e-8, 1e-7
# split_complement_criterion skips the samples and probe directions of F below
# these norms: they stand for the base point, which every subspace holds.
# Fixed: absolute norms, which do not follow the run's tolerance.
COMPLEMENT_SAMPLE_FLOOR, COMPLEMENT_PROBE_FLOOR = 1e-6, 1e-12


class CertificationError(RuntimeError):
    """Linearized candidate failed its exponential-ray certification."""

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


class ChartSplitError(RuntimeError):
    """No chart-split radius found down to the floor; carries the report."""

    def __init__(self, message: str, report: "ChartReport"):
        super().__init__(message)
        self.report = report


@dataclass(frozen=True, eq=False)
class ProbeWitness:
    """A certified member of a subspace, used to drive falsification checks."""

    vector: np.ndarray  # g_minus coordinates; exp_point(vector) is a member


@dataclass(frozen=True, eq=False)
class ReflectionSubspace:
    """Pointed reflection subspace given by a membership oracle.

    ``membership`` answers a block: it takes a :class:`Points` (or a sequence
    of points, which a catalog membership stacks through :meth:`Points.of`)
    and returns a list of True, False or None ("unknown"), one per point;
    :meth:`member` is its one-point case.  ``kind`` selects how the candidate Lie triple
    system is linearized: ``algebraic`` (nullspace of the constraint
    Jacobian at b), ``fixed_point`` (+1 eigenspace of an automorphism
    derivative), ``generated`` (the seed itself) or ``preimage`` (pullback
    of the target subspace).
    """

    pair: MatrixSymmetricPair
    membership: Callable[[Points], list]
    kind: str
    label: str = ""
    seed: Optional[LinearSubspace] = None  # g_minus coordinates
    constraints: Optional[Callable[[np.ndarray], np.ndarray]] = None  # (k, n, n) Cartan stack -> (k, r)
    automorphism: Optional[SymMorphism] = None
    backing: Optional[tuple] = None  # (SymMorphism, target ReflectionSubspace)
    probes: Optional[Callable[[float, Optional[LinearSubspace]], Sequence[ProbeWitness]]] = None

    def member(self, x: SymPoint) -> Optional[bool]:
        return self.membership([x])[0]

    def candidate_subspace(self) -> LinearSubspace:
        """Linearization of the subspace at the base point (uncertified)."""
        m = self.pair.dim_minus
        tol = self.pair.tol
        if self.kind == "generated":
            if self.seed is None:
                raise ValueError("generated subspace without a seed")
            if self.seed.ambient_dim != m:
                raise ValueError("seed vectors do not match the ambient dimension")
            return self.seed
        if self.kind == "fixed_point":
            if self.automorphism is None:
                raise ValueError("fixed-point subspace without an automorphism")
            a = self.automorphism.minus_map
            return LinearSubspace._wrap(m, _kernel_rows(a - np.eye(m), tol))
        if self.kind == "preimage":
            f, n2 = self.backing
            comp = n2.complement().basis  # rows spanning the complement of n2
            if comp.shape[0] == 0:
                return LinearSubspace.full(m)
            return LinearSubspace._wrap(m, _kernel_rows(comp @ f.minus_map, tol))
        if self.kind == "algebraic":
            if self.constraints is None:
                raise ValueError("algebraic subspace without constraints")
            h = 1e-6
            steps = [s * e for e in np.eye(m) for s in (h, -h)]
            values = _residuals(self.constraints, exp_points(self.pair, steps).cartans)
            jac = ((values[0::2] - values[1::2]) / (2.0 * h)).T
            fd_tol = Tolerance(max(tol.abs_eps, JACOBIAN_ABS_FLOOR), max(tol.rel_eps, JACOBIAN_REL_FLOOR))
            return LinearSubspace._wrap(m, _kernel_rows(jac, fd_tol))
        raise ValueError(f"unknown subspace kind {self.kind!r}")

    def descriptor(self) -> dict:
        out = {"kind": self.kind, "label": self.label}
        if self.seed is not None:
            out["seed_basis"] = self.seed.basis.tolist()
        if self.automorphism is not None:
            out["automorphism"] = self.automorphism.label
        if self.constraints is not None:
            out["constraints"] = getattr(self.constraints, "constraint_name", "custom")
        return out


def _residuals(constraints: Callable[[np.ndarray], np.ndarray], cartans: np.ndarray) -> np.ndarray:
    """``constraints(cartans)``, which must be ``(k, r)`` residual rows."""
    res = np.asarray(constraints(cartans), dtype=float)
    if res.ndim != 2 or len(res) != len(cartans):
        raise ValueError(f"constraints gave residuals of shape {res.shape} for {len(cartans)} Cartan matrices")
    return res


def algebraic_subspace(
    pair: MatrixSymmetricPair,
    constraints: Callable[[np.ndarray], np.ndarray],
    label: str = "",
    probes=None,
) -> ReflectionSubspace:
    """Subspace cut out by polynomial constraints on the Cartan matrix.

    ``constraints`` maps a ``(k, n, n)`` stack of Cartan matrices to their
    ``(k, r)`` residual rows (ValueError on any other shape).  The
    membership accepts a point when ``pair.tol.verdicts`` passes the
    Frobenius norm of its residual row at the scale ``max(|cartan|, 1)``:
    one constraints call and one verdicts call per block, on two row-norm
    stacks.
    """

    def membership(points) -> list:
        cartans = Points.of(pair, points).cartans
        norms = _frobenius(_residuals(constraints, cartans))
        return pair.tol.verdicts(norms, np.maximum(_frobenius(cartans), 1.0)).tolist()

    return ReflectionSubspace(
        pair=pair,
        membership=membership,
        kind="algebraic",
        label=label,
        constraints=constraints,
        probes=probes,
    )


def fixed_point_subspace(pair: MatrixSymmetricPair, automorphism: SymMorphism, label: str = "") -> ReflectionSubspace:
    """Fixed-point set of a pair automorphism (always a reflection subspace)."""
    if automorphism.source is not pair or automorphism.target is not pair:
        raise ValueError("automorphism must map the pair to itself")

    def membership(points) -> list:
        points = Points.of(pair, points)
        return same_points(automorphism.many(points), points)

    return ReflectionSubspace(
        pair=pair,
        membership=membership,
        kind="fixed_point",
        label=label,
        automorphism=automorphism,
    )


def whole_space(pair: MatrixSymmetricPair) -> ReflectionSubspace:
    def no_constraints(cartans: np.ndarray) -> np.ndarray:
        return np.zeros((len(cartans), 0))

    no_constraints.constraint_name = "none"
    return algebraic_subspace(pair, no_constraints, label="whole_space")


def base_only(pair: MatrixSymmetricPair) -> ReflectionSubspace:
    def at_base(cartans: np.ndarray) -> np.ndarray:
        return (cartans - np.eye(pair.ambient_n)).reshape(len(cartans), pair.ambient_n**2)

    at_base.constraint_name = "cartan_equals_identity"
    return algebraic_subspace(pair, at_base, label="base_only")


class ChartMembership:
    """Membership in the integral subspace generated by a seed, through the chart.

    Called on a block of points, it answers for each whether its
    normal-chart preimage lies in the seed, or None where the log leaves its
    domain or g_minus, from stacked logs and one row-wise ``contains_each``.
    """

    def __init__(self, pair: MatrixSymmetricPair, seed: LinearSubspace):
        self.pair = pair
        self.seed = seed

    def __call__(self, points) -> list:
        logs = [None if isinstance(v, ValueError) else v for v in _chart_logs(self.pair, points)]
        return _chart_verdicts(self.seed, logs, self.pair.tol)


def _chart_verdicts(sub: LinearSubspace, logs: list, tol: Tolerance) -> list:
    """``sub.contains`` of each chart log, from one ``contains_each`` call, and None where a log is None."""
    live = [v for v in logs if v is not None]
    verdicts = iter(sub.contains_each(np.reshape(live, (len(live), sub.ambient_dim)), tol))
    return [None if v is None else next(verdicts) for v in logs]


def generate_integral(seed: LinearSubspace, pair: MatrixSymmetricPair) -> ReflectionSubspace:
    """The connected integral subspace generated by a triple subsystem.

    Membership is chart-local: a point is a member iff its normal-chart
    preimage lands in the seed; outside the chart domain the answer is
    ``None`` (unknown), never a guess.
    """
    if not is_subsystem(lts_of_pair(pair), seed):
        raise ValueError("seed is not a triple subsystem")
    return ReflectionSubspace(
        pair=pair, membership=ChartMembership(pair, seed), kind="generated", label="generated_integral", seed=seed
    )


def lts_of_subspace(n_space: ReflectionSubspace) -> LinearSubspace:
    """Certified Lie triple system of a pointed reflection subspace.

    The linearized candidate is certified on the documented exponential-ray
    grid (a definite non-member refutes it; "unknown" outside the chart does
    not) and must pass is_subsystem on the ambient system.  The base point
    and the rays are tested in one membership block; a base point outside
    the subspace is reported first.
    """
    pair = n_space.pair
    cand = n_space.candidate_subspace()
    rays = [(v, t) for v in cand.basis for t in CERTIFICATION_GRID]
    base = Points._wrap(pair, np.eye(pair.ambient_n)[None])
    at_base, *members = n_space.membership(base + exp_points(pair, [t * v for v, t in rays]))
    if at_base is False:
        raise CertificationError("subspace does not contain the base point", witness=(None, 0.0))
    for (v, t), member in zip(rays, members):
        if member is False:
            raise CertificationError(
                f"candidate ray failed membership at t={t}", witness=(v, t)
            )
    if not is_subsystem(lts_of_pair(pair), cand):
        raise CertificationError("candidate is not a triple subsystem", witness=(cand.basis, None))
    return cand


def lts_roundtrip_check(seed: LinearSubspace, pair: MatrixSymmetricPair) -> bool:
    """Seed -> generated integral subspace -> extracted system: spans must agree."""
    extracted = lts_of_subspace(generate_integral(seed, pair))
    return extracted.equals(seed, pair.tol)


@dataclass(frozen=True)
class ChartReport:
    ok: bool
    radius: float
    max_violation: float
    witness: Optional[np.ndarray]
    history: tuple = field(default_factory=tuple)  # ((radius, violation), ...)

    def as_dict(self) -> dict:
        return {
            "ok": self.ok,
            "radius": self.radius,
            "max_violation": self.max_violation,
            "witness": None if self.witness is None else np.asarray(self.witness).tolist(),
            "history": [list(h) for h in self.history],
        }


def _ball_samples(rng: np.random.Generator, basis: np.ndarray, radius: float, count: int) -> np.ndarray:
    """``count`` uniform-ish samples in the span of the rows of ``basis``, each
    of norm at most ``radius``, as a ``(count, ambient)`` array.

    Draws all directions as one ``standard_normal((count, k))``, then all
    scales as one ``uniform(0.2, 1.0, count)``; row ``i`` is ``radius`` times
    scale ``i`` times unit direction ``i``, mapped to the span by one
    ``u @ basis`` for all rows.
    """
    u = rng.standard_normal((count, basis.shape[0]))
    scale = radius * rng.uniform(0.2, 1.0, count)
    u /= np.maximum(_frobenius(u), 1e-300)[:, None]
    return scale[:, None] * (u @ basis)


def exp_chart_split(
    n_space: ReflectionSubspace,
    n: LinearSubspace,
    rng: Optional[np.random.Generator] = None,
    samples: int = 40,
    start_radius: float = 1.0,
    floor: float = 1e-3,
) -> ChartReport:
    """Search for a radius where exp_point(v) in N iff v in n on the ball.

    Random samples check both directions; certified probe witnesses from the
    subspace (if any) refute radii that sampling alone cannot.  The radius
    halves on failure; hitting the floor raises :class:`ChartSplitError`.
    Each radius draws ``samples`` points of the n-ball (none when n is zero),
    then ``samples`` points of the whole ball, each by :func:`_ball_samples`
    (directions, then scales); it exponentiates them in one stacked call,
    the membership tests them in one more, and the probe gaps take one
    ``tol.verdicts`` call.
    """
    pair = n_space.pair
    rng = rng or np.random.default_rng(0)
    m = pair.dim_minus
    history = []
    radius = start_radius
    free = np.eye(m)
    while True:
        violation = 0.0
        witness = None

        inside = _ball_samples(rng, n.basis, radius, samples if n.dim else 0)
        ws = _ball_samples(rng, free, radius, samples)
        gaps = n.distances(ws).tolist()
        far = [i for i, gap in enumerate(gaps) if gap > 0.05 * radius]
        points = exp_points(pair, np.concatenate([inside, ws[far]]))
        members = n_space.membership(points)
        for v, member in zip(inside, members):
            if member is False:
                violation = max(violation, float(np.linalg.norm(v)))
                witness = v
        for i, member in zip(far, members[len(inside):]):
            if member is True:
                violation = max(violation, gaps[i])
                witness = ws[i]
        if n_space.probes is not None:
            vectors = (np.asarray(p.vector, dtype=float) for p in n_space.probes(radius, None))
            probes = [w for w in vectors if np.linalg.norm(w) <= radius]
            probe_gaps = n.distances(np.reshape(probes, (len(probes), m))).tolist()
            for w, gap, ok in zip(probes, probe_gaps, pair.tol.verdicts(probe_gaps, 1.0).tolist()):
                if not ok:
                    violation = max(violation, gap)
                    witness = w

        history.append((radius, violation))
        if violation == 0.0:
            return ChartReport(True, radius, 0.0, None, tuple(history))
        if radius <= floor:
            report = ChartReport(False, radius, violation, witness, tuple(history))
            raise ChartSplitError(
                f"no chart-split radius above floor {floor}", report
            )
        radius /= 2.0


def split_complement_criterion(
    n_space: ReflectionSubspace,
    n: LinearSubspace,
    f_comp: LinearSubspace,
    rng: Optional[np.random.Generator] = None,
    samples: int = 200,
    radius: float = 0.5,
) -> bool:
    """Falsification check of N intersect Exp(F-ball) = {b}.

    Returns False as soon as a nonzero sampled (or certified probe) direction
    in F exponentiates into N; True means no refutation was found.  All
    ``samples`` points of the F-ball are drawn first by :func:`_ball_samples`
    (directions, then scales), then exponentiated and tested by the
    membership in blocks of at most ``MAX_STACK_FLOATS``; the generator is
    left where that draw left it, refuted or not.
    """
    pair = n_space.pair
    m = pair.dim_minus
    if n.dim + f_comp.dim != m:
        raise ValueError("F is not a complement of n (dimension count)")
    stacked = np.vstack([n.basis, f_comp.basis])
    if LinearSubspace._span(stacked, m, pair.tol).dim != m:
        raise ValueError("F is not a complement of n (rank)")
    rng = rng or np.random.default_rng(0)
    if f_comp.dim == 0:
        return True
    ws = _ball_samples(rng, f_comp.basis, radius, samples)
    ws = ws[_frobenius(ws) >= COMPLEMENT_SAMPLE_FLOOR]
    size = _block_size(pair.ambient_n ** 2)
    for start in range(0, len(ws), size):
        if any(member is True for member in n_space.membership(exp_points(pair, ws[start:start + size]))):
            return False
    if n_space.probes is not None:
        vectors = (np.asarray(p.vector, dtype=float) for p in n_space.probes(radius, f_comp))
        probes = [w for w in vectors if COMPLEMENT_PROBE_FLOOR < np.linalg.norm(w) <= radius]
        return not pair.tol.verdicts(f_comp.distances(np.reshape(probes, (len(probes), m))), 1.0).any()
    return True


def preimage_subspace(f: SymMorphism, n2_space: ReflectionSubspace) -> ReflectionSubspace:
    """Preimage of a pointed reflection subspace under a morphism.

    The extracted Lie triple system is verified against the nullspace
    computation A^-1(n2) before returning.
    """
    if n2_space.pair is not f.target:
        raise ValueError("target subspace lives over the wrong pair")
    if n2_space.member(f(base_point(f.source))) is False:
        raise ValueError("target subspace is not pointed at f(b1)")
    n2 = lts_of_subspace(n2_space)

    pre = ReflectionSubspace(
        pair=f.source,
        membership=lambda points: n2_space.membership(f.many(points)),
        kind="preimage",
        label=f"preimage({n2_space.label})",
        backing=(f, n2),
    )
    extracted = lts_of_subspace(pre)
    pullback = pre.candidate_subspace()
    if not extracted.equals(pullback, f.source.tol):
        raise VerificationError("extracted system differs from the pullback nullspace")
    return pre


def kernel_subspace(f: SymMorphism) -> ReflectionSubspace:
    """Kernel f^-1(b2) as a reflection subspace; its system is ker of the tangent map."""
    pre = preimage_subspace(f, base_only(f.target))
    return ReflectionSubspace(
        pair=pre.pair,
        membership=pre.membership,
        kind=pre.kind,
        label=f"kernel({f.label})" if f.label else "kernel",
        backing=pre.backing,
    )


def mu_closure_check(
    n_space: ReflectionSubspace,
    rng: Optional[np.random.Generator] = None,
    samples: int = 30,
    scale: float = 0.15,
) -> bool:
    """Sampled closure of membership under the point product.

    Draws members x, y near the base (through the seed when present) and
    requires mu(x, y) not to be a definite non-member whenever it is decidable.
    All ``2 * samples`` factors are drawn first by one :func:`_ball_samples`
    (directions, then scales), rows ``2i`` and ``2i + 1`` the pair of sample
    ``i``; each block of at most ``MAX_STACK_FLOATS`` is exponentiated in one
    stacked call and tested in one membership call, and the products of its
    member pairs come from one ``mu_points`` call.  The generator is left
    where that draw left it, refuted or not.
    """
    pair = n_space.pair
    rng = rng or np.random.default_rng(0)
    if n_space.seed is not None and n_space.seed.dim > 0:
        basis = n_space.seed.basis
    else:
        basis = np.eye(pair.dim_minus)
    uv = _ball_samples(rng, basis, scale, 2 * samples)
    size = _block_size(2 * pair.ambient_n ** 2)
    for start in range(0, samples, size):
        points = exp_points(pair, uv[2 * start:2 * (start + size)])
        members = n_space.membership(points)
        both = [i for i, (a, b) in enumerate(zip(members[0::2], members[1::2])) if a is True and b is True]
        products = mu_points(points[0::2][both], points[1::2][both])
        if any(member is False for member in n_space.membership(products)):
            return False
    return True
