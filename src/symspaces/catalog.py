"""Built-in model zoo: sphere, spd, grassmann, abelian torus, products.

Every model packages a matrix symmetric pair together with designated
subspaces and morphisms used across the verification suites.  The torus
carries its lattice explicitly: membership in the designated winding line
is decided by exact arithmetic in Z[sqrt(2)] (or exact rationals for a
closed line), so the dense-line negative example never depends on
floating-point luck.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

import numpy as np

from .lts import LinearSubspace, is_subsystem
from .numkernel import DEFAULT_TOL, Tolerance
from .quotient import CongruenceRelation
from .subspace import ProbeWitness, ReflectionSubspace, algebraic_subspace, fixed_point_subspace
from .sympair import MatrixSymmetricPair, PairMorphism, SigmaRule
from .symspace import Points, SymMorphism, SymPoint, _block_size, _point_columns, base_point, exp_point
from .symspace import lts_of_pair, sym_morphism

__all__ = [
    "ModelDescriptor",
    "DesignatedSubspace",
    "DesignatedMorphism",
    "TorusLattice",
    "MODEL_NAMES",
    "build_model",
    "parse_model",
    "pell_convergents",
]

MODEL_NAMES = ("sphere", "spd", "grassmann", "torus_abelian", "product")

SQRT2 = math.sqrt(2.0)
# The lattice search of the torus relation: two points are related when a
# shift within this winding brings their discrepancy within thresh of the line.
TORUS_RELATION_GRID = {"winding": 200000, "thresh": 1e-8}
# The default of the dense line's float membership: a point is on the line
# when a lattice shift brings its half-angles within this distance of it.
TORUS_MEMBER_THRESH = 1e-9


@dataclass(frozen=True, eq=False)
class DesignatedSubspace:
    name: str
    seed: LinearSubspace  # g_minus coordinates
    subspace: Optional[ReflectionSubspace]  # independent membership, if any
    is_ideal: bool
    is_symmetric: bool  # expected chart-split outcome


@dataclass(frozen=True, eq=False)
class DesignatedMorphism:
    name: str
    morphism: SymMorphism


@dataclass(frozen=True, eq=False)
class ModelDescriptor:
    name: str
    params: dict
    pair: MatrixSymmetricPair
    designated_subspaces: tuple = ()
    designated_morphisms: tuple = ()
    metadata: dict = field(default_factory=dict)
    extras: dict = field(default_factory=dict)

    def subspace_by_name(self, name: str) -> DesignatedSubspace:
        for sub in self.designated_subspaces:
            if sub.name == name:
                return sub
        raise KeyError(f"model {self.name!r} has no designated subspace {name!r}")


# ---------------------------------------------------------------------------
# building blocks


def _skew(n: int, i: int, j: int) -> np.ndarray:
    m = np.zeros((n, n))
    m[i, j] = 1.0
    m[j, i] = -1.0
    return m / SQRT2


def _sym_basis(n: int) -> list:
    out = [np.diag([1.0 if d == i else 0.0 for d in range(n)]) for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            m = np.zeros((n, n))
            m[i, j] = m[j, i] = 1.0 / SQRT2
            out.append(m)
    return out


def _block_embed(mat: np.ndarray, total: int, offset: int) -> np.ndarray:
    out = np.zeros((total, total))
    k = mat.shape[0]
    out[offset : offset + k, offset : offset + k] = mat
    return out


def _sphere_pair(n: int, tol: Tolerance) -> MatrixSymmetricPair:
    amb = n + 1
    theta = np.diag([1.0] * n + [-1.0])
    plus = [_skew(amb, i, j) for i in range(n) for j in range(i + 1, n)]
    minus = [_skew(amb, i, n) for i in range(n)]
    return MatrixSymmetricPair(
        ambient_n=amb,
        plus_mats=np.array(plus) if plus else np.zeros((0, amb, amb)),
        minus_mats=np.array(minus),
        sigma=SigmaRule("conjugation", theta),
        label=f"sphere({n})",
        tol=tol,
    )


def _spd_pair(n: int, tol: Tolerance) -> MatrixSymmetricPair:
    plus = [_skew(n, i, j) for i in range(n) for j in range(i + 1, n)]
    minus = _sym_basis(n)
    return MatrixSymmetricPair(
        ambient_n=n,
        plus_mats=np.array(plus) if plus else np.zeros((0, n, n)),
        minus_mats=np.array(minus),
        sigma=SigmaRule("transpose_inverse"),
        label=f"spd({n})",
        tol=tol,
    )


def _grassmann_pair(k: int, n: int, tol: Tolerance) -> MatrixSymmetricPair:
    theta = np.diag([1.0] * k + [-1.0] * (n - k))
    plus = [_skew(n, i, j) for i in range(k) for j in range(i + 1, k)]
    plus += [_skew(n, i, j) for i in range(k, n) for j in range(i + 1, n)]
    minus = [_skew(n, i, j) for i in range(k) for j in range(k, n)]
    return MatrixSymmetricPair(
        ambient_n=n,
        plus_mats=np.array(plus) if plus else np.zeros((0, n, n)),
        minus_mats=np.array(minus),
        sigma=SigmaRule("conjugation", theta),
        label=f"grassmann({k},{n})",
        tol=tol,
    )


def _rotation_generator(total: int, block: int) -> np.ndarray:
    j = np.zeros((total, total))
    j[2 * block, 2 * block + 1] = -1.0
    j[2 * block + 1, 2 * block] = 1.0
    return j


def _torus_pair(tol: Tolerance, label: str) -> MatrixSymmetricPair:
    # two rotation blocks; coordinates of g_minus are literal angles
    theta = np.diag([1.0, -1.0, 1.0, -1.0])
    minus = np.array([_rotation_generator(4, 0), _rotation_generator(4, 1)])
    return MatrixSymmetricPair(
        ambient_n=4,
        plus_mats=np.zeros((0, 4, 4)),
        minus_mats=minus,
        sigma=SigmaRule("conjugation", theta),
        label=label,
        tol=tol,
    )


# ---------------------------------------------------------------------------
# torus lattice oracle


def pell_convergents(count: int):
    """Continued-fraction convergents p/q of sqrt(2); p - q*sqrt(2) -> 0."""
    p, q = 1, 1
    out = []
    for _ in range(count):
        out.append((p, q, p - q * SQRT2))
        p, q = p + 2 * q, p + q
    return out


@dataclass(frozen=True, eq=False)
class TorusLattice:
    """Exact membership oracle for the line of a given slope on the torus.

    Points of the line through the base are exp_point((t, t*s)).  In
    half-angle coordinates w (so that the Cartan angles are 2w mod 2pi) the
    lattice-reduced membership condition reads w2 - s*w1 = pi*(b - a*s).
    For s = sqrt(2) this is decided exactly for angles given as
    pi*(A + B*sqrt 2) with rational A, B; for rational s = P/Q exactly for
    rational angle multiples of pi.
    """

    slope_kind: str  # "sqrt2" or "rational"
    rational: Optional[Fraction] = None

    @property
    def slope(self) -> float:
        return SQRT2 if self.slope_kind == "sqrt2" else float(self.rational)

    # -- exact membership ---------------------------------------------------

    def member_exact_sqrt2(self, a1: Fraction, b1: Fraction, a2: Fraction, b2: Fraction) -> bool:
        """Membership of w = (pi*(a1 + b1*s), pi*(a2 + b2*s)) for s = sqrt 2."""
        if self.slope_kind != "sqrt2":
            raise ValueError("exact sqrt-2 oracle needs the sqrt2 slope")
        b = a2 - 2 * b1
        a = a1 - b2
        return b.denominator == 1 and a.denominator == 1

    def member_exact_rational(self, a1: Fraction, a2: Fraction) -> bool:
        """Membership of w = (pi*a1, pi*a2) for a rational slope P/Q."""
        if self.slope_kind != "rational":
            raise ValueError("rational oracle needs a rational slope")
        pq = self.rational
        val = pq.denominator * a2 - pq.numerator * a1
        return val.denominator == 1

    # -- float membership ----------------------------------------------------

    @staticmethod
    def half_angles(point: SymPoint) -> tuple:
        return tuple(_half_angles(point.cartan[None])[0].tolist())

    def members_float(self, points, winding: int = 64, thresh: float = TORUS_MEMBER_THRESH) -> list:
        """Float membership of each point of a block over one torus pair: some
        lattice shift ``a`` in ``[-winding, winding]`` brings
        ``s*(w1 + pi*a) - w2`` within ``thresh`` of a multiple of pi.

        The ``(k, 2*winding + 1)`` grid of shifts is evaluated in row chunks
        of at most ``MAX_STACK_FLOATS`` floats (one row where a row is
        longer), each entry by the same elementwise arithmetic as one point.
        """
        if not len(points):
            return []
        w = _half_angles(Points.of(points[0].pair, points).cartans)
        s = self.slope
        a = np.arange(-winding, winding + 1, dtype=float)
        rows = _block_size(a.size)
        out = []
        for start in range(0, len(w), rows):
            w1, w2 = w[start:start + rows, :1], w[start:start + rows, 1:]
            r = s * (w1 + np.pi * a) - w2
            dist = np.abs(r - np.pi * np.round(r / np.pi))
            out += (dist.min(axis=1) <= thresh).tolist()
        return out

    # -- witnesses -----------------------------------------------------------

    def chart_witnesses(self, radius: float, count: int = 2):
        """Nonzero members of the line within the given radius, off the seed.

        Built from Pell pairs (p, q): the point exp_point((0, pi*(p - q*s)))
        equals exp_point((t, t*s)) for t = -pi*q, certified by exact
        arithmetic (A1=B1=0, A2=p, B2=-q).
        """
        if self.slope_kind != "sqrt2":
            return []
        out = []
        for p, q, delta in pell_convergents(40):
            v = math.pi * delta
            if abs(v) <= 0.9 * radius:
                assert self.member_exact_sqrt2(Fraction(0), Fraction(0), Fraction(p), Fraction(-q))
                out.append(ProbeWitness(np.array([0.0, v]), note=f"pell {p}/{q}"))
                if len(out) >= count:
                    break
        return out

    def complement_witnesses(self, radius: float, count: int = 2):
        """Members of the line inside span{(-s, 1)} within the given radius.

        w = (pi*delta/3)(-s, 1) has exact coordinates (A1, B1) = (2q/3, -p/3)
        and (A2, B2) = (p/3, -q/3), which satisfy the lattice condition.
        """
        if self.slope_kind != "sqrt2":
            return []
        out = []
        for p, q, delta in pell_convergents(40):
            scale = math.pi * delta / 3.0
            v = np.array([-scale * SQRT2, scale])
            if np.linalg.norm(v) <= 0.9 * radius:
                assert self.member_exact_sqrt2(
                    Fraction(2 * q, 3), Fraction(-p, 3), Fraction(p, 3), Fraction(-q, 3)
                )
                out.append(ProbeWitness(v, note=f"pell complement {p}/{q}"))
                if len(out) >= count:
                    break
        return out

    def line_points_near(self, target_w2: float, steps: int = 6):
        """Points of the line converging to exp_point((0, target_w2)).

        Uses multiples of Pell windings so that the second half-angle
        approaches the target while the first stays zero; the limit point is
        off the line whenever target_w2/pi is not in Z + sqrt(2) Z.
        """
        if self.slope_kind != "sqrt2":
            return []
        out = []
        tau = target_w2 / math.pi
        for p, q, delta in pell_convergents(steps + 3)[3:]:
            m = int(round(-tau / delta))
            if m == 0:
                continue
            # alpha(pi*m*q) reduced: q*sqrt2 = p - delta, so the second
            # half-angle is -pi*m*delta mod pi, converging to target_w2
            out.append(np.array([0.0, -math.pi * m * delta]))
            if len(out) >= steps:
                break
        return out


def _half_angles(cartans: np.ndarray) -> np.ndarray:
    """The ``(k, 2)`` half-angles of a stack of torus Cartan matrices, one
    ``math.atan2`` of the rotation entries of each 2x2 block."""
    angles = [list(map(math.atan2, cartans[:, i + 1, i].tolist(), cartans[:, i, i].tolist())) for i in (0, 2)]
    return 0.5 * np.array(angles).T


# ---------------------------------------------------------------------------
# designated subspaces per model


def _sphere_circle(pair: MatrixSymmetricPair, tol: Tolerance):
    n = pair.ambient_n - 1
    d = np.diag([1.0 if i != 1 else -1.0 for i in range(pair.ambient_n)])
    coords = pair.matrix_coords(d @ pair.basis_mats @ d).T  # column i: the image of basis matrix i
    auto = PairMorphism(
        source=pair, target=pair, algebra_map=coords,
        group_rule=lambda g: d @ g @ d, label="reflection",
    )
    circle = fixed_point_subspace(pair, sym_morphism(auto), label="great_circle")
    seed = LinearSubspace(pair.dim_minus, np.eye(pair.dim_minus)[:1])
    return DesignatedSubspace("great_circle", seed, circle, is_ideal=False, is_symmetric=True)


def _spd_designated(pair: MatrixSymmetricPair, n: int, tol: Tolerance):
    m = pair.dim_minus

    def offdiag(cartans: np.ndarray) -> np.ndarray:
        return cartans[:, ~np.eye(n, dtype=bool)]

    offdiag.constraint_name = "cartan_offdiagonal_zero"
    diag_space = algebraic_subspace(pair, offdiag, label="diagonal")
    diag_seed = LinearSubspace(m, np.eye(m)[:n])  # the n diagonal directions

    def scalar(cartans: np.ndarray) -> np.ndarray:
        dev = cartans - (np.trace(cartans, axis1=1, axis2=2) / n)[:, None, None] * np.eye(n)
        return dev.reshape(len(cartans), n * n)

    scalar.constraint_name = "cartan_scalar"
    center_sub = algebraic_subspace(pair, scalar, label="center")
    # coordinates of the identity matrix: the n diagonal directions, normalized
    center_seed = LinearSubspace.span((np.ones(n) / math.sqrt(n)).reshape(1, -1) @ np.eye(m)[:n], m)
    return (
        DesignatedSubspace("diagonal", diag_seed, diag_space, is_ideal=False, is_symmetric=True),
        DesignatedSubspace("center", center_seed, center_sub, is_ideal=True, is_symmetric=True),
    )


def _torus_designated(pair: MatrixSymmetricPair, lattice: TorusLattice):
    m = pair.dim_minus
    s = lattice.slope

    dense_seed = LinearSubspace.span(np.array([[1.0, s]]) / math.hypot(1.0, s), m)

    def dense_probes(radius: float, within):
        if within is None:
            return lattice.chart_witnesses(radius)
        comp = LinearSubspace.span(np.array([[-s, 1.0]]), m)
        if within.equals(comp, pair.tol):
            return lattice.complement_witnesses(radius)
        return []

    dense = ReflectionSubspace(
        pair=pair,
        membership=lambda points: lattice.members_float(Points.of(pair, points)),
        kind="generated",
        label="dense_line",
        seed=dense_seed,
        probes=dense_probes,
    )

    def second_block_identity(cartans: np.ndarray) -> np.ndarray:
        return (cartans[:, 2:, 2:] - np.eye(2)).reshape(len(cartans), 4)

    second_block_identity.constraint_name = "second_block_identity"
    axis = algebraic_subspace(pair, second_block_identity, label="axis_line")
    axis_seed = LinearSubspace(m, np.array([[1.0, 0.0]]))

    subs = (
        # at a rational slope the line closes up into a circle, a symmetric subspace
        DesignatedSubspace(
            "dense_line", dense_seed, dense, is_ideal=True, is_symmetric=lattice.slope_kind == "rational"
        ),
        DesignatedSubspace("axis_line", axis_seed, axis, is_ideal=True, is_symmetric=True),
    )
    return subs


def _torus_relation(pair: MatrixSymmetricPair, lattice: TorusLattice) -> CongruenceRelation:
    n = LinearSubspace.span(np.array([[1.0, lattice.slope]]), pair.dim_minus)
    l_full = pair.minus_subspace_to_full(n)

    def relates(xs, ys) -> list:
        # the discrepancy X^-1 Y: the torus's Cartan matrices commute, so it needs no root
        xs, ys = _point_columns(xs, ys, pair)
        return lattice.members_float(Points._wrap(pair, np.linalg.inv(xs.cartans) @ ys.cartans), **TORUS_RELATION_GRID)

    def sequence_probes():
        target = 0.15
        pts = lattice.line_points_near(target, steps=5)
        base = base_point(pair)
        seq = [(base, exp_point(pair, v)) for v in pts]
        limit = (base, exp_point(pair, np.array([0.0, target])))
        return [(seq, limit)]

    return CongruenceRelation(
        pair=pair,
        l_algebra=l_full,
        n_minus=n,
        relates=relates,
        label="dense_line_relation",
        sequence_probes=sequence_probes,
    )


def _product_designated(pair, ma: ModelDescriptor, mb: ModelDescriptor):
    m1 = ma.pair.dim_minus
    m2 = mb.pair.dim_minus
    m = m1 + m2
    n_a, n_b = ma.pair.ambient_n, mb.pair.ambient_n

    def right_block_identity(cartans: np.ndarray) -> np.ndarray:
        return (cartans[:, n_a:, n_a:] - np.eye(n_b)).reshape(len(cartans), n_b * n_b)

    right_block_identity.constraint_name = "right_block_identity"
    left_factor = algebraic_subspace(pair, right_block_identity, label="left_factor")
    left_seed = LinearSubspace(m, np.eye(m)[:m1])
    out = [DesignatedSubspace("left_factor", left_seed, left_factor, is_ideal=True, is_symmetric=True)]
    if m1 == m2:
        # the diagonal of equal-dimension factors is a triple subsystem only
        # when the factors' systems agree (not for spd(2) x sphere(3))
        diag_seed = LinearSubspace(m, np.hstack([np.eye(m1), np.eye(m1)]) / SQRT2)
        if is_subsystem(lts_of_pair(pair), diag_seed, pair.tol):
            out.append(DesignatedSubspace("diagonal", diag_seed, None, is_ideal=False, is_symmetric=True))
    return tuple(out)


def _product_morphisms(pair, ma: ModelDescriptor, mb: ModelDescriptor):
    pa, pb = ma.pair, mb.pair
    n_a, n_b = pa.ambient_n, pb.ambient_n
    total = n_a + n_b
    d_a, d_b = pa.dim, pb.dim
    out = []

    def embed_diag(g):
        out_m = np.eye(total)
        out_m[:n_a, :n_a] = g
        out_m[n_a:, n_a:] = g
        return out_m

    if n_a == n_b and d_a == d_b:
        amap = np.zeros((pair.dim, d_a))
        # product coordinates: [plus_a, plus_b, minus_a, minus_b]
        pa_p, pa_m = pa.dim_plus, pa.dim_minus
        for i in range(pa_p):
            amap[i, i] = 1.0
            amap[pa_p + i, i] = 1.0
        for i in range(pa_m):
            amap[2 * pa_p + i, pa_p + i] = 1.0
            amap[2 * pa_p + pa_m + i, pa_p + i] = 1.0
        diag = PairMorphism(source=pa, target=pair, algebra_map=amap, group_rule=embed_diag, label="diag_embed")
        out.append(DesignatedMorphism("diag_embed", sym_morphism(diag)))

        swap_map = np.zeros((pair.dim, pair.dim))
        for i in range(pa_p):
            swap_map[i, pa_p + i] = 1.0
            swap_map[pa_p + i, i] = 1.0
        off = 2 * pa_p
        for i in range(pa_m):
            swap_map[off + i, off + pa_m + i] = 1.0
            swap_map[off + pa_m + i, off + i] = 1.0

        def swap_rule(g):
            out_m = np.zeros_like(g)
            out_m[:n_a, :n_a] = g[n_a:, n_a:]
            out_m[n_a:, n_a:] = g[:n_a, :n_a]
            out_m[:n_a, n_a:] = g[n_a:, :n_a]
            out_m[n_a:, :n_a] = g[:n_a, n_a:]
            return out_m

        swap = PairMorphism(source=pair, target=pair, algebra_map=swap_map, group_rule=swap_rule, label="swap")
        out.append(DesignatedMorphism("swap", sym_morphism(swap)))

    proj_map = np.zeros((d_a, pair.dim))
    pa_p, pb_p = pa.dim_plus, pb.dim_plus
    for i in range(pa_p):
        proj_map[i, i] = 1.0
    for i in range(pa.dim_minus):
        proj_map[pa_p + i, pa_p + pb_p + i] = 1.0

    def proj_rule(g):
        return g[:n_a, :n_a]

    proj = PairMorphism(source=pair, target=pa, algebra_map=proj_map, group_rule=proj_rule, label="proj_left")
    out.append(DesignatedMorphism("proj_left", sym_morphism(proj)))
    return tuple(out)


# ---------------------------------------------------------------------------
# model constructors


def _identity_morphism(pair: MatrixSymmetricPair) -> SymMorphism:
    f = PairMorphism(
        source=pair, target=pair, algebra_map=np.eye(pair.dim),
        group_rule=lambda g: g, label="identity",
    )
    return sym_morphism(f)


def build_model(name: str, params: Optional[dict] = None, tol: Tolerance = DEFAULT_TOL) -> ModelDescriptor:
    """Construct a catalog model; see MODEL_NAMES for the vocabulary."""
    params = dict(params or {})
    if name == "sphere":
        n = int(params.get("n", 2))
        if n < 2:
            raise ValueError("sphere needs n >= 2")
        pair = _sphere_pair(n, tol)
        subs = (_sphere_circle(pair, tol),) if n == 2 else ()
        return ModelDescriptor(
            name="sphere", params={"n": n}, pair=pair,
            designated_subspaces=subs,
            designated_morphisms=(DesignatedMorphism("identity", _identity_morphism(pair)),),
            metadata={"closed_subspaces": True, "connected": True},
        )
    if name == "spd":
        n = int(params.get("n", 2))
        if n < 2:
            raise ValueError("spd needs n >= 2")
        pair = _spd_pair(n, tol)
        return ModelDescriptor(
            name="spd", params={"n": n}, pair=pair,
            designated_subspaces=_spd_designated(pair, n, tol),
            designated_morphisms=(DesignatedMorphism("identity", _identity_morphism(pair)),),
            metadata={"closed_subspaces": True, "connected": True},
        )
    if name == "grassmann":
        k = int(params.get("k", 1))
        n = int(params.get("n", 3))
        if not (1 <= k < n):
            raise ValueError("grassmann needs 1 <= k < n")
        pair = _grassmann_pair(k, n, tol)
        seed = LinearSubspace(pair.dim_minus, np.eye(pair.dim_minus)[:1])
        return ModelDescriptor(
            name="grassmann", params={"k": k, "n": n}, pair=pair,
            designated_subspaces=(
                DesignatedSubspace("line", seed, None, is_ideal=False, is_symmetric=True),
            ),
            designated_morphisms=(DesignatedMorphism("identity", _identity_morphism(pair)),),
            metadata={"closed_subspaces": True, "connected": True},
        )
    if name == "torus_abelian":
        slope = params.get("slope", "sqrt2")
        if slope in ("sqrt2", None):
            lattice = TorusLattice("sqrt2")
        else:
            try:
                frac = Fraction(slope) if not isinstance(slope, Fraction) else slope
                float(frac)
            except (ZeroDivisionError, OverflowError) as exc:
                raise ValueError(f"torus slope {slope!r} is not a finite rational number") from exc
            lattice = TorusLattice("rational", rational=frac)
        pair = _torus_pair(tol, f"torus({slope})")
        subs = _torus_designated(pair, lattice)

        def doubling_rule(g):
            return g @ g

        doubling = PairMorphism(
            source=pair, target=pair, algebra_map=2.0 * np.eye(pair.dim),
            group_rule=doubling_rule, label="doubling",
        )
        return ModelDescriptor(
            name="torus_abelian", params={"slope": str(slope)}, pair=pair,
            designated_subspaces=subs,
            designated_morphisms=(
                DesignatedMorphism("identity", _identity_morphism(pair)),
                DesignatedMorphism("doubling", sym_morphism(doubling)),
            ),
            metadata={
                "closed_subspaces": True if lattice.slope_kind == "rational" else "dense_line is not closed",
                "connected": True,
            },
            extras={"lattice": lattice, "line_relation": _torus_relation(pair, lattice)},
        )
    if name == "product":
        spec_a = params.get("a", "sphere(2)")
        spec_b = params.get("b", "sphere(2)")
        ma = parse_model(spec_a, tol) if isinstance(spec_a, str) else spec_a
        mb = parse_model(spec_b, tol) if isinstance(spec_b, str) else spec_b
        pair = _product_pair(ma, mb, tol)
        return ModelDescriptor(
            name="product", params={"a": spec_a, "b": spec_b}, pair=pair,
            designated_subspaces=_product_designated(pair, ma, mb),
            designated_morphisms=_product_morphisms(pair, ma, mb),
            metadata={"closed_subspaces": True, "connected": True},
            extras={"factors": (ma, mb)},
        )
    raise ValueError(f"unknown model {name!r}; choose from {MODEL_NAMES}")


def _product_pair(ma: ModelDescriptor, mb: ModelDescriptor, tol: Tolerance) -> MatrixSymmetricPair:
    pa, pb = ma.pair, mb.pair
    n_a, n_b = pa.ambient_n, pb.ambient_n
    total = n_a + n_b
    plus = [_block_embed(m, total, 0) for m in pa.plus_mats]
    plus += [_block_embed(m, total, n_a) for m in pb.plus_mats]
    minus = [_block_embed(m, total, 0) for m in pa.minus_mats]
    minus += [_block_embed(m, total, n_a) for m in pb.minus_mats]

    kinds = (pa.sigma.kind, pb.sigma.kind)
    if kinds == ("conjugation", "conjugation"):
        theta = np.zeros((total, total))
        theta[:n_a, :n_a] = pa.sigma.theta
        theta[n_a:, n_a:] = pb.sigma.theta
        sigma = SigmaRule("conjugation", theta)
    elif kinds == ("transpose_inverse", "transpose_inverse"):
        sigma = SigmaRule("transpose_inverse")
    else:
        # orthogonal factors absorb transpose-inverse, so the composite rule
        # with Theta = diag(Theta_a or I, Theta_b or I) realizes the product
        theta = np.eye(total)
        if pa.sigma.kind == "conjugation":
            theta[:n_a, :n_a] = pa.sigma.theta
        if pb.sigma.kind == "conjugation":
            theta[n_a:, n_a:] = pb.sigma.theta
        sigma = SigmaRule("composite", theta)
    return MatrixSymmetricPair(
        ambient_n=total,
        plus_mats=np.array(plus) if plus else np.zeros((0, total, total)),
        minus_mats=np.array(minus) if minus else np.zeros((0, total, total)),
        sigma=sigma,
        label=f"{pa.label}x{pb.label}",
        tol=tol,
    )


def parse_model(spec: str, tol: Tolerance = DEFAULT_TOL) -> ModelDescriptor:
    """Parse compact model specs: sphere(2), spd(3), grassmann(1,3),
    torus_abelian(sqrt2), product(sphere(2),sphere(2))."""
    spec = spec.strip()
    if "(" not in spec:
        return build_model(spec, {}, tol)
    head, _, rest = spec.partition("(")
    if not rest.endswith(")"):
        raise ValueError(f"malformed model spec {spec!r}")
    body = rest[:-1].strip()
    head = head.strip()
    if head == "torus":
        head = "torus_abelian"
    if head == "sphere":
        return build_model("sphere", {"n": int(body)} if body else {}, tol)
    if head == "spd":
        return build_model("spd", {"n": int(body)} if body else {}, tol)
    if head == "grassmann":
        k, n = (int(v) for v in body.split(","))
        return build_model("grassmann", {"k": k, "n": n}, tol)
    if head == "torus_abelian":
        return build_model("torus_abelian", {"slope": body or "sqrt2"}, tol)
    if head == "product":
        depth = 0
        split_at = None
        for i, ch in enumerate(body):
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
            elif ch == "," and depth == 0:
                split_at = i
                break
        if split_at is None:
            raise ValueError("product spec needs two factors")
        return build_model(
            "product", {"a": body[:split_at].strip(), "b": body[split_at + 1 :].strip()}, tol
        )
    raise ValueError(f"unknown model {head!r}")
