"""The symmetric space M = G/K of a matrix symmetric pair.

A point is its Cartan matrix ``C = g sigma(g)^-1``, for any ``g`` with
``g K = x``.  Because K is the full fixed group, two elements give the same
coset exactly when their Cartan matrices agree, so the point product is
``mu(x, y) = x y^-1 x`` on Cartan matrices and no coset-membership oracle
is ever needed.  A group homomorphism ``phi`` with ``phi o sigma =
sigma' o phi`` maps the point of ``C`` to the point of ``phi(C)``; this is
how morphisms and the quotient projection act on points.  A group element
enters only through :meth:`SymPoint.from_group`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .lts import LieTripleSystem
from .numkernel import (
    INVERTIBLE_DET_FLOOR,
    DomainError,
    _close_gaps,
    _frobenius,
    _mat_log_stack,
    as_matrix,
    mat_exp,
)
from .sympair import MatrixSymmetricPair, PairMorphism, _word_products, group_sigma

__all__ = [
    "SymPoint",
    "base_point",
    "mu",
    "mu_points",
    "same_points",
    "exp_point",
    "exp_points",
    "log_point",
    "log_points",
    "one_param",
    "translation",
    "tau_action",
    "tau_actions",
    "trotter_sum_sym",
    "trotter_bracket_sym",
    "chain_identity_check",
    "lts_of_pair",
    "SymMorphism",
    "sym_morphism",
    "cartan_distance",
    "cartan_distances",
]

# Most floats in one stack of matrices that the quotient path's samplers
# exponentiate or its point projection solves for: it bounds their stacked
# temporaries, and with them the memory high-water mark of a batched pass.
MAX_STACK_FLOATS = 2 ** 13


class SymPoint:
    """Point of G/K, held as its Cartan matrix ``g sigma(g)^-1``.

    The Cartan matrix determines the point (K = G^sigma), and every point
    operation is a formula in it; no group representative is kept.
    """

    __slots__ = ("pair", "cartan")

    def __init__(self, pair: MatrixSymmetricPair, cartan: np.ndarray):
        self.pair = pair
        self.cartan = cartan

    @classmethod
    def from_group(cls, pair: MatrixSymmetricPair, g):
        """The point ``g K``, Cartan matrix ``g sigma(g)^-1``, of a group element;
        of a ``(k, n, n)`` stack, the list of the points of its slices, each bit
        for bit the one-matrix call."""
        g = as_matrix(g, square=True, stack=True)
        stack = g if g.ndim == 3 else g[None]
        points = [cls(pair, c) for c in stack @ np.linalg.inv(group_sigma(pair, stack))]
        return points if g.ndim == 3 else points[0]

    def same(self, other: "SymPoint") -> bool:
        """Point equality, i.e. equality of Cartan matrices (valid for K = G^sigma)."""
        return same_points([self], [other])[0]

    def is_base(self) -> bool:
        return self.pair.tol.close(self.cartan, np.eye(self.pair.ambient_n))

    def to_json(self) -> dict:
        return {"pair_label": self.pair.label, "cartan": np.asarray(self.cartan).tolist()}


def _square_stack(mats, what: str) -> np.ndarray:
    """``mats`` as a validated ``(k, n, n)`` stack; a single matrix is refused,
    since its rows would be taken for the matrices."""
    mats = as_matrix(mats, square=True, stack=True)
    if mats.ndim != 3:
        raise ValueError(f"expected a stack of {what}, got a single matrix")
    return mats


def _columns(xs, ys) -> tuple:
    """``xs`` and ``ys`` as lists of points over one pair: raises ValueError
    on columns of unequal length or on points over different pairs."""
    xs, ys = list(xs), list(ys)
    if len(xs) != len(ys):
        raise ValueError(f"unequal columns: {len(xs)} and {len(ys)} points")
    pair = xs[0].pair if xs else None
    if any(x.pair is not pair for x in xs) or any(y.pair is not pair for y in ys):
        raise ValueError("points live over different symmetric pairs")
    return xs, ys


def _cartans(points: list) -> np.ndarray:
    return np.array([x.cartan for x in points])


def cartan_distance(x: SymPoint, y: SymPoint) -> float:
    """Frobenius distance of Cartan matrices; independent of representatives."""
    return cartan_distances([x], [y])[0]


def cartan_distances(xs, ys) -> list:
    """``cartan_distance(x, y)`` of each pair of points, bit for bit, from one
    stacked difference; all points must live over one pair."""
    xs, ys = _columns(xs, ys)
    return _frobenius(_cartans(xs) - _cartans(ys)).tolist() if xs else []


def same_points(xs, ys) -> list:
    """``x.same(y)`` of each pair of points, bit for bit, from stacked norms and
    one ``tol.verdicts`` call; all points must live over one pair."""
    xs, ys = _columns(xs, ys)
    return xs[0].pair.tol.verdicts(*_close_gaps(_cartans(xs), _cartans(ys))).tolist() if xs else []


def base_point(pair: MatrixSymmetricPair) -> SymPoint:
    return SymPoint(pair, np.eye(pair.ambient_n))


def mu(x: SymPoint, y: SymPoint) -> SymPoint:
    """The point product: in Cartan coordinates x . y = x y^-1 x."""
    return mu_points([x], [y])[0]


def mu_points(xs, ys) -> list:
    """``mu(x, y)`` of each pair of points, bit for bit, from one stacked
    ``x y^-1 x``; all points must live over one pair."""
    xs, ys = _columns(xs, ys)
    if not xs:
        return []
    xc = _cartans(xs)
    return [SymPoint(xs[0].pair, c) for c in xc @ np.linalg.inv(_cartans(ys)) @ xc]


def exp_point(pair: MatrixSymmetricPair, v) -> SymPoint:
    """Exponential of a g_minus coordinate vector: q(exp of the matrix)."""
    return exp_points(pair, [v])[0]


def exp_points(pair: MatrixSymmetricPair, vs) -> list:
    """The exponential of each g_minus coordinate vector, from one stacked
    ``minus_to_matrix`` call and one stacked ``mat_exp``."""
    # Cartan image of exp(v) is exp(2v): sigma(exp(x)) = exp(-x) on g_minus
    return [SymPoint(pair, c) for c in mat_exp(2.0 * _minus_mats(pair, vs), pair.tol)]


def _minus_mats(pair: MatrixSymmetricPair, vs) -> np.ndarray:
    # minus_to_matrix of a sequence of vectors, which may be empty
    n = pair.ambient_n
    return pair.minus_to_matrix(vs) if len(vs) else np.empty((0, n, n))


def _chart_logs(pair: MatrixSymmetricPair, points) -> list:
    """Per point, what :func:`log_point` returns or the error it raises, from
    stacked logs of at most ``MAX_STACK_FLOATS`` floats and one ``g_minus``
    coordinate call per block (a point that fails before its log takes an
    identity slice)."""
    n = pair.ambient_n
    size = max(1, MAX_STACK_FLOATS // max(1, n * n))
    ident = np.eye(n)
    out = []
    for start in range(0, len(points), size):
        block = [_cartan_or_error(pair, x) for x in points[start:start + size]]
        logs, failed = _mat_log_stack(np.array([ident if isinstance(c, ValueError) else c for c in block]), pair.tol)
        block = [c if isinstance(c, ValueError) or m is None else DomainError(m) for c, m in zip(block, failed)]
        live = [i for i, c in enumerate(block) if not isinstance(c, ValueError)]
        coords, errors = pair._minus_coords_each(0.5 * logs[live])  # the half-log may leave g_minus
        for i, row, exc in zip(live, coords, errors):
            block[i] = row if exc is None else exc
        out.extend(block)
    return out


def _cartan_or_error(pair: MatrixSymmetricPair, x: SymPoint):
    # the point's Cartan matrix as log_point takes its log, or the error it raises first
    if x.pair is not pair:
        return ValueError("point does not belong to the given pair")
    try:
        return as_matrix(x.cartan, square=True)
    except ValueError as exc:
        return exc


def log_point(pair: MatrixSymmetricPair, x: SymPoint) -> np.ndarray:
    """Normal-chart inverse of exp_point; requires the Cartan matrix to sit
    in the principal-log domain and its half-log to lie in g_minus."""
    return _raise_first(_chart_logs(pair, [x]))[0]


def log_points(pair: MatrixSymmetricPair, points) -> list:
    """``log_point`` of each point, or None where it raises :class:`DomainError`.

    Any other error of ``log_point`` is raised, the first in point order.
    """
    logs = [None if isinstance(v, DomainError) else v for v in _chart_logs(pair, list(points))]
    return _raise_first(logs)


def _raise_first(values: list) -> list:
    """``values``, or raise the first of them that is an exception."""
    for v in values:
        if isinstance(v, Exception):
            raise v
    return values


def one_param(pair: MatrixSymmetricPair, v, t: float) -> SymPoint:
    """The one-parameter subspace through the base point: alpha_v(t)."""
    return exp_point(pair, t * np.asarray(v, dtype=float))


def translation(pair: MatrixSymmetricPair, v, s: float, x: SymPoint) -> SymPoint:
    """Translation tau_{alpha,s} = mu_{alpha(s/2)} o mu_{alpha(0)} along alpha_v."""
    return mu(one_param(pair, v, s / 2.0), mu(base_point(pair), x))


def tau_action(pair: MatrixSymmetricPair, g: np.ndarray, x: SymPoint) -> SymPoint:
    """The natural action (g, hK) -> ghK."""
    return _tau_stack(pair, as_matrix(g, square=True)[None], [x])[0]


def tau_actions(pair: MatrixSymmetricPair, gs, xs) -> list:
    """``tau_action(pair, g, x)`` of each group element and point, bit for bit,
    from one determinant check and one ``sigma`` on the stack of elements."""
    xs = list(xs)
    if len(gs) != len(xs):
        raise ValueError(f"unequal columns: {len(gs)} group elements and {len(xs)} points")
    return _tau_stack(pair, _square_stack(gs, "group elements"), xs) if xs else []


def _tau_stack(pair: MatrixSymmetricPair, gs: np.ndarray, xs: list) -> list:
    # the body of tau_action and tau_actions on an already validated (k, n, n) stack
    if np.any(np.abs(np.linalg.det(gs)) < INVERTIBLE_DET_FLOOR):
        raise ValueError("tau requires an invertible group element")
    return [SymPoint(pair, c) for c in gs @ _cartans(xs) @ np.linalg.inv(pair.sigma.apply(gs))]


# ---------------------------------------------------------------------------
# words of symmetries
#
# An even word of symmetries mu_{p1} ... mu_{p2m} acts on Cartan matrices as
# Y -> A Y B with A = P1 P2^-1 ... and B = ... P2^-1 P1; powers of such a
# word are matrix powers of (A, B).  A is precisely the group element whose
# tau action the word realizes.


class _EvenWord:
    __slots__ = ("a", "b")

    def __init__(self, a: np.ndarray, b: np.ndarray):
        self.a = a
        self.b = b

    @classmethod
    def identity(cls, n: int) -> "_EvenWord":
        return cls(np.eye(n), np.eye(n))

    @classmethod
    def from_points(cls, cartans: Sequence[np.ndarray]) -> "_EvenWord":
        if len(cartans) % 2:
            raise ValueError("even word needs an even number of symmetries")
        n = cartans[0].shape[0]
        a, b = np.eye(n), np.eye(n)
        for i in range(0, len(cartans), 2):
            p, q = cartans[i], cartans[i + 1]
            qi = np.linalg.inv(q)
            a = a @ (p @ qi)
            b = (qi @ p) @ b
        return cls(a, b)

    def compose(self, other: "_EvenWord") -> "_EvenWord":
        return _EvenWord(self.a @ other.a, other.b @ self.b)

    def power(self, m: int) -> "_EvenWord":
        return _EvenWord(np.linalg.matrix_power(self.a, m), np.linalg.matrix_power(self.b, m))

    def conjugate_by_symmetry(self, e: np.ndarray) -> "_EvenWord":
        """mu_E o self o mu_E as an even word."""
        ei = np.linalg.inv(e)
        return _EvenWord(e @ np.linalg.inv(self.b) @ ei, ei @ np.linalg.inv(self.a) @ e)

    def as_point(self, pair: MatrixSymmetricPair) -> SymPoint:
        """The image of the base point, Cartan matrix A B."""
        return SymPoint(pair, self.a @ self.b)


def apply_symmetries(points: Sequence[SymPoint], x: SymPoint) -> SymPoint:
    """Naive fold of mu_{p_1} o ... o mu_{p_m} applied to x (reference path)."""
    out = x
    for p in reversed(list(points)):
        out = mu(p, out)
    return out


def trotter_sum_sym(pair: MatrixSymmetricPair, x, y, k: int) -> SymPoint:
    """k-th symmetric-space Trotter approximant of exp_point(x + y).

    The orbit (mu_{Exp(x/2k)} mu_{Exp(-y/2k)})^k of the base point, evaluated
    through the even-word transform (exact reassociation of the same product).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    p1 = exp_point(pair, x / (2.0 * k)).cartan
    p2 = exp_point(pair, -y / (2.0 * k)).cartan
    word = _EvenWord.from_points([p1, p2]).power(k)
    return word.as_point(pair)


def trotter_bracket_sym(pair: MatrixSymmetricPair, x, y, z, k: int, l: int) -> SymPoint:
    """Finite (k, l) approximant of exp_point([x, y, z]).

    Uses the double-limit word (g_(k,l) mu_{Exp(z/2k)} h_(k,l) mu_{Exp(z/2k)})^(k^2)
    where g and h are the l^2-fold commutator words in x and y.
    """
    if k < 1 or l < 1:
        raise ValueError("k and l must be >= 1")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    z = np.asarray(z, dtype=float)
    c = 1.0 / (2.0 * l * np.sqrt(k))
    ex = exp_point(pair, c * x).cartan
    ey = exp_point(pair, c * y).cartan
    exm = exp_point(pair, -c * x).cartan
    eym = exp_point(pair, -c * y).cartan
    g_word = _EvenWord.from_points([ex, eym, exm, ey]).power(l * l)
    h_word = _EvenWord.from_points([ex, ey, exm, eym]).power(l * l)
    ez = exp_point(pair, z / (2.0 * k)).cartan
    period = g_word.compose(h_word.conjugate_by_symmetry(ez))
    return period.power(k * k).as_point(pair)


def chain_identity_check(pair: MatrixSymmetricPair, xs, ys) -> float:
    """Residual of the translator identity between group words and symmetry words.

    Left side: q(exp(x_n) exp(y_n) ... exp(x_1) exp(y_1)); right side: the
    word mu_{Exp(x_n/2)} mu_{Exp(-y_n/2)} ... applied to the base point.
    Returns the Cartan-Frobenius distance of the two points.
    """
    xs = [np.asarray(v, dtype=float) for v in xs]
    ys = [np.asarray(v, dtype=float) for v in ys]
    if len(xs) != len(ys):
        raise ValueError("xs and ys must have equal length")
    # the word is indexed n..1, so both products run over reversed lists
    order = range(len(xs) - 1, -1, -1)
    letters = mat_exp(_minus_mats(pair, [v for i in order for v in (xs[i], ys[i])]), pair.tol)
    left = SymPoint.from_group(pair, _word_products(letters[None])[0])
    syms = exp_points(pair, [v for i in order for v in (xs[i] / 2.0, -ys[i] / 2.0)])
    right = apply_symmetries(syms, base_point(pair))
    return cartan_distance(left, right)


def lts_of_pair(pair: MatrixSymmetricPair) -> LieTripleSystem:
    """Structure tensor of [x, y, z] = [[x, y], z] on g_minus coordinates.

    Raises if a double commutator leaves g_minus, which would mean the
    eigenspace invariants of the pair are broken.  Built once per pair
    (:attr:`MatrixSymmetricPair.triple_system`); the tensor is read-only.
    """
    return pair.triple_system


@dataclass(frozen=True, eq=False)
class SymMorphism:
    """Induced map of symmetric spaces, with its tangent map on g_minus."""

    source: MatrixSymmetricPair
    target: MatrixSymmetricPair
    pair_morphism: PairMorphism
    minus_map: np.ndarray  # (target.dim_minus, source.dim_minus)
    label: str = ""

    def __call__(self, x: SymPoint) -> SymPoint:
        return self.many([x])[0]

    def many(self, points) -> list:
        """The image of each point, bit for bit the single call: the group rule
        maps each Cartan matrix C to the image's Cartan matrix phi(C)."""
        points = list(points)
        if any(x.pair is not self.source for x in points):
            raise ValueError("point does not belong to the morphism's source")
        return [SymPoint(self.target, self.pair_morphism.map_group(x.cartan)) for x in points]

    def base_check(self) -> bool:
        return self(base_point(self.source)).is_base()


def sym_morphism(f: PairMorphism, label: str = "") -> SymMorphism:
    """The point map induced by a pair morphism (Sym functor on arrows)."""
    return SymMorphism(
        source=f.source,
        target=f.target,
        pair_morphism=f,
        minus_map=f.minus_map,
        label=label or f.label,
    )
