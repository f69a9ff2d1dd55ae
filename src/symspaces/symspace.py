"""The symmetric space M = G/K of a matrix symmetric pair.

Points are carried by their Cartan image ``c = g sigma(g)^-1`` of a group
representative ``g``.  Because K is the full fixed group, two
representatives give the same coset exactly when their Cartan matrices
agree, so the point product reduces to ``mu(x, y) = x y^-1 x`` on Cartan
matrices and no coset-membership oracle is ever needed.  A representative
is needed only where a group acts on a point (morphisms, projections,
relations, JSON output), so points built here compute it on first read.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Optional, Sequence

import numpy as np

from .lts import LieTripleSystem
from .numkernel import (
    DEFAULT_TOL,
    INVERTIBLE_DET_FLOOR,
    DomainError,
    Tolerance,
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

# Longest chain of unread representatives a point may sit on; past it the
# inputs' reps are read, so a first read never recurses deeper than this.
_MAX_PENDING = 32
# Most floats in one stack of matrices that the quotient path's samplers
# exponentiate or its point projection solves for: it bounds their stacked
# temporaries, and with them the memory high-water mark of a batched pass.
MAX_STACK_FLOATS = 2 ** 13


class SymPoint:
    """Point of G/K: its Cartan matrix and a group representative.

    ``cartan`` is computed at construction.  ``rep`` is either the
    representative or a zero-argument callable that computes it; a callable
    runs on the first read of :attr:`rep`, and its result is cached.
    """

    __slots__ = ("pair", "cartan", "_rep", "_pending")

    def __init__(self, pair: MatrixSymmetricPair, rep, cartan: np.ndarray):
        self.pair = pair
        self.cartan = cartan
        self._rep = rep
        self._pending = 1 if callable(rep) else 0  # unread reps behind this point

    @property
    def rep(self) -> np.ndarray:
        if self._pending:
            self._rep = self._rep()
            self._pending = 0
        return self._rep

    @classmethod
    def from_rep(cls, pair: MatrixSymmetricPair, rep: np.ndarray) -> "SymPoint":
        return cls._from_stack(pair, as_matrix(rep, square=True)[None])[0]

    @classmethod
    def from_reps(cls, pair: MatrixSymmetricPair, reps: np.ndarray) -> list:
        """``[from_rep(pair, r) for r in reps]``, bit for bit, from stacked products."""
        return cls._from_stack(pair, _square_stack(reps, "representatives"))

    @classmethod
    def _from_stack(cls, pair: MatrixSymmetricPair, reps: np.ndarray) -> list:
        # the body of from_rep and from_reps on an already validated stack
        cartans = reps @ np.linalg.inv(group_sigma(pair, reps))
        return [cls(pair, r, c) for r, c in zip(reps, cartans)]

    def same(self, other: "SymPoint") -> bool:
        """Point equality, i.e. equality of Cartan matrices (valid for K = G^sigma)."""
        return same_points([self], [other])[0]

    def is_base(self) -> bool:
        return self.pair.tol.close(self.cartan, np.eye(self.pair.ambient_n))

    def to_json(self) -> dict:
        return {"pair_label": self.pair.label, "rep": self.rep.tolist()}


def _square_stack(mats, what: str) -> np.ndarray:
    """``mats`` as a validated ``(k, n, n)`` stack; a single matrix is refused,
    since its rows would be taken for the matrices."""
    mats = as_matrix(mats, square=True, stack=True)
    if mats.ndim != 3:
        raise ValueError(f"expected a stack of {what}, got a single matrix")
    return mats


def _derived_points(pair: MatrixSymmetricPair, cartans: np.ndarray, reps_of, inputs: list) -> list:
    """Points with these Cartan matrices whose reps are the rows of one call
    ``reps_of()``, made on the first rep read of any of them.

    ``reps_of`` may read the reps of ``inputs``; the chain of unread reps
    behind the batch is counted once, over all of them.  The batch shares
    one fate: until one of its reps is read, each point keeps all of
    ``inputs`` alive, and if ``reps_of()`` raises (say, one slice is
    singular), every point's rep read raises it.
    """
    pending = 1 + max((x._pending for x in inputs), default=0)
    if pending > _MAX_PENDING:
        for x in inputs:
            x.rep
        pending = 1
    reps = []

    def rep_of(i: int) -> np.ndarray:
        if not reps:
            reps.append(reps_of())
        return reps[0][i]

    points = [SymPoint(pair, partial(rep_of, i), c) for i, c in enumerate(cartans)]
    for x in points:
        x._pending = pending
    return points


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


def _reps(points: list) -> np.ndarray:
    return np.array([x.rep for x in points])


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
    if not xs:
        return []
    a, b = _cartans(xs), _cartans(ys)
    scales = np.maximum(np.maximum(_frobenius(a), _frobenius(b)), 1.0)
    return xs[0].pair.tol.verdicts(_frobenius(a - b), scales).tolist()


def base_point(pair: MatrixSymmetricPair) -> SymPoint:
    ident = np.eye(pair.ambient_n)
    return SymPoint(pair, ident, ident.copy())


def mu(x: SymPoint, y: SymPoint) -> SymPoint:
    """The point product: in Cartan coordinates x . y = x y^-1 x."""
    return mu_points([x], [y])[0]


def mu_points(xs, ys) -> list:
    """``mu(x, y)`` of each pair of points, bit for bit, from one stacked ``x y^-1 x``.

    All points must live over one pair.  The first rep read on any of the
    products computes the reps of the whole batch in one stacked
    ``x sigma(x)^-1 sigma(y)``; until then every product holds all of ``xs``
    and ``ys``, and if one slice of that inverse fails, each product's rep
    read raises the error the single ``mu`` of that slice raised.
    """
    xs, ys = _columns(xs, ys)
    if not xs:
        return []
    pair = xs[0].pair
    xc = _cartans(xs)
    cartans = xc @ np.linalg.inv(_cartans(ys)) @ xc

    def reps_of() -> np.ndarray:
        xr = _reps(xs)
        return xr @ np.linalg.inv(pair.sigma.apply(xr)) @ pair.sigma.apply(_reps(ys))

    return _derived_points(pair, cartans, reps_of, xs + ys)


def exp_point(pair: MatrixSymmetricPair, v) -> SymPoint:
    """Exponential of a g_minus coordinate vector: q(exp of the matrix)."""
    return exp_points(pair, [v])[0]


def exp_points(pair: MatrixSymmetricPair, vs) -> list:
    """The exponential of each g_minus coordinate vector, from stacked exponentials.

    One stacked ``minus_to_matrix`` call gives every matrix and one stacked
    ``mat_exp`` every Cartan matrix; the first rep read on any of the points
    computes the reps of the whole batch in one more.
    """
    xs = _minus_mats(pair, vs)
    # Cartan image of exp(v) is exp(2v): sigma(exp(x)) = exp(-x) on g_minus
    cartans = mat_exp(2.0 * xs, pair.tol)
    return _derived_points(pair, cartans, lambda: mat_exp(xs, pair.tol), [])


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
    cartans = gs @ _cartans(xs) @ np.linalg.inv(pair.sigma.apply(gs))
    return _derived_points(pair, cartans, lambda: gs @ _reps(xs), xs)


# ---------------------------------------------------------------------------
# words of symmetries
#
# An even word of symmetries mu_{p1} ... mu_{p2m} acts on Cartan matrices as
# Y -> A Y B with A = P1 P2^-1 ... and B = ... P2^-1 P1; powers of such a
# word are matrix powers of (A, B).  A is precisely the group element whose
# tau action the word realizes, so it doubles as the representative.


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
        """The image of the base point; A is the realizing group element."""
        return SymPoint(pair, self.a, self.a @ self.b)


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
    left = SymPoint.from_rep(pair, _word_products(letters[None])[0])
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
        """The image of each point, bit for bit the single call: the group
        rule maps one rep at a time, then one ``from_reps`` builds the images."""
        points = list(points)
        if any(x.pair is not self.source for x in points):
            raise ValueError("point does not belong to the morphism's source")
        if not points:
            return []
        return SymPoint.from_reps(self.target, [self.pair_morphism.map_group(x.rep) for x in points])

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
