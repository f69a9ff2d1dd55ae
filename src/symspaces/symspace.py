"""The symmetric space M = G/K of a matrix symmetric pair.

A point is its Cartan matrix ``C = g sigma(g)^-1``, for any ``g`` with
``g K = x``.  Because K is the full fixed group, two elements give the same
coset exactly when their Cartan matrices agree, so the point product is
``mu(x, y) = x y^-1 x`` on Cartan matrices and no coset-membership oracle
is ever needed.  A group homomorphism ``phi`` with ``phi o sigma =
sigma' o phi`` maps the point of ``C`` to the point of ``phi(C)``; this is
how morphisms and the quotient projection act on points.  A group element
enters only through :meth:`SymPoint.from_group`.

A block of points is a :class:`Points`: the pair and one read-only
``(k, n, n)`` stack of Cartan matrices.  Every producer of points returns
one, and every consumer takes one, or a sequence of :class:`SymPoint` that
:meth:`Points.of` stacks once; the one-point functions are the ``k = 1`` case.
``SymPoint(pair, cartan)`` and ``Points(pair, cartans)`` check what they are
given; a stack the package computed is wrapped unchecked.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

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
    "Points",
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


def _block_size(floats_per_row: int) -> int:
    """How many rows of ``floats_per_row`` floats one stack of at most
    ``MAX_STACK_FLOATS`` floats holds: at least one."""
    return max(1, MAX_STACK_FLOATS // max(1, floats_per_row))


class SymPoint:
    """Point of G/K, held as its Cartan matrix ``g sigma(g)^-1``.

    The Cartan matrix determines the point (K = G^sigma), and every point
    operation is a formula in it; no group representative is kept.
    ``SymPoint(pair, cartan)`` checks its matrix as ``Points(pair, cartans)``
    checks a stack and keeps a read-only copy.
    """

    __slots__ = ("pair", "cartan")

    def __init__(self, pair: MatrixSymmetricPair, cartan):
        self.pair = pair
        self.cartan = _checked(pair, np.array(cartan, dtype=float)[None])[0]
        self.cartan.flags.writeable = False

    @classmethod
    def _wrap(cls, pair: MatrixSymmetricPair, cartan: np.ndarray) -> "SymPoint":
        # a point of a matrix that the package computed: no check and no copy
        x = object.__new__(cls)
        x.pair, x.cartan = pair, cartan
        cartan.flags.writeable = False
        return x

    @classmethod
    def from_group(cls, pair: MatrixSymmetricPair, g):
        """The point ``g K``, Cartan matrix ``g sigma(g)^-1``, of a group element;
        of a ``(k, n, n)`` stack, the :class:`Points` of its slices, each bit for
        bit the one-matrix call."""
        g = as_matrix(g, square=True, stack=True)
        stack = g if g.ndim == 3 else g[None]
        points = Points._wrap(pair, _checked(pair, stack @ np.linalg.inv(group_sigma(pair, stack))))
        return points if g.ndim == 3 else points[0]

    def same(self, other: "SymPoint") -> bool:
        """Point equality, i.e. equality of Cartan matrices (valid for K = G^sigma)."""
        return same_points([self], [other])[0]

    def is_base(self) -> bool:
        return self.pair.tol.close(self.cartan, np.eye(self.pair.ambient_n))

    def to_json(self) -> dict:
        return {"pair_label": self.pair.label, "cartan": self.cartan.tolist()}


class Points:
    """A block of points over one pair: ``pair`` and the read-only float64
    ``(k, n, n)`` stack ``cartans`` of their Cartan matrices, ``n = pair.ambient_n``.

    ``Points(pair, cartans)`` checks its stack as :class:`SymPoint` checks a
    matrix and keeps a read-only copy; :meth:`of` is the one converting entry
    for a sequence of points.  ``len``, iteration and an integer index give
    :class:`SymPoint`; a slice, an index list or a boolean mask gives a
    ``Points``; ``+`` concatenates a block over the same pair.
    """

    __slots__ = ("pair", "cartans")

    def __init__(self, pair: MatrixSymmetricPair, cartans):
        self.pair = pair
        self.cartans = _checked(pair, np.array(cartans, dtype=float))
        self.cartans.flags.writeable = False

    @classmethod
    def _wrap(cls, pair: MatrixSymmetricPair, cartans: np.ndarray) -> "Points":
        # a block of a stack that the package computed: no check and no copy
        xs = object.__new__(cls)
        xs.pair, xs.cartans = pair, cartans.view()
        xs.cartans.flags.writeable = False
        return xs

    @classmethod
    def of(cls, pair: MatrixSymmetricPair, points) -> "Points":
        """``points`` as a block over ``pair``: a ``Points`` over ``pair`` as it
        is, a sequence of :class:`SymPoint` stacked once.  A point made from
        outside input checked its matrix then, and a point the package made
        needs no check, so only the pairs are checked here.

        Raises ValueError for a point over another pair.
        """
        if isinstance(points, Points) and points.pair is pair:
            return points
        points = list(points)  # the points of a block over another pair fail the next test
        if any(x.pair is not pair for x in points):
            raise ValueError("point does not belong to the given pair")
        n = pair.ambient_n
        return cls._wrap(pair, np.array([x.cartan for x in points]) if points else np.empty((0, n, n)))

    def __len__(self) -> int:
        return len(self.cartans)

    def __iter__(self):
        return (SymPoint._wrap(self.pair, c) for c in self.cartans)

    def __getitem__(self, index):
        if isinstance(index, (int, np.integer)):
            return SymPoint._wrap(self.pair, self.cartans[index])
        return Points._wrap(self.pair, self.cartans[index])

    def __add__(self, other) -> "Points":
        return Points._wrap(self.pair, np.concatenate([self.cartans, Points.of(self.pair, other).cartans]))


def _checked(pair: MatrixSymmetricPair, cartans: np.ndarray) -> np.ndarray:
    """``cartans`` if it is a ``(k, n, n)`` stack, ``n = pair.ambient_n``, whose
    slices have finite Frobenius norms (so finite entries whose squares sum
    without overflow); ValueError otherwise."""
    n = pair.ambient_n
    if cartans.ndim != 3 or cartans.shape[1:] != (n, n):
        raise ValueError(f"expected {n}x{n} Cartan matrices of {pair.label}, got shape {cartans.shape[1:]}")
    with np.errstate(over="ignore", invalid="ignore"):
        finite = np.isfinite(_frobenius(cartans)).all()
    if not finite:
        raise ValueError("Cartan matrices must be finite, with a finite Frobenius norm")
    return cartans


def _point_columns(xs, ys, pair: Optional[MatrixSymmetricPair] = None) -> tuple:
    """``xs`` and ``ys`` as two equal-length :class:`Points` over ``pair``, by
    default the pair of the first point; two empty sequences with no pair to
    hold them come back as they are."""
    for column in (xs, ys):
        if pair is None and (isinstance(column, Points) or len(column)):
            pair = column.pair if isinstance(column, Points) else column[0].pair
    if pair is None:
        return xs, ys
    xs, ys = Points.of(pair, xs), Points.of(pair, ys)
    if len(xs) != len(ys):
        raise ValueError(f"unequal columns: {len(xs)} and {len(ys)} points")
    return xs, ys


def _scattered(points: Points, index: list, block: Points) -> Points:
    """``points`` with the points at ``index`` replaced by those of ``block``."""
    cartans = points.cartans.copy()
    cartans[index] = block.cartans
    return Points._wrap(points.pair, cartans)


def cartan_distance(x: SymPoint, y: SymPoint) -> float:
    """Frobenius distance of Cartan matrices; independent of representatives."""
    return cartan_distances([x], [y])[0]


def cartan_distances(xs, ys) -> list:
    """``cartan_distance(x, y)`` of each pair of points, bit for bit, from one
    stacked difference; all points must live over one pair."""
    xs, ys = _point_columns(xs, ys)
    return _frobenius(xs.cartans - ys.cartans).tolist() if len(xs) else []


def same_points(xs, ys) -> list:
    """``x.same(y)`` of each pair of points, bit for bit, from stacked norms and
    one ``tol.verdicts`` call; all points must live over one pair."""
    xs, ys = _point_columns(xs, ys)
    return xs.pair.tol.verdicts(*_close_gaps(xs.cartans, ys.cartans)).tolist() if len(xs) else []


def base_point(pair: MatrixSymmetricPair) -> SymPoint:
    return SymPoint._wrap(pair, np.eye(pair.ambient_n))


def mu(x: SymPoint, y: SymPoint) -> SymPoint:
    """The point product: in Cartan coordinates x . y = x y^-1 x."""
    return mu_points([x], [y])[0]


def mu_points(xs, ys) -> Points:
    """``mu(x, y)`` of each pair of points, bit for bit, from one stacked
    ``x y^-1 x``; all points must live over one pair.  Two empty sequences,
    which name no pair, give an empty list."""
    xs, ys = _point_columns(xs, ys)
    if not isinstance(xs, Points):
        return []
    xc = xs.cartans
    return Points._wrap(xs.pair, xc @ np.linalg.inv(ys.cartans) @ xc)


def exp_point(pair: MatrixSymmetricPair, v) -> SymPoint:
    """Exponential of a g_minus coordinate vector: q(exp of the matrix)."""
    return exp_points(pair, [v])[0]


def exp_points(pair: MatrixSymmetricPair, vs) -> Points:
    """The exponential of each g_minus coordinate vector, from one stacked
    ``minus_to_matrix`` call and one stacked ``mat_exp``."""
    # Cartan image of exp(v) is exp(2v): sigma(exp(x)) = exp(-x) on g_minus
    return Points._wrap(pair, mat_exp(2.0 * _minus_mats(pair, vs), pair.tol))


def _minus_mats(pair: MatrixSymmetricPair, vs) -> np.ndarray:
    # minus_to_matrix of a sequence of vectors, which may be empty
    n = pair.ambient_n
    return pair.minus_to_matrix(vs) if len(vs) else np.empty((0, n, n))


def _chart_logs(pair: MatrixSymmetricPair, points) -> list:
    """Per point of a block, what :func:`log_point` returns or the error it
    raises, from stacked logs of at most ``MAX_STACK_FLOATS`` floats and one
    ``g_minus`` coordinate call per block (a non-finite Cartan matrix, which
    an overflowing ``exp_points`` gives, takes an identity slice)."""
    cartans = Points.of(pair, points).cartans
    n = pair.ambient_n
    size = _block_size(n * n)
    out = []
    for start in range(0, len(cartans), size):
        chunk = cartans[start:start + size]
        finite = np.isfinite(chunk).all(axis=(1, 2))
        logs, failed = _mat_log_stack(np.where(finite[:, None, None], chunk, np.eye(n)), pair.tol)
        block = [
            ValueError("matrix entries must be finite") if not ok else None if m is None else DomainError(m)
            for ok, m in zip(finite.tolist(), failed)
        ]
        live = [i for i, v in enumerate(block) if v is None]
        coords, errors = pair._minus_coords_each(0.5 * logs[live])  # the half-log may leave g_minus
        for i, row, exc in zip(live, coords, errors):
            block[i] = row if exc is None else exc
        out.extend(block)
    return out


def log_point(pair: MatrixSymmetricPair, x: SymPoint) -> np.ndarray:
    """Normal-chart inverse of exp_point; requires the Cartan matrix to sit
    in the principal-log domain and its half-log to lie in g_minus."""
    return _raise_first(_chart_logs(pair, [x]))[0]


def log_points(pair: MatrixSymmetricPair, points) -> list:
    """``log_point`` of each point, or None where it raises :class:`DomainError`.

    Any other error of ``log_point`` is raised, the first in point order.
    """
    return _raise_first([None if isinstance(v, DomainError) else v for v in _chart_logs(pair, points)])


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
    return tau_actions(pair, as_matrix(g, square=True)[None], [x])[0]


def tau_actions(pair: MatrixSymmetricPair, gs, xs) -> Points:
    """``tau_action(pair, g, x)`` of each group element and point, bit for bit,
    from one determinant check and one ``sigma`` on the stack of elements."""
    xs = Points.of(pair, xs)
    if len(gs) != len(xs):
        raise ValueError(f"unequal columns: {len(gs)} group elements and {len(xs)} points")
    if not len(xs):
        return xs
    gs = as_matrix(gs, square=True, stack=True)
    if gs.ndim != 3:
        raise ValueError("expected a stack of group elements, got a single matrix")
    if np.any(np.abs(np.linalg.det(gs)) < INVERTIBLE_DET_FLOOR):
        raise ValueError("tau requires an invertible group element")
    return Points._wrap(pair, gs @ xs.cartans @ np.linalg.inv(pair.sigma.apply(gs)))


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
        return SymPoint._wrap(pair, self.a @ self.b)


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

    The :attr:`~symspaces.lts.SymmetricLieAlgebra.minus_lts` of
    ``pair.algebra()``, whose ``minus_basis`` rows are the g_minus
    coordinate axes: built once per pair, read-only, and a
    :class:`VerificationError` if a triple bracket leaves g_minus.
    """
    return pair.algebra().minus_lts


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

    def many(self, points) -> Points:
        """The image of each point of a block over the source, bit for bit the
        single call: the group rule maps each Cartan matrix C to the image's
        Cartan matrix phi(C)."""
        cartans = Points.of(self.source, points).cartans
        images = [self.pair_morphism._map_group(c) for c in cartans]
        n = self.target.ambient_n
        return Points._wrap(self.target, np.reshape(images, (len(cartans), n, n)))

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
