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
from .numkernel import DEFAULT_TOL, Tolerance, as_matrix, mat_exp, mat_log, op_norm
from .sympair import MatrixSymmetricPair, PairMorphism, group_sigma

__all__ = [
    "SymPoint",
    "base_point",
    "mu",
    "exp_point",
    "exp_points",
    "log_point",
    "one_param",
    "translation",
    "tau_action",
    "trotter_sum_sym",
    "trotter_bracket_sym",
    "chain_identity_check",
    "lts_of_pair",
    "SymMorphism",
    "sym_morphism",
    "cartan_distance",
]

# Longest chain of unread representatives a point may sit on; past it the
# inputs' reps are read, so a first read never recurses deeper than this.
_MAX_PENDING = 32


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
        rep = as_matrix(rep, square=True)
        cartan = rep @ np.linalg.inv(group_sigma(pair, rep))
        return cls(pair, rep, cartan)

    def same(self, other: "SymPoint") -> bool:
        """Point equality, i.e. equality of Cartan matrices (valid for K = G^sigma)."""
        _require_same_pair(self, other)
        return self.pair.tol.close(self.cartan, other.cartan)

    def is_base(self) -> bool:
        return self.pair.tol.close(self.cartan, np.eye(self.pair.ambient_n))

    def to_json(self) -> dict:
        return {"pair_label": self.pair.label, "rep": self.rep.tolist()}


def _derived_point(pair: MatrixSymmetricPair, rep_of, cartan: np.ndarray, *inputs: SymPoint) -> SymPoint:
    """A point whose rep ``rep_of()`` reads the reps of ``inputs``."""
    pending = 1 + max(x._pending for x in inputs)
    if pending > _MAX_PENDING:
        for x in inputs:
            x.rep
        pending = 1
    point = SymPoint(pair, rep_of, cartan)
    point._pending = pending
    return point


def _require_same_pair(x: SymPoint, y: SymPoint):
    if x.pair is not y.pair:
        raise ValueError("points live over different symmetric pairs")


def cartan_distance(x: SymPoint, y: SymPoint) -> float:
    """Frobenius distance of Cartan matrices; independent of representatives."""
    _require_same_pair(x, y)
    return float(np.linalg.norm(x.cartan - y.cartan))


def base_point(pair: MatrixSymmetricPair) -> SymPoint:
    ident = np.eye(pair.ambient_n)
    return SymPoint(pair, ident, ident.copy())


def _mu_rep(x: SymPoint, y: SymPoint) -> np.ndarray:
    sig = x.pair.sigma
    return x.rep @ np.linalg.inv(sig.apply(x.rep)) @ sig.apply(y.rep)


def mu(x: SymPoint, y: SymPoint) -> SymPoint:
    """The point product: in Cartan coordinates x . y = x y^-1 x."""
    _require_same_pair(x, y)
    cartan = x.cartan @ np.linalg.inv(y.cartan) @ x.cartan
    return _derived_point(x.pair, lambda: _mu_rep(x, y), cartan, x, y)


def exp_point(pair: MatrixSymmetricPair, v) -> SymPoint:
    """Exponential of a g_minus coordinate vector: q(exp of the matrix)."""
    x = pair.minus_to_matrix(v)
    # Cartan image of exp(v) is exp(2v): sigma(exp(x)) = exp(-x) on g_minus
    cartan = mat_exp(2.0 * x, pair.tol)
    return SymPoint(pair, lambda: mat_exp(x, pair.tol), cartan)


def exp_points(pair: MatrixSymmetricPair, vs) -> list:
    """``[exp_point(pair, v) for v in vs]``, bit for bit, from stacked exponentials.

    One stacked ``mat_exp`` gives every Cartan matrix; the first rep read on
    any of the points computes the reps of the whole batch in one more.
    """
    n = pair.ambient_n
    xs = np.empty((len(vs), n, n))
    for i, v in enumerate(vs):
        xs[i] = pair.minus_to_matrix(v)
    cartans = mat_exp(2.0 * xs, pair.tol)
    reps = []

    def rep_of(i: int) -> np.ndarray:
        if not reps:
            reps.append(mat_exp(xs, pair.tol))
        return reps[0][i]

    return [SymPoint(pair, partial(rep_of, i), c) for i, c in enumerate(cartans)]


def log_point(pair: MatrixSymmetricPair, x: SymPoint) -> np.ndarray:
    """Normal-chart inverse of exp_point; requires the Cartan matrix to sit
    in the principal-log domain and its half-log to lie in g_minus."""
    if x.pair is not pair:
        raise ValueError("point does not belong to the given pair")
    half = 0.5 * mat_log(x.cartan, pair.tol)
    return pair.matrix_to_minus(half)  # residual check inside


def one_param(pair: MatrixSymmetricPair, v, t: float) -> SymPoint:
    """The one-parameter subspace through the base point: alpha_v(t)."""
    return exp_point(pair, t * np.asarray(v, dtype=float))


def translation(pair: MatrixSymmetricPair, v, s: float, x: SymPoint) -> SymPoint:
    """Translation tau_{alpha,s} = mu_{alpha(s/2)} o mu_{alpha(0)} along alpha_v."""
    return mu(one_param(pair, v, s / 2.0), mu(base_point(pair), x))


def tau_action(pair: MatrixSymmetricPair, g: np.ndarray, x: SymPoint) -> SymPoint:
    """The natural action (g, hK) -> ghK."""
    g = as_matrix(g, square=True)
    if abs(np.linalg.det(g)) < 1e-300:
        raise ValueError("tau requires an invertible group element")
    cartan = g @ x.cartan @ np.linalg.inv(pair.sigma.apply(g))
    return _derived_point(pair, lambda: g @ x.rep, cartan, x)


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
    # the word is indexed n..1, so the group product runs over reversed lists
    g = np.eye(pair.ambient_n)
    for i in range(len(xs) - 1, -1, -1):
        g = g @ mat_exp(pair.minus_to_matrix(xs[i]), pair.tol) @ mat_exp(pair.minus_to_matrix(ys[i]), pair.tol)
    left = SymPoint.from_rep(pair, g)

    syms = []
    for i in range(len(xs) - 1, -1, -1):
        syms.append(exp_point(pair, xs[i] / 2.0))
        syms.append(exp_point(pair, -ys[i] / 2.0))
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
        if x.pair is not self.source:
            raise ValueError("point does not belong to the morphism's source")
        return SymPoint.from_rep(self.target, self.pair_morphism.map_group(x.rep))

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
