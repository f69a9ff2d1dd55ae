"""Dense small-matrix kernel: exp, principal log, nullspace, rank.

The principal log (and the chart relation's principal root) takes one of two
routes per matrix.  A matrix that passes the normality gate, as every
catalog Cartan matrix does, is split as ``C = U P`` (polar, then the Cayley
transform of ``U``) and its log and root come from a stacked symmetric
eigendecomposition of each factor that is not the identity up to rounding,
and from a short Taylor series of each one that is; any other matrix takes
Denman-Beavers square roots and the atanh series.

Every tolerance verdict in the package is a :meth:`Tolerance.verdicts`
call, the one comparison of residuals with their bounds, so numeric
decisions stay uniform and auditable.
Matrices are plain float64 ``numpy`` arrays; ``as_matrix`` is the single
entry point that enforces finiteness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "INVERTIBLE_DET_FLOOR",
    "Tolerance",
    "DEFAULT_TOL",
    "DomainError",
    "as_matrix",
    "mat_exp",
    "mat_log",
    "nullspace",
    "op_norm",
]


class DomainError(ValueError):
    """Input outside the domain of a kernel routine (log branch, exp budget)."""


# A matrix whose determinant has absolute value below this floor counts as
# singular wherever the group involution or the tau action needs an inverse.
INVERTIBLE_DET_FLOOR = 1e-300


@dataclass(frozen=True)
class Tolerance:
    """Absolute/relative tolerance pair used for every approximate test."""

    abs_eps: float = 1e-10
    rel_eps: float = 1e-9

    def __post_init__(self):
        if not (0 < self.abs_eps < np.inf and 0 < self.rel_eps < np.inf):
            raise ValueError("tolerances must be finite and strictly positive")

    def _bounds(self, scales):
        # the bound of each scale: abs_eps, plus rel_eps times its magnitude
        return self.abs_eps + self.rel_eps * np.abs(scales)

    def verdicts(self, residuals, scales) -> np.ndarray:
        """Whether each residual is at most the bound of its scale (NaN fails), broadcast
        to a boolean array; the float64 bound and ``<=`` are bit for bit the test on
        Python floats, so one call per block gives the per-residual verdicts."""
        return np.less_equal(residuals, self._bounds(scales))

    def close(self, a: np.ndarray, b: np.ndarray) -> bool:
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        if a.shape != b.shape:
            return False
        scale = max(float(np.linalg.norm(a)), float(np.linalg.norm(b)), 1.0)
        return bool(self.verdicts(float(np.linalg.norm(a - b)), scale))


DEFAULT_TOL = Tolerance()


def as_matrix(a, square: bool = False, stack: bool = False) -> np.ndarray:
    """Coerce to a finite float64 2-D array; optionally require squareness.

    With ``stack``, a ``(k, n, m)`` stack of matrices is accepted as well, and
    ``square`` applies to each of its matrices.
    """
    m = np.array(a, dtype=float)
    if m.ndim != 2 and not (stack and m.ndim == 3):
        what = "a 2-D matrix or a stack of them" if stack else "a 2-D matrix"
        raise ValueError(f"expected {what}, got ndim={m.ndim}")
    if m.size and not np.isfinite(m).all():
        raise ValueError("matrix entries must be finite")
    if square and m.shape[-2] != m.shape[-1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape[-2:]}")
    return m


def op_norm(a: np.ndarray) -> float:
    """Spectral (operator 2-) norm."""
    a = np.asarray(a, dtype=float)
    if a.size == 0:
        return 0.0
    return float(np.linalg.norm(a, 2))


# Padé-13 coefficients of the scaling-and-squaring method (Higham 2005).
_PADE13 = (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
    1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
    33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0,
)
_THETA13 = 5.371920351148152
_MAX_SQUARINGS = 60


def _norm1(a: np.ndarray):
    # the 1-norm of a matrix, or of each slice of a stack, by the same ufunc
    # calls as np.linalg.norm(a, 1) but without its argument handling
    return np.add.reduce(np.abs(a), axis=-2).max(axis=-1)


def _squarings(norm1: float) -> int:
    """Number of squarings that brings a 1-norm down to theta_13."""
    if norm1 <= _THETA13:
        return 0
    s = np.ceil(np.log2(norm1 / _THETA13))
    if s > _MAX_SQUARINGS:
        raise DomainError(f"norm {norm1:.3e} exceeds the scaling budget")
    return int(s)


def _pade13(a: np.ndarray) -> np.ndarray:
    # [13/13] Pade approximant of exp on each slice of a stack
    b = _PADE13
    ident = np.eye(a.shape[-1])
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a2 @ a4
    u = a @ (
        a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
        + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * ident
    )
    v = (
        a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
        + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * ident
    )
    return np.linalg.solve(v - u, v + u)


def mat_exp(a) -> np.ndarray:
    """Matrix exponential by scaling and squaring with a Padé-13 core.

    Relative accuracy near unit roundoff for ``norm(a) <= 50``; raises
    :class:`DomainError` if the scaling budget is exhausted.  ``a`` may also
    be a ``(k, n, n)`` stack: each slice gets its own scaling, and slice
    ``i`` of the result is bit for bit ``mat_exp(a[i])``.
    """
    a = as_matrix(a, square=True, stack=True)
    return _mat_exp_stack(a) if a.ndim == 3 else _mat_exp_stack(a[None])[0]


def _mat_exp_stack(a: np.ndarray) -> np.ndarray:
    # Every slice at once: batched matmul and solve give each slice the bits
    # of a one-slice stack, so a 2-D call is the one-slice case.
    k, n = a.shape[0], a.shape[1]
    if k == 0 or n == 0:
        return a.copy()
    norm1 = _norm1(a).tolist()
    s = [_squarings(x) for x in norm1]
    if any(s):
        a = a / np.array([2.0 ** j for j in s])[:, None, None]
    r = _pade13(a)
    if 0.0 in norm1:
        r[[x == 0.0 for x in norm1]] = np.eye(n)
    for j in range(max(s)):
        # every slice at once while all of them square, then those still squaring
        idx = slice(None) if j < min(s) else [i for i, si in enumerate(s) if si > j]
        r[idx] = r[idx] @ r[idx]
    return r


def _frobenius(a: np.ndarray) -> np.ndarray:
    # Frobenius norm of each slice (or row) of a (k, ...) stack, bit for bit
    # np.linalg.norm(slice); math.prod keeps k = 0 and empty slices reshapeable
    f = a.reshape(a.shape[0], math.prod(a.shape[1:]))
    return np.sqrt(np.vecdot(f, f))


def _close_gaps(a: np.ndarray, b: np.ndarray) -> tuple:
    """The residual and the verdict scale of :meth:`Tolerance.close` for each
    pair of slices of two ``(k, n, n)`` stacks."""
    return _frobenius(a - b), np.maximum(np.maximum(_frobenius(a), _frobenius(b)), 1.0)


def _sqrt_denman_beavers(a: np.ndarray, tol: Tolerance) -> np.ndarray:
    # Quadratically convergent for spectra off the closed negative real axis,
    # which the principal-branch precondition of mat_log guarantees.  ``a`` is
    # a (k, n, n) stack; each slice stops at its own iteration.  z starts as
    # the one identity that every slice shares.
    y, z = a.copy(), np.eye(a.shape[-1])
    on = None  # the slices still iterating, once some have stopped
    for _ in range(60):
        yl, zl = (y, z) if on is None else (y[on], z[on])
        y_next = 0.5 * (yl + np.linalg.inv(zl))
        z_next = 0.5 * (zl + np.linalg.inv(yl))
        going = (~(_frobenius(y_next - yl) <= tol._bounds(_frobenius(y_next)) * 0.01)).tolist()
        if on is None:
            y, z = y_next, z_next
        else:
            y[on], z[on] = y_next, z_next
        on = _still(going, on)
        if on is not None and not on.size:
            break
    return y


def _still(going: list, on):
    # the slices still iterating after a step on ``on`` (None: all of them),
    # from one bool per slice of ``on``
    if all(going):
        return on
    kept = [i for i, g in enumerate(going) if g]
    return np.array(kept, dtype=int) if on is None else on[kept]


_LOG_DOMAIN = "matrix outside the principal-branch domain |a - I| < 1"
_LOG_DIVERGED = "square-root reduction failed to converge"


def mat_log(a, tol: Tolerance) -> np.ndarray:
    """Principal matrix logarithm on the ball ``op_norm(a - I) < 1``.

    Two routes, chosen per matrix by the normality gate of
    :func:`_normality`.  A matrix that passes it takes the polar/Cayley
    split of :func:`_normal_parts`, with an eigendecomposition only of the
    factor that is not the identity up to rounding; any other matrix takes
    inverse scaling (repeated Denman-Beavers square roots) followed by the
    atanh series ``log A = 2 * sum X^(2j+1)/(2j+1)`` with
    ``X = (A-I)(A+I)^-1``.  Raises :class:`DomainError` outside the ball,
    which is decided by the norms of ``A - I`` and takes an SVD only of a
    matrix on its edge.  ``a`` may also be a ``(k, n, n)`` stack: each slice
    takes its own route, slice ``i`` of the result is bit for bit
    ``mat_log(a[i])``, and a slice outside the domain comes back filled
    with NaN instead of failing the stack.
    """
    a = as_matrix(a, square=True, stack=True)
    if a.ndim == 3:
        return _mat_log_stack(a, tol)[0]
    out, failed = _mat_log_stack(a[None], tol)
    if failed[0]:
        raise DomainError(failed[0])
    return out[0]


# |m|_F at or below which a function of I + m is its Taylor series in m rather
# than an eigh: the first term left out is below 2^-60 (2^-80 for K^T K, whose
# series is taken at |K^T K|_F <= _SERIES^2) times its coefficient
_SERIES = 2.0 ** -20


class _SymFunctions:
    """Functions of ``I + m`` for each slice of a ``(k, n, n)`` stack of
    symmetric ``m``.

    A slice with ``|m|_F <= bound`` takes the Taylor series of a function in
    ``m``; any other takes one stacked ``eigh``, ``m = v diag(w) v^T``, with
    ``w`` raised to ``floor``.  A slice whose ``|m|_F`` is not finite gets
    NaN eigenvalues.  ``smallest`` bounds the smallest eigenvalue of
    ``I + m`` from below: ``1 + min(w)``, or ``1 - |m|_F`` on a series slice.
    """

    def __init__(self, m: np.ndarray, bound: float, floor: float):
        norm = _frobenius(m)
        self.m, self.series = m, norm <= bound
        self.eig = np.flatnonzero(~self.series)
        self.smallest = 1.0 - norm
        if self.eig.size:
            me = m[self.eig]
            bad = ~np.isfinite(norm[self.eig])
            me[bad] = 0.0  # eigh of a non-finite slice fails or returns garbage
            w, self.v = np.linalg.eigh(me)
            w[bad] = np.nan
            self.w = np.maximum(w, floor)  # rounding may leave an eigenvalue below it
            self.smallest[self.eig] = 1.0 + self.w[:, 0]

    def __call__(self, fn, taylor: tuple) -> np.ndarray:
        """``v diag(fn(w)) v^T`` on the eigh slices, and ``sum_j taylor[j] m^j``
        on the series slices."""
        if not self.eig.size:
            return _taylor(self.m, taylor)
        spectral = _sym_fn(self.v, fn(self.w))
        if self.eig.size == len(self.m):
            return spectral
        out = np.empty_like(self.m)
        out[self.eig] = spectral
        out[self.series] = _taylor(self.m[self.series], taylor)
        return out


def _taylor(m: np.ndarray, taylor: tuple) -> np.ndarray:
    # sum_j taylor[j] m^j on each slice, for up to three coefficients
    out = taylor[1] * m
    if len(taylor) > 2:
        out += taylor[2] * (m @ m)
    if taylor[0]:
        out += taylor[0] * np.eye(m.shape[-1])
    return out


def _normal_parts(a: np.ndarray) -> tuple:
    """The polar/Cayley split of each slice of a ``(k, n, n)`` stack, and its
    normality gate.

    For a normal ``C = U P``, with ``P = sqrt(C^T C)`` and ``U`` orthogonal,
    ``U`` and ``P`` commute with ``C`` and with each other, and so does the
    skew Cayley transform ``K = (U - I)(U + I)^-1 = (C + P)^-1 (C - P)``.
    Returns the parts ``(p, k, q)``, with ``p`` and ``q`` the
    :class:`_SymFunctions` of ``m = C^T C - I`` and of ``K^T K = -K^2``,
    and the gate of :func:`_normality` as ``verdicts`` arguments.  A factor
    equal to ``I`` up to rounding (``P`` of an orthogonal ``C``, ``U`` of a
    symmetric one) takes the series of ``p`` or ``q``, the other one
    ``eigh``, so a catalog slice pays for one eigendecomposition.  ``m`` is
    formed from ``D = C - I``, so a point near the identity keeps the
    relative accuracy of its small log.  A slice whose ``m`` is not finite
    (a Cartan matrix so large that it overflows) gets a NaN ``smallest``,
    which fails the gate.  Such a slice, one whose ``C + P`` is exactly
    singular, where ``U`` has the eigenvalue -1 (the cut locus), and one
    whose ``K^T K`` is not finite get a NaN ``K``.  The parts of a slice
    that fails the gate mean nothing.
    """
    ident = np.eye(a.shape[-1])
    d = a - ident
    dt = d.swapaxes(1, 2)
    p = _SymFunctions(dt @ d + d + dt, _SERIES, -1.0)
    p1 = p(lambda w: w / (1.0 + np.sqrt(1.0 + w)), (0.0, 0.5, -0.125))  # P - I
    cp = 2.0 * ident + d + p1
    huge = np.isnan(p.smallest)
    cp[huge] = ident
    k = _nan_where_singular(np.linalg.solve, cp, d - p1)
    kk = k.swapaxes(1, 2) @ k
    cut = huge | ~np.isfinite(kk).all(axis=(1, 2))
    kk[cut] = 0.0
    k[cut] = np.nan
    return (p, k, _SymFunctions(kk, _SERIES ** 2, 0.0)), _normality(a, p.smallest)


def _sym_fn(v: np.ndarray, d: np.ndarray) -> np.ndarray:
    # v diag(d) v^T on each slice
    return (v * d[:, None, :]) @ v.swapaxes(1, 2)


_EPS = float(np.finfo(float).eps)


def _normality(a: np.ndarray, smallest: np.ndarray) -> tuple:
    """The normality gate of each slice of a stack, as ``verdicts`` arguments:
    the residual ``|C C^T - C^T C|_F = |[U, P^2]|_F``, plus the rounding
    ``eps max(|C|_F^2, 1)`` of ``m``, in units of ``smallest``, a lower bound
    of ``sigma_min(C)^2``, at unit scale.

    Where ``U`` and ``P`` fail to commute, ``log P + log U`` misses
    ``log C`` by about ``|[log U, log P]|_F / 2``, which on the ball is at
    most ``0.4 |[U, P^2]|_F / sigma_min^2`` to first order.  The rounding
    of ``m`` moves ``log P`` and ``P^(1/2)`` by up to about
    ``eps |C|_F^2 / sigma_min^2``, so an ill-conditioned slice fails as
    well, and a slice that passes has a log and a root within the
    tolerance of unit scale.  Where ``C`` is singular, or ``smallest`` is
    NaN, the residual is inf or NaN, which fails.
    """
    at = a.swapaxes(1, 2)
    rounding = _EPS * np.maximum(_frobenius(a) ** 2, 1.0)
    return (_frobenius(a @ at - at @ a) + rounding) / smallest, np.ones(len(a))


def _atan_ratio(s: np.ndarray) -> np.ndarray:
    # atan(t) / t at t = sqrt(s), 1 at t = 0
    t = np.sqrt(s)
    f = np.arctan(t) / np.where(t > 0.0, t, 1.0)
    f[t == 0.0] = 1.0
    return f


def _normal_logs(parts: tuple) -> np.ndarray:
    """The principal log ``log P + log U`` of each slice from its
    :func:`_normal_parts`: ``log P = log1p(m) / 2`` and ``log U = 2 K
    f(-K^2)`` with ``f(t^2) = atan(t) / t`` (Higham, Functions of Matrices,
    2008, ch. 11), each from its eigendecomposition or its series."""
    p, k, q = parts
    return p(lambda w: 0.5 * np.log1p(w), (0.0, 0.5, -0.25)) + 2.0 * k @ q(_atan_ratio, (1.0, -1.0 / 3.0))


def _normal_roots(parts: tuple) -> np.ndarray:
    """The principal square root ``U^(1/2) P^(1/2)`` of each slice from its
    :func:`_normal_parts`, with ``U^(1/2) = (I + K)(I - K^2)^(-1/2)``; NaN on
    the cut locus."""
    p, k, q = parts
    u_root = (np.eye(k.shape[-1]) + k) @ q(lambda s: 1.0 / np.sqrt(1.0 + s), (1.0, -0.5))
    return u_root @ p(lambda w: np.sqrt(np.sqrt(1.0 + w)), (1.0, 0.25, -0.09375))


# margins of the ball test on the bounds of |C - I|_2 from above (the
# Frobenius norm, and f of _in_ball) and from below (the largest column, and
# f n^(-1/16)), wide against their rounding
_BALL_INSIDE = 1.0 - 1e-12
_BALL_OUTSIDE = 1.0 + 1e-12


def _in_ball(d: np.ndarray) -> list:
    """Whether ``|D|_2 < 1`` for each slice of a ``(k, n, n)`` stack, as the
    largest singular value decides it.  A slice with ``|D|_F`` below 1, or a
    column of norm above 1, by more than the margin of their rounding is
    decided by that norm.  A slice between takes ``f = |(D^T D)^4|_F^(1/8)``
    from three stacked products, ``(sum_i sigma_i^16)^(1/16)``, which bounds
    ``|D|_2`` from above by ``f`` and from below by ``f n^(-1/16)``; only the
    slices whose bounds straddle 1 by the same margins take the SVD."""
    inside = _frobenius(d) < _BALL_INSIDE
    edge = ~inside & ~(np.sqrt(np.vecdot(d, d, axis=-2)).max(axis=-1) > _BALL_OUTSIDE)
    if edge.any():
        e = d[edge]
        g = e.swapaxes(1, 2) @ e
        g = g @ g
        f = _frobenius(g @ g) ** 0.125
        below = f < _BALL_INSIDE
        unsure = ~below & ~(f * d.shape[-1] ** -0.0625 > _BALL_OUTSIDE)  # a NaN slice too
        if unsure.any():
            below[unsure] = np.linalg.svd(e[unsure], compute_uv=False).max(axis=-1) < 1.0
        inside[edge] = below
    return inside.tolist()


def _mat_log_stack(a: np.ndarray, tol: Tolerance):
    # The logs of a (k, n, n) stack, NaN where a slice is outside the domain,
    # and per slice the DomainError message of the 2-D call, or None.  A slice
    # that passes the normality gate with a finite log takes _normal_logs, any
    # other the roots and the atanh series of _series_logs.
    k, n = a.shape[0], a.shape[1]
    if k == 0 or n == 0:
        return a.copy(), [None] * k
    inside = _in_ball(a - np.eye(n))
    failed = [None if ok else _LOG_DOMAIN for ok in inside]
    out = np.full((k, n, n), np.nan)
    live = [i for i, ok in enumerate(inside) if ok]
    if not live:
        return out, failed
    a = a[live]
    with np.errstate(divide="ignore", invalid="ignore"):
        parts, gate = _normal_parts(a)
        logs = _normal_logs(parts)
    normal = tol.verdicts(*gate) & np.isfinite(logs).all(axis=(1, 2))
    out[np.array(live)[normal]] = logs[normal]
    rest = [i for i, ok in zip(live, normal.tolist()) if not ok]
    if rest:
        out[rest], diverged = _series_logs(a[~normal], tol)
        for i, bad in zip(rest, diverged):
            if bad:
                failed[i] = _LOG_DIVERGED
    return out, failed


def _series_logs(a: np.ndarray, tol: Tolerance) -> tuple:
    # The fallback route for a (k, n, n) stack inside the ball, which it takes
    # roots of in place: Denman-Beavers roots until |A - I|_F <= 1/4, then the
    # atanh series.  Returns the logs, NaN where a slice needs more than 40
    # roots or a root iterate is singular, and per slice whether it did.
    ident = np.eye(a.shape[-1])
    roots = [0] * len(a)
    todo = [j for j, f in enumerate(_frobenius(a - ident).tolist()) if f > 0.25]
    while todo:
        on = slice(None) if len(todo) == len(a) else todo
        a[on] = _denman_beavers_roots(a[on], tol)
        for j in todo:
            roots[j] += 1
        far = _frobenius(a[on] - ident).tolist()
        todo = [j for j, f in zip(todo, far) if roots[j] <= 40 and f > 0.25]  # a NaN root stops here
    diverged = [r > 40 or not ok for r, ok in zip(roots, np.isfinite(a).all(axis=(1, 2)).tolist())]
    out = np.full(a.shape, np.nan)
    kept = [j for j, bad in enumerate(diverged) if not bad]
    if not kept:
        return out, diverged
    a, roots = a[kept], [roots[j] for j in kept]

    x = np.linalg.solve((a + ident).swapaxes(1, 2), (a - ident).swapaxes(1, 2)).swapaxes(1, 2)
    x2 = x @ x
    term = x.copy()
    total = term.copy()
    on = None  # the slices still summing, once some have stopped
    for j in range(1, 40):
        if on is None:
            term = term @ x2
            inc = term / (2 * j + 1)
            total += inc
        else:
            term[on] = term_on = term[on] @ x2[on]
            inc = term_on / (2 * j + 1)
            total[on] += inc
        on = _still([not f <= 0.01 * tol.abs_eps for f in _frobenius(inc).tolist()], on)
        if on is not None and not on.size:
            break
    out[kept] = np.array([2.0 ** (r + 1) for r in roots])[:, None, None] * total
    return out, diverged


def _principal_roots(a: np.ndarray, tol: Tolerance) -> tuple:
    """The principal square root ``S`` of each slice ``X`` of a ``(k, n, n)``
    stack, and whether ``S S`` is confirmed ``tol.close`` to ``X``.

    The two routes of :func:`mat_log`: a slice that passes the normality
    gate takes the polar/Cayley root of :func:`_normal_roots`, from the
    parts of :func:`_normal_parts` (an ``eigh`` only of a factor that is not
    the identity up to rounding), NaN on the cut locus (an eigenvalue -1),
    and the gate and the root residuals of the block take one ``verdicts``
    call.  Any other slice, including one so
    large that ``C^T C`` overflows, takes the Denman-Beavers root of
    :func:`_denman_beavers_roots`, confirmed by a second call.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        parts, gate = _normal_parts(a)
        roots = _normal_roots(parts)
        normal, rooted = tol.verdicts(*np.stack([gate, _close_gaps(roots @ roots, a)], axis=1))
        odd = ~normal
        if odd.any():
            roots[odd] = _denman_beavers_roots(a[odd], tol)
            rooted[odd] = tol.verdicts(*_close_gaps(roots[odd] @ roots[odd], a[odd]))
    return roots, rooted


def _denman_beavers_roots(a: np.ndarray, tol: Tolerance) -> np.ndarray:
    """The Denman-Beavers square root of each slice of a ``(k, n, n)`` stack,
    NaN where an iterate is exactly singular, as on an exact cut-locus point
    (an eigenvalue -1)."""
    return _nan_where_singular(lambda s: _sqrt_denman_beavers(s, tol), a)


def _nan_where_singular(fn, *stacks: np.ndarray) -> np.ndarray:
    """``fn`` of ``(k, n, n)`` stacks, slice by slice in its result.

    An exactly singular slice fails a stacked LAPACK call in ``fn``; the
    slices are then taken one at a time, and such a slice comes back
    filled with NaN.
    """
    try:
        return fn(*stacks)
    except np.linalg.LinAlgError:
        if len(stacks[0]) == 1:
            return np.full(stacks[-1].shape, np.nan)
        return np.concatenate([_nan_where_singular(fn, *(s[i : i + 1] for s in stacks)) for i in range(len(stacks[0]))])


def _svd_cut(a: np.ndarray, tol: Tolerance):
    if a.shape[0] == 0 or a.shape[1] == 0:
        return np.zeros(0), np.zeros((a.shape[1], 0)), 0
    u, sing, vt = np.linalg.svd(a)
    rank = int(np.sum(~tol.verdicts(sing, sing[0])))  # the singular values not taken for zero
    return sing, vt, rank


def nullspace(a, tol: Tolerance) -> np.ndarray:
    """Orthonormal kernel basis as the columns of an ``(n, k)`` array.

    Singular values within the tolerance at scale ``sigma_max`` count as zero,
    and ``k`` is ``n`` minus the count of the others.  An empty matrix (no
    rows) has full kernel.
    """
    return _kernel_rows(as_matrix(a), tol).T.copy()


def _kernel_rows(a: np.ndarray, tol: Tolerance) -> np.ndarray:
    # the unchecked body of nullspace, for 2-D arrays the package computed:
    # the kernel basis as orthonormal rows
    if a.shape[0] == 0:
        return np.eye(a.shape[1])
    _, vt, rank = _svd_cut(a, tol)
    return vt[rank:]
