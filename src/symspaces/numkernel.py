"""Dense small-matrix kernel: exp, principal log, nullspace, rank.

All approximate comparisons in the package route through a single
:class:`Tolerance` so numeric decisions stay uniform and auditable.
Matrices are plain float64 ``numpy`` arrays; ``as_matrix`` is the single
entry point that enforces finiteness.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Tolerance",
    "DEFAULT_TOL",
    "DomainError",
    "as_matrix",
    "mat_exp",
    "mat_log",
    "nullspace",
    "numerical_rank",
    "op_norm",
]


class DomainError(ValueError):
    """Input outside the domain of a kernel routine (log branch, exp budget)."""


@dataclass(frozen=True)
class Tolerance:
    """Absolute/relative tolerance pair used for every approximate test."""

    abs_eps: float = 1e-10
    rel_eps: float = 1e-9

    def __post_init__(self):
        if not (0 < self.abs_eps < np.inf and 0 < self.rel_eps < np.inf):
            raise ValueError("tolerances must be finite and strictly positive")

    def threshold(self, scale: float = 1.0) -> float:
        return float(self.abs_eps + self.rel_eps * abs(scale))

    def close(self, a: np.ndarray, b: np.ndarray) -> bool:
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        if a.shape != b.shape:
            return False
        scale = max(float(np.linalg.norm(a)), float(np.linalg.norm(b)), 1.0)
        return float(np.linalg.norm(a - b)) <= self.threshold(scale)

    def is_zero(self, a: np.ndarray, scale: float = 1.0) -> bool:
        a = np.asarray(a, dtype=float)
        return float(np.linalg.norm(a)) <= self.threshold(scale)


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
    # [13/13] Pade approximant of exp on a matrix or, slice by slice, a stack
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


def mat_exp(a, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Matrix exponential by scaling and squaring with a Padé-13 core.

    Relative accuracy near unit roundoff for ``norm(a) <= 50``; raises
    :class:`DomainError` if the scaling budget is exhausted.  ``a`` may also
    be a ``(k, n, n)`` stack: each slice gets its own scaling, and slice
    ``i`` of the result is bit for bit ``mat_exp(a[i])``.
    """
    a = as_matrix(a, square=True, stack=True)
    if a.ndim == 3:
        return _mat_exp_stack(a)
    n = a.shape[0]
    if n == 0:
        return a.copy()
    norm1 = float(_norm1(a))
    if norm1 == 0.0:
        return np.eye(n)
    s = _squarings(norm1)
    if s:
        a = a / (2.0 ** s)
    r = _pade13(a)
    for _ in range(s):
        r = r @ r
    return r


def _mat_exp_stack(a: np.ndarray) -> np.ndarray:
    # The same steps as the 2-D path on every slice at once: batched matmul
    # and solve give each slice the bits of the single-matrix call.
    k, n = a.shape[0], a.shape[1]
    if k == 0 or n == 0:
        return a.copy()
    norm1 = _norm1(a)
    s = np.array([_squarings(float(x)) for x in norm1])
    r = _pade13(a / (2.0 ** s)[:, None, None])
    r[norm1 == 0.0] = np.eye(n)
    for j in range(int(s.max())):
        idx = np.flatnonzero(s > j)
        r[idx] = r[idx] @ r[idx]
    return r


def _sqrt_denman_beavers(a: np.ndarray, tol: Tolerance) -> np.ndarray:
    # Quadratically convergent for spectra off the closed negative real axis,
    # which the principal-branch precondition of mat_log guarantees.
    y, z = a.copy(), np.eye(a.shape[0])
    for _ in range(60):
        y_next = 0.5 * (y + np.linalg.inv(z))
        z_next = 0.5 * (z + np.linalg.inv(y))
        delta = np.linalg.norm(y_next - y)
        y, z = y_next, z_next
        if delta <= tol.threshold(np.linalg.norm(y)) * 0.01:
            break
    return y


def mat_log(a, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Principal matrix logarithm on the ball ``op_norm(a - I) < 1``.

    Inverse scaling (repeated square roots) followed by the atanh series
    ``log A = 2 * sum X^(2j+1)/(2j+1)`` with ``X = (A-I)(A+I)^-1``.
    """
    a = as_matrix(a, square=True)
    n = a.shape[0]
    if n == 0:
        return a.copy()
    ident = np.eye(n)
    if op_norm(a - ident) >= 1.0:
        raise DomainError("matrix outside the principal-branch domain |a - I| < 1")

    s = 0
    while np.linalg.norm(a - ident) > 0.25:
        a = _sqrt_denman_beavers(a, tol)
        s += 1
        if s > 40:
            raise DomainError("square-root reduction failed to converge")

    x = np.linalg.solve((a + ident).T, (a - ident).T).T
    x2 = x @ x
    term = x.copy()
    total = term.copy()
    for j in range(1, 40):
        term = term @ x2
        inc = term / (2 * j + 1)
        total += inc
        if np.linalg.norm(inc) <= 0.01 * tol.abs_eps:
            break
    return (2.0 ** (s + 1)) * total


def _svd_cut(a: np.ndarray, tol: Tolerance):
    if a.shape[0] == 0 or a.shape[1] == 0:
        return np.zeros(0), np.zeros((a.shape[1], 0)), 0
    u, sing, vt = np.linalg.svd(a)
    cut = tol.abs_eps + tol.rel_eps * (sing[0] if sing.size else 0.0)
    rank = int(np.sum(sing > cut))
    return sing, vt, rank


def numerical_rank(a, tol: Tolerance = DEFAULT_TOL) -> int:
    a = as_matrix(a)
    _, _, rank = _svd_cut(a, tol)
    return rank


def nullspace(a, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal kernel basis as the columns of an ``(n, k)`` array.

    Singular values below ``abs_eps + rel_eps * sigma_max`` count as zero;
    ``k = n - numerical_rank(a)``.  An empty matrix (no rows) has full kernel.
    """
    a = as_matrix(a)
    n = a.shape[1]
    if a.shape[0] == 0:
        return np.eye(n)
    _, vt, rank = _svd_cut(a, tol)
    return vt[rank:].T.copy()
