"""Matrix symmetric pairs (G, sigma, K) with K = G^sigma.

A pair is described by a basis of its Lie algebra (n x n matrices split
into the +1/-1 eigenparts of the involution derivative) plus a group-level
involution rule.  The connected group G is never enumerated: elements are
matrices produced from exponentials and products, and membership questions
are answered through logs or model-specific predicates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from .lts import LinearSubspace, SymmetricLieAlgebra, VerificationError
from .numkernel import (
    DEFAULT_TOL,
    INVERTIBLE_DET_FLOOR,
    Tolerance,
    _frobenius,
    _mat_exp_stack,
    as_matrix,
    mat_exp,
)

__all__ = [
    "SigmaRule",
    "MatrixSymmetricPair",
    "PairMorphism",
    "group_sigma",
    "apply_pair_morphism",
]

SIGMA_KINDS = ("conjugation", "transpose_inverse", "composite")


@dataclass(frozen=True, eq=False)
class SigmaRule:
    """Group involution: conjugation by Theta, g -> (g^T)^-1, or both."""

    kind: str
    theta: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.kind not in SIGMA_KINDS:
            raise ValueError(f"unknown sigma kind {self.kind!r}")
        if self.kind in ("conjugation", "composite"):
            if self.theta is None:
                raise ValueError(f"{self.kind} sigma needs a theta matrix")
            th = as_matrix(self.theta, square=True)
            sq, ident = th @ th, np.eye(th.shape[0])
            if not (DEFAULT_TOL.close(sq, ident) or DEFAULT_TOL.close(sq, -ident)):
                raise ValueError("theta must square to +I or -I")
            object.__setattr__(self, "theta", th)
            object.__setattr__(self, "_theta_inv", np.linalg.inv(th))
        elif self.theta is not None:
            raise ValueError("transpose_inverse sigma takes no theta matrix")

    def _conjugate(self, x: np.ndarray) -> np.ndarray:
        # Theta . x . Theta^-1, slice by slice on a stack; no Theta means the identity
        return x if self.theta is None else self.theta @ x @ self._theta_inv

    def apply(self, g: np.ndarray) -> np.ndarray:
        """sigma(g); a ``(k, n, n)`` stack maps slice by slice, each bit for bit the 2-D call."""
        return self._apply(as_matrix(g, square=True, stack=True))

    def derivative(self, x: np.ndarray) -> np.ndarray:
        """The induced Lie-algebra involution theta = L(sigma), also on a stack."""
        return self._derivative(as_matrix(x, square=True, stack=True))

    def _apply(self, g: np.ndarray) -> np.ndarray:
        # the unchecked bodies of apply and derivative, for arrays the package computed
        return self._conjugate(g if self.kind == "conjugation" else np.linalg.inv(g).swapaxes(-1, -2))

    def _derivative(self, x: np.ndarray) -> np.ndarray:
        return self._conjugate(x if self.kind == "conjugation" else -x.swapaxes(-1, -2))

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "theta_matrix": None if self.theta is None else self.theta.tolist(),
        }

    @classmethod
    def from_json(cls, data: dict) -> "SigmaRule":
        th = data.get("theta_matrix")
        return cls(data["kind"], None if th is None else np.asarray(th, dtype=float))


def _max_norm(stack: np.ndarray) -> float:
    """Largest Frobenius norm over the slices of a stack (0.0 for an empty stack)."""
    return float(_frobenius(stack).max(initial=0.0))


def _combine(coords, mats: np.ndarray, what: str) -> np.ndarray:
    """The matrix sum of ``mats`` weighted by a coordinate vector, or by each row of a
    ``(k, d)`` stack.

    Each row is its own ``(1, d) @ (d, n*n)`` product, so a stacked row is bit
    for bit the vector call (a single ``(k, d)`` product may round differently).
    """
    d, n = mats.shape[0], mats.shape[-1]
    try:
        c = np.asarray(coords, dtype=float)
    except ValueError as exc:  # a ragged list of rows
        raise ValueError(f"{what} coordinate vector has the wrong length") from exc
    if c.ndim not in (1, 2) or c.shape[-1] != d:
        raise ValueError(f"{what} coordinate vector has the wrong length")
    return (c[..., None, :] @ mats.reshape(d, n * n)).reshape(c.shape[:-1] + (n, n))


def _pinv(mats: np.ndarray) -> np.ndarray:
    """The ``(n*n, d)`` pseudo-inverse that maps a flattened matrix to its
    minimum-norm coordinates in the basis ``mats``, with the singular-value
    cutoff of ``lstsq(rcond=None)``; read-only."""
    d, n = mats.shape[0], mats.shape[-1]
    pinv = np.linalg.pinv(mats.reshape(d, n * n), rtol=None)
    pinv.flags.writeable = False
    return pinv


_NOT_IN_ALGEBRA = "does not lie in the algebra"


def _coords(mats: np.ndarray, pinv: np.ndarray, x, tol: Tolerance, outside: str) -> np.ndarray:
    """Coordinates of a matrix, or of each matrix of a ``(k, n, n)`` stack, in
    the basis ``mats``; the first matrix that fails its residual test raises."""
    x = as_matrix(x, square=True, stack=True)
    coords = _coords_stack(mats, pinv, x if x.ndim == 3 else x[None], tol, outside)
    return coords if x.ndim == 3 else coords[0]


def _coords_stack(mats: np.ndarray, pinv: np.ndarray, x: np.ndarray, tol: Tolerance, outside: str) -> np.ndarray:
    # the unchecked body of _coords, for a finite stack the package computed
    coords, errors = _coords_each(mats, pinv, x, tol, outside)
    for exc in errors:
        if exc is not None:
            raise exc
    return coords


def _coords_each(mats: np.ndarray, pinv: np.ndarray, x: np.ndarray, tol: Tolerance, outside: str):
    """Coordinates of each matrix of a finite ``(k, n, n)`` stack in the basis
    ``mats``, and per matrix None or the error it fails with.

    Each row is its own ``(1, n*n) @ (n*n, d)`` product with the pseudo-inverse
    ``pinv``, so a row is bit for bit the one-matrix stack.  A ``(k, r, n, n)``
    stack of groups gives ``(k, r, d)`` coordinates from one ``(r, n*n) @
    (n*n, d)`` product per group, each group bit for bit the one-group stack.
    Each matrix must pass its residual test, ``tol.verdicts`` at the scale
    ``max(|x|, 1)`` in one call for the stack, or its error is ``"matrix
    <outside> (residual ...)"``; the errors run over the matrices in order.
    The residual rebuilds every matrix from its coordinates in one ``(k*r,
    d) @ (d, n*n)`` product, and an error is made only for a matrix that fails.
    """
    lead, n, d = x.shape[:-2], x.shape[-1], pinv.shape[-1]
    coords = (x.reshape(lead[0], math.prod(lead[1:]), n * n) @ pinv).reshape(lead + (d,))
    flat = x.reshape(math.prod(lead), n * n)
    resid = _frobenius(coords.reshape(len(flat), d) @ mats.reshape(d, n * n) - flat)
    failed = ~tol.verdicts(resid, np.maximum(_frobenius(flat), 1.0))
    errors = [None] * len(flat)
    for i in np.flatnonzero(failed).tolist():
        errors[i] = ValueError(f"matrix {outside} (residual {resid[i]:.2e})")
    return coords, errors


@dataclass(frozen=True, eq=False)
class MatrixSymmetricPair:
    """Connected matrix group with involution, given at the algebra level."""

    ambient_n: int
    plus_mats: np.ndarray  # (p, n, n) basis of the +1 eigenspace
    minus_mats: np.ndarray  # (m, n, n) basis of the -1 eigenspace
    sigma: SigmaRule
    label: str = ""
    tol: Tolerance = field(default=DEFAULT_TOL)

    def __post_init__(self):
        n = self.ambient_n
        plus = np.asarray(self.plus_mats, dtype=float).reshape(-1, n, n)
        minus = np.asarray(self.minus_mats, dtype=float).reshape(-1, n, n)
        object.__setattr__(self, "plus_mats", plus)
        object.__setattr__(self, "minus_mats", minus)
        signs = np.concatenate([np.ones(len(plus)), -np.ones(len(minus))])[:, None, None]
        eig = _max_norm(self.sigma._derivative(self.basis_mats) - signs * self.basis_mats)
        if not self.tol.verdicts(eig, 10.0):
            raise ValueError(f"basis matrices are not theta eigenvectors (residual {eig:.2e})")

    # -- coordinates ------------------------------------------------------

    @property
    def dim(self) -> int:
        return self.plus_mats.shape[0] + self.minus_mats.shape[0]

    @property
    def dim_plus(self) -> int:
        return self.plus_mats.shape[0]

    @property
    def dim_minus(self) -> int:
        return self.minus_mats.shape[0]

    @cached_property
    def basis_mats(self) -> np.ndarray:
        return np.concatenate([self.plus_mats, self.minus_mats])

    @cached_property
    def _basis_pinv(self) -> np.ndarray:
        return _pinv(self.basis_mats)

    @cached_property
    def _minus_pinv(self) -> np.ndarray:
        return _pinv(self.minus_mats)

    def to_matrix(self, coords) -> np.ndarray:
        """The algebra element of a full coordinate vector, or one per row of a ``(k, dim)`` stack."""
        return _combine(coords, self.basis_mats, "full-algebra")

    def matrix_coords(self, x: np.ndarray) -> np.ndarray:
        """Coordinates of an algebra element; raises if x is not in the span.

        ``x`` may also be a ``(k, n, n)`` stack: each matrix gets one row from
        the cached pseudo-inverse of the basis, bit for bit its single call,
        and must pass the residual check on its own.
        """
        return _coords(self.basis_mats, self._basis_pinv, x, self.tol, _NOT_IN_ALGEBRA)

    def _algebra_coords(self, x: np.ndarray) -> np.ndarray:
        """:meth:`matrix_coords` of a finite ``(k, n, n)`` stack the package
        computed, unchecked."""
        return _coords_stack(self.basis_mats, self._basis_pinv, x, self.tol, _NOT_IN_ALGEBRA)

    def minus_to_matrix(self, v) -> np.ndarray:
        """The g_minus element of a coordinate vector, or one per row of a ``(k, dim_minus)`` stack."""
        return _combine(v, self.minus_mats, "g_minus")

    def matrix_to_minus(self, x: np.ndarray) -> np.ndarray:
        """g_minus coordinates of a matrix, or of each matrix of a ``(k, n, n)`` stack,
        as :meth:`matrix_coords` gives full coordinates."""
        return _coords(self.minus_mats, self._minus_pinv, x, self.tol, "is not in g_minus")

    def _minus_coords_each(self, x: np.ndarray):
        """:meth:`matrix_to_minus` of each matrix of a finite ``(k, n, n)`` stack:
        the coordinate rows, and per matrix None or the error its single call raises."""
        return _coords_each(self.minus_mats, self._minus_pinv, x, self.tol, "is not in g_minus")

    def minus_subspace_to_full(self, sub: LinearSubspace) -> LinearSubspace:
        if sub.ambient_dim != self.dim_minus:
            raise ValueError("vectors do not match the ambient dimension")
        # orthonormal rows padded with plus coordinates stay orthonormal: wrapped, not cut again
        return LinearSubspace._wrap(self.dim, np.hstack([np.zeros((sub.dim, self.dim_plus)), sub.basis]))

    # -- structure --------------------------------------------------------

    @cached_property
    def structure_tensor(self) -> np.ndarray:
        """Structure constants of the matrix commutator; closure is enforced.

        The tensor is read-only: it is shared with :meth:`algebra`.
        """
        d, b = self.dim, self.basis_mats
        i, j = np.triu_indices(d, 1)
        try:
            c = self._algebra_coords(b[i] @ b[j] - b[j] @ b[i])  # one row per i < j
        except ValueError as exc:
            raise VerificationError(f"algebra basis is not closed under commutator: {exc}")
        t = np.zeros((d, d, d))
        t[i, j] = c
        t[j, i] = -c
        t.flags.writeable = False
        return t

    @cached_property
    def theta_coords(self) -> np.ndarray:
        th = np.diag([1.0] * self.dim_plus + [-1.0] * self.dim_minus)
        th.flags.writeable = False
        return th

    @cached_property
    def _algebra(self) -> SymmetricLieAlgebra:
        d, eye = self.dim, np.eye(self.dim)
        plus, minus = LinearSubspace._wrap(d, eye[: self.dim_plus]), LinearSubspace._wrap(d, eye[self.dim_plus :])
        return SymmetricLieAlgebra(d, self.structure_tensor, self.theta_coords, plus, minus, self.label, self.tol)

    def algebra(self) -> SymmetricLieAlgebra:
        """The symmetric Lie algebra in full-basis coordinates.

        Built once per pair and shared; its tensor and involution are read-only.
        """
        return self._algebra

    def exp(self, x: np.ndarray) -> np.ndarray:
        return mat_exp(x)

    def validate(self, rng: Optional[np.random.Generator] = None, samples: int = 20) -> dict:
        """Structural residuals: commutator closure, eigenspace bracket
        relations, sigma o exp = exp o theta on rays, sigma involutivity on
        random exp-generated elements."""
        out = {}
        t = self.structure_tensor  # raises on closure failure
        # [g+,g+] and [g-,g-] land in g+ and mixed brackets in g-, so the norm of
        # the other part of each bracket [x_i, x_j] is its defect
        p = self.dim_plus
        plus, minus = (np.sqrt(np.vecdot(part, part)) for part in (t[..., :p], t[..., p:]))
        parity = np.arange(self.dim) >= p
        off = np.where(parity[:, None] == parity, minus, plus)
        out["eigenspace_brackets"] = float(off.max(initial=0.0))

        ts, b, theta_b = (0.05, 0.3), self.basis_mats, self.sigma._derivative(self.basis_mats)
        lhs = self.sigma._apply(_mat_exp_stack(np.concatenate([t * b for t in ts])))
        rhs = _mat_exp_stack(np.concatenate([t * theta_b for t in ts]))
        out["sigma_exp_theta"] = _max_norm(lhs - rhs)

        g = self._random_elements(rng or np.random.default_rng(0), samples, 2, 0.5)
        out["sigma_involutive"] = _max_norm(self.sigma._apply(self.sigma._apply(g)) - g)
        out["max_residual"] = max(out.values()) if out else 0.0
        return out

    def random_algebra_element(self, rng: np.random.Generator, scale: float = 0.5) -> np.ndarray:
        return self.to_matrix(scale * rng.standard_normal(self.dim))

    def random_element(self, rng: np.random.Generator, letters: int = 2, scale: float = 0.5) -> np.ndarray:
        if letters < 0:
            raise ValueError("letters must be >= 0")
        return self._random_elements(rng, 1, letters, scale)[0]

    def _random_elements(self, rng: np.random.Generator, count: int, letters: int, scale: float) -> np.ndarray:
        """``count`` random elements, drawn as ``count`` sequential
        :meth:`random_element` calls draw them, from one stacked exponential."""
        return self._elements_from_words(scale * rng.standard_normal((count, letters, self.dim)))

    def _elements_from_words(self, words: np.ndarray) -> np.ndarray:
        """The products exp(w_1)...exp(w_letters) of a ``(count, letters, dim)``
        stack of coordinate words, from one stacked exponential."""
        count, letters, n = words.shape[0], words.shape[1], self.ambient_n
        exps = _mat_exp_stack(self.to_matrix(words.reshape(count * letters, self.dim)))
        return _word_products(exps.reshape(count, letters, n, n))

    def to_json(self) -> dict:
        return {
            "ambient_n": self.ambient_n,
            "algebra_basis": [m.tolist() for m in self.basis_mats],
            "plus_count": self.dim_plus,
            "sigma": self.sigma.to_json(),
            "label": self.label,
        }

    @classmethod
    def from_json(cls, data: dict, tol: Tolerance = DEFAULT_TOL) -> "MatrixSymmetricPair":
        basis = np.asarray(data["algebra_basis"], dtype=float)
        p = int(data["plus_count"])
        n = int(data["ambient_n"])
        basis = basis.reshape(-1, n, n) if basis.size else np.zeros((0, n, n))
        return cls(
            ambient_n=n,
            plus_mats=basis[:p],
            minus_mats=basis[p:],
            sigma=SigmaRule.from_json(data["sigma"]),
            label=data.get("label", ""),
            tol=tol,
        )


# ---------------------------------------------------------------------------
# operations


def _word_products(exps: np.ndarray) -> np.ndarray:
    """Left-to-right products over axis 1 of a ``(count, letters, n, n)`` stack, from I."""
    n = exps.shape[-1]
    g = np.broadcast_to(np.eye(n), (exps.shape[0], n, n))
    for j in range(exps.shape[1]):
        g = g @ exps[:, j]
    return np.array(g)


def group_sigma(pair: MatrixSymmetricPair, g: np.ndarray) -> np.ndarray:
    """Apply the pair's group involution; g, or each matrix of a stack, must be invertible."""
    g = as_matrix(g, square=True, stack=True)
    if np.any(np.abs(np.linalg.det(g)) < INVERTIBLE_DET_FLOOR):
        raise ValueError("sigma is only defined on invertible matrices")
    return pair.sigma._apply(g)


# ---------------------------------------------------------------------------
# morphisms of pairs


@dataclass(frozen=True, eq=False)
class PairMorphism:
    """Morphism of symmetric pairs: an algebra map plus a group rule.

    The group rule maps a ``(k, n, n)`` stack of source group matrices to
    the ``(k, m, m)`` stack of their images, slice by slice; when omitted,
    images are computed on exp-words via the algebra map.
    """

    source: MatrixSymmetricPair
    target: MatrixSymmetricPair
    algebra_map: np.ndarray  # (target.dim, source.dim) on coordinates
    group_rule: Optional[Callable[[np.ndarray], np.ndarray]] = None
    label: str = ""

    def __post_init__(self):
        a = np.asarray(self.algebra_map, dtype=float)
        if a.shape != (self.target.dim, self.source.dim):
            raise ValueError("algebra map has the wrong shape")
        object.__setattr__(self, "algebra_map", a)

    @property
    def minus_map(self) -> np.ndarray:
        """Restriction g1_minus -> g2_minus in minus coordinates."""
        a = self.algebra_map
        block = a[self.target.dim_plus :, self.source.dim_plus :]
        off_up = a[: self.target.dim_plus, self.source.dim_plus :]
        off_lo = a[self.target.dim_plus :, : self.source.dim_plus]
        off = np.linalg.norm(off_up) + np.linalg.norm(off_lo) if a.size else 0.0
        if not self.source.tol.verdicts(off, max(np.linalg.norm(a), 1.0)):
            raise VerificationError("algebra map does not respect the eigensplit")
        return block

    def map_algebra_matrix(self, x: np.ndarray) -> np.ndarray:
        return self.target.to_matrix(self.algebra_map @ self.source.matrix_coords(x))

    def map_group(self, g: np.ndarray) -> np.ndarray:
        return self._map_group(as_matrix(g, square=True)[None])[0]

    def _map_group(self, gs: np.ndarray) -> np.ndarray:
        # the group rule on a stack that the package computed: the stack is not
        # checked, the shape of the rule's output is
        if self.group_rule is None:
            raise ValueError("morphism has no group rule; use apply_pair_morphism on a word")
        images = np.asarray(self.group_rule(gs), dtype=float)
        m = self.target.ambient_n
        if images.shape != (len(gs), m, m):
            raise ValueError(f"group rule must map a ({len(gs)}, n, n) stack to a ({len(gs)}, {m}, {m}) stack")
        return images

    def validate(self, rng: Optional[np.random.Generator] = None) -> dict:
        """Residuals: bracket intertwining, involution intertwining, and
        group/exp compatibility along basis rays."""
        src, tgt, a = self.source, self.target, self.algebra_map
        out = {}
        mapped = np.einsum("ijl,pl->ijp", src.structure_tensor, a)
        direct = np.einsum("pql,pi,qj->ijl", tgt.structure_tensor, a, a)
        out["bracket"] = float(np.max(np.abs(mapped - direct))) if a.size else 0.0
        th = float(np.max(np.abs(a @ src.theta_coords - tgt.theta_coords @ a))) if a.size else 0.0
        out["involution"] = th
        ray = 0.0
        if self.group_rule is not None and src.dim:
            ts = (0.1, 0.7)
            images = tgt.to_matrix(a.T)
            lhs = _mat_exp_stack(np.concatenate([t * src.basis_mats for t in ts]))
            rhs = _mat_exp_stack(np.concatenate([t * images for t in ts]))
            ray = _max_norm(self._map_group(lhs) - rhs)
        out["group_exp"] = ray
        out["max_residual"] = max(out.values()) if out else 0.0
        return out


def apply_pair_morphism(f: PairMorphism, word) -> np.ndarray:
    """Image of a group element given as a word of algebra letters.

    ``word`` is a sequence of source-algebra matrices x_i representing
    exp(x_1) exp(x_2) ... exp(x_n).
    """
    src, tgt = f.source, f.target
    letters = [as_matrix(x, square=True) for x in word]
    letters = np.array(letters) if letters else np.zeros((0, src.ambient_n, src.ambient_n))
    if f.group_rule is not None:
        return f._map_group(_word_products(mat_exp(letters)[None]))[0]
    images = tgt.to_matrix(src.matrix_coords(letters) @ f.algebra_map.T)
    return _word_products(mat_exp(images)[None])[0]
