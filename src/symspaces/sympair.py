"""Matrix symmetric pairs (G, sigma, K) with K = G^sigma.

A pair is described by a basis of its Lie algebra (n x n matrices split
into the +1/-1 eigenparts of the involution derivative) plus a group-level
involution rule.  The connected group G is never enumerated: elements are
matrices produced from exponentials and products, and membership questions
are answered through logs or model-specific predicates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from .lts import LieTripleSystem, LinearSubspace, SymmetricLieAlgebra, VerificationError
from .numkernel import DEFAULT_TOL, Tolerance, as_matrix, mat_exp, mat_log, op_norm

__all__ = [
    "SigmaRule",
    "MatrixSymmetricPair",
    "PairMorphism",
    "group_sigma",
    "in_fixed_group",
    "trotter_group_sum",
    "trotter_group_commutator",
    "relation_group_product",
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
            sq = th @ th
            n = th.shape[0]
            if not (np.allclose(sq, np.eye(n)) or np.allclose(sq, -np.eye(n))):
                raise ValueError("theta must square to +I or -I")
            object.__setattr__(self, "theta", th)
        elif self.theta is not None:
            raise ValueError("transpose_inverse sigma takes no theta matrix")

    def apply(self, g: np.ndarray) -> np.ndarray:
        g = as_matrix(g, square=True)
        if self.kind == "conjugation":
            return self.theta @ g @ np.linalg.inv(self.theta)
        if self.kind == "transpose_inverse":
            return np.linalg.inv(g).T
        return self.theta @ np.linalg.inv(g).T @ np.linalg.inv(self.theta)

    def derivative(self, x: np.ndarray) -> np.ndarray:
        """The induced Lie-algebra involution theta = L(sigma)."""
        x = as_matrix(x, square=True)
        if self.kind == "conjugation":
            return self.theta @ x @ np.linalg.inv(self.theta)
        if self.kind == "transpose_inverse":
            return -x.T
        return -self.theta @ x.T @ np.linalg.inv(self.theta)

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "theta_matrix": None if self.theta is None else self.theta.tolist(),
        }

    @classmethod
    def from_json(cls, data: dict) -> "SigmaRule":
        th = data.get("theta_matrix")
        return cls(data["kind"], None if th is None else np.asarray(th, dtype=float))


def _stack_flat(mats: np.ndarray) -> np.ndarray:
    return mats.reshape(mats.shape[0], -1).T if mats.size else np.zeros((0, 0))


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
        eig = 0.0
        for x, sign in [(m, 1.0) for m in plus] + [(m, -1.0) for m in minus]:
            eig = max(eig, float(np.linalg.norm(self.sigma.derivative(x) - sign * x)))
        if eig > self.tol.threshold(10.0):
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
        return np.concatenate([self.plus_mats, self.minus_mats], axis=0) if self.dim else np.zeros((0, self.ambient_n, self.ambient_n))

    @cached_property
    def _flat_basis(self) -> np.ndarray:
        return _stack_flat(self.basis_mats)

    @cached_property
    def _flat_minus(self) -> np.ndarray:
        return _stack_flat(self.minus_mats)

    def to_matrix(self, coords) -> np.ndarray:
        coords = np.asarray(coords, dtype=float)
        if coords.shape != (self.dim,):
            raise ValueError("full-algebra coordinate vector has the wrong length")
        if self.dim == 0:
            return np.zeros((self.ambient_n, self.ambient_n))
        return np.tensordot(coords, self.basis_mats, axes=1)

    def matrix_coords(self, x: np.ndarray) -> np.ndarray:
        """Coordinates of an algebra element; raises if x is not in the span.

        ``x`` may also be a ``(k, n, n)`` stack: one least-squares solve then
        gives one coordinate row per matrix, and each matrix must pass the
        residual check on its own.
        """
        x = np.array(x, dtype=float)
        single = x.ndim == 2
        if single:
            x = x[None]
        if x.ndim != 3:
            raise ValueError(f"expected a 2-D matrix or a stack of them, got ndim={x.ndim}")
        if x.shape[1] != x.shape[2]:
            raise ValueError(f"expected a square matrix, got shape {x.shape[1:]}")
        if x.size and not np.isfinite(x).all():
            raise ValueError("matrix entries must be finite")
        flat = x.reshape(x.shape[0], x.shape[1] * x.shape[2]).T  # one column per matrix
        norms = np.linalg.norm(flat, axis=0)
        cut = self.tol.abs_eps + self.tol.rel_eps * np.maximum(norms, 1.0)
        if self.dim == 0:
            if np.any(norms > cut):
                raise ValueError("matrix does not lie in the (zero) algebra")
            coords = np.zeros((0, x.shape[0]))
        else:
            coords, *_ = np.linalg.lstsq(self._flat_basis, flat, rcond=None)
            resid = np.linalg.norm(self._flat_basis @ coords - flat, axis=0)
            bad = resid > cut
            if bad.any():
                raise ValueError(f"matrix does not lie in the algebra (residual {resid[np.argmax(bad)]:.2e})")
        return coords[:, 0] if single else coords.T

    def minus_to_matrix(self, v) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        if v.shape != (self.dim_minus,):
            raise ValueError("g_minus coordinate vector has the wrong length")
        if self.dim_minus == 0:
            return np.zeros((self.ambient_n, self.ambient_n))
        return np.tensordot(v, self.minus_mats, axes=1)

    def matrix_to_minus(self, x: np.ndarray) -> np.ndarray:
        x = as_matrix(x, square=True)
        if self.dim_minus == 0:
            if not self.tol.is_zero(x, max(np.linalg.norm(x), 1.0)):
                raise ValueError("matrix has no g_minus coordinates")
            return np.zeros(0)
        coords, *_ = np.linalg.lstsq(self._flat_minus, x.reshape(-1), rcond=None)
        resid = np.linalg.norm(self._flat_minus @ coords - x.reshape(-1))
        if resid > self.tol.threshold(max(np.linalg.norm(x), 1.0)):
            raise ValueError(f"matrix is not in g_minus (residual {resid:.2e})")
        return coords

    def minus_to_full(self, v) -> np.ndarray:
        """Embed g_minus coordinates into full-algebra coordinates."""
        v = np.asarray(v, dtype=float)
        return np.concatenate([np.zeros(self.dim_plus), v])

    def full_to_minus(self, w, strict: bool = True) -> np.ndarray:
        w = np.asarray(w, dtype=float)
        if strict and np.linalg.norm(w[: self.dim_plus]) > self.tol.threshold(max(np.linalg.norm(w), 1.0)):
            raise ValueError("coordinates have a g_plus component")
        return w[self.dim_plus :]

    def minus_subspace_to_full(self, sub: LinearSubspace) -> LinearSubspace:
        rows = [self.minus_to_full(r) for r in sub.basis]
        return LinearSubspace.span(np.array(rows).reshape(-1, self.dim), self.dim, self.tol)

    def full_subspace_to_minus(self, sub: LinearSubspace) -> LinearSubspace:
        rows = [self.full_to_minus(r) for r in sub.basis]
        return LinearSubspace.span(np.array(rows).reshape(-1, self.dim_minus), self.dim_minus, self.tol)

    # -- structure --------------------------------------------------------

    @cached_property
    def structure_tensor(self) -> np.ndarray:
        """Structure constants of the matrix commutator; closure is enforced."""
        d = self.dim
        t = np.zeros((d, d, d))
        for i in range(d):
            for j in range(i + 1, d):
                comm = self.basis_mats[i] @ self.basis_mats[j] - self.basis_mats[j] @ self.basis_mats[i]
                try:
                    c = self.matrix_coords(comm)
                except ValueError as exc:
                    raise VerificationError(f"algebra basis is not closed under commutator: {exc}")
                t[i, j] = c
                t[j, i] = -c
        return t

    @cached_property
    def triple_system(self) -> LieTripleSystem:
        """The Lie triple system [x, y, z] = [[x, y], z] on g_minus coordinates.

        Raises if a double commutator leaves g_minus, which would mean the
        eigenspace invariants of the pair are broken.  The tensor is read-only.
        """
        m = self.dim_minus
        tensor = np.zeros((m, m, m, m))
        mats = self.minus_mats
        for i in range(m):
            for j in range(m):
                comm = mats[i] @ mats[j] - mats[j] @ mats[i]
                for kk in range(m):
                    val = comm @ mats[kk] - mats[kk] @ comm
                    try:
                        tensor[i, j, kk] = self.matrix_to_minus(val)
                    except ValueError as exc:
                        raise VerificationError(f"triple bracket left g_minus: {exc}")
        tensor.flags.writeable = False
        return LieTripleSystem(m, tensor, label=self.label)

    @cached_property
    def theta_coords(self) -> np.ndarray:
        return np.diag([1.0] * self.dim_plus + [-1.0] * self.dim_minus) if self.dim else np.zeros((0, 0))

    def algebra(self) -> SymmetricLieAlgebra:
        d = self.dim
        plus = LinearSubspace(d, np.eye(d)[: self.dim_plus]) if self.dim_plus else LinearSubspace.zero(d)
        minus = LinearSubspace(d, np.eye(d)[self.dim_plus :]) if self.dim_minus else LinearSubspace.zero(d)
        return SymmetricLieAlgebra(
            d, self.structure_tensor, self.theta_coords, plus, minus, label=self.label
        )

    def exp(self, x: np.ndarray) -> np.ndarray:
        return mat_exp(x, self.tol)

    def validate(self, rng: Optional[np.random.Generator] = None, samples: int = 20) -> dict:
        """Structural residuals: commutator closure, eigenspace bracket
        relations, sigma o exp = exp o theta on rays, sigma involutivity on
        random exp-generated elements."""
        out = {}
        t = self.structure_tensor  # raises on closure failure
        p, m, d = self.dim_plus, self.dim_minus, self.dim
        inc = 0.0
        for i in range(d):
            for j in range(d):
                c = t[i, j]
                i_minus, j_minus = i >= p, j >= p
                if i_minus == j_minus:  # [g+,g+] and [g-,g-] land in g+
                    inc = max(inc, float(np.linalg.norm(c[p:])))
                else:  # mixed brackets land in g-
                    inc = max(inc, float(np.linalg.norm(c[:p])))
        out["eigenspace_brackets"] = inc

        ray = 0.0
        for x in self.basis_mats:
            for tval in (0.05, 0.3):
                lhs = self.sigma.apply(mat_exp(tval * x, self.tol))
                rhs = mat_exp(tval * self.sigma.derivative(x), self.tol)
                ray = max(ray, float(np.linalg.norm(lhs - rhs)))
        out["sigma_exp_theta"] = ray

        invol = 0.0
        rng = rng or np.random.default_rng(0)
        for _ in range(samples):
            g = self.random_element(rng)
            invol = max(invol, float(np.linalg.norm(self.sigma.apply(self.sigma.apply(g)) - g)))
        out["sigma_involutive"] = invol
        out["max_residual"] = max(out.values()) if out else 0.0
        return out

    def random_algebra_element(self, rng: np.random.Generator, scale: float = 0.5) -> np.ndarray:
        if self.dim == 0:
            return np.zeros((self.ambient_n, self.ambient_n))
        return self.to_matrix(scale * rng.standard_normal(self.dim))

    def random_element(self, rng: np.random.Generator, letters: int = 2, scale: float = 0.5) -> np.ndarray:
        g = np.eye(self.ambient_n)
        for _ in range(letters):
            g = g @ mat_exp(self.random_algebra_element(rng, scale), self.tol)
        return g

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


def group_sigma(pair: MatrixSymmetricPair, g: np.ndarray) -> np.ndarray:
    """Apply the pair's group involution; g must be invertible."""
    g = as_matrix(g, square=True)
    if abs(np.linalg.det(g)) < 1e-300:
        raise ValueError("sigma is only defined on invertible matrices")
    return pair.sigma.apply(g)


def in_fixed_group(pair: MatrixSymmetricPair, g: np.ndarray) -> bool:
    g = as_matrix(g, square=True)
    return pair.tol.close(group_sigma(pair, g), g)


def trotter_group_sum(pair: MatrixSymmetricPair, x: np.ndarray, y: np.ndarray, k: int) -> np.ndarray:
    """The k-th Trotter approximant (exp(x/k) exp(y/k))^k of exp(x+y)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    x, y = as_matrix(x, square=True), as_matrix(y, square=True)
    step = mat_exp(x / k, pair.tol) @ mat_exp(y / k, pair.tol)
    return np.linalg.matrix_power(step, k)


def trotter_group_commutator(pair: MatrixSymmetricPair, x: np.ndarray, y: np.ndarray, k: int) -> np.ndarray:
    """The k-th commutator approximant converging to exp([x, y])."""
    if k < 1:
        raise ValueError("k must be >= 1")
    x, y = as_matrix(x, square=True), as_matrix(y, square=True)
    step = (
        mat_exp(x / k, pair.tol)
        @ mat_exp(y / k, pair.tol)
        @ mat_exp(-x / k, pair.tol)
        @ mat_exp(-y / k, pair.tol)
    )
    return np.linalg.matrix_power(step, k * k)


def relation_group_product(
    pair: MatrixSymmetricPair,
    l_algebra: LinearSubspace,
    first: tuple[np.ndarray, np.ndarray],
    second: tuple[np.ndarray, np.ndarray],
) -> tuple[np.ndarray, np.ndarray]:
    """Product of the relation group S = G x L in (g, l) coordinates.

    Conjugation transports the L component: the product of (g1, l1) and
    (g2, l2) is (g1 g2, c(g2^-1, l1) l2) with c(g, l) = g l g^-1.  The
    second coordinate is checked to stay in L through its log whenever the
    principal log is defined.
    """
    if not pair.algebra().brackets_within(l_algebra.basis, np.eye(pair.dim), l_algebra, pair.tol):
        raise ValueError("L must integrate a Lie ideal of the pair's algebra")
    g1, l1 = (as_matrix(a, square=True) for a in first)
    g2, l2 = (as_matrix(a, square=True) for a in second)
    g2i = np.linalg.inv(g2)
    l_out = (g2i @ l1 @ g2) @ l2
    g_out = g1 @ g2
    if op_norm(l_out - np.eye(pair.ambient_n)) < 1.0:
        w = mat_log(l_out, pair.tol)
        coords = pair.matrix_coords(w)
        if not l_algebra.contains(coords, pair.tol):
            raise VerificationError("conjugated L component left the ideal's chart")
    return g_out, l_out


# ---------------------------------------------------------------------------
# morphisms of pairs


@dataclass(frozen=True, eq=False)
class PairMorphism:
    """Morphism of symmetric pairs: an algebra map plus a group rule.

    The group rule acts on matrices; when omitted, images are computed on
    exp-words via the algebra map.
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
        if off > self.source.tol.threshold(max(np.linalg.norm(a), 1.0)):
            raise VerificationError("algebra map does not respect the eigensplit")
        return block

    def map_algebra_matrix(self, x: np.ndarray) -> np.ndarray:
        return self.target.to_matrix(self.algebra_map @ self.source.matrix_coords(x))

    def map_group(self, g: np.ndarray) -> np.ndarray:
        if self.group_rule is None:
            raise ValueError("morphism has no group rule; use apply_pair_morphism on a word")
        return self.group_rule(as_matrix(g, square=True))

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
        if self.group_rule is not None:
            for i in range(src.dim):
                x = src.basis_mats[i]
                for tval in (0.1, 0.7):
                    lhs = self.group_rule(mat_exp(tval * x, src.tol))
                    rhs = mat_exp(tval * tgt.to_matrix(a[:, i]), tgt.tol)
                    ray = max(ray, float(np.linalg.norm(lhs - rhs)))
        out["group_exp"] = ray
        out["max_residual"] = max(out.values()) if out else 0.0
        return out


def apply_pair_morphism(f: PairMorphism, word) -> np.ndarray:
    """Image of a group element given as a word of algebra letters.

    ``word`` is a sequence of source-algebra matrices x_i representing
    exp(x_1) exp(x_2) ... exp(x_n).
    """
    letters = [as_matrix(x, square=True) for x in word]
    if f.group_rule is not None:
        g = np.eye(f.source.ambient_n)
        for x in letters:
            g = g @ mat_exp(x, f.source.tol)
        return f.group_rule(g)
    h = np.eye(f.target.ambient_n)
    for x in letters:
        h = h @ mat_exp(f.map_algebra_matrix(x), f.target.tol)
    return h
