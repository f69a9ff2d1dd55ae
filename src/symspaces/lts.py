"""Lie triple systems as structure tensors.

A Lie triple system on R^d is stored as a coefficient tensor ``c`` with
``[e_i, e_j, e_k] = sum_l c[i,j,k,l] e_l``.  The module also hosts linear
subspaces (the common currency of all subsystem/ideal computations) and
symmetric Lie algebras ``g = g_plus + g_minus`` with their bracket tensor
and involution, together with the quotient, standard-embedding and
psi-representation machinery built on top of them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .numkernel import DEFAULT_TOL, Tolerance, _frobenius, _kernel_rows, _svd_cut, as_matrix

__all__ = [
    "LinearSubspace",
    "LieTripleSystem",
    "LtsMorphism",
    "SymmetricLieAlgebra",
    "LtsAxiomReport",
    "check_lts_axioms",
    "is_subsystem",
    "is_ideal",
    "ideal_report",
    "quotient_lts",
    "direct_sum_lts",
    "standard_embedding",
    "PsiRepresentation",
    "psi_representation",
    "ideal_ker_psi_plus_n",
    "ideal_bracket_plus_n",
    "displacement_algebra",
    "algebra_to_json",
    "algebra_from_json",
]


class VerificationError(RuntimeError):
    """A numerically re-checked structural guarantee failed."""


# ---------------------------------------------------------------------------
# linear subspaces


@dataclass(frozen=True, eq=False)
class LinearSubspace:
    """Subspace of R^ambient_dim spanned by the rows of ``basis``.

    ``basis`` is the one basis of the subspace: orthonormal rows, read-only.
    ``LinearSubspace(ambient_dim, rows)`` takes linearly independent finite
    rows and keeps the orthonormal rows of their SVD, from the one cut that
    also decides independence (as :meth:`span` does for any vectors).
    """

    ambient_dim: int
    basis: np.ndarray  # shape (k, ambient_dim), orthonormal rows

    def __post_init__(self):
        b = np.atleast_2d(np.asarray(self.basis, dtype=float))
        if b.size == 0:
            b = b.reshape(0, self.ambient_dim)
        if b.shape[1] != self.ambient_dim:
            raise ValueError("basis vectors do not match the ambient dimension")
        if b.shape[0]:
            _, vt, rank = _svd_cut(as_matrix(b), DEFAULT_TOL)
            if rank != b.shape[0]:
                raise ValueError("basis rows are linearly dependent")
            b = vt[:rank]
        self._freeze(b)

    def _freeze(self, rows: np.ndarray) -> None:
        rows = rows.copy()
        rows.flags.writeable = False
        object.__setattr__(self, "basis", rows)

    @classmethod
    def _wrap(cls, ambient_dim: int, rows: np.ndarray) -> "LinearSubspace":
        # rows that are already orthonormal: a read-only copy, no SVD
        sub = object.__new__(cls)
        object.__setattr__(sub, "ambient_dim", ambient_dim)
        sub._freeze(rows)
        return sub

    @classmethod
    def span(cls, vectors, ambient_dim: int, tol: Tolerance) -> "LinearSubspace":
        """Orthonormalized span of (possibly dependent) finite vectors."""
        return cls._span(as_matrix(np.atleast_2d(vectors)), ambient_dim, tol)

    @classmethod
    def _span(cls, v: np.ndarray, ambient_dim: int, tol: Tolerance) -> "LinearSubspace":
        # the unchecked body of span, for 2-D arrays the package computed
        if v.size == 0:
            return cls.zero(ambient_dim)
        if v.shape[1] != ambient_dim:
            raise ValueError("vectors do not match the ambient dimension")
        _, vt, rank = _svd_cut(v, tol)
        return cls._wrap(ambient_dim, vt[:rank])

    @classmethod
    def zero(cls, ambient_dim: int) -> "LinearSubspace":
        return cls._wrap(ambient_dim, np.zeros((0, ambient_dim)))

    @classmethod
    def full(cls, ambient_dim: int) -> "LinearSubspace":
        return cls._wrap(ambient_dim, np.eye(ambient_dim))

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    def onb(self) -> np.ndarray:
        """:attr:`basis`, which is orthonormal; the name is kept for the layer
        tracer of ``bench/tracer.py``, which wraps this method."""
        return self.basis

    def distance(self, v: np.ndarray) -> float:
        return float(self.distances(v)[0])

    def _rows(self, vectors) -> np.ndarray:
        v = np.asarray(vectors, dtype=float)
        if v.ndim != 2:
            v = v.reshape(-1, self.ambient_dim)
        if v.shape[1] != self.ambient_dim:
            raise ValueError("vectors do not match the ambient dimension")
        return v

    def distances(self, vectors) -> np.ndarray:
        """Distance of each row of ``vectors`` (shape ``(k, ambient_dim)``).

        Each row is projected as a ``(1, ambient_dim)`` stack slice, so row
        ``i`` is bit for bit ``distance(vectors[i])``.
        """
        v = self._rows(vectors)[:, None]
        q = self.basis
        return np.linalg.norm(v - (v @ q.T) @ q, axis=-1)[:, 0]

    def contains_each(self, vectors, tol: Tolerance) -> list:
        """Whether each row ``v`` of ``vectors`` lies in the subspace, as a list of
        bools: ``tol.verdicts`` of its distance at the scale ``max(|v|, 1)``."""
        v = self._rows(vectors)
        scale = np.maximum(_frobenius(v), 1.0)
        return tol.verdicts(self.distances(v), scale).tolist()

    def contains_all(self, vectors, tol: Tolerance) -> bool:
        """True iff every row lies in the subspace, each by the test of :meth:`contains_each`."""
        return all(self.contains_each(vectors, tol))

    def contains_subspace(self, other: "LinearSubspace", tol: Tolerance) -> bool:
        """Whether every row of ``other``'s orthonormal basis lies in the subspace."""
        return self.contains_all(other.basis, tol)

    def equals(self, other: "LinearSubspace", tol: Tolerance) -> bool:
        return self.dim == other.dim and self.contains_subspace(other, tol)

    def complement(self) -> "LinearSubspace":
        """Orthogonal complement inside the ambient space: the rows are
        orthonormal, so it is the last rows of their SVD, with no rank cut."""
        if self.dim == 0:
            return LinearSubspace.full(self.ambient_dim)
        return LinearSubspace._wrap(self.ambient_dim, np.linalg.svd(self.basis)[2][self.dim :])


def subspace_sum(a: LinearSubspace, b: LinearSubspace, tol: Tolerance) -> LinearSubspace:
    if a.ambient_dim != b.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    return LinearSubspace._span(np.vstack([a.basis, b.basis]), a.ambient_dim, tol)


# ---------------------------------------------------------------------------
# Lie triple systems


@dataclass(frozen=True, eq=False)
class LieTripleSystem:
    """Finite-dimensional real Lie triple system given by its tensor; ``tol``
    decides every subsystem, ideal and morphism test on it."""

    dim: int
    tensor: np.ndarray  # shape (d, d, d, d)
    label: str = ""
    tol: Tolerance = DEFAULT_TOL

    def __post_init__(self):
        t = np.asarray(self.tensor, dtype=float)
        expected = (self.dim,) * 4
        if t.shape != expected:
            raise ValueError(f"tensor shape {t.shape} != {expected}")
        object.__setattr__(self, "tensor", t)

    def bracket(self, x, y, z) -> np.ndarray:
        x, y, z = (np.asarray(v, dtype=float) for v in (x, y, z))
        for v in (x, y, z):
            if v.shape != (self.dim,):
                raise ValueError(f"vector length {v.shape} != ({self.dim},)")
        return np.einsum("ijkl,i,j,k->l", self.tensor, x, y, z)

    def operator(self, x, y) -> np.ndarray:
        """The inner map D_{x,y} = [x, y, .] as a (dim x dim) matrix."""
        x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
        return np.einsum("ijkl,i,j->lk", self.tensor, x, y)


@dataclass(frozen=True, eq=False)
class LtsAxiomReport:
    antisymmetry: float
    cyclic: float
    derivation: float

    @property
    def max_residual(self) -> float:
        return max(self.antisymmetry, self.cyclic, self.derivation)

    def passed(self, tol: Tolerance) -> bool:
        return bool(tol.verdicts(self.max_residual, 0.0))

    def as_dict(self) -> dict:
        return {
            "antisymmetry": self.antisymmetry,
            "cyclic": self.cyclic,
            "derivation": self.derivation,
            "max_residual": self.max_residual,
        }


def _inner_map_representatives(c: np.ndarray) -> list:
    """Flat indices ``a * d + b`` of the inner maps ``c[a, b]`` whose derivation
    residual :func:`check_lts_axioms` evaluates, in order.

    A zero map is skipped.  Of the finite maps equal up to sign, compared on
    exact bits once each map is scaled to a positive first nonzero entry and
    each ``-0.0`` is read as ``0.0``, the first is kept.  A map with a
    non-finite entry is always kept.
    """
    d = c.shape[0]
    ops = c.reshape(d * d, d * d)
    live = np.flatnonzero(ops.any(axis=1))
    maps = ops[live]
    finite = np.isfinite(maps).all(axis=1).tolist()
    lead = maps[np.arange(len(maps)), np.argmax(maps != 0, axis=1)]  # the first nonzero entry
    canon = maps * np.where(lead < 0, -1.0, 1.0)[:, None] + 0.0  # x + 0.0 turns -0.0 into 0.0
    keep, seen = [], set()
    for i, row, ok in zip(live.tolist(), canon, finite):
        if ok:
            key = row.tobytes()
            if key in seen:
                continue
            seen.add(key)
        keep.append(i)
    return keep


def _derivation_residual(op, c) -> float:
    """Largest ``|D[u,v,w] - [Du,v,w] - [u,Dv,w] - [u,v,Dw]|`` of one inner map
    ``D = op`` (``op[m, l]`` is coefficient ``l`` of ``D e_m``) on the triple
    tensor ``c``, from four GEMMs that each write their term in ``[u,v,w,l]``
    order: ``[u,Dv,w]`` batched over ``u`` and ``[u,v,Dw]`` over ``(u, v)``."""
    d = op.shape[0]
    lhs = (c.reshape(d**3, d) @ op).reshape(d, d, d, d)
    rhs = (op @ c.reshape(d, d**3)).reshape(d, d, d, d)
    rhs += (op @ c.reshape(d, d, d * d)).reshape(d, d, d, d)
    rhs += op @ c
    np.subtract(lhs, rhs, out=rhs)
    return np.max(np.abs(rhs, out=rhs))


def check_lts_axioms(m: LieTripleSystem) -> LtsAxiomReport:
    """Residuals of the three defining identities over all basis tuples.

    The derivation identity D[u,v,w] = [Du,v,w] + [u,Dv,w] + [u,v,Dw] for
    the inner map D = [e_a, e_b, .] is checked one map at a time with four
    GEMMs, so the extra memory is O(dim^4) (three d^4 arrays), never the full
    ``(a,b,u,v,w,l)`` array.  The residual is linear in D and rounding is
    sign-symmetric, so a zero map leaves 0 and a map equal to an evaluated one
    up to sign (and up to the sign of its zeros) leaves bit for bit that map's
    residual or its negation: each distinct map is evaluated once
    (:func:`_inner_map_representatives`), and the reported maximum is the
    same bits as over every ``(a, b)``.
    """
    c = m.tensor
    d = m.dim
    if d == 0:
        return LtsAxiomReport(0.0, 0.0, 0.0)
    anti = float(np.max(np.abs(c + c.transpose(1, 0, 2, 3))))
    cyc = float(np.max(np.abs(c + c.transpose(1, 2, 0, 3) + c.transpose(2, 0, 1, 3))))
    worst = [_derivation_residual(c[divmod(i, d)], c) for i in _inner_map_representatives(c)]
    return LtsAxiomReport(anti, cyc, float(np.max(worst, initial=0.0)))


def _basis_brackets(m: LieTripleSystem, a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """All brackets [u, v, w] for u in rows(a), v in rows(b), w in rows(c)."""
    t = np.tensordot(a, m.tensor, axes=(1, 0))  # (a, j, k, l)
    t = np.tensordot(b, t, axes=(1, 1))  # (b, a, k, l)
    t = np.tensordot(c, t, axes=(1, 2))  # (c, b, a, l)
    return t.transpose(2, 1, 0, 3).reshape(len(a) * len(b) * len(c), m.dim)


def is_subsystem(m: LieTripleSystem, n: LinearSubspace) -> bool:
    """True iff [n, n, n] lies in n within ``m.tol``."""
    if n.ambient_dim != m.dim:
        raise ValueError("subspace ambient dimension does not match the system")
    q = n.basis
    return n.contains_all(_basis_brackets(m, q, q, q), m.tol)


def ideal_report(m: LieTripleSystem, n: LinearSubspace) -> dict:
    """Residuals of the ideal condition [n,m,m] <= n and its two consequences."""
    if n.ambient_dim != m.dim:
        raise ValueError("subspace ambient dimension does not match the system")
    full = np.eye(m.dim)
    q = n.basis

    def worst(a, b, c):
        return float(np.max(n.distances(_basis_brackets(m, a, b, c)), initial=0.0))

    return {
        "n_m_m": worst(q, full, full),
        "m_n_m": worst(full, q, full),
        "m_m_n": worst(full, full, q),
    }


def is_ideal(m: LieTripleSystem, n: LinearSubspace) -> bool:
    """True iff [n, m, m] lies in n within ``m.tol``; the two consequence slots are re-checked.

    An ideal automatically satisfies [m,n,m] <= n and [m,m,n] <= n; if the
    primary condition holds but a consequence fails, the tensor or tolerance
    is inconsistent and a :class:`VerificationError` is raised.
    """
    rep = ideal_report(m, n)
    primary, *consequences = m.tol.verdicts([rep["n_m_m"], rep["m_n_m"], rep["m_m_n"]], 1.0).tolist()
    if primary and not all(consequences):
        raise VerificationError(f"ideal consequence slots failed: {rep}")
    return primary


def quotient_lts(m: LieTripleSystem, n: LinearSubspace):
    """Quotient m/n on the orthogonal complement of an ideal n.

    Returns ``(quotient, projection)`` where the projection is a verified
    :class:`LtsMorphism` with kernel n.
    """
    if not is_ideal(m, n):
        raise ValueError("quotient requires an ideal")
    proj = n.complement().basis  # (k, d) rows: representatives of m/n, and the coordinates of a class
    k = proj.shape[0]
    tensor = (_basis_brackets(m, proj, proj, proj) @ proj.T).reshape((k,) * 4)
    quot = LieTripleSystem(k, tensor, label=f"{m.label}/{n.dim}d" if m.label else "", tol=m.tol)
    morphism = LtsMorphism(source=m, target=quot, matrix=proj)
    if not morphism.is_valid():
        raise VerificationError("quotient projection failed the morphism check")
    ker = LinearSubspace._wrap(m.dim, _kernel_rows(proj, m.tol))
    if not ker.equals(n, m.tol):
        raise VerificationError("projection kernel does not match the ideal")
    return quot, morphism


def direct_sum_lts(a: LieTripleSystem, b: LieTripleSystem, label: str = "") -> LieTripleSystem:
    if a.tol != b.tol:
        raise ValueError("the summands carry different tolerances")
    d = a.dim + b.dim
    t = np.zeros((d, d, d, d))
    t[: a.dim, : a.dim, : a.dim, : a.dim] = a.tensor
    t[a.dim :, a.dim :, a.dim :, a.dim :] = b.tensor
    return LieTripleSystem(d, t, label=label or f"{a.label}(+){b.label}", tol=a.tol)


@dataclass(frozen=True, eq=False)
class LtsMorphism:
    """Linear map between Lie triple systems, checked on basis triples within ``source.tol``."""

    source: LieTripleSystem
    target: LieTripleSystem
    matrix: np.ndarray  # (target.dim, source.dim)

    def __post_init__(self):
        a = np.asarray(self.matrix, dtype=float)
        if a.shape != (self.target.dim, self.source.dim):
            raise ValueError("morphism matrix has the wrong shape")
        object.__setattr__(self, "matrix", a)

    def __call__(self, v: np.ndarray) -> np.ndarray:
        return self.matrix @ np.asarray(v, dtype=float)

    def residual(self) -> float:
        a = self.matrix
        mapped = self.source.tensor.reshape(-1, self.source.dim) @ a.T  # f[e_i, e_j, e_k]
        direct = _basis_brackets(self.target, a.T, a.T, a.T)  # [f e_i, f e_j, f e_k]
        if mapped.size == 0:
            return 0.0
        return float(np.max(np.abs(mapped - direct)))

    def is_valid(self) -> bool:
        scale = max(float(np.linalg.norm(self.matrix)) ** 3, 1.0)
        return bool(self.source.tol.verdicts(self.residual(), scale))


# ---------------------------------------------------------------------------
# symmetric Lie algebras


# Most floats in one block ``[i0:i1, j, k, l]`` of the Jacobi residual, and
# at least one first index (d^3 floats): two blocks are all the Jacobi
# temporaries of ``SymmetricLieAlgebra.validate``.
_JACOBI_BLOCK_FLOATS = 2 ** 14


def _jacobi_residual(b: np.ndarray) -> float:
    """Largest ``|[e_i,[e_j,e_k]] - [[e_i,e_j],e_k] - [e_j,[e_i,e_k]]|`` of the
    bracket tensor ``b`` (Jacobi: [x,[y,z]] = [[x,y],z] + [y,[x,z]]), over
    blocks of the first index ``i``.

    Each block's three terms come from GEMMs that write them in ``[i,j,k,l]``
    order, every entry one length-d dot product; the largest entry of any
    block is the result, NaN if any entry is NaN.
    """
    d = b.shape[0]
    step = max(1, _JACOBI_BLOCK_FLOATS // max(1, d**3))
    worst = []
    for i0 in range(0, d, step):
        bi = b[i0 : i0 + step]
        n = len(bi)
        block = (b.reshape(d * d, d) @ bi).reshape(n, d, d, d)  # [e_i, [e_j, e_k]]
        block -= (bi.reshape(n * d, d) @ b.reshape(d, d * d)).reshape(n, d, d, d)  # [[e_i, e_j], e_k]
        block -= bi[:, None] @ b[None]  # [e_j, [e_i, e_k]]
        worst.append(np.max(np.abs(block, out=block)))
    return float(np.max(worst, initial=0.0))


@dataclass(frozen=True, eq=False)
class SymmetricLieAlgebra:
    """Lie algebra with involution; tensor b[i,j,l] gives [e_i,e_j] = sum b l e_l.
    ``tol`` decides every test on the algebra, and its :attr:`minus_lts` carries it."""

    dim: int
    bracket_tensor: np.ndarray  # (d, d, d)
    theta: np.ndarray  # (d, d) involution matrix
    plus_basis: LinearSubspace = field(repr=False)
    minus_basis: LinearSubspace = field(repr=False)
    label: str = ""
    tol: Tolerance = DEFAULT_TOL

    def __post_init__(self):
        b = np.asarray(self.bracket_tensor, dtype=float)
        th = np.asarray(self.theta, dtype=float)
        if b.shape != (self.dim,) * 3:
            raise ValueError("bracket tensor shape mismatch")
        if th.shape != (self.dim, self.dim):
            raise ValueError("theta shape mismatch")
        object.__setattr__(self, "bracket_tensor", b)
        object.__setattr__(self, "theta", th)

    @classmethod
    def from_eigensplit(cls, bracket_tensor, theta, label: str = "", *, tol: Tolerance):
        """Build with the eigenspaces of theta (theta^2 = id required) cut by ``tol``, which it carries."""
        th = np.asarray(theta, dtype=float)
        d = th.shape[0]
        plus = LinearSubspace._wrap(d, _kernel_rows(th - np.eye(d), tol))
        minus = LinearSubspace._wrap(d, _kernel_rows(th + np.eye(d), tol))
        return cls(d, np.asarray(bracket_tensor, dtype=float), th, plus, minus, label, tol)

    def ad(self, x) -> np.ndarray:
        """ad(x) = [x, .] as a (dim x dim) matrix."""
        return np.einsum("ijl,i->lj", self.bracket_tensor, np.asarray(x, dtype=float))

    def brackets(self, left: np.ndarray, right: np.ndarray) -> np.ndarray:
        """All brackets [u, v] for u in rows(left), v in rows(right).

        Shape ``(len(left), len(right), dim)``: the one stacked Lie-bracket
        contraction, two GEMMs through ``tensordot``.
        """
        vals = np.tensordot(np.tensordot(left, self.bracket_tensor, axes=(1, 0)), right, axes=(1, 1))
        return vals.transpose(0, 2, 1)

    def brackets_within(self, left: np.ndarray, right: np.ndarray, sub: LinearSubspace) -> bool:
        """True iff [u, v] lies in ``sub`` for every row u of ``left`` and v of ``right``.

        With ``left = sub.basis`` and ``right`` the identity this is the
        Lie-ideal test; with both ``sub.basis``, subalgebra closure.
        """
        return sub.contains_all(self.brackets(left, right).reshape(-1, self.dim), self.tol)

    @cached_property
    def minus_lts(self) -> LieTripleSystem:
        """The Lie triple system [x, y, z] = [[x, y], z] on g_minus, in the
        coordinates of the rows of ``minus_basis.basis``.

        Built once per algebra from the bracket tensor, and carrying its
        ``tol``; raises :class:`VerificationError` if a triple bracket leaves
        g_minus by ``tol``.  The tensor is read-only.
        """
        q = self.minus_basis.basis
        k = q.shape[0]
        vals = self.brackets(self.brackets(q, q).reshape(k * k, self.dim), q)  # [[q_a, q_b], q_c] at (a*k + b, c)
        coords = vals @ q.T
        resid = float(np.max(np.abs(vals - coords @ q), initial=0.0))
        if not self.tol.verdicts(resid, max(float(np.max(np.abs(vals), initial=0.0)), 1.0)):
            raise VerificationError("triple bracket leaves the (-1)-eigenspace")
        tensor = coords.reshape((k,) * 4)
        tensor.flags.writeable = False
        return LieTripleSystem(k, tensor, label=self.label, tol=self.tol)

    def validate(self) -> dict:
        """Residuals of antisymmetry, Jacobi, theta^2=id, theta automorphism,
        eigenspace correctness and spanning."""
        b, th, d = self.bracket_tensor, self.theta, self.dim
        out = {}
        out["antisymmetry"] = float(np.max(np.abs(b + b.transpose(1, 0, 2)))) if d else 0.0
        out["jacobi"] = _jacobi_residual(b)
        out["theta_involutive"] = float(np.max(np.abs(th @ th - np.eye(d)))) if d else 0.0
        # theta[x,y] = [theta x, theta y]
        auto = np.tensordot(b, th, axes=(2, 0)) - np.tensordot(th, np.tensordot(th, b, axes=(0, 1)), axes=(0, 1))
        out["theta_automorphism"] = float(np.max(np.abs(auto))) if d else 0.0
        eig = 0.0
        for sub, sign in ((self.plus_basis, 1.0), (self.minus_basis, -1.0)):
            for row in sub.basis:
                eig = max(eig, float(np.linalg.norm(th @ row - sign * row)))
        out["eigenbasis"] = eig
        out["spanning"] = 0.0 if self.plus_basis.dim + self.minus_basis.dim == d else 1.0
        out["max_residual"] = max(out.values())
        return out


def standard_embedding(m: LieTripleSystem, n: LinearSubspace) -> SymmetricLieAlgebra:
    """Symmetric Lie algebra h = [n,n] (+) n built from a triple subsystem.

    The plus part is the span of the inner maps D_{x,y} = [x,y,.] restricted
    to n, the minus part is n itself, and theta is +1/-1 on the two parts;
    the algebra carries ``m.tol``.
    """
    if not is_subsystem(m, n):
        raise ValueError("standard embedding requires a triple subsystem")
    q = n.basis  # (k, d) rows
    k = q.shape[0]
    # D_{q_a,q_b} restricted to n, in q-coordinates: ops[a, b, c', c] = <q_c', [q_a, q_b, q_c]>
    ops = (_basis_brackets(m, q, q, q) @ q.T).reshape((k,) * 4).transpose(0, 1, 3, 2)
    op_span = LinearSubspace._span(ops.reshape(k * k, k * k), k * k, m.tol)
    r = op_span.dim
    p = op_span.basis  # rows: flattened operator basis

    def op_coords(mat: np.ndarray) -> np.ndarray:
        flat = mat.reshape(-1)
        coords = p @ flat
        resid = float(np.linalg.norm(flat - p.T @ coords))
        if not m.tol.verdicts(resid, max(np.linalg.norm(flat), 1.0)):
            raise VerificationError("operator escapes the inner-derivation span")
        return coords

    d = r + k
    tensor = np.zeros((d, d, d))
    p_mats = [p[i].reshape(k, k) for i in range(r)]
    for i in range(r):
        for j in range(r):
            comm = p_mats[i] @ p_mats[j] - p_mats[j] @ p_mats[i]
            tensor[i, j, :r] = op_coords(comm)
    for i in range(r):
        for a in range(k):
            val = p_mats[i] @ np.eye(k)[a]
            tensor[i, r + a, r:] = val
            tensor[r + a, i, r:] = -val
    for a in range(k):
        for b in range(k):
            tensor[r + a, r + b, :r] = op_coords(ops[a, b])
    theta = np.diag([1.0] * r + [-1.0] * k) if d else np.zeros((0, 0))
    plus, minus = LinearSubspace._wrap(d, np.eye(d)[:r]), LinearSubspace._wrap(d, np.eye(d)[r:])
    label = f"emb({m.label})" if m.label else ""
    return SymmetricLieAlgebra(d, tensor, theta, plus, minus, label, m.tol)


# ---------------------------------------------------------------------------
# psi representation and the ideals driving the quotient theorem


def _minus_ideal(g: SymmetricLieAlgebra, n: LinearSubspace, message: str):
    """Check that n is an ideal of the triple system :attr:`SymmetricLieAlgebra.minus_lts`.

    Returns the ``minus_basis`` rows ``q`` and n in their coordinates (the
    coordinates of n's orthonormal rows, wrapped); raises
    ``ValueError(message)`` when n is no ideal.
    """
    if n.ambient_dim != g.dim:
        raise ValueError("subspace must live in the algebra's coordinate space")
    if not g.minus_basis.contains_all(n.basis, g.tol):
        raise ValueError("subspace is not contained in the (-1)-eigenspace")
    q = g.minus_basis.basis
    n_m = LinearSubspace._wrap(q.shape[0], n.basis @ q.T)
    if not is_ideal(g.minus_lts, n_m):
        raise ValueError(message)
    return q, n_m


def _ad_on_span(g: SymmetricLieAlgebra, basis: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The operator of [x, .] on the span of the orthonormal rows ``basis``, read
    in their coordinates, for each row x of ``rows``: entry ``(r, a, b)`` is
    ``basis[a] . [rows[r], basis[b]]``.  Both psi on g_minus/n and the
    quotient's realization on g/l are this one stacked contraction."""
    return basis @ g.brackets(rows, basis).transpose(0, 2, 1)


@dataclass(frozen=True, eq=False)
class PsiRepresentation:
    """Action of g_plus on g_minus/n: one operator per plus-basis element, with
    its kernel and the kernel's complement inside g_plus from one rank cut."""

    operators: np.ndarray  # (p, k, k): the operator of each g.plus_basis row, in quotient_basis coordinates
    quotient_basis: np.ndarray  # rows: orthonormal basis of the complement of n inside g_minus
    kernel: LinearSubspace  # ker(psi), a subspace of g_plus
    kernel_complement: np.ndarray  # rows: orthonormal basis of the complement of ker(psi) inside g_plus


def psi_representation(g: SymmetricLieAlgebra, n: LinearSubspace) -> PsiRepresentation:
    """The induced representation g_plus -> gl(g_minus/n) and its kernel.

    Requires n to be an ideal of the triple system g_minus and the algebra
    to satisfy g_plus = span[g_minus, g_minus].
    """
    q, n_m = _minus_ideal(g, n, "psi requires an ideal of the triple system g_minus")
    return _psi(g, q, n_m.complement().basis)


def _psi(g: SymmetricLieAlgebra, q: np.ndarray, comp_m: np.ndarray) -> PsiRepresentation:
    """:func:`psi_representation` of an n already decided to be an ideal, given
    the ``minus_basis`` rows ``q`` and the orthonormal complement rows of n in
    their coordinates."""
    if not LinearSubspace._span(g.brackets(q, q).reshape(-1, g.dim), g.dim, g.tol).equals(g.plus_basis, g.tol):
        raise ValueError("hypothesis g_plus = span[g_minus, g_minus] is violated")
    quot = comp_m @ q  # rows in g coordinates, orthonormal
    plus = g.plus_basis.basis
    # entry (r, a, j) = quotient coordinate a of the class of [plus_r, quot_j]
    ops = _ad_on_span(g, quot, plus)
    stacked = ops.reshape(len(plus), len(quot) ** 2).T  # column r: the operator of plus_r
    if stacked.size:
        _, vt, rank = _svd_cut(stacked, g.tol)  # rows of vt: coefficient vectors over the plus rows
    else:  # no plus rows, or g_minus/n = 0: psi is zero
        vt, rank = np.eye(len(plus)), 0
    kernel = LinearSubspace._wrap(g.dim, vt[rank:] @ plus)
    return PsiRepresentation(operators=ops, quotient_basis=quot, kernel=kernel, kernel_complement=vt[:rank] @ plus)


def _closure_certificate(g: SymmetricLieAlgebra, sub: LinearSubspace, right: np.ndarray) -> tuple:
    """Whether ``sub`` is theta-invariant, whether it holds [u, v] for every row
    u of its basis and v of ``right``, and the certificate of both.

    Each row ``theta(u)`` and ``[u, v]`` is decided by the test of
    :meth:`LinearSubspace.contains_each`, from one stacked ``distances``
    call.  The certificate is ``{"residual", "bound"}``: the distance from
    ``sub`` of the row that came closest to its ``Tolerance`` bound, and that
    bound, so ``residual <= bound`` iff every row passes (a NaN residual
    fails).  With no rows it is 0 against the bound at scale 1.
    """
    images = sub.basis @ g.theta.T
    rows = np.vstack([images, g.brackets(sub.basis, right).reshape(-1, g.dim)])
    if not len(rows):
        return True, True, {"residual": 0.0, "bound": float(g.tol._bounds(1.0))}
    scales = np.maximum(_frobenius(rows), 1.0)
    dist, bounds = sub.distances(rows), g.tol._bounds(scales)
    passed = g.tol.verdicts(dist, scales)
    worst = int(np.argmax(dist - bounds))  # the least margin; a NaN distance comes first
    certificate = {"residual": float(dist[worst]), "bound": float(bounds[worst])}
    return bool(passed[: len(images)].all()), bool(passed[len(images) :].all()), certificate


def _verify_theta_invariant(g: SymmetricLieAlgebra, sub: LinearSubspace, right: np.ndarray, what: str) -> dict:
    """Raise unless ``sub`` is theta-invariant and holds [u, v] for every row u
    of its basis and v of ``right``: a Lie ideal for the identity, a
    subalgebra for ``sub.basis``.  Returns the :func:`_closure_certificate`."""
    invariant, closed, certificate = _closure_certificate(g, sub, right)
    if not invariant:
        raise VerificationError(f"{what} is not theta-invariant")
    if not closed:
        kind = "a subalgebra" if right is sub.basis else "a Lie ideal"
        raise VerificationError(f"{what} is not {kind}")
    return certificate


def ideal_ker_psi_plus_n(g: SymmetricLieAlgebra, n: LinearSubspace) -> LinearSubspace:
    """The theta-invariant Lie ideal ker(psi) (+) n inside g, re-verified."""
    return _ker_psi_plus_n(g, psi_representation(g, n), n)[0]


def _ker_psi_plus_n(g: SymmetricLieAlgebra, psi: PsiRepresentation, n: LinearSubspace) -> tuple:
    # ideal_ker_psi_plus_n from psi's kernel, with the certificate of the ideal
    l = subspace_sum(psi.kernel, n, g.tol)
    return l, _verify_theta_invariant(g, l, np.eye(g.dim), "ker(psi) + n")


def ideal_bracket_plus_n(g: SymmetricLieAlgebra, n: LinearSubspace) -> LinearSubspace:
    """The theta-invariant Lie ideal span[g_minus, n] (+) n, re-verified."""
    q, _ = _minus_ideal(g, n, "requires an ideal of the triple system g_minus")
    return _bracket_plus_n(g, q, n)


def _bracket_plus_n(g: SymmetricLieAlgebra, q: np.ndarray, n: LinearSubspace) -> LinearSubspace:
    # ideal_bracket_plus_n of an n already decided to be an ideal: one cut of the rows [q_a, n_b] and n
    rows = np.vstack([g.brackets(q, n.basis).reshape(-1, g.dim), n.basis])
    l = LinearSubspace._span(rows, g.dim, g.tol)
    _verify_theta_invariant(g, l, np.eye(g.dim), "span[g_minus, n] + n")
    return l


def displacement_algebra(g: SymmetricLieAlgebra) -> LinearSubspace:
    """The subalgebra span[g_minus, g_minus] (+) g_minus of g.

    Verified to be a theta-invariant subalgebra before returning.
    """
    q = g.minus_basis.basis
    sub = LinearSubspace._span(np.vstack([g.brackets(q, q).reshape(-1, g.dim), q]), g.dim, g.tol)
    _verify_theta_invariant(g, sub, sub.basis, "displacement algebra")
    return sub


# ---------------------------------------------------------------------------
# JSON descriptors


def algebra_to_json(obj) -> dict:
    """Serialize a LieTripleSystem or SymmetricLieAlgebra descriptor."""
    if isinstance(obj, LieTripleSystem):
        return {
            "kind": "lts",
            "dim": obj.dim,
            "tensor": obj.tensor.tolist(),
            "theta": None,
            "labels": [obj.label],
        }
    if isinstance(obj, SymmetricLieAlgebra):
        return {
            "kind": "symmetric_lie_algebra",
            "dim": obj.dim,
            "tensor": obj.bracket_tensor.tolist(),
            "theta": obj.theta.tolist(),
            "labels": [obj.label],
        }
    raise TypeError(f"cannot serialize {type(obj)!r}")


def algebra_from_json(data: dict, tol: Tolerance = DEFAULT_TOL):
    """The LieTripleSystem or SymmetricLieAlgebra of a descriptor, carrying ``tol``."""
    kind = data.get("kind")
    labels = data.get("labels") or [""]
    if kind == "lts":
        return LieTripleSystem(int(data["dim"]), np.asarray(data["tensor"], dtype=float), labels[0], tol)
    if kind == "symmetric_lie_algebra":
        return SymmetricLieAlgebra.from_eigensplit(
            np.asarray(data["tensor"], dtype=float),
            np.asarray(data["theta"], dtype=float),
            labels[0],
            tol=tol,
        )
    raise ValueError(f"unknown descriptor kind {kind!r}")
