"""Test helpers and reference bodies, each defined once and imported by the
test files that use them.

The ``oracle_*`` functions are the per-point bodies that the stacked code
replaced, kept verbatim up to naming, and re-pinned to points that are
their Cartan matrices.  :func:`oracle_relates_group` is the former relation
body on explicit group elements of the two points, the reference that the
Cartan-matrix relation is judged against.  :func:`oracle_log` is the
Denman-Beavers and atanh-series log, which ``mat_log`` keeps for matrices
that are not normal; the normal route is judged by value against
:func:`oracle_principal_log`, scipy's ``logm`` on the same ball.
:func:`oracle_lts_tensor` builds the g_minus triple tensor from matrix
double commutators, the reference for ``lts_of_pair``, which takes it from
the algebra's bracket tensor.  :func:`oracle_projection_inv` and
:func:`oracle_discrepancies_inv` are the former bodies of the point
projection and of the relation's discrepancies, which inverted each Cartan
matrix and each principal root by LU where the package now applies sigma;
:func:`oracle_coords_each` is the former coordinate body, whose residual
took one product per matrix.
"""

import importlib.util
import math
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from symspaces import numkernel
from symspaces.catalog import parse_model
from symspaces.numkernel import (
    DEFAULT_TOL,
    DomainError,
    _frobenius,
    _principal_roots,
    as_matrix,
    op_norm,
)
from symspaces.sympair import _NOT_IN_ALGEBRA, _combine, _coords_stack
from symspaces.symspace import Points, SymPoint, _point_columns, log_point

CHART_MODELS = ("sphere(2)", "spd(2)", "spd(3)", "grassmann(2,4)", "product(sphere(2),spd(2))")

_PADE13 = (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
    1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
    33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0,
)
_THETA13 = 5.371920351148152


def same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def oracle_lts_tensor(pair) -> np.ndarray:
    """The triple tensor of ``pair`` element by element: g_minus coordinates
    of the matrix double commutators [[x_i, x_j], x_k]."""
    m = pair.dim_minus
    tensor = np.zeros((m, m, m, m))
    mats = pair.minus_mats
    for i in range(m):
        for j in range(m):
            comm = mats[i] @ mats[j] - mats[j] @ mats[i]
            for k in range(m):
                tensor[i, j, k] = pair.matrix_to_minus(comm @ mats[k] - mats[k] @ comm)
    return tensor


def oracle_lts_axioms(m):
    """The derivation-check body that evaluated the inner maps one ``(a, b)``
    at a time, skipping only zero maps and the ``(b, a)`` mirrors: the
    ``(antisymmetry, cyclic, derivation)`` residuals of ``check_lts_axioms``."""
    c = m.tensor
    d = m.dim
    if d == 0:
        return 0.0, 0.0, 0.0
    anti = float(np.max(np.abs(c + c.transpose(1, 0, 2, 3))))
    cyc = float(np.max(np.abs(c + c.transpose(1, 2, 0, 3) + c.transpose(2, 0, 1, 3))))
    rows = c.reshape(d**3, d)  # [(u,v,w), m]
    cols = c.reshape(d, d**3)  # [m, (v,w,l)]
    second = np.ascontiguousarray(c.transpose(1, 0, 2, 3)).reshape(d, d**3)  # [m, (u,w,l)]
    third = np.ascontiguousarray(c.transpose(2, 0, 1, 3)).reshape(d, d**3)  # [m, (u,v,l)]
    worst = np.zeros((d, d))
    for a in range(d):
        for b in range(d):
            op = c[a, b]  # [m, l] = coefficient l of [e_a, e_b, e_m]
            if not op.any() or (b < a and np.array_equal(op, -c[b, a])):
                continue
            lhs = (rows @ op).reshape(d, d, d, d)
            rhs = (op @ cols).reshape(d, d, d, d)
            rhs += (op @ second).reshape(d, d, d, d).transpose(1, 0, 2, 3)
            rhs += (op @ third).reshape(d, d, d, d).transpose(1, 2, 0, 3)
            np.subtract(lhs, rhs, out=rhs)
            worst[a, b] = np.max(np.abs(rhs, out=rhs))
    return anti, cyc, float(np.max(worst))


def same_point(x: SymPoint, y: SymPoint) -> bool:
    return x.pair is y.pair and same_bits(x.cartan, y.cartan)


def benchmark_cases(workload=None) -> list:
    """The argv, with its ``--seed``, of each case of ``bench/workloads.py``
    (read, never changed): every seed group of every workload, or of one."""
    path = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return [
        item["argv"] + ["--seed", str(workloads.program_seed(name, item["key"], group))]
        for name, spec in workloads.WORKLOADS.items()
        if workload in (None, name)
        for group in range(spec["seed_groups"])
        for item in spec["items"]
    ]


def load_script(stem: str):
    """``scripts/<stem>.py`` as a module."""
    path = Path(__file__).resolve().parent.parent / "scripts" / f"{stem}.py"
    spec = importlib.util.spec_from_file_location(stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_case_bytes():
    """``scripts/case_bytes.py`` as a module."""
    return load_script("case_bytes")


def count_calls(monkeypatch, module, name):
    """Record the arguments of each call of ``module.<name>``, through every
    package or test module that bound it."""
    original = getattr(module, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for modname, mod in list(sys.modules.items()):
        ours = modname.split(".")[0] in ("symspaces", "oracles") or modname.startswith("test_")
        if ours and getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, counted)
    return calls


def lapack_spy(mp, names, caller="symspaces.numkernel"):
    """Count the slices of each ``numpy.linalg`` call made in ``caller``, a
    module or a package, for the rest of the monkeypatch context."""
    slices = dict.fromkeys(names, 0)
    for name in names:

        def counted(a, *args, _name=name, _original=getattr(np.linalg, name), **kwargs):
            module = sys._getframe(1).f_globals.get("__name__", "")
            if module == caller or module.startswith(caller + "."):
                slices[_name] += len(a) if np.ndim(a) == 3 else 1
            return _original(a, *args, **kwargs)

        mp.setattr(np.linalg, name, counted)
    return slices


@pytest.fixture(scope="module")
def chart_models():
    return {spec: parse_model(spec) for spec in CHART_MODELS}


# ---------------------------------------------------------------------------
# the 2-D exponential, square root and logarithm


def oracle_pade13(a):
    b = _PADE13
    ident = np.eye(a.shape[0])
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


def oracle_mat_exp(a):
    a = as_matrix(a, square=True, stack=True)  # the validation shared with stacks
    assert a.ndim == 2
    n = a.shape[0]
    if n == 0:
        return a.copy()
    norm1 = float(np.add.reduce(np.abs(a), axis=-2).max(axis=-1))
    if norm1 == 0.0:
        return np.eye(n)
    s = 0
    if norm1 > _THETA13:
        s = np.ceil(np.log2(norm1 / _THETA13))
        if s > 60:
            raise DomainError(f"norm {norm1:.3e} exceeds the scaling budget")
        s = int(s)
    if s:
        a = a / (2.0 ** s)
    r = oracle_pade13(a)
    for _ in range(s):
        r = r @ r
    return r


def oracle_sqrt(a, tol):
    y, z = a.copy(), np.eye(a.shape[0])
    for _ in range(60):
        y_next = 0.5 * (y + np.linalg.inv(z))
        z_next = 0.5 * (z + np.linalg.inv(y))
        delta = np.linalg.norm(y_next - y)
        y, z = y_next, z_next
        if delta <= (tol.abs_eps + tol.rel_eps * abs(float(np.linalg.norm(y)))) * 0.01:
            break
    return y


def oracle_log_and_roots(a, tol=DEFAULT_TOL):
    """The 2-D principal log and its number of square roots."""
    a = np.array(a, dtype=float)
    n = a.shape[0]
    if n == 0:
        return a.copy(), 0
    ident = np.eye(n)
    if op_norm(a - ident) >= 1.0:
        raise DomainError("matrix outside the principal-branch domain |a - I| < 1")
    s = 0
    while np.linalg.norm(a - ident) > 0.25:
        try:
            a = oracle_sqrt(a, tol)
        except np.linalg.LinAlgError:  # a singular root iterate
            raise DomainError("square-root reduction failed to converge") from None
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
    return (2.0 ** (s + 1)) * total, s


def oracle_log(a):
    return oracle_log_and_roots(a)[0]


def oracle_principal_log(a):
    """scipy's principal log on the ball ``op_norm(a - I) < 1`` of ``mat_log``,
    with its DomainError outside."""
    a = np.array(a, dtype=float)
    if op_norm(a - np.eye(a.shape[0])) >= 1.0:
        raise DomainError("matrix outside the principal-branch domain |a - I| < 1")
    return scipy.linalg.logm(a)


def passes_the_gate(stack, tol=DEFAULT_TOL):
    """The normality gate of ``mat_log`` on each slice of a ``(k, n, n)`` stack."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return tol.verdicts(*numkernel._normal_parts(stack)[1])


def close_logs(got, want, rtol=1e-12) -> bool:
    """``got`` is within ``rtol`` of ``want`` in Frobenius norm, relative to ``max(|want|, 1)``."""
    return bool(np.linalg.norm(got - want) <= rtol * max(np.linalg.norm(want), 1.0))


# ---------------------------------------------------------------------------
# points


def oracle_exp_point(pair, v):
    # the Cartan image of exp(x) is exp(2x)
    return SymPoint(pair, oracle_mat_exp(2.0 * pair.minus_to_matrix(v)))


def oracle_require_same_pair(x, y):
    oracle_require_pair(x.pair, y)


def oracle_mu(x, y):
    oracle_require_same_pair(x, y)
    return SymPoint(x.pair, x.cartan @ np.linalg.inv(y.cartan) @ x.cartan)


def oracle_tau_action(pair, g, x):
    g = np.array(g, dtype=float)
    if abs(np.linalg.det(g)) < 1e-300:
        raise ValueError("tau requires an invertible group element")
    return SymPoint(pair, g @ x.cartan @ np.linalg.inv(pair.sigma.apply(g)))


def oracle_require_pair(pair, *points):
    if any(x.pair is not pair for x in points):
        raise ValueError("point does not belong to the given pair")


def oracle_log_point(pair, x, extra=0.0):
    # ``extra`` is added to the principal log, as the patched stacked log adds it
    oracle_require_pair(pair, x)
    half = 0.5 * (oracle_principal_log(as_matrix(x.cartan, square=True)) + extra)
    return pair.matrix_to_minus(half)


def oracle_relates(pair, n, x, y, extra=0.0):
    """The chart relation of one pair: the log of ``S^-1 Y S^-1``, with ``S``
    the principal root of ``X``, lies in n; None without a root or a log."""
    oracle_require_pair(pair, x, y)
    try:
        s = oracle_sqrt(x.cartan, pair.tol)
    except np.linalg.LinAlgError:
        return None
    if not pair.tol.close(s @ s, x.cartan):
        return None
    si = np.linalg.inv(s)
    try:
        v = oracle_log_point(pair, SymPoint(pair, si @ y.cartan @ si), extra)
    except DomainError:
        return None
    return oracle_contains(n, v, pair.tol)


def oracle_relates_group(pair, n, g, h):
    """The former chart relation, on group elements ``g`` of x and ``h`` of y:
    the log of the point of ``g^-1 h`` lies in n; None outside the log's domain."""
    try:
        v = log_point(pair, SymPoint.from_group(pair, np.linalg.inv(g) @ h))
    except DomainError:
        return None
    return oracle_contains(n, v, pair.tol)


def oracle_member(pair, seed, x, extra=0.0):
    # a point of another pair raises; only the log's own errors answer None
    oracle_require_pair(pair, x)
    try:
        v = oracle_log_point(pair, x, extra)
    except ValueError:
        return None
    return oracle_contains(seed, v, pair.tol)


# ---------------------------------------------------------------------------
# inverses by LU, and the coordinate residual one matrix at a time


def oracle_projection_inv(proj, points) -> Points:
    """The former ``PointProjection.__call__``: ``C M_b C^-1`` with ``C^-1``
    from ``np.linalg.inv``."""
    cartans = Points.of(proj.source, points).cartans
    src, d_out, n = proj.source, proj.comp_mats.shape[0], proj.source.ambient_n
    if not d_out:
        return Points._wrap(proj.target, np.ones((len(cartans), 1, 1)))
    out = [np.empty((0, d_out, d_out))]
    for start in range(0, len(cartans), proj.block):
        c = cartans[start:start + proj.block]
        k = len(c)
        left = (c @ proj._side_by_side).reshape(k, n, d_out, n).transpose(0, 2, 1, 3)  # C M_b
        moved = (left.reshape(k, d_out * n, n) @ np.linalg.inv(c)).reshape(k, d_out, n, n)
        coords = _coords_stack(src.basis_mats, src._basis_pinv, moved, src.tol, _NOT_IN_ALGEBRA)
        out.append(proj.comp @ coords.transpose(0, 2, 1))
    return Points._wrap(proj.target, np.concatenate(out))


def oracle_discrepancies_inv(pair, xs, ys) -> tuple:
    """The former ``quotient._discrepancies``: ``S^-1 Y S^-1`` with ``S^-1``
    from ``np.linalg.inv``, and the mask of the confirmed roots."""
    xs, ys = _point_columns(xs, ys, pair)
    if not len(xs):
        return xs, np.zeros(0, dtype=bool)
    roots, rooted = _principal_roots(xs.cartans, pair.tol)
    inv = np.linalg.inv(roots[rooted])
    return Points._wrap(pair, inv @ ys.cartans[rooted] @ inv), rooted


def oracle_coords_each(mats, pinv, x, tol, outside) -> tuple:
    """The former ``sympair._coords_each``: the residual of each matrix from
    its own ``(1, d) @ (d, n*n)`` product, and an entry per matrix."""
    lead, n, d = x.shape[:-2], x.shape[-1], pinv.shape[-1]
    coords = (x.reshape(lead[0], math.prod(lead[1:]), n * n) @ pinv).reshape(lead + (d,))
    flat = x.reshape(math.prod(lead), n, n)
    resid = _frobenius(_combine(coords.reshape(len(flat), d), mats, "") - flat)
    ok = tol.verdicts(resid, np.maximum(_frobenius(flat), 1.0)).tolist()
    errors = [None if good else ValueError(f"matrix {outside} (residual {r:.2e})") for good, r in zip(ok, resid)]
    return coords, errors


# ---------------------------------------------------------------------------
# mutant projections of a quotient


def squared_projection(qr):
    """The block projection of ``qr`` with each image's Cartan matrix squared: it
    keeps the linear part and the fibres near the base point, but breaks
    pi(mu(x, y)) = mu(pi x, pi y)."""

    def squared(points):
        return [SymPoint(qr.quotient_pair, px.cartan @ px.cartan) for px in qr.projection_points(points)]

    return squared


def far_squared_projection(qr):
    """The block projection of ``qr`` with the images of the points whose
    ``|C - I|`` exceeds 1.7 squared: on the samples of
    ``product(sphere(2),sphere(2))`` it breaks the morphism law on about half."""
    n = qr.relation.pair.ambient_n

    def far_squared(points):
        points = list(points)
        images = qr.projection_points(points)
        far = [float(np.linalg.norm(x.cartan - np.eye(n))) > 1.7 for x in points]
        return [SymPoint(qr.quotient_pair, px.cartan @ px.cartan) if f else px for f, px in zip(far, images)]

    return far_squared


# ---------------------------------------------------------------------------
# one vector against a linear subspace


def oracle_project_onto(sub, v):
    """The former ``LinearSubspace.project``: the orthogonal projection of ``v``."""
    q = sub.basis
    return q.T @ (q @ np.asarray(v, dtype=float))


def oracle_contains(sub, v, tol) -> bool:
    """The former per-vector body of ``LinearSubspace.contains``."""
    v = np.asarray(v, dtype=float)
    return bool(sub.distance(v) <= tol.abs_eps + tol.rel_eps * abs(max(float(np.linalg.norm(v)), 1.0)))
