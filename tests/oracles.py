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
the algebra's bracket tensor.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from symspaces import numkernel
from symspaces.catalog import parse_model
from symspaces.numkernel import DEFAULT_TOL, DomainError, as_matrix, op_norm
from symspaces.symspace import SymPoint, log_point

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
    return n.contains(v, pair.tol)


def oracle_relates_group(pair, n, g, h):
    """The former chart relation, on group elements ``g`` of x and ``h`` of y:
    the log of the point of ``g^-1 h`` lies in n; None outside the log's domain."""
    try:
        v = log_point(pair, SymPoint.from_group(pair, np.linalg.inv(g) @ h))
    except DomainError:
        return None
    return n.contains(v, pair.tol)


def oracle_member(pair, seed, x, extra=0.0):
    # a point of another pair raises; only the log's own errors answer None
    oracle_require_pair(pair, x)
    try:
        v = oracle_log_point(pair, x, extra)
    except ValueError:
        return None
    return seed.contains(v, pair.tol)
