"""The numpy behaviour that the stacked kernels rely on, pinned in one place.

``mat_exp``, ``mat_log``, ``SymPoint.from_group``, ``log_points`` and the
batched relation test promise that each slice of a stacked call is bit for
bit the 2-D call.  That holds only because numpy computes a stacked
``inv``, ``det``, ``svd(compute_uv=False)``, ``eigh`` (values and vectors),
``solve`` and ``@`` slice by slice with the 2-D routine, and because the row norm ``sqrt(vecdot(f, f))``
of a flattened slice is the bits of ``np.linalg.norm`` of that slice (the
stacked point products, distances, comparisons and tau actions rest on the
same facts).  A single
``mat_exp``, ``from_group``, ``log_point`` or relation test runs as a
one-slice stack, so its bits must be the 2-D ``inv``, ``det``, ``eigh``,
``solve`` and ``@``;
and ``LinearSubspace.distances`` projects each row as a ``(1, m)`` slice,
so a row of a stacked ``(k, 1, m) @ (m, d)`` must be the one-row product.
The coordinate map ``to_matrix``/``minus_to_matrix`` of a ``(k, d)`` stack is
the ``(k, 1, d) @ (d, n*n)`` product, so each row must also be the vector
product that ``tensordot`` computes, and its inverse ``matrix_coords``/
``matrix_to_minus`` is the ``(k, 1, n*n) @ (n*n, d)`` product with a
``pinv``, whose rows must be the one-matrix products.  ``contains_each`` and
``validate`` take row norms as ``sqrt(vecdot(v, v))``, which must be the bits
of ``np.linalg.norm`` of each row, also of a strided column slice of a
tensor; the ball samples, the algebraic membership and the split-complement
filter take them through ``numkernel._frobenius`` of stacks of any rank,
empty ones included.  ``random_element`` draws its rows
for a whole stack with one ``standard_normal((k, d))``, which must be ``k``
sequential draws.  ``Tolerance.verdicts`` decides a whole block with one
float64 bound and ``<=``, which must be the Python-float test of each
residual.  If a numpy upgrade breaks any of these facts, this test fails,
not the report bytes.
"""

import numpy as np
from oracles import same_bits

from symspaces import numkernel


def test_stacked_numpy_kernels_are_bit_for_bit_per_slice():
    rng = np.random.default_rng(20261018)
    for n in range(1, 11):
        k = 200
        scales = rng.uniform(0.01, 3.0, size=(k, 1, 1))
        a = np.eye(n) + scales * rng.standard_normal((k, n, n))
        b = rng.standard_normal((k, n, n))
        at, bt = a.swapaxes(1, 2), b.swapaxes(1, 2)  # per-slice transposed views, as in mat_log

        norms = np.sqrt(np.vecdot(a.reshape(k, n * n), a.reshape(k, n * n)))
        frob = numkernel._frobenius(a)
        inv = np.linalg.inv(a)
        det = np.linalg.det(a)
        sing = np.linalg.svd(a, compute_uv=False)
        gram = at @ a  # symmetric, as the polar split of mat_log takes it
        w, v = np.linalg.eigh(gram)
        solved = np.linalg.solve(at, bt).swapaxes(1, 2)
        product = a @ b
        square = solved @ solved
        for i in range(k):
            assert same_bits(norms[i], np.linalg.norm(a[i]))
            assert same_bits(frob[i], np.linalg.norm(a[i]))
            assert same_bits(inv[i], np.linalg.inv(a[i]))
            assert same_bits(det[i], np.linalg.det(a[i]))
            assert same_bits(sing[i], np.linalg.svd(a[i], compute_uv=False))
            assert same_bits(sing[i].max(), np.linalg.norm(a[i], 2))
            wi, vi = np.linalg.eigh(gram[i])
            assert same_bits(w[i], wi) and same_bits(v[i], vi)
            single = np.linalg.solve(a[i].T, b[i].T).T
            assert same_bits(solved[i], single)
            assert same_bits(product[i], a[i] @ b[i])
            assert same_bits(square[i], single @ single)


def test_a_one_slice_stack_is_the_2d_call():
    rng = np.random.default_rng(20261019)
    for n in range(1, 11):
        for _ in range(50):
            a = np.eye(n) + rng.uniform(0.01, 3.0) * rng.standard_normal((n, n))
            b = rng.standard_normal((n, n))
            assert same_bits(np.linalg.inv(a[None])[0], np.linalg.inv(a))
            assert same_bits(np.linalg.det(a[None])[0], np.linalg.det(a))
            assert same_bits((a[None] @ b[None])[0], a @ b)
            assert same_bits(np.linalg.solve(a[None], b[None])[0], np.linalg.solve(a, b))
            for one, two in zip(np.linalg.eigh((a.T @ a)[None]), np.linalg.eigh(a.T @ a)):
                assert same_bits(one[0], two)


def test_a_stacked_row_product_is_the_one_row_product():
    rng = np.random.default_rng(20261020)
    for m in range(1, 9):
        for d in range(0, m + 1):
            q = np.linalg.qr(rng.standard_normal((m, m)))[0][:d]  # orthonormal rows, as onb() gives
            v = rng.standard_normal((40, m))
            rows = v[:, None]
            stacked = (rows @ q.T) @ q
            norms = np.linalg.norm(rows - stacked, axis=-1)
            for i in range(len(v)):
                one = v[i : i + 1]
                single = (one @ q.T) @ q
                assert same_bits(stacked[i], single)
                assert same_bits(norms[i], np.linalg.norm(one - single, axis=-1))


def test_a_stacked_coordinate_row_is_the_vector_product():
    rng = np.random.default_rng(20261021)
    for n in range(1, 11):
        for d in (0, 1, n, n * (n + 1) // 2, n * n):
            mats = rng.standard_normal((d, n, n))
            rows = rng.standard_normal((30, d)) * rng.uniform(0.01, 3.0, size=(30, 1))
            for c in (rows, np.asfortranarray(rows)):
                stacked = c[:, None, :] @ mats.reshape(d, n * n)
                for i in range(len(c)):
                    assert same_bits(stacked[i, 0], c[i] @ mats.reshape(d, n * n))
                    assert same_bits(stacked[i, 0], np.tensordot(c[i], mats, axes=1).ravel())


def test_a_stacked_pinv_row_is_the_one_matrix_product():
    rng = np.random.default_rng(20261022)
    for n in range(1, 8):
        for d in (0, 1, n, n * (n + 1) // 2, n * n):
            pinv = np.linalg.pinv(rng.standard_normal((d, n * n)), rtol=None)
            x = rng.standard_normal((30, 1, n * n)) * rng.uniform(0.01, 3.0, size=(30, 1, 1))
            stacked = x @ pinv
            for i in range(len(x)):
                assert same_bits(stacked[i], (x[i][None] @ pinv)[0])


def test_a_row_norm_is_the_vector_norm():
    rng = np.random.default_rng(20261023)
    for d in range(0, 12):
        t = rng.standard_normal((d, d, d)) * rng.uniform(0.01, 3.0, size=(d, d, 1))
        for p in range(0, d + 1):
            for part in (t[..., :p], t[..., p:]):  # strided rows, as validate reads them
                norms = np.sqrt(np.vecdot(part, part))
                for i in range(d):
                    for j in range(d):
                        assert same_bits(norms[i, j], np.linalg.norm(part[i, j]))


def test_frobenius_of_any_stack_is_the_norm_of_each_slice():
    rng = np.random.default_rng(20261024)
    for shape in ((), (0,), (1,), (7,), (3, 4), (0, 5), (5, 0), (2, 3, 4)):
        for k in (0, 1, 30):
            a = rng.standard_normal((k,) + shape) * rng.uniform(1e-6, 10.0, size=(k,) + (1,) * len(shape))
            frob = numkernel._frobenius(a)
            assert frob.shape == (k,)
            for i in range(k):
                assert same_bits(frob[i], np.linalg.norm(a[i]))


def test_a_stacked_normal_draw_is_the_sequential_draws():
    for d in (0, 1, 3, 10):
        stacked = np.random.default_rng(7).standard_normal((25, d))
        rng = np.random.default_rng(7)
        assert same_bits(stacked, np.array([rng.standard_normal(d) for _ in range(25)]).reshape(25, d))


def test_verdicts_are_the_python_float_test():
    """Every tolerance verdict of the package is one ``Tolerance.verdicts`` call
    on a block, where each site once compared one residual at a time on Python
    floats.  That refactor keeps every verdict, and every report byte, only
    because a float64 ``abs_eps + rel_eps * |s|`` followed by ``r <= t`` is bit
    for bit ``r <= abs_eps + rel_eps * abs(s)`` on Python floats: exact ties,
    zero scales, scales from 1e-13 to 1e13, and NaN residuals, which fail.
    """
    rng = np.random.default_rng(20261025)
    for tol in (numkernel.Tolerance(), numkernel.Tolerance(1e-8, 1e-7), numkernel.Tolerance(3.7e-11, 2.9e-6)):
        scales = np.concatenate([
            rng.standard_normal(4000) * 10.0 ** rng.uniform(-13, 13, size=4000),  # signed, as |s| takes them
            np.zeros(50),
            10.0 ** np.arange(-13, 14),
            [1.0, -1.0, 10.0],
        ])
        bounds = [tol.abs_eps + tol.rel_eps * abs(s) for s in scales.tolist()]
        ties = np.array(bounds)
        residuals = np.concatenate([
            ties * rng.uniform(0.0, 2.0, size=len(ties)),  # random pairs on both sides of the bound
            ties,  # exact ties pass
            np.nextafter(ties, np.inf),  # one ulp above fails
            np.nextafter(ties, 0.0),
            np.full(len(ties), np.nan),  # NaN fails
        ])
        scales = np.tile(scales, 5)
        want = [r <= tol.abs_eps + tol.rel_eps * abs(s) for r, s in zip(residuals.tolist(), scales.tolist())]
        got = tol.verdicts(residuals, scales)
        assert got.dtype == bool and got.tolist() == want
        assert [bool(tol.verdicts(r, s)) for r, s in zip(residuals[:200].tolist(), scales[:200].tolist())] == want[:200]
        assert not any(want[-len(ties):]) and all(want[len(ties):2 * len(ties)])
