"""The verify path's O(m^4) axiom check, blocked Jacobi residual and batched
triple tensor agree with the direct formulas they replaced."""

import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symspaces import lts
from symspaces.catalog import parse_model
from symspaces.lts import LieTripleSystem, SymmetricLieAlgebra, VerificationError, check_lts_axioms
from symspaces.reports import verify_algebra
from symspaces.numkernel import DEFAULT_TOL
from symspaces.sympair import MatrixSymmetricPair
from symspaces.symspace import lts_of_pair

from oracles import count_calls, load_case_bytes, oracle_algebra_validate, oracle_lts_axioms, oracle_lts_tensor

ROOT = Path(__file__).resolve().parent.parent

# the models of the benchmark's verify ladder, m = 2 to 15
VERIFY_LADDER = (
    "sphere(2)",
    "sphere(3)",
    "sphere(4)",
    "sphere(5)",
    "spd(2)",
    "spd(3)",
    "spd(4)",
    "spd(5)",
    "grassmann(2,5)",
    "product(sphere(3),sphere(3))",
    "product(spd(3),spd(3))",
    "product(grassmann(2,5),grassmann(2,5))",
)


def einsum_axioms(c: np.ndarray) -> tuple[float, float, float]:
    """The three residuals from the full six-index formula (the oracle)."""
    if c.shape[0] == 0:
        return 0.0, 0.0, 0.0
    anti = float(np.max(np.abs(c + c.transpose(1, 0, 2, 3))))
    cyc = float(np.max(np.abs(c + c.transpose(1, 2, 0, 3) + c.transpose(2, 0, 1, 3))))
    lhs = np.einsum("uvwm,abml->abuvwl", c, c)
    rhs = (
        np.einsum("abum,mvwl->abuvwl", c, c)
        + np.einsum("abvm,umwl->abuvwl", c, c)
        + np.einsum("abwm,uvml->abuvwl", c, c)
    )
    return anti, cyc, float(np.max(np.abs(lhs - rhs)))


def assert_matches_oracle(c: np.ndarray):
    rep = check_lts_axioms(LieTripleSystem(c.shape[0], c))
    got = (rep.antisymmetry, rep.cyclic, rep.derivation)
    want = einsum_axioms(c)
    # the derivation residual is a difference of sums of dim products of entries
    scale = float(np.max(np.abs(c), initial=0.0)) ** 2 * c.shape[0]
    for g, w in zip(got, want):
        assert g == w or (np.isnan(g) and np.isnan(w)) or abs(g - w) <= 1e-12 * max(abs(w), scale)


def sphere_formula(dim: int) -> np.ndarray:
    t = np.zeros((dim,) * 4)
    for i in range(dim):
        for j in range(dim):
            t[i, j, j, i] += 1.0
            t[i, j, i, j] -= 1.0
    return t


def constructed_violations() -> list:
    anti = np.zeros((2,) * 4)
    anti[0, 0, 1, 0] = 1.0  # [e1, e1, e2] = e1 breaks [x,x,y] = 0
    corrupted = sphere_formula(2)
    corrupted[0, 0, 1, 0] = 1.0
    derivation = sphere_formula(3)
    derivation[0, 1, 0, 1] *= 2.0  # antisymmetric, no longer a derivation
    derivation[1, 0, 0, 1] *= 2.0
    return [anti, corrupted, derivation]


@pytest.fixture(scope="module")
def ladder():
    return {spec: parse_model(spec) for spec in VERIFY_LADDER}


class TestAxiomCheck:
    @settings(deadline=None, max_examples=60)
    @given(st.integers(0, 10 ** 6), st.integers(0, 6), st.sampled_from([1e-3, 1.0, 1e3]))
    def test_random_tensors_match_the_einsum_formula(self, seed, d, scale):
        c = scale * np.random.default_rng(seed).standard_normal((d,) * 4)
        assert_matches_oracle(c)

    @settings(deadline=None, max_examples=40)
    @given(st.integers(0, 10 ** 6), st.integers(1, 6))
    def test_antisymmetric_tensors_with_zero_inner_maps_match(self, seed, d):
        # exercises the skipped inner maps: zero ones and the (b, a) mirrors
        rng = np.random.default_rng(seed)
        c = rng.standard_normal((d,) * 4)
        c -= c.transpose(1, 0, 2, 3)
        zero = rng.random((d, d)) < 0.4
        c[zero | zero.T] = 0.0
        assert_matches_oracle(c)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_entries_propagate(self):
        for bad in (np.nan, np.inf):
            c = np.zeros((3,) * 4)
            c[0, 1, 2, 0], c[1, 0, 2, 0] = bad, -bad
            assert_matches_oracle(c)
            assert not check_lts_axioms(LieTripleSystem(3, c)).passed(DEFAULT_TOL)

    @pytest.mark.parametrize("case", range(3))
    def test_constructed_violations_match_the_einsum_formula(self, case):
        c = constructed_violations()[case]
        assert_matches_oracle(c)
        assert not check_lts_axioms(LieTripleSystem(c.shape[0], c)).passed(DEFAULT_TOL)

    def test_derivation_violation_alone_is_reported(self):
        c = constructed_violations()[2]
        rep = check_lts_axioms(LieTripleSystem(3, c))
        assert rep.antisymmetry == 0.0
        assert rep.derivation >= 1.0

    def test_small_ladder_models_match(self, ladder):
        # up to m = 6, where the oracle's six-index arrays stay small
        for spec in VERIFY_LADDER[:6]:
            assert_matches_oracle(np.asarray(lts_of_pair(ladder[spec].pair).tensor))

    def test_memory_stays_order_m4(self):
        # the six-index form would hold 20^6 doubles (~512 MB) per intermediate
        c = np.random.default_rng(5).standard_normal((20,) * 4)
        m = LieTripleSystem(20, c)
        tracemalloc.start()
        try:
            check_lts_axioms(m)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20


def traced_peak(f) -> int:
    """The tracemalloc high-water mark of one call of ``f``, in bytes."""
    tracemalloc.start()
    try:
        f()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# check_lts_axioms on spd(5) (dim 15) when each inner map also permuted two
# copies of the tensor: its tracemalloc peak in bytes, the bound it may not pass
PERMUTED_COPIES_PEAK = 2_093_997


class TestMemoryBudget:
    def test_validate_holds_no_d4_array(self, ladder):
        # one (25,)*4 array of the spd(5) algebra is 3.1 MB; the d^4 body peaked at 9.4 MB
        assert traced_peak(ladder["spd(5)"].pair.algebra().validate) < 10**6

    def test_the_derivation_check_peaks_no_higher_than_with_permuted_copies(self, ladder):
        m = lts_of_pair(ladder["spd(5)"].pair)
        assert traced_peak(lambda: check_lts_axioms(m)) <= PERMUTED_COPIES_PEAK


def same_residuals(got, want) -> bool:
    """Equal bits, NaN matching any NaN."""
    return all(np.isnan(g) and np.isnan(w) or np.float64(g).tobytes() == np.float64(w).tobytes() for g, w in zip(got, want))


def residuals(c: np.ndarray) -> tuple:
    rep = check_lts_axioms(LieTripleSystem(c.shape[0], c))
    return rep.antisymmetry, rep.cyclic, rep.derivation


def inner_map_classes(c: np.ndarray) -> int:
    """The number of nonzero finite inner maps c[a, b] that differ up to sign,
    compared on exact bits with -0.0 read as 0.0, one map at a time."""
    d = c.shape[0]
    keys = set()
    for op in c.reshape(d * d, d * d):
        if op.any() and np.isfinite(op).all():
            lead = op[np.flatnonzero(op)[0]]
            keys.add(((op if lead > 0 else -op) + 0.0).tobytes())
    return len(keys)


def evaluations(c: np.ndarray) -> int:
    """The inner maps the check evaluates: one per class, and each map with a non-finite entry."""
    ops = c.reshape(len(c) ** 2, -1)
    return inner_map_classes(c) + int(np.count_nonzero(~np.isfinite(ops).all(axis=1)))


@st.composite
def planted_tensors(draw):
    """Random tensors in which some inner maps are copies of others, each
    copy with its mirror c[b, a] set to its negation: equal, negated, equal
    with their zeros read as -0.0, or (a distinct map) with the signs of some
    entries flipped.  Optionally a NaN or an infinity sits inside a map that
    may be copied, or the entries are large enough that some residuals
    overflow to inf and some to NaN."""
    d = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 10**6)))
    c = rng.standard_normal((d,) * 4) * draw(st.sampled_from([1.0, 1e154]))
    c[rng.random(c.shape) < 0.3] = 0.0
    bad = draw(st.sampled_from([None, np.nan, np.inf, -np.inf]))
    if bad is not None:
        c[tuple(rng.integers(0, d, 4))] = bad
    for _ in range(draw(st.integers(1, 2 * d * d))):
        a, b, x, y = rng.integers(0, d, 4)
        op = c[x, y].copy()
        how = draw(st.sampled_from(["copy", "negate", "negative_zeros", "flip_some"]))
        if how == "negate":
            op = -op  # its zeros become -0.0
        elif how == "negative_zeros":
            op[op == 0.0] = -0.0
        elif how == "flip_some":
            op[rng.random(op.shape) < 0.5] *= -1.0
        c[a, b] = op
        if a != b:
            c[b, a] = -op
    return c


class TestDistinctInnerMaps:
    def test_bits_equal_the_per_pair_body_on_the_verify_ladder(self, ladder):
        for spec, model in ladder.items():
            m = lts_of_pair(model.pair)
            assert same_residuals(residuals(m.tensor), oracle_lts_axioms(m)), spec

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @settings(deadline=None, max_examples=80)
    @given(planted_tensors())
    def test_bits_equal_the_per_pair_body_with_planted_copies(self, c):
        with pytest.MonkeyPatch.context() as mp:
            calls = count_calls(mp, lts, "_derivation_residual")
            got = residuals(c)
        assert same_residuals(got, oracle_lts_axioms(LieTripleSystem(c.shape[0], c)))
        assert len(calls) == evaluations(c)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_a_copied_non_finite_map_is_evaluated_each_time(self, monkeypatch, bad):
        c = sphere_formula(3)
        c[0, 1, 2, 0], c[1, 0, 2, 0] = bad, -bad
        c[0, 2], c[2, 0] = c[0, 1], c[1, 0]
        calls = count_calls(monkeypatch, lts, "_derivation_residual")
        got = residuals(c)
        assert same_residuals(got, oracle_lts_axioms(LieTripleSystem(3, c))) and not np.isfinite(got[2])
        # the four maps with a non-finite entry, and one per class of the other nonzero maps
        assert len(calls) == evaluations(c) == 4 + 1

    @pytest.mark.parametrize(
        "spec,maps,distinct",
        [("grassmann(2,5)", 18, 4), ("product(grassmann(2,5),grassmann(2,5))", 36, 8), ("spd(5)", 100, 22)],
    )
    def test_each_class_of_inner_maps_is_evaluated_once(self, monkeypatch, spec, maps, distinct):
        # the tensor is built at one BLAS thread, where the class count of spd(5)
        # is recorded; at two threads two of its maps differ by about 1e-33
        case_bytes = load_case_bytes()
        with case_bytes._blas_threads(1):
            c = lts_of_pair(parse_model(spec).pair).tensor
        calls = count_calls(monkeypatch, lts, "_derivation_residual")
        check_lts_axioms(LieTripleSystem(c.shape[0], c))
        assert int(np.count_nonzero(c.reshape(len(c) ** 2, -1).any(axis=1))) == maps
        assert len(calls) == inner_map_classes(c)
        recorded = json.loads((ROOT / "tests" / "data" / "case_digests.json").read_text())["environment"]
        if case_bytes.environment() == recorded:
            assert len(calls) == distinct


def same_report(got: dict, want: dict) -> bool:
    return list(got) == list(want) and same_residuals(list(got.values()), list(want.values()))


@st.composite
def bracket_tensors(draw):
    """A random bracket tensor with d from 0 to 12 and a random involution,
    with the Jacobi block budget to run it at: the module's, or one of 1, 2
    or 5 first indices a block.  Optionally a NaN or an infinity sits at a
    first index ``i0`` whose block is not the last, or the row ``b[i0]`` is
    scaled to 1e300, whose products overflow in the block of ``i0`` alone."""
    d = draw(st.integers(0, 12))
    rng = np.random.default_rng(draw(st.integers(0, 10**6)))
    b = rng.standard_normal((d,) * 3) * draw(st.sampled_from([1e-3, 1.0, 1e3]))
    if draw(st.booleans()):
        b -= b.transpose(1, 0, 2)
    per_block = draw(st.sampled_from([None, 1, 2, 5]))
    floats = lts._JACOBI_BLOCK_FLOATS if per_block is None else per_block * d**3
    step = max(1, floats // max(1, d**3))
    last = (d - 1) // step * step if d else 0  # the first index of the last block
    plant = draw(st.sampled_from([None, np.nan, np.inf, 1e300]))
    if plant is not None and last > 0:
        i0 = int(rng.integers(0, last))
        if plant == 1e300:
            b[i0] = np.sign(b[i0]) * plant
        else:
            b[i0, rng.integers(0, d), rng.integers(0, d)] = plant
    theta = np.diag(rng.choice([-1.0, 1.0], size=d)) if d else np.zeros((0, 0))
    return b, theta, floats


class TestBlockedJacobi:
    def test_bits_equal_the_d4_body_on_the_verify_ladder(self, ladder):
        for spec, model in ladder.items():
            g = model.pair.algebra()
            assert same_report(g.validate(), oracle_algebra_validate(g)), spec

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @settings(deadline=None, max_examples=120)
    @given(bracket_tensors())
    def test_bits_equal_the_d4_body_on_random_tensors(self, case):
        b, theta, floats = case
        g = SymmetricLieAlgebra.from_eigensplit(b, theta, tol=DEFAULT_TOL)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(lts, "_JACOBI_BLOCK_FLOATS", floats)
            got = g.validate()
        assert same_report(got, oracle_algebra_validate(g))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_a_nan_in_a_block_before_the_last_is_the_residual(self, monkeypatch, ladder):
        # the row b[0] of so(4) scaled to 1e300 overflows in the block of the first
        # index 0 alone, where [e_0,[e_0,e_k]] - [e_0,[e_0,e_k]] is inf - inf; a
        # maximum that drops a NaN (Python's max(0.0, nan) is 0.0) would read finite
        g = ladder["sphere(3)"].pair.algebra()
        b = np.array(g.bracket_tensor)
        b[0] = np.sign(b[0]) * 1e300
        jac = np.einsum("jkm,iml->ijkl", b, b) - np.einsum("ijm,mkl->ijkl", b, b) - np.einsum("ikm,jml->ijkl", b, b)
        assert np.isnan(jac[0]).any() and np.isfinite(jac[1:]).all()
        bad = SymmetricLieAlgebra(g.dim, b, g.theta, g.plus_basis, g.minus_basis, tol=g.tol)
        monkeypatch.setattr(lts, "_JACOBI_BLOCK_FLOATS", 1)  # one first index a block
        rep = bad.validate()
        assert np.isnan(rep["jacobi"]) and same_report(rep, oracle_algebra_validate(bad))

    def test_a_planted_violation_is_reported(self, ladder):
        g = ladder["sphere(3)"].pair.algebra()
        b = np.array(g.bracket_tensor)
        b[0, 1] *= 2.0  # [e_0, e_1] doubled, and its mirror: still antisymmetric
        b[1, 0] *= 2.0
        bad = SymmetricLieAlgebra(g.dim, b, g.theta, g.plus_basis, g.minus_basis, tol=g.tol)
        rep = bad.validate()
        assert same_report(rep, oracle_algebra_validate(bad))
        assert rep["antisymmetry"] == rep["theta_automorphism"] == 0.0 and rep["jacobi"] >= 0.5
        assert g.validate()["jacobi"] < 1e-12
        assert verify_algebra(bad)["ok"] is False


class TestBatchedTripleSystem:
    def test_equals_the_per_element_loop_on_the_verify_ladder(self, ladder):
        for spec, model in ladder.items():
            got = lts_of_pair(model.pair).tensor
            want = oracle_lts_tensor(model.pair)
            assert got.shape == want.shape, spec
            scale = max(float(np.max(np.abs(want), initial=0.0)), 1.0)
            assert np.max(np.abs(got - want), initial=0.0) <= 1e-14 * scale, spec

    def test_subset_of_the_minus_basis_raises_with_its_residual(self, spd):
        full = spd.pair
        pair = MatrixSymmetricPair(
            ambient_n=full.ambient_n,
            plus_mats=full.plus_mats,
            minus_mats=full.minus_mats[[0, 2]],  # diag(1, 0) and the off-diagonal direction
            sigma=full.sigma,
        )
        # the triple system comes from the algebra, whose commutators leave the span
        with pytest.raises(
            VerificationError, match=r"^algebra basis is not closed under commutator: .*\(residual \d\.\d\de[+-]\d+\)"
        ):
            lts_of_pair(pair)


class TestSharedAlgebra:
    def test_algebra_is_built_once(self, sphere):
        pair = sphere.pair
        g = pair.algebra()
        assert pair.algebra() is g
        assert g.bracket_tensor is pair.structure_tensor

    def test_shared_tensors_are_read_only(self, sphere):
        g = sphere.pair.algebra()
        for arr in (sphere.pair.structure_tensor, g.bracket_tensor, g.theta):
            with pytest.raises(ValueError, match="read-only"):
                arr[...] = 0.0
