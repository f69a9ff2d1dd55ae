"""The verify path's O(m^4) axiom check and batched triple tensor agree with
the direct formulas they replaced."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symspaces.catalog import parse_model
from symspaces.lts import LieTripleSystem, VerificationError, check_lts_axioms
from symspaces.numkernel import DEFAULT_TOL
from symspaces.sympair import MatrixSymmetricPair
from symspaces.symspace import lts_of_pair

from oracles import oracle_lts_tensor  # the per-element matrix build

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
