import io
import json
import math
from contextlib import redirect_stdout
from fractions import Fraction

import numpy as np
import pytest

from symspaces import catalog, cli
from symspaces.catalog import (
    MODEL_NAMES,
    TorusLattice,
    build_model,
    parse_model,
    pell_convergents,
)
from symspaces.lts import LinearSubspace, is_ideal, is_subsystem
from symspaces.sympair import MatrixSymmetricPair
from symspaces.symspace import SymPoint, exp_point, lts_of_pair


class TestConstruction:
    def test_all_names_build(self):
        assert set(MODEL_NAMES) == {"sphere", "spd", "grassmann", "torus_abelian", "product"}
        for name in MODEL_NAMES:
            model = build_model(name)
            assert model.pair.dim_minus > 0

    @pytest.mark.parametrize(
        "spec,want",
        [
            ("sphere(2)", 2),
            ("sphere(3)", 3),
            ("spd(2)", 3),
            ("spd(3)", 6),
            ("grassmann(1,3)", 2),
            ("grassmann(2,4)", 4),
            ("grassmann(2,5)", 6),
            ("torus_abelian(sqrt2)", 2),
            ("product(sphere(2),sphere(2))", 4),
            ("product(sphere(2),spd(2))", 5),
        ],
    )
    def test_dimension_formulas(self, spec, want):
        # closed forms: n for spheres, n(n+1)/2 for spd, k(n-k) for grassmann
        model = parse_model(spec)
        assert model.pair.dim_minus == want

    def test_bad_params_rejected(self):
        with pytest.raises(ValueError):
            build_model("grassmann", {"k": 3, "n": 3})
        with pytest.raises(ValueError):
            build_model("sphere", {"n": 1})
        with pytest.raises(ValueError):
            build_model("spd", {"n": 1})
        with pytest.raises(ValueError):
            build_model("nosuch")
        with pytest.raises(ValueError):
            parse_model("sphere(2")

    def test_torus_slope_must_be_exact(self):
        with pytest.raises(ValueError):
            build_model("torus_abelian", {"slope": "pi"})
        rational = build_model("torus_abelian", {"slope": "1/2"})
        assert rational.extras["lattice"].rational == Fraction(1, 2)

    @pytest.mark.parametrize("slope", ["1/0", "0/0", "1e400", Fraction(10**400)])
    def test_torus_slope_must_be_finite(self, slope):
        with pytest.raises(ValueError, match="finite rational"):
            build_model("torus_abelian", {"slope": slope})

    def test_mixed_product_uses_composite_sigma(self):
        model = parse_model("product(sphere(2),spd(2))")
        assert model.pair.sigma.kind == "composite"
        assert model.pair.validate(np.random.default_rng(0), samples=5)["max_residual"] <= 1e-9

    def test_spd_product_keeps_transpose_inverse(self):
        model = parse_model("product(spd(2),spd(2))")
        assert model.pair.sigma.kind == "transpose_inverse"
        assert model.pair.validate(np.random.default_rng(0), samples=5)["max_residual"] <= 1e-9


class TestDesignatedData:
    def test_seeds_are_subsystems_with_correct_ideal_flags(self, models):
        for model in models.values():
            m = lts_of_pair(model.pair)
            for sub in model.designated_subspaces:
                assert is_subsystem(m, sub.seed), (model.name, sub.name)
                assert is_ideal(m, sub.seed) == sub.is_ideal, (
                    model.name,
                    sub.name,
                )

    @pytest.mark.parametrize(
        "spec,names",
        [
            ("product(sphere(2),sphere(2))", ["left_factor", "diagonal"]),
            ("product(grassmann(1,3),sphere(2))", ["left_factor", "diagonal"]),
            # equal dimensions, but spd(2) and sphere(3) have different triple systems
            ("product(spd(2),sphere(3))", ["left_factor"]),
            ("product(sphere(2),torus_abelian(sqrt2))", ["left_factor"]),
        ],
    )
    def test_product_diagonal_only_when_a_subsystem(self, spec, names):
        model = parse_model(spec)
        assert [sub.name for sub in model.designated_subspaces] == names
        if "diagonal" not in names:
            with pytest.raises(KeyError):
                model.subspace_by_name("diagonal")
        n = model.pair.dim_minus // 2
        diag = LinearSubspace(2 * n, np.hstack([np.eye(n), np.eye(n)]))
        assert is_subsystem(lts_of_pair(model.pair), diag) == ("diagonal" in names)

    def test_unknown_subspace_name(self, sphere):
        with pytest.raises(KeyError):
            sphere.subspace_by_name("nope")


# the designated subspaces of every catalog model, in listing order
DESIGNATED_NAMES = {
    "sphere(2)": ["great_circle"],
    "sphere(3)": [],
    "spd(2)": ["diagonal", "center"],
    "spd(3)": ["diagonal", "center"],
    "grassmann(1,3)": ["line"],
    "grassmann(2,5)": ["line"],
    "torus_abelian(sqrt2)": ["dense_line", "axis_line"],
    "torus_abelian(1/2)": ["dense_line", "axis_line"],
    "product(sphere(2),sphere(2))": ["left_factor", "diagonal"],
    "product(spd(3),spd(3))": ["left_factor", "diagonal"],
    "product(grassmann(2,5),grassmann(2,5))": ["left_factor", "diagonal"],
    "product(spd(2),sphere(3))": ["left_factor"],
    "product(sphere(2),spd(2))": ["left_factor"],
}


@pytest.fixture()
def designation_calls(monkeypatch):
    """Spies on the catalog's designation builders and its subsystem test."""
    calls = []
    for name in ("_spd_designated", "_product_designated", "is_subsystem"):
        real = getattr(catalog, name)

        def spy(*args, _name=name, _real=real):
            calls.append((_name, args[-1] if _name != "is_subsystem" else None))
            return _real(*args)

        monkeypatch.setattr(catalog, name, spy)
    return calls


class TestLazyDesignations:
    @pytest.mark.parametrize("spec", sorted(DESIGNATED_NAMES))
    def test_names_and_order_of_every_model(self, spec):
        model = parse_model(spec)
        subs = model.designated_subspaces
        assert [sub.name for sub in subs] == DESIGNATED_NAMES[spec]
        # built once: every request gives the same objects
        assert all(a is b for a, b in zip(subs, model.designated_subspaces))
        assert all(model.subspace_by_name(sub.name) is sub for sub in subs)
        assert model.designated_morphisms is model.designated_morphisms

    def test_verify_builds_no_designated_subspace(self, designation_calls):
        with redirect_stdout(io.StringIO()) as out:
            code = cli.main(["verify", "--model", "product(spd(3),spd(3))", "--seed", "1"])
        assert code in (cli.EXIT_OK, cli.EXIT_CHECK_FAILED) and json.loads(out.getvalue())["exp_functoriality"]
        assert designation_calls == []

    def test_a_named_request_builds_only_that_subspace(self, designation_calls):
        model = parse_model("product(spd(2),spd(2))")
        assert designation_calls == []
        assert model.subspace_by_name("left_factor").name == "left_factor"
        assert designation_calls == [("_product_designated", "left_factor")]
        with pytest.raises(KeyError):
            model.subspace_by_name("center")  # a factor's name, not the product's
        assert [sub.name for sub in model.designated_subspaces] == ["left_factor", "diagonal"]
        assert designation_calls == [
            ("_product_designated", "left_factor"),
            ("_product_designated", "diagonal"),
            ("is_subsystem", None),
        ]
        model.designated_subspaces
        assert len(designation_calls) == 3  # and nothing is built twice

    def test_quotient_builds_only_its_ideal(self, designation_calls):
        with redirect_stdout(io.StringIO()):
            cli.main(["quotient", "--model", "spd(2)", "--ideal", "center", "--seed", "1"])
        assert designation_calls == [("_spd_designated", "center")]


class TestPell:
    def test_pell_identity_exact(self):
        # p^2 - 2 q^2 alternates between -1 and +1: the exact density witness
        for p, q, delta in pell_convergents(20):
            assert p * p - 2 * q * q in (-1, 1)
            assert delta != 0.0

    def test_deltas_shrink(self):
        deltas = [abs(d) for _, _, d in pell_convergents(12)]
        for a, b in zip(deltas, deltas[1:]):
            assert b < a


class TestTorusLattice:
    def test_exact_sqrt2_membership(self):
        lat = TorusLattice("sqrt2")
        # chart witness (0, pi(p - q sqrt2)) for any Pell pair
        for p, q, _ in pell_convergents(6):
            assert lat.member_exact_sqrt2(Fraction(0), Fraction(0), Fraction(p), Fraction(-q))
        # perturbing the rational part off the lattice breaks membership
        assert not lat.member_exact_sqrt2(Fraction(0), Fraction(0), Fraction(1, 3), Fraction(-1))

    def test_exact_rational_membership(self):
        lat = TorusLattice("rational", rational=Fraction(1, 2))
        assert lat.member_exact_rational(Fraction(0), Fraction(1))
        assert not lat.member_exact_rational(Fraction(0), Fraction(1, 3))

    def test_float_membership_cross_checks_exact_witness(self, torus):
        lat = torus.extras["lattice"]
        pair = torus.pair
        p, q, delta = pell_convergents(4)[3]  # 17/12
        point = exp_point(pair, np.array([0.0, math.pi * delta]))
        assert lat.members_float([point], winding=q)[0] is True
        assert lat.members_float([point], winding=5)[0] is False

    def test_random_point_is_not_member(self, torus, rng):
        lat = torus.extras["lattice"]
        point = exp_point(torus.pair, np.array([0.37, 0.41]))
        assert lat.members_float([point])[0] is False

    def test_line_points_on_line_at_zero_winding(self, torus):
        lat = torus.extras["lattice"]
        s = lat.slope
        point = exp_point(torus.pair, 0.2 * np.array([1.0, s]) / math.hypot(1.0, s))
        assert lat.members_float([point], winding=0)[0] is True

    def test_chart_witnesses_certified_and_small(self, torus):
        lat = torus.extras["lattice"]
        for radius in (0.5, 0.1, 0.01, 1e-3):
            ws = lat.chart_witnesses(radius)
            assert ws, f"no witness at radius {radius}"
            for w in ws:
                assert 0 < np.linalg.norm(w.vector) <= radius

    def test_complement_witnesses_lie_in_complement(self, torus):
        lat = torus.extras["lattice"]
        s = lat.slope
        for w in lat.complement_witnesses(0.3):
            v = w.vector
            assert abs(v @ np.array([1.0, s])) <= 1e-12 * max(np.linalg.norm(v), 1.0)

    def test_line_points_converge_to_target(self, torus):
        lat = torus.extras["lattice"]
        pts = lat.line_points_near(0.15, steps=5)
        gaps = [abs(v[1] - 0.15) for v in pts]
        assert gaps[-1] < gaps[0]
        assert gaps[-1] < 5e-3


class TestSerialization:
    def test_pair_descriptor_roundtrip(self, models, tmp_path):
        for model in models.values():
            data = model.pair.to_json()
            text = json.dumps(data)
            back = MatrixSymmetricPair.from_json(json.loads(text), model.pair.tol)
            assert back.ambient_n == model.pair.ambient_n
            assert np.allclose(back.structure_tensor, model.pair.structure_tensor)

    def test_point_serialization(self, sphere):
        x = exp_point(sphere.pair, np.array([0.2, -0.1]))
        data = x.to_json()
        assert data["pair_label"] == sphere.pair.label
        back = SymPoint(sphere.pair, np.asarray(json.loads(json.dumps(data))["cartan"]))
        assert back.same(x)
        assert np.array_equal(back.cartan, x.cartan)

    def test_a_point_read_back_as_a_list_writes_its_json(self, sphere):
        # a point rebuilt from JSON holds the nested list it was given
        data = json.loads(json.dumps(exp_point(sphere.pair, np.array([0.2, -0.1])).to_json()))
        back = SymPoint(sphere.pair, data["cartan"])
        assert json.loads(json.dumps(back.to_json())) == data

    def test_subspace_descriptor(self, torus, spd):
        line = torus.subspace_by_name("dense_line").subspace
        desc = line.descriptor()
        assert desc["kind"] == "generated"
        assert "seed_basis" in desc
        diag = spd.subspace_by_name("diagonal").subspace
        assert diag.descriptor()["constraints"] == "cartan_offdiagonal_zero"


class TestCatalogResiduals:
    def test_every_catalog_lts_below_tight_tolerance(self, models):
        from symspaces.lts import check_lts_axioms

        for model in models.values():
            rep = check_lts_axioms(lts_of_pair(model.pair))
            assert rep.max_residual < 1e-10, model.name
