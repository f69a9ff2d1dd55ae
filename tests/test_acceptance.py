"""Acceptance suite: one test per criterion, at its stated tolerance.

Each test prints a single PASS line on success (run with ``pytest -s`` to
see them); a failure raises through pytest as usual.
"""

import json
import time
from fractions import Fraction

import numpy as np
import pytest

from symspaces.catalog import pell_convergents
from symspaces.cli import EXIT_GATE, main
from symspaces.lts import (
    LinearSubspace,
    check_lts_axioms,
    ideal_bracket_plus_n,
    ideal_ker_psi_plus_n,
    is_ideal,
    quotient_lts,
)
from symspaces.numkernel import DEFAULT_TOL, nullspace
from symspaces.quotient import (
    congruence_from_ideal,
    quotient_theorem_pipeline,
    relation_closure_check,
    weak_submersion_check,
)
from symspaces.reports import reflection_axiom_report
from symspaces.subspace import (
    ChartSplitError,
    base_only,
    exp_chart_split,
    generate_integral,
    lts_of_subspace,
    lts_roundtrip_check,
    mu_closure_check,
    preimage_subspace,
)
from symspaces.symspace import (
    cartan_distance,
    chain_identity_check,
    exp_point,
    lts_of_pair,
    trotter_bracket_sym,
    trotter_sum_sym,
)

E11 = np.array([[1.0, 0.0], [0.0, 0.0]])
S12 = np.array([[0.0, 1.0], [1.0, 0.0]])


def _report(name: str, detail: str) -> None:
    print(f"PASS {name}: {detail}")


def test_criterion_01_axiom_suites(models):
    """All 5 catalog models: LTS + reflection-space residuals < 1e-8, < 10 s."""
    start = time.perf_counter()
    worst = 0.0
    rng = np.random.default_rng(42)
    for model in models.values():
        lts_rep = check_lts_axioms(lts_of_pair(model.pair))
        refl = reflection_axiom_report(model, rng, samples=25)
        worst = max(worst, lts_rep.max_residual, refl["max_residual"])
        assert lts_rep.max_residual < 1e-8, model.name
        assert refl["max_residual"] < 1e-8, model.name
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _report("criterion-1", f"max residual {worst:.2e} over 5 models in {elapsed:.2f}s")


def test_criterion_02_trotter_sum(spd):
    """spd(2), noncommuting unit vectors: err(2^10) < 1e-2; doubling ratio in
    [0.4, 0.6] for k >= 2^6; < 5 s."""
    start = time.perf_counter()
    pair = spd.pair
    x = pair.matrix_to_minus(E11)  # Frobenius norm 1
    y = pair.matrix_to_minus(S12 / np.sqrt(2.0))  # Frobenius norm 1
    target = exp_point(pair, x + y)
    errs = {}
    for kexp in range(4, 13):
        errs[kexp] = cartan_distance(trotter_sum_sym(pair, x, y, 2 ** kexp), target)
    assert errs[10] < 1e-2
    for kexp in range(6, 12):
        ratio = errs[kexp + 1] / errs[kexp]
        assert 0.4 <= ratio <= 0.6, (kexp, ratio)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _report(
        "criterion-2",
        f"err(2^10)={errs[10]:.2e}, ratios in [0.4,0.6], {elapsed:.2f}s",
    )


def test_criterion_03_trotter_bracket(spd):
    """spd(2): (32,32) approximant within 5e-2 of exp_point([[x,y],z]);
    monotone improvement from (8,8); < 30 s.

    Unit-norm inputs cannot meet 5e-2 at (32,32) (see the op-level test that
    freezes their measured errors); the criterion leaves the vectors free, so
    the documented 0.4-scaled directions are used.
    """
    start = time.perf_counter()
    pair = spd.pair
    lam = 0.4
    x = pair.matrix_to_minus(lam * E11)
    y = pair.matrix_to_minus(lam * S12)
    z = x
    xm, ym, zm = lam * E11, lam * S12, lam * E11
    comm = xm @ ym - ym @ xm
    bracket = comm @ zm - zm @ comm
    target = exp_point(pair, pair.matrix_to_minus(bracket))
    errs = []
    for m in (8, 16, 32):
        errs.append(cartan_distance(trotter_bracket_sym(pair, x, y, z, m, m), target))
    assert errs[2] < 5e-2
    assert errs[2] < errs[1] < errs[0]
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _report(
        "criterion-3",
        f"errors {errs[0]:.3e} > {errs[1]:.3e} > {errs[2]:.3e} < 5e-2, {elapsed:.2f}s",
    )


def test_criterion_04_chain_identity(models):
    """100 random 3-term words per model, residual < 1e-9."""
    rng = np.random.default_rng(42)
    worst = 0.0
    for model in models.values():
        pair = model.pair
        for _ in range(100):
            xs = [0.35 * rng.standard_normal(pair.dim_minus) for _ in range(3)]
            ys = [0.35 * rng.standard_normal(pair.dim_minus) for _ in range(3)]
            resid = chain_identity_check(pair, xs, ys)
            worst = max(worst, resid)
            assert resid < 1e-9, model.name
    _report("criterion-4", f"500 words, worst residual {worst:.2e}")


def test_criterion_05_subspace_roundtrip(models, sphere):
    """Round-trip on every (model, designated subsystem); the sphere circle's
    system is 1-dimensional and equals the fixed-point eigenspace."""
    count = 0
    for model in models.values():
        for sub in model.designated_subspaces:
            assert lts_roundtrip_check(sub.seed, model.pair), (model.name, sub.name)
            count += 1
    circle = sphere.subspace_by_name("great_circle")
    extracted = lts_of_subspace(circle.subspace)
    assert extracted.dim == 1
    auto = circle.subspace.automorphism
    eigen = nullspace(auto.minus_map - np.eye(2), DEFAULT_TOL)
    assert extracted.equals(LinearSubspace(2, eigen.T), DEFAULT_TOL)
    _report("criterion-5", f"{count} seed round-trips; circle system is 1-dim eigenspace")


def test_criterion_06_preimage_kernel_law(product):
    """Rank-exact Lts(f^-1(N2)) = A^-1(n2) on 3 catalog morphisms."""
    left = product.subspace_by_name("left_factor").subspace
    by_name = {m.name: m.morphism for m in product.designated_morphisms}
    cases = [
        (by_name["diag_embed"], left, "diag_embed/left_factor"),
        (by_name["swap"], left, "swap/left_factor"),
        (by_name["proj_left"], base_only(by_name["proj_left"].target), "proj_left/kernel"),
    ]
    dims = []
    for f, n2_space, label in cases:
        pre = preimage_subspace(f, n2_space)
        extracted = lts_of_subspace(pre)
        n2 = lts_of_subspace(n2_space)
        comp = n2.complement().basis
        if comp.shape[0]:
            want = LinearSubspace.span(nullspace(comp @ f.minus_map, DEFAULT_TOL).T, f.source.dim_minus, DEFAULT_TOL)
        else:
            want = LinearSubspace.full(f.source.dim_minus)
        assert extracted.dim == want.dim, label
        assert extracted.equals(want, DEFAULT_TOL), label
        dims.append(extracted.dim)
    _report("criterion-6", f"pullback ranks {dims} rank-exact on 3 morphisms")


def test_criterion_07_quotient_theorem_positive(product):
    """S2 x S2 with the factor ideal: pipeline, submersion, tensor match
    within 1e-8, and relates <=> equal projections on 100 chart samples."""
    rng = np.random.default_rng(42)
    sub = product.subspace_by_name("left_factor")
    qr = quotient_theorem_pipeline(product.pair, sub.seed, subspace=sub.subspace, rng=rng)
    assert weak_submersion_check(qr, np.random.default_rng(42), samples=100)["ok"]
    want, _ = quotient_lts(lts_of_pair(product.pair), sub.seed)
    got = lts_of_pair(qr.quotient_pair)
    tensor_gap = float(np.max(np.abs(got.tensor - want.tensor)))
    assert tensor_gap < 1e-8
    sample_rng = np.random.default_rng(7)
    related_count = 0
    for _ in range(100):
        v = 0.15 * sample_rng.standard_normal(4)
        w = 0.15 * sample_rng.standard_normal(4)
        if sample_rng.uniform() < 0.5:
            w[2:] = v[2:]
        x, y = exp_point(product.pair, v), exp_point(product.pair, w)
        related = qr.relation.relates([x], [y])[0]
        assert related is not None
        assert related == qr.projection_points([x])[0].same(qr.projection_points([y])[0])
        related_count += int(related)
    assert 0 < related_count < 100
    _report(
        "criterion-7",
        f"tensor gap {tensor_gap:.1e}, kernel-relation exact on 100 samples",
    )


def test_criterion_08_quotient_theorem_negative(torus, tmp_path):
    """Torus dense line: chart split fails to the floor, cmd_quotient exits 3,
    and the exact oracle certifies the density witnesses."""
    line = torus.subspace_by_name("dense_line")
    n = lts_of_subspace(line.subspace)
    with pytest.raises(ChartSplitError) as exc:
        exp_chart_split(line.subspace, n, np.random.default_rng(42))
    report = exc.value.report
    assert report.radius <= 1e-3
    assert all(violation > 0 for _, violation in report.history)

    out = tmp_path / "torus.json"
    code = main(
        ["quotient", "--model", "torus_abelian(sqrt2)", "--ideal", "dense_line",
         "--out", str(out), "--seed", "42"]
    )
    assert code == EXIT_GATE
    gate = json.loads(out.read_text())
    assert gate["ok"] is False

    # exact-rational density certificate: nonzero lattice-line points with
    # |pi (p - q sqrt 2)| below any radius; p^2 - 2 q^2 = +-1 exactly
    lattice = torus.extras["lattice"]
    for p, q, delta in pell_convergents(14):
        assert p * p - 2 * q * q in (-1, 1)
        assert lattice.member_exact_sqrt2(Fraction(0), Fraction(0), Fraction(p), Fraction(-q))
    smallest = abs(pell_convergents(14)[-1][2]) * np.pi
    assert smallest < 1e-4
    _report(
        "criterion-8",
        f"chart floor reached, exit 3, exact witnesses down to {smallest:.1e}",
    )


def test_criterion_09_ideal_constructions(models):
    """span[g-,n] (+) n inside ker(psi) (+) n on every applicable catalog
    case, both re-verified as theta-invariant Lie ideals by direct brackets."""
    cases = 0
    for model in models.values():
        pair = model.pair
        g = pair.algebra()
        m = lts_of_pair(pair)
        seeds = [LinearSubspace.zero(pair.dim_minus), LinearSubspace.full(pair.dim_minus)]
        seeds += [sub.seed for sub in model.designated_subspaces]
        for seed in seeds:
            if not is_ideal(m, seed):
                continue
            n_full = pair.minus_subspace_to_full(seed)
            l_brk = ideal_bracket_plus_n(g, n_full)
            l_psi = ideal_ker_psi_plus_n(g, n_full)
            assert l_psi.contains_subspace(l_brk, pair.tol), model.name
            for l in (l_brk, l_psi):
                for row in l.basis:
                    assert l.contains_all(g.theta @ row, pair.tol)
                    assert l.contains_all(g.brackets(row[None], np.eye(g.dim))[0], pair.tol)
            cases += 1
    assert cases >= 8
    _report("criterion-9", f"{cases} applicable cases, containment and ideal checks hold")


def test_criterion_10_determinism(tmp_path):
    """Two runs with --seed 42 produce byte-identical JSON reports."""
    argvs = [
        ["verify", "--model", "product(sphere(2),sphere(2))", "--seed", "42"],
        ["quotient", "--model", "product(sphere(2),sphere(2))",
         "--ideal", "left_factor", "--seed", "42"],
        ["subspace", "--model", "torus_abelian(sqrt2)", "--seed", "42"],
    ]
    for i, argv in enumerate(argvs):
        a = tmp_path / f"a{i}.json"
        b = tmp_path / f"b{i}.json"
        main(argv + ["--out", str(a)])
        main(argv + ["--out", str(b)])
        assert a.read_bytes() == b.read_bytes(), argv
    _report("criterion-10", "verify/quotient/subspace reports byte-identical")


def test_criterion_11_mu_closure(models, rng):
    """The integral subspace generated by every designated seed is closed
    under the point product: no sampled mu(x, y) of two members is a definite
    non-member."""
    count = 0
    for model in models.values():
        for sub in model.designated_subspaces:
            space = generate_integral(sub.seed, model.pair)
            assert mu_closure_check(space, rng), (model.name, sub.name)
            count += 1
    _report("criterion-11", f"{count} generated subspaces closed under mu")


def test_criterion_12_relation_closure(sphere, product, torus):
    """The congruence of an ideal is closed (sequentially stable) for the zero
    ideal of S2 and the factor ideal of S2 x S2; the torus dense-line relation
    is not, and names an escaping limit pair (the necessity direction)."""
    closed = [
        congruence_from_ideal(sphere.pair, LinearSubspace.zero(2)),
        congruence_from_ideal(product.pair, LinearSubspace(4, np.eye(4)[:2])),
    ]
    for rel in closed:
        assert relation_closure_check(rel, np.random.default_rng(42))["ok"]
    dense = relation_closure_check(torus.extras["line_relation"], np.random.default_rng(42))
    assert not dense["ok"]
    assert "escape" in dense["witness"]
    _report("criterion-12", "zero and factor ideals closed; dense line escapes")
