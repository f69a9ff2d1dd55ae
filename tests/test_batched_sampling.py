"""The batched samplers of the quotient path against per-sample loops.

Each sampler oracle below draws its samples as the sampler's docstring
writes, one sized call per distribution, and then runs the per-sample
body: every point from its own ``exp_point``, every projection and every
algebraic or lattice membership one point at a time.  The batched code must
give the same result, bit for bit, and leave the generator in the same
state.  The draws themselves are a generator call each, never one per
sample (:class:`TestOneDrawPerDistribution`).
"""

import contextlib
import dataclasses
import io
import tracemalloc

import numpy as np
import pytest
from oracles import count_calls, same_bits, same_point

from symspaces import numkernel, subspace, symspace
from symspaces.catalog import TORUS_RELATION_GRID, TorusLattice, parse_model
from symspaces.cli import main
from symspaces.lts import LinearSubspace, is_subsystem
from symspaces.numkernel import DEFAULT_TOL, Tolerance, nullspace
from symspaces.quotient import (
    PointProjection,
    congruence_from_ideal,
    quotient_theorem_pipeline,
    relation_closure_check,
    weak_submersion_check,
)
from symspaces.subspace import (
    CERTIFICATION_GRID,
    CertificationError,
    ChartReport,
    ChartSplitError,
    _ball_samples,
    algebraic_subspace,
    base_only,
    exp_chart_split,
    generate_integral,
    lts_of_subspace,
    mu_closure_check,
    split_complement_criterion,
    whole_space,
)
from symspaces.symspace import (
    MAX_STACK_FLOATS,
    SymPoint,
    base_point,
    exp_point,
    exp_points,
    lts_of_pair,
    mu,
    tau_action,
)

MODELS = ("sphere(2)", "spd(2)", "grassmann(1,3)", "torus_abelian(sqrt2)", "product(sphere(2),sphere(2))")


def rng_pair(seed):
    return np.random.default_rng(seed), np.random.default_rng(seed)


def same_state(a: np.random.Generator, b: np.random.Generator) -> bool:
    return a.bit_generator.state == b.bit_generator.state


def set_block(monkeypatch, width, floats_per_item, block):
    """Shrink ``symspace.MAX_STACK_FLOATS``, which every block size is taken
    from, so that ``block`` items of ``floats_per_item`` matrices of size
    ``width`` fill one stack."""
    monkeypatch.setattr(symspace, "MAX_STACK_FLOATS", block * floats_per_item * width**2)


def submersion_width(qr) -> int:
    return max(qr.relation.pair.ambient_n, qr.quotient_pair.ambient_n)


# ---------------------------------------------------------------------------
# the per-sample oracles


def oracle_ball_samples(rng: np.random.Generator, basis: np.ndarray, radius: float, count: int) -> np.ndarray:
    """``count`` uniform-ish samples in the given span with norm <= radius
    (nonzero): all directions, then all scales, each from one sized draw."""
    directions = rng.standard_normal((count, basis.shape[0]))
    scales = rng.uniform(0.2, 1.0, count)
    units = np.array([u / max(np.linalg.norm(u), 1e-300) for u in directions]).reshape(directions.shape)
    mapped = units @ basis  # the span map of all rows in one product, as documented
    return np.array([radius * s * row for s, row in zip(scales, mapped)]).reshape(mapped.shape)


def oracle_algebraic_member(space, x: SymPoint) -> bool:
    res = np.asarray(space.constraints(x.cartan[None])[0], dtype=float)
    scale = max(float(np.linalg.norm(x.cartan)), 1.0)
    tol = space.pair.tol
    return float(np.linalg.norm(res)) <= tol.abs_eps + tol.rel_eps * abs(scale)


def oracle_member_float(lattice: TorusLattice, point: SymPoint, winding: int = 64, thresh: float = 1e-9) -> bool:
    w1, w2 = lattice.half_angles(point)
    s = lattice.slope
    a = np.arange(-winding, winding + 1, dtype=float)
    r = s * (w1 + np.pi * a) - w2
    dist = np.abs(r - np.pi * np.round(r / np.pi))
    return bool(np.min(dist) <= thresh)


def oracle_mu_closure(n_space, rng, samples=30, scale=0.15) -> bool:
    pair = n_space.pair
    if n_space.seed is not None and n_space.seed.dim > 0:
        basis = n_space.seed.basis
    else:
        basis = np.eye(pair.dim_minus)
    uv = oracle_ball_samples(rng, basis, scale, 2 * samples)
    for i in range(samples):
        x, y = exp_point(pair, uv[2 * i]), exp_point(pair, uv[2 * i + 1])
        if n_space.member(x) is not True or n_space.member(y) is not True:
            continue
        if n_space.member(mu(x, y)) is False:
            return False
    return True


def oracle_project(proj: PointProjection, x: SymPoint) -> SymPoint:
    pair, qpair, comp = proj.source, proj.target, proj.comp
    if x.pair is not pair:
        raise ValueError("point does not belong to the given pair")
    if not comp.shape[0]:
        return SymPoint(qpair, np.eye(1))
    c = x.cartan
    moved = c @ proj.comp_mats @ np.linalg.inv(c)
    pair.matrix_coords(moved)  # the residual test of each matrix
    coords = moved.reshape(len(moved), -1) @ pair._basis_pinv  # one (d', n*n) @ (n*n, d) product
    return SymPoint(qpair, comp @ coords.T)


def oracle_submersion(qr, rng, samples=100, project=None) -> dict:
    pair = qr.relation.pair
    tol = pair.tol
    block = project
    project = (lambda x: block([x])[0]) if block else (lambda x: oracle_project(qr.projection_points, x))
    a = qr.projection_algebra
    m_out = qr.quotient_pair.dim_minus
    if a.size:
        ok = np.linalg.matrix_rank(a) == m_out
        ker = nullspace(a, tol).T
    else:
        ok = m_out == 0
        ker = np.eye(pair.dim_minus)
    ok = ok and LinearSubspace(pair.dim_minus, ker).equals(qr.relation.n_minus, tol)

    uv = 0.2 * rng.standard_normal((2, samples, pair.dim_minus))
    flips = rng.uniform(size=samples) < 0.3
    words = iter(0.2 * rng.standard_normal((int(flips.sum()), 1, pair.dim)))
    morph_pass = rel_pass = rel_total = 0
    for u, v, translated in zip(uv[0], uv[1], flips):
        x0, y = exp_point(pair, u), exp_point(pair, v)
        x = tau_action(pair, pair.exp(pair.to_matrix(next(words)[0])), x0) if translated else x0
        px0, py = project(x0), project(y)
        px = project(x) if translated else px0
        morph_pass += int(project(mu(x, y)).same(mu(px, py)))
        related = qr.relation.relates([x0], [y])[0]
        if related is not None:
            rel_total += 1
            rel_pass += int(related == px0.same(py))
    return {
        "ok": bool(ok and morph_pass == samples),
        "sample_pass_rates": {
            "projection_morphism": morph_pass / samples,
            "kernel_relation": rel_pass / rel_total if rel_total else 1.0,
        },
    }


def oracle_closure_pairs(relation, rng, samples=10, steps=5) -> list:
    """Per sample, its constructed pair and its translated pairs, from the documented draws."""
    pair = relation.pair
    uw = rng.standard_normal((2, samples, pair.dim_minus))
    directions = 0.2 * rng.standard_normal((samples, pair.dim))
    out = []
    for u, w, direction in zip(0.2 * uw[0], 0.1 * uw[1], directions):
        wn = relation.n_minus.project(w)
        x = exp_point(pair, u)
        y = SymPoint.from_group(pair, pair.exp(pair.minus_to_matrix(u)) @ pair.exp(pair.minus_to_matrix(wn)))
        gs = [pair.exp(0.2 / 2.0**i * pair.to_matrix(direction)) for i in range(steps)]
        out.append(((x, y), [(tau_action(pair, g, x), tau_action(pair, g, y)) for g in gs]))
    return out


def oracle_relation_closure(relation, rng, samples=10, steps=5) -> dict:
    for (x, y), translates in oracle_closure_pairs(relation, rng, samples, steps):
        if relation.relates([x], [y]) == [False]:
            return {"ok": False, "witness": "constructed related pair rejected"}
        if False in relation.relates([gx for gx, _ in translates], [gy for _, gy in translates]):
            return {"ok": False, "witness": "tau translate left the relation"}
    if relation.sequence_probes is not None:
        for seq, (lx, ly) in relation.sequence_probes():
            if False in relation.relates([xi for xi, _ in seq], [yi for _, yi in seq]):
                return {"ok": False, "witness": "probe sequence not inside the relation"}
            if relation.relates([lx], [ly]) != [True]:
                return {"ok": False, "witness": "limit of a related sequence escapes the relation"}
    return {"ok": True, "witness": None}


def oracle_chart_split(n_space, n, rng, samples=40, start_radius=1.0, floor=1e-3) -> ChartReport:
    pair = n_space.pair
    m = pair.dim_minus
    history = []
    radius = start_radius
    free = np.eye(m)
    while True:
        violation = 0.0
        witness = None
        inside = oracle_ball_samples(rng, n.basis, radius, samples if n.dim else 0)
        ws = oracle_ball_samples(rng, free, radius, samples)
        for v in inside:
            if n_space.member(exp_point(pair, v)) is False:
                violation = max(violation, float(np.linalg.norm(v)))
                witness = v
        for w in ws:
            gap = n.distance(w)
            if gap > 0.05 * radius and n_space.member(exp_point(pair, w)) is True:
                violation = max(violation, gap)
                witness = w
        if n_space.probes is not None:
            for probe in n_space.probes(radius, None):
                w = np.asarray(probe.vector, dtype=float)
                if np.linalg.norm(w) <= radius:
                    gap = n.distance(w)
                    if gap > pair.tol.abs_eps + pair.tol.rel_eps * 1.0:
                        violation = max(violation, gap)
                        witness = w
        history.append((radius, violation))
        if violation == 0.0:
            return ChartReport(True, radius, 0.0, None, tuple(history))
        if radius <= floor:
            report = ChartReport(False, radius, violation, witness, tuple(history))
            raise ChartSplitError(f"no chart-split radius above floor {floor}", report)
        radius /= 2.0


def oracle_split_complement(n_space, n, f_comp, rng, samples=200, radius=0.5) -> bool:
    pair = n_space.pair
    if f_comp.dim == 0:
        return True
    for w in oracle_ball_samples(rng, f_comp.basis, radius, samples):
        if np.linalg.norm(w) < 1e-6:
            continue
        if n_space.member(exp_point(pair, w)) is True:
            return False
    if n_space.probes is not None:
        for probe in n_space.probes(radius, f_comp):
            w = np.asarray(probe.vector, dtype=float)
            if 1e-12 < np.linalg.norm(w) <= radius and f_comp.distance(w) <= pair.tol.abs_eps + pair.tol.rel_eps * 1.0:
                return False
    return True


def oracle_algebraic_candidate(space) -> LinearSubspace:
    pair, m, tol = space.pair, space.pair.dim_minus, space.pair.tol
    h = 1e-6
    cols = []
    for i in range(m):
        e = np.zeros(m)
        e[i] = 1.0
        fp = np.asarray(space.constraints(exp_point(pair, h * e).cartan[None])[0], dtype=float)
        fm = np.asarray(space.constraints(exp_point(pair, -h * e).cartan[None])[0], dtype=float)
        cols.append((fp - fm) / (2.0 * h))
    jac = np.array(cols).T if cols else np.zeros((0, m))
    if jac.ndim == 1:
        jac = jac.reshape(1, -1)
    fd_tol = Tolerance(abs_eps=max(tol.abs_eps, 1e-8), rel_eps=max(tol.rel_eps, 1e-7))
    return LinearSubspace._wrap(m, nullspace(jac, fd_tol).T)  # the kernel rows, not cut again


def oracle_lts_of_subspace(n_space) -> LinearSubspace:
    pair = n_space.pair
    if n_space.member(base_point(pair)) is False:
        raise CertificationError("subspace does not contain the base point", witness=(None, 0.0))
    cand = n_space.candidate_subspace()
    for v in cand.basis:
        for t in CERTIFICATION_GRID:
            if n_space.member(exp_point(pair, t * v)) is False:
                raise CertificationError(f"candidate ray failed membership at t={t}", witness=(v, t))
    if not is_subsystem(lts_of_pair(pair), cand):
        raise CertificationError("candidate is not a triple subsystem", witness=(cand.basis, None))
    return cand


# ---------------------------------------------------------------------------
# fixtures


@pytest.fixture(scope="module")
def spaces(models):
    """(label, subspace, certified system) for every designated subspace of the conftest models."""
    out = []
    for spec in MODELS:
        model = models[spec]
        for sub in model.designated_subspaces:
            space = sub.subspace if sub.subspace is not None else generate_integral(sub.seed, model.pair)
            out.append((f"{spec} {sub.name}", space, lts_of_subspace(space)))
    return out


@pytest.fixture(scope="module")
def quotients(models):
    """Every quotient of the conftest models that the pipeline builds, zero and full ideals included."""
    out = []
    for spec in MODELS:
        pair = models[spec].pair
        m = pair.dim_minus
        ideals = [("zero", LinearSubspace.zero(m)), ("full", LinearSubspace.full(m))]
        ideals += [(s.name, s.seed) for s in models[spec].designated_subspaces if s.is_ideal]
        for name, n in ideals:
            try:
                qr = quotient_theorem_pipeline(pair, n, rng=np.random.default_rng(7))
            except (ValueError, RuntimeError):
                continue
            out.append((f"{spec} / {name}", qr))
    return out


def chart_outcome(call):
    try:
        return call().as_dict()
    except ChartSplitError as exc:
        return ("raised", str(exc), exc.report.as_dict())


# ---------------------------------------------------------------------------
# the samplers


class TestWeakSubmersionCheck:
    def test_quotients_cover_both_branches(self, quotients):
        d_outs = {qr.projection_points.comp.shape[0] for _, qr in quotients}
        assert 0 in d_outs and len(d_outs) > 1
        assert len(quotients) >= 8

    @pytest.mark.parametrize("seed,samples", [(0, 100), (42, 40)])
    def test_matches_the_per_sample_loop(self, quotients, seed, samples):
        for label, qr in quotients:
            a, b = rng_pair(seed)
            assert weak_submersion_check(qr, a, samples) == oracle_submersion(qr, b, samples), label
            assert same_state(a, b), label

    @pytest.mark.parametrize("samples", [1, 3, 4, 5, 6, 11])
    def test_sample_blocks(self, quotients, samples, monkeypatch):
        label, qr = quotients[-1]
        set_block(monkeypatch, submersion_width(qr), 2, 5)
        a, b = rng_pair(11)
        assert weak_submersion_check(qr, a, samples) == oracle_submersion(qr, b, samples), label
        assert same_state(a, b)

    def test_a_plain_block_projection_matches_the_per_point_loop(self, quotients):
        label, qr = next((lab, q) for lab, q in quotients if "product" in lab and "left_factor" in lab)

        def squared(points):
            return [SymPoint(qr.quotient_pair, px.cartan @ px.cartan) for px in qr.projection_points(points)]

        bad = dataclasses.replace(qr, projection_points=squared)
        a, b = rng_pair(0)
        got = weak_submersion_check(bad, a, samples=30)
        assert got == oracle_submersion(bad, b, samples=30, project=squared)
        assert same_state(a, b)
        assert got["ok"] is False

    def test_each_block_translates_its_own_samples(self, quotients, monkeypatch):
        # a projection squaring the images of the points far from the base
        # breaks the law on about half the samples: the pass rate sees which
        # samples each block translates, and by which word
        label, qr = next((lab, q) for lab, q in quotients if "product" in lab and "left_factor" in lab)
        n = qr.relation.pair.ambient_n

        def far_squared(points):
            points = list(points)
            images = qr.projection_points(points)
            far = [float(np.linalg.norm(x.cartan - np.eye(n))) > 1.7 for x in points]
            return [SymPoint(qr.quotient_pair, px.cartan @ px.cartan) if f else px for f, px in zip(far, images)]

        bad = dataclasses.replace(qr, projection_points=far_squared)
        set_block(monkeypatch, submersion_width(qr), 2, 5)
        rates = set()
        for seed in range(4):
            a, b = rng_pair(seed)
            got = weak_submersion_check(bad, a, samples=23)
            assert got == oracle_submersion(bad, b, samples=23, project=far_squared)
            rates.add(got["sample_pass_rates"]["projection_morphism"])
        assert 0.0 < min(rates) and max(rates) < 1.0

    def test_two_stacked_exponentials_per_block(self, quotients, monkeypatch):
        label, qr = next((lab, q) for lab, q in quotients if "product" in lab and "left_factor" in lab)
        set_block(monkeypatch, submersion_width(qr), 2, 5)
        calls = count_calls(monkeypatch, numkernel, "_mat_exp_stack")  # the body of every exponential
        weak_submersion_check(qr, np.random.default_rng(0), samples=11)
        # per block: the Cartan matrices and the translating letters
        assert len(calls) == 3 * 2


class TestExpChartSplit:
    @pytest.mark.parametrize("seed", [0, 42])
    def test_matches_the_per_sample_loop(self, spaces, seed):
        raised = 0
        for label, space, n in spaces:
            a, b = rng_pair(seed)
            got = chart_outcome(lambda: exp_chart_split(space, n, rng=a))
            want = chart_outcome(lambda: oracle_chart_split(space, n, b))
            assert got == want, label
            assert same_state(a, b), label
            raised += isinstance(got, tuple)
        assert raised  # the torus dense line fails to the floor

    def test_witness_is_bit_identical(self, models):
        line = models["torus_abelian(sqrt2)"].subspace_by_name("dense_line")
        a, b = rng_pair(3)
        with pytest.raises(ChartSplitError) as got:
            exp_chart_split(line.subspace, line.seed, rng=a)
        with pytest.raises(ChartSplitError) as want:
            oracle_chart_split(line.subspace, line.seed, b)
        assert same_bits(got.value.report.witness, want.value.report.witness)
        assert got.value.report.history == want.value.report.history

    def test_non_members_inside_the_ball_are_found_in_order(self, models):
        # a membership refusing everything away from the base point makes every
        # n-ball sample a violation: the witness is the last of them
        pair = models["sphere(2)"].pair
        space = generate_integral(LinearSubspace.full(2), pair)
        refusing = dataclasses.replace(space, membership=lambda points: [x.is_base() for x in points])
        a, b = rng_pair(1)
        got = chart_outcome(lambda: exp_chart_split(refusing, LinearSubspace.full(2), rng=a, floor=0.2))
        want = chart_outcome(lambda: oracle_chart_split(refusing, LinearSubspace.full(2), b, floor=0.2))
        assert got == want and got[0] == "raised"
        assert same_state(a, b)


class TestSplitComplementCriterion:
    @pytest.mark.parametrize("seed", [0, 42])
    def test_matches_the_per_sample_loop(self, spaces, seed):
        for label, space, n in spaces:
            a, b = rng_pair(seed)
            assert split_complement_criterion(space, n, n.complement(), rng=a) == oracle_split_complement(
                space, n, n.complement(), b
            ), label
            assert same_state(a, b), label

    def test_probe_refuted_dense_line(self, models):
        line = models["torus_abelian(sqrt2)"].subspace_by_name("dense_line")
        n = line.seed
        a, b = rng_pair(0)
        got = split_complement_criterion(line.subspace, n, n.complement(), rng=a)
        assert got is oracle_split_complement(line.subspace, n, n.complement(), b) is False
        assert same_state(a, b)

    @pytest.mark.parametrize("first_true", [1, 7, 50, 51, 200])
    def test_a_refutation_leaves_the_generator_after_the_whole_draw(self, models, first_true, monkeypatch):
        # the oracle draws all its samples first: a refutation at any sample
        # and in any block must leave the generator there too
        sub = models["product(sphere(2),sphere(2))"].subspace_by_name("left_factor")
        n = sub.seed
        set_block(monkeypatch, sub.subspace.pair.ambient_n, 1, 50)

        def always_from(k):
            seen = []

            def member(points):
                out = []
                for _ in points:
                    seen.append(1)
                    out.append(len(seen) >= k)
                return out

            return dataclasses.replace(sub.subspace, membership=member)

        a, b = rng_pair(9)
        assert split_complement_criterion(always_from(first_true), n, n.complement(), rng=a) is False
        assert oracle_split_complement(always_from(first_true), n, n.complement(), b) is False
        assert same_state(a, b)


class TestCertification:
    def test_lts_of_subspace_matches_the_per_ray_loop(self, spaces):
        for label, space, _ in spaces:
            assert same_bits(lts_of_subspace(space).basis, oracle_lts_of_subspace(space).basis), label

    @pytest.mark.parametrize("reach", [0.3, 0.75, 1.5])
    def test_same_first_certification_error(self, models, reach):
        space = models["product(sphere(2),sphere(2))"].subspace_by_name("left_factor").subspace
        short = dataclasses.replace(
            space,
            membership=lambda points: [float(np.linalg.norm(x.cartan - np.eye(x.cartan.shape[0]))) < reach for x in points],
        )
        with pytest.raises(CertificationError) as got:
            lts_of_subspace(short)
        with pytest.raises(CertificationError) as want:
            oracle_lts_of_subspace(short)
        assert str(got.value) == str(want.value)
        v, t = got.value.witness
        assert t == want.value.witness[1] and same_bits(v, want.value.witness[0])

    def test_algebraic_candidates_match_the_finite_difference_loop(self, models, spaces):
        algebraic = [space for _, space, _ in spaces if space.kind == "algebraic"]
        for spec in MODELS:
            algebraic += [whole_space(models[spec].pair), base_only(models[spec].pair)]
        assert len(algebraic) >= 12
        for space in algebraic:
            got, want = space.candidate_subspace(), oracle_algebraic_candidate(space)
            assert same_bits(got.basis, want.basis), space.label


class TestMuClosureCheck:
    @pytest.mark.parametrize("seed", [0, 42])
    def test_matches_the_per_sample_loop(self, spaces, seed):
        for label, space, _ in spaces:
            a, b = rng_pair(seed)
            assert mu_closure_check(space, a) is oracle_mu_closure(space, b), label
            assert same_state(a, b), label

    def test_a_refutation_leaves_the_generator_after_the_whole_draw(self, models, monkeypatch):
        # products reach about twice as far from the base as their factors:
        # a membership cut off at ``reach`` refutes closure in a varying
        # block, or never; the oracle draws all its pairs first
        space = generate_integral(LinearSubspace.full(2), models["sphere(2)"].pair)
        set_block(monkeypatch, space.pair.ambient_n, 2, 4)
        verdicts = set()
        for reach in (0.25, 0.3, 0.35, 0.45, 0.6, 1.5):

            def near(points, reach=reach):
                return [float(np.linalg.norm(x.cartan - np.eye(x.cartan.shape[0]))) < reach for x in points]

            short = dataclasses.replace(space, membership=near)
            a, b = rng_pair(5)
            got = mu_closure_check(short, a)
            assert got is oracle_mu_closure(short, b), reach
            assert same_state(a, b), reach
            verdicts.add(got)
        assert verdicts == {True, False}

    def test_one_product_call_per_block(self, models, monkeypatch):
        model = models["product(sphere(2),sphere(2))"]
        space = generate_integral(model.subspace_by_name("left_factor").seed, model.pair)  # samples are members
        calls = []
        original = subspace.mu_points

        def counted(xs, ys):
            calls.append(len(xs))
            return original(xs, ys)

        monkeypatch.setattr(subspace, "mu_points", counted)
        assert mu_closure_check(space, np.random.default_rng(0))
        assert calls == [30]
        set_block(monkeypatch, space.pair.ambient_n, 2, 4)
        del calls[:]
        assert mu_closure_check(space, np.random.default_rng(0), samples=30)
        assert calls == [4] * 7 + [2]


@pytest.fixture(scope="module")
def relations(models):
    """(label, relation) for congruences of the conftest models and the torus dense-line relation."""
    out = [
        ("sphere(2) equality", congruence_from_ideal(models["sphere(2)"].pair, LinearSubspace.zero(2))),
        ("sphere(2) total", congruence_from_ideal(models["sphere(2)"].pair, LinearSubspace.full(2))),
        ("torus dense line", models["torus_abelian(sqrt2)"].extras["line_relation"]),
    ]
    product = models["product(sphere(2),sphere(2))"]
    out.append(("product left", congruence_from_ideal(product.pair, product.subspace_by_name("left_factor").seed)))
    return out


class TestRelationClosureCheck:
    @pytest.mark.parametrize("seed,samples,steps", [(42, 10, 5), (0, 7, 3), (1, 3, 0), (2, 0, 5)])
    def test_matches_the_per_sample_loop(self, relations, seed, samples, steps):
        for label, relation in relations:
            a, b = rng_pair(seed)
            got = relation_closure_check(relation, a, samples=samples, steps=steps)
            assert got == oracle_relation_closure(relation, b, samples=samples, steps=steps), label
            assert same_state(a, b), label

    @pytest.mark.parametrize("label", ["product left", "torus dense line"])
    def test_witnesses_keep_their_precedence(self, relations, label):
        # a relation refusing some pairs of the documented draws (by their y)
        # fails on the first sample with a refused pair, its constructed pair
        # first, and only then on the probes
        relation = dict(relations)[label]
        pairs = oracle_closure_pairs(relation, np.random.default_rng(3), 4, 2)
        constructed, translate = (lambda i: pairs[i][0][1]), (lambda i, j: pairs[i][1][j][1])
        on_probes = relation_closure_check(relation, np.random.default_rng(3), 4, 2)["witness"]
        rejected, left = "constructed related pair rejected", "tau translate left the relation"
        cases = [([constructed(i)], rejected) for i in range(4)]
        cases += [([translate(i, j)], left) for i in range(4) for j in range(2)]
        cases += [([constructed(2), translate(1, 1)], left), ([translate(1, 0), constructed(1)], rejected)]
        cases += [([], on_probes)]
        for refused, want in cases:

            def relates(xs, ys, refused=refused):
                ys = list(ys)
                return [False if any(y.same(r) for r in refused) else v for y, v in zip(ys, relation.relates(xs, ys))]

            a, b = rng_pair(3)
            got = relation_closure_check(dataclasses.replace(relation, relates=relates), a, 4, 2)
            assert got["witness"] == want
            assert got == oracle_relation_closure(dataclasses.replace(relation, relates=relates), b, 4, 2)
        assert on_probes == (None if label == "product left" else "limit of a related sequence escapes the relation")

    def test_a_probe_sequence_outside_the_relation_comes_before_its_limit(self, models):
        relation = models["torus_abelian(sqrt2)"].extras["line_relation"]
        (seq, limit), = relation.sequence_probes()
        outside = [yi for _, yi in seq[1:]]

        def relates(xs, ys):
            return [False if any(y.same(o) for o in outside) else v for y, v in zip(ys, relation.relates(xs, ys))]

        got = relation_closure_check(dataclasses.replace(relation, relates=relates), np.random.default_rng(0))
        assert got == {"ok": False, "witness": "probe sequence not inside the relation"}

    def test_one_relates_call(self, relations):
        for label, relation in relations:
            calls = []

            def relates(xs, ys, relation=relation):
                calls.append(len(xs))
                return relation.relates(xs, ys)

            relation_closure_check(dataclasses.replace(relation, relates=relates), np.random.default_rng(0))
            probes = relation.sequence_probes() if relation.sequence_probes else []
            assert calls == [10 * 6 + sum(len(seq) + 1 for seq, _ in probes)], label


# ---------------------------------------------------------------------------
# one draw per distribution


class CountingGenerator:
    """A generator that counts its method calls and forwards each one."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.calls = 0

    def __getattr__(self, name):
        method = getattr(self.rng, name)

        def counted(*args, **kwargs):
            self.calls += 1
            return method(*args, **kwargs)

        return counted


class TestOneDrawPerDistribution:
    """No sampler calls the generator per sample: each makes as many calls at
    10 samples as at 200, the number its docstring's draw order gives."""

    def calls(self, run, samples) -> int:
        rng = CountingGenerator(samples)
        run(rng, samples)
        return rng.calls

    def same_calls(self, run, want):
        assert self.calls(run, 10) == self.calls(run, 200) == want

    def test_ball_samples(self):
        self.same_calls(lambda rng, k: _ball_samples(rng, np.eye(3)[:2], 0.5, k), 2)

    def test_chart_split_per_radius(self, models, spaces):
        line = models["torus_abelian(sqrt2)"].subspace_by_name("dense_line")
        cases = [(space, n) for _, space, n in spaces[:4]] + [(line.subspace, line.seed)]
        for space, n in cases:

            def per_radius(rng, k):
                calls = rng.calls
                try:
                    history = exp_chart_split(space, n, rng=rng, samples=k).history
                except ChartSplitError as exc:  # the dense line fails to the floor
                    history = exc.report.history
                return (rng.calls - calls) / len(history)

            counts = {per_radius(CountingGenerator(k), k) for k in (10, 200)}
            assert counts == {4.0}, space.label

    def test_split_complement_refuted_or_not(self, models):
        sub = models["product(sphere(2),sphere(2))"].subspace_by_name("left_factor")
        n = sub.seed
        always = dataclasses.replace(sub.subspace, membership=lambda points: [True] * len(points))
        for space in (sub.subspace, always):
            self.same_calls(lambda rng, k: split_complement_criterion(space, n, n.complement(), rng, samples=k), 2)

    def test_mu_closure_refuted_or_not(self, models):
        space = generate_integral(LinearSubspace.full(2), models["sphere(2)"].pair)
        near = dataclasses.replace(
            space, membership=lambda points: [float(np.linalg.norm(x.cartan - np.eye(3))) < 0.3 for x in points]
        )
        for candidate in (space, near):
            self.same_calls(lambda rng, k: mu_closure_check(candidate, rng, samples=k), 2)

    def test_weak_submersion(self, quotients):
        for label, qr in quotients[:3]:
            self.same_calls(lambda rng, k: weak_submersion_check(qr, rng, samples=k), 3)

    def test_relation_closure(self, relations):
        for label, relation in relations:
            self.same_calls(lambda rng, k: relation_closure_check(relation, rng, samples=k), 2)


# ---------------------------------------------------------------------------
# the stacked ball samples


class TestBallSamples:
    @pytest.mark.parametrize("spec", MODELS)
    @pytest.mark.parametrize("count", [0, 1, 200])
    def test_rows_are_the_sized_draws(self, models, spec, count):
        m = models[spec].pair.dim_minus
        rng = np.random.default_rng(m)
        bases = [LinearSubspace.span(rng.standard_normal((d, m)), m, DEFAULT_TOL).basis for d in range(m + 1)]
        for basis in bases + [np.eye(m)]:
            for radius in (1e-3, 0.5, 2.0):
                a, b = rng_pair(count + basis.shape[0])
                got = _ball_samples(a, basis, radius, count)
                assert got.shape == (count, m)
                assert same_bits(got, oracle_ball_samples(b, basis, radius, count))
                assert same_state(a, b)

    def test_one_sample_is_the_one_row_case(self):
        basis = LinearSubspace.span(np.random.default_rng(1).standard_normal((3, 5)), 5, DEFAULT_TOL).basis
        a, b = rng_pair(2)
        for _ in range(50):
            assert same_bits(_ball_samples(a, basis, 0.7, 1), oracle_ball_samples(b, basis, 0.7, 1))
        assert same_state(a, b)

    def test_rows_are_in_the_ball_of_the_span(self):
        basis = LinearSubspace.span(np.random.default_rng(3).standard_normal((2, 4)), 4, DEFAULT_TOL)
        rows = _ball_samples(np.random.default_rng(4), basis.basis, 0.5, 500)
        norms = np.linalg.norm(rows, axis=1)
        assert np.all(norms >= 0.1 * (1 - 1e-12)) and np.all(norms <= 0.5 * (1 + 1e-12))
        assert basis.contains_all(rows, DEFAULT_TOL)


# ---------------------------------------------------------------------------
# the algebraic membership

ALGEBRAIC_MODELS = (
    "spd(3)",
    "torus_abelian(sqrt2)",
    "torus_abelian(1/2)",
    "product(sphere(2),spd(2))",
    "product(spd(2),spd(2))",
)


def upper_block_identity(cartans: np.ndarray) -> np.ndarray:
    return (cartans[:, :2, :2] - np.eye(2)).reshape(len(cartans), 4)  # a 2x2 block per row


@pytest.fixture(scope="module")
def algebraic_cases():
    """(label, space, points) for every algebraic subspace of the catalog
    models above, their whole space and base point, and a block residual."""
    out = []
    for spec in ALGEBRAIC_MODELS:
        model = parse_model(spec)
        pair, m = model.pair, model.pair.dim_minus
        subs = [
            (sub.name, sub.subspace, sub.seed)
            for sub in model.designated_subspaces
            if sub.subspace is not None and sub.subspace.kind == "algebraic"
        ]
        subs += [
            ("whole_space", whole_space(pair), LinearSubspace.full(m)),
            ("base_only", base_only(pair), LinearSubspace.zero(m)),
            ("upper_block", algebraic_subspace(pair, upper_block_identity), LinearSubspace.zero(m)),
        ]
        rng = np.random.default_rng(len(out))
        for name, space, seed in subs:
            vs = [scale * rng.standard_normal(m) for scale in (1e-9, 1e-4, 0.3, 1.0) for _ in range(8)]
            vs += [t * v for v in seed.basis for t in (0.1, -0.5, 1.0)]
            out.append((f"{spec} {name}", space, exp_points(pair, vs) + [base_point(pair)]))
    return out


class TestAlgebraicMembership:
    def test_cases_cover_both_verdicts(self, algebraic_cases):
        assert len(algebraic_cases) >= 20
        verdicts = [oracle_algebraic_member(space, x) for _, space, points in algebraic_cases for x in points]
        assert True in verdicts and False in verdicts

    def test_a_block_is_the_per_point_body(self, algebraic_cases):
        for label, space, points in algebraic_cases:
            want = [oracle_algebraic_member(space, x) for x in points]
            assert space.membership(points) == want, label
            assert [space.member(x) for x in points] == want, label
            assert space.membership([]) == []

    @pytest.mark.parametrize(
        "residuals",
        [
            lambda cartans: np.zeros((1, 2)),  # one row for any block
            lambda cartans: np.zeros((len(cartans) + 1, 2)),
            lambda cartans: np.zeros(len(cartans)),  # no residual axis
            lambda cartans: np.zeros((len(cartans), 2, 2)),
        ],
    )
    def test_residuals_that_are_not_one_row_per_point_raise(self, models, residuals):
        pair = models["spd(2)"].pair
        space = algebraic_subspace(pair, residuals)
        points = [base_point(pair), exp_point(pair, np.array([0.3, 0.0, 0.0]))]
        for call in (lambda: space.membership(points), space.candidate_subspace):
            with pytest.raises(ValueError, match="constraints gave residuals of shape"):
                call()


# ---------------------------------------------------------------------------
# the lattice membership


@pytest.fixture(scope="module")
def lattice_points():
    """(label, lattice, points) on three torus slopes: random points, points
    of the line far out, Pell witnesses and points converging off the line."""
    out = []
    for spec in ("torus_abelian(sqrt2)", "torus_abelian(1/2)", "torus_abelian(3)"):
        model = parse_model(spec)
        lattice, pair = model.extras["lattice"], model.pair
        rng = np.random.default_rng(11)
        vs = [rng.uniform(-4.0, 4.0, size=2) for _ in range(30)]
        vs += [t * np.array([1.0, lattice.slope]) for t in (0.3, -1.7, 5.0, 40.0)]
        vs += [w.vector for w in lattice.chart_witnesses(1.0, count=3)]
        vs += lattice.line_points_near(0.15, steps=3)
        out.append((spec, lattice, exp_points(pair, vs) + [base_point(pair)]))
    return out


class TestLatticeMembership:
    @pytest.mark.parametrize("winding", [0, 5, 64])
    def test_members_are_the_per_point_body(self, lattice_points, winding):
        verdicts = set()
        for label, lattice, points in lattice_points:
            for thresh in (1e-9, 1e-8):
                want = [oracle_member_float(lattice, x, winding, thresh) for x in points]
                assert lattice.members_float(points, winding, thresh) == want, label
                assert [lattice.members_float([x], winding, thresh)[0] for x in points] == want, label
                verdicts.update(want)
        assert verdicts == {True, False}
        assert lattice_points[0][1].members_float([]) == []

    @pytest.mark.parametrize("floats,rows", [(1, 1), (11, 1), (22, 2), (35, 3)])
    def test_row_chunks_on_a_small_bound(self, lattice_points, monkeypatch, floats, rows):
        # winding 5 gives rows of 11 shifts; a bound below one row still takes one row
        monkeypatch.setattr(symspace, "MAX_STACK_FLOATS", floats)
        rounded = []
        original = np.round

        def counted(a, *args, **kwargs):
            rounded.append(a.shape)
            return original(a, *args, **kwargs)

        for label, lattice, points in lattice_points:
            want = [oracle_member_float(lattice, x, 5) for x in points]
            with monkeypatch.context() as patch:
                patch.setattr(np, "round", counted)
                del rounded[:]
                got = lattice.members_float(points, winding=5)
            assert got == want, label
            assert rounded == [(min(rows, len(points) - i), 11) for i in range(0, len(points), rows)], label

    def test_the_relation_grid_is_taken_one_row_at_a_time(self, lattice_points):
        label, lattice, points = lattice_points[0]

        def peak(pts):
            tracemalloc.start()
            try:
                got = lattice.members_float(pts, **TORUS_RELATION_GRID)
                return got, tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        _, one = peak(points[:1])
        got, several = peak(points[:6])
        assert got == [oracle_member_float(lattice, x, **TORUS_RELATION_GRID) for x in points[:6]]
        assert several < 1.5 * one  # no (6, 400001) temporary


# ---------------------------------------------------------------------------
# the block-stacked projection


class TestPointProjection:
    @pytest.fixture(scope="class")
    def product_quotients(self, models):
        pair = models["product(sphere(2),sphere(2))"].pair
        left = models["product(sphere(2),sphere(2))"].subspace_by_name("left_factor").seed
        return {
            name: quotient_theorem_pipeline(pair, n, rng=np.random.default_rng(0))
            for name, n in (("zero", LinearSubspace.zero(4)), ("left", left), ("full", LinearSubspace.full(4)))
        }

    def points(self, pair, count, seed=0):
        rng = np.random.default_rng(seed)
        return [exp_point(pair, 0.4 * rng.standard_normal(pair.dim_minus)) for _ in range(count)]

    def test_block_bounds_the_right_hand_side(self, product_quotients):
        for qr in product_quotients.values():
            proj = qr.projection_points
            assert isinstance(proj, PointProjection)
            if proj.comp_mats.size:
                assert proj.block * proj.comp_mats.size <= MAX_STACK_FLOATS < (proj.block + 1) * proj.comp_mats.size

    @pytest.mark.parametrize("name", ["zero", "left"])
    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_blocks_are_bit_identical_to_the_single_call(self, product_quotients, name, offset):
        proj = product_quotients[name].projection_points
        xs = self.points(proj.source, proj.block + offset)
        got = proj(xs)
        assert len(got) == len(xs)
        for x, px in zip(xs, got):
            want = oracle_project(proj, x)
            assert same_point(px, want)
            assert same_point(proj([x])[0], want)

    def test_two_blocks_and_mixed_points(self, product_quotients):
        proj = product_quotients["left"].projection_points
        pair = proj.source
        xs = self.points(pair, proj.block + 5, seed=3)
        xs[4] = mu(xs[2], xs[3])
        xs[-1] = base_point(pair)
        for x, px in zip(xs, proj(xs)):
            assert same_point(px, oracle_project(proj, x))

    def test_empty_sequence(self, product_quotients):
        proj = product_quotients["left"].projection_points
        empty = proj([])
        assert empty.pair is proj.target and empty.cartans.shape == (0,) + (proj.target.ambient_n,) * 2

    def test_zero_dimensional_quotient(self, product_quotients):
        proj = product_quotients["full"].projection_points
        assert proj.comp.shape[0] == 0
        xs = self.points(proj.source, 3)
        for x, px in zip(xs, proj(xs)):
            assert same_point(px, oracle_project(proj, x))
            assert px.is_base()

    @pytest.mark.parametrize("name", ["left", "full"])
    def test_point_of_another_pair_raises_the_same_error(self, models, product_quotients, name):
        proj = product_quotients[name].projection_points
        stranger = exp_point(models["sphere(2)"].pair, np.array([0.1, 0.2]))
        xs = self.points(proj.source, 2) + [stranger]
        with pytest.raises(ValueError) as want:
            oracle_project(proj, stranger)
        for call in (lambda: proj(xs), lambda: proj([stranger])):
            with pytest.raises(ValueError) as got:
                call()
            assert str(got.value) == str(want.value)


def test_largest_quotient_run_stays_small():
    argv = ["quotient", "--model", "product(grassmann(2,5),grassmann(2,5))", "--ideal", "left_factor", "--seed", "1"]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0  # warm caches and imports
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < 2 * 2 ** 20


def test_one_block_size_rule(monkeypatch):
    # rows of f floats per stack of at most MAX_STACK_FLOATS, and at least one row
    monkeypatch.setattr(symspace, "MAX_STACK_FLOATS", 100)
    sizes = [symspace._block_size(f) for f in (0, 1, 7, 50, 100, 101, 10**6)]
    assert sizes == [100, 100, 14, 2, 1, 1, 1]
