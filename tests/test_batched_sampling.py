"""The batched samplers of the quotient path against the per-sample loops
they replace.

Each oracle below is the per-sample body the batched code replaced, kept
verbatim up to naming: every point from its own ``exp_point`` and every
projection one point at a time.  The batched code must give the same result,
bit for bit, and leave the generator in the same state.
"""

import contextlib
import dataclasses
import io
import sys
import tracemalloc

import numpy as np
import pytest

from symspaces import numkernel, quotient, subspace
from symspaces.cli import main
from symspaces.lts import LinearSubspace, is_subsystem
from symspaces.numkernel import Tolerance, nullspace
from symspaces.quotient import PointProjection, quotient_theorem_pipeline, weak_submersion_check
from symspaces.subspace import (
    CERTIFICATION_GRID,
    CertificationError,
    ChartReport,
    ChartSplitError,
    _ball_sample,
    base_only,
    exp_chart_split,
    generate_integral,
    lts_of_subspace,
    split_complement_criterion,
    whole_space,
)
from symspaces.symspace import MAX_STACK_FLOATS, SymPoint, base_point, exp_point, lts_of_pair, mu, tau_action

MODELS = ("sphere(2)", "spd(2)", "grassmann(1,3)", "torus_abelian(sqrt2)", "product(sphere(2),sphere(2))")


def same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def same_point(x: SymPoint, y: SymPoint) -> bool:
    return x.pair is y.pair and same_bits(x.rep, y.rep) and same_bits(x.cartan, y.cartan)


def rng_pair(seed):
    return np.random.default_rng(seed), np.random.default_rng(seed)


def same_state(a: np.random.Generator, b: np.random.Generator) -> bool:
    return a.bit_generator.state == b.bit_generator.state


def set_block(monkeypatch, module, width, floats_per_item, block):
    """Shrink ``MAX_STACK_FLOATS`` in ``module`` so that ``block`` items of
    ``floats_per_item`` matrices of size ``width`` fill one stack."""
    monkeypatch.setattr(module, "MAX_STACK_FLOATS", block * floats_per_item * width**2)


def submersion_width(qr) -> int:
    return max(qr.relation.pair.ambient_n, qr.quotient_pair.ambient_n)


def count_mat_exp(monkeypatch):
    """Count ``numkernel.mat_exp`` calls through every module that bound it."""
    original = numkernel.mat_exp
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if name.startswith("symspaces") and getattr(mod, "mat_exp", None) is original:
            monkeypatch.setattr(mod, "mat_exp", counted)
    return calls


# ---------------------------------------------------------------------------
# the per-sample oracles


def oracle_project(proj: PointProjection, x: SymPoint) -> SymPoint:
    pair, qpair, comp = proj.source, proj.target, proj.comp
    if x.pair is not pair:
        raise ValueError("point does not belong to the source pair")
    if not comp.shape[0]:
        return SymPoint.from_rep(qpair, np.eye(1))
    g = x.rep
    coords = pair.matrix_coords(g @ proj.comp_mats @ np.linalg.inv(g))
    return SymPoint.from_rep(qpair, comp @ coords.T)


def oracle_submersion(qr, rng, samples=100, project=None) -> dict:
    pair = qr.relation.pair
    tol = pair.tol
    project = project or (lambda x: oracle_project(qr.projection_points, x))
    a = qr.projection_algebra
    m_out = qr.quotient_pair.dim_minus
    if a.size:
        ok = np.linalg.matrix_rank(a) == m_out
        ker = nullspace(a, tol).T
    else:
        ok = m_out == 0
        ker = np.eye(pair.dim_minus)
    ok = ok and LinearSubspace(pair.dim_minus, ker).equals(qr.relation.n_minus, tol)

    morph_pass = rel_pass = rel_total = 0
    for _ in range(samples):
        u = 0.2 * rng.standard_normal(pair.dim_minus)
        v = 0.2 * rng.standard_normal(pair.dim_minus)
        x0, y = exp_point(pair, u), exp_point(pair, v)
        translated = rng.uniform() < 0.3
        x = tau_action(pair, pair.random_element(rng, letters=1, scale=0.2), x0) if translated else x0
        px0, py = project(x0), project(y)
        px = project(x) if translated else px0
        morph_pass += int(project(mu(x, y)).same(mu(px, py)))
        related = qr.relation.relates(x0, y)
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


def oracle_chart_split(n_space, n, rng, samples=40, start_radius=1.0, floor=1e-3) -> ChartReport:
    pair = n_space.pair
    m = pair.dim_minus
    history = []
    radius = start_radius
    free = np.eye(m)
    while True:
        violation = 0.0
        witness = None
        for _ in range(samples if n.dim else 0):
            v = _ball_sample(rng, n.onb(), radius)
            if n_space.member(exp_point(pair, v)) is False:
                violation = max(violation, float(np.linalg.norm(v)))
                witness = v
        for _ in range(samples):
            w = _ball_sample(rng, free, radius)
            gap = n.distance(w)
            if gap > 0.05 * radius and n_space.member(exp_point(pair, w)) is True:
                violation = max(violation, gap)
                witness = w
        if n_space.probes is not None:
            for probe in n_space.probes(radius, None):
                w = np.asarray(probe.vector, dtype=float)
                if np.linalg.norm(w) <= radius:
                    gap = n.distance(w)
                    if gap > pair.tol.threshold(1.0):
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
    for _ in range(samples):
        w = _ball_sample(rng, f_comp.onb(), radius)
        if np.linalg.norm(w) < 1e-6:
            continue
        if n_space.member(exp_point(pair, w)) is True:
            return False
    if n_space.probes is not None:
        for probe in n_space.probes(radius, f_comp):
            w = np.asarray(probe.vector, dtype=float)
            if 1e-12 < np.linalg.norm(w) <= radius and f_comp.distance(w) <= pair.tol.threshold(1.0):
                return False
    return True


def oracle_algebraic_candidate(space) -> LinearSubspace:
    pair, m, tol = space.pair, space.pair.dim_minus, space.pair.tol
    h = 1e-6
    cols = []
    for i in range(m):
        e = np.zeros(m)
        e[i] = 1.0
        fp = np.asarray(space.constraints(exp_point(pair, h * e).cartan), dtype=float)
        fm = np.asarray(space.constraints(exp_point(pair, -h * e).cartan), dtype=float)
        cols.append((fp - fm) / (2.0 * h))
    jac = np.array(cols).T if cols else np.zeros((0, m))
    if jac.ndim == 1:
        jac = jac.reshape(1, -1)
    fd_tol = Tolerance(abs_eps=max(tol.abs_eps, 1e-8), rel_eps=max(tol.rel_eps, 1e-7))
    return LinearSubspace(m, nullspace(jac, fd_tol).T)


def oracle_lts_of_subspace(n_space) -> LinearSubspace:
    pair = n_space.pair
    if n_space.member(base_point(pair)) is False:
        raise CertificationError("subspace does not contain the base point", witness=(None, 0.0))
    cand = n_space.candidate_subspace()
    for v in cand.onb():
        for t in CERTIFICATION_GRID:
            if n_space.member(exp_point(pair, t * v)) is False:
                raise CertificationError(f"candidate ray failed membership at t={t}", witness=(v, t))
    if not is_subsystem(lts_of_pair(pair), cand, pair.tol):
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
        set_block(monkeypatch, quotient, submersion_width(qr), 2, 5)
        a, b = rng_pair(11)
        assert weak_submersion_check(qr, a, samples) == oracle_submersion(qr, b, samples), label
        assert same_state(a, b)

    def test_plain_function_projection_is_called_per_point(self, quotients):
        label, qr = next((lab, q) for lab, q in quotients if "product" in lab and "left_factor" in lab)

        def squared(x):
            rep = qr.projection_points(x).rep
            return SymPoint.from_rep(qr.quotient_pair, rep @ rep)

        bad = dataclasses.replace(qr, projection_points=squared)
        a, b = rng_pair(0)
        got = weak_submersion_check(bad, a, samples=30)
        assert got == oracle_submersion(bad, b, samples=30, project=squared)
        assert same_state(a, b)
        assert got["ok"] is False

    def test_three_stacked_exponentials_per_block(self, quotients, monkeypatch):
        label, qr = next((lab, q) for lab, q in quotients if "product" in lab and "left_factor" in lab)
        set_block(monkeypatch, quotient, submersion_width(qr), 2, 5)
        calls = count_mat_exp(monkeypatch)
        weak_submersion_check(qr, np.random.default_rng(0), samples=11)
        # per block: the Cartan matrices, the representatives and the translating letters
        assert len(calls) == 3 * 3


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
        refusing = dataclasses.replace(space, membership=lambda x: x.is_base())
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
    def test_early_false_leaves_the_generator_where_the_loop_stops(self, models, first_true, monkeypatch):
        sub = models["product(sphere(2),sphere(2))"].subspace_by_name("left_factor")
        n = sub.seed
        set_block(monkeypatch, subspace, sub.subspace.pair.ambient_n, 1, 50)

        def always_from(k):
            seen = []

            def member(x):
                seen.append(1)
                return len(seen) >= k

            return dataclasses.replace(sub.subspace, membership=member)

        a, b = rng_pair(9)
        assert split_complement_criterion(always_from(first_true), n, n.complement(), rng=a) is False
        assert oracle_split_complement(always_from(first_true), n, n.complement(), b) is False
        assert same_state(a, b)
        # and the caller's next draw is the one the loop would have given
        assert same_bits(a.standard_normal(3), b.standard_normal(3))


class TestCertification:
    def test_lts_of_subspace_matches_the_per_ray_loop(self, spaces):
        for label, space, _ in spaces:
            assert same_bits(lts_of_subspace(space).basis, oracle_lts_of_subspace(space).basis), label

    @pytest.mark.parametrize("reach", [0.3, 0.75, 1.5])
    def test_same_first_certification_error(self, models, reach):
        space = models["product(sphere(2),sphere(2))"].subspace_by_name("left_factor").subspace
        short = dataclasses.replace(
            space, membership=lambda x: float(np.linalg.norm(x.cartan - np.eye(x.cartan.shape[0]))) < reach
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
        got = proj.many(xs)
        assert len(got) == len(xs)
        for x, px in zip(xs, got):
            want = oracle_project(proj, x)
            assert same_point(px, want)
            assert same_point(proj(x), want)

    def test_two_blocks_and_mixed_points(self, product_quotients):
        proj = product_quotients["left"].projection_points
        pair = proj.source
        xs = self.points(pair, proj.block + 5, seed=3)
        xs[4] = mu(xs[2], xs[3])
        xs[-1] = base_point(pair)
        for x, px in zip(xs, proj.many(xs)):
            assert same_point(px, oracle_project(proj, x))

    def test_empty_sequence(self, product_quotients):
        assert product_quotients["left"].projection_points.many([]) == []

    def test_zero_dimensional_quotient(self, product_quotients):
        proj = product_quotients["full"].projection_points
        assert proj.comp.shape[0] == 0
        xs = self.points(proj.source, 3)
        for x, px in zip(xs, proj.many(xs)):
            assert same_point(px, oracle_project(proj, x))
            assert px.is_base()

    @pytest.mark.parametrize("name", ["left", "full"])
    def test_point_of_another_pair_raises_the_same_error(self, models, product_quotients, name):
        proj = product_quotients[name].projection_points
        stranger = exp_point(models["sphere(2)"].pair, np.array([0.1, 0.2]))
        xs = self.points(proj.source, 2) + [stranger]
        with pytest.raises(ValueError) as want:
            oracle_project(proj, stranger)
        for call in (lambda: proj.many(xs), lambda: proj(stranger)):
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
