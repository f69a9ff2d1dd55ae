"""Workload items and the output oracle of the benchmark.

Each item is one CLI command without its ``--seed``; the runner appends
one of the workload's ``seed_groups`` program seeds.  Every item carries its
expected outcome, taken from the mathematics rather than from the program's
current output, and, where the program is known to get it wrong today, the
name of that known defect.  A case, one item on one program seed, that
fails with its item's known defect counts in ``failed`` but leaves the run
``correct``; any other failure makes the run incorrect.

This module imports nothing from the program, so the measured interpreter
loads only ``symspaces`` and the standard library.
"""

from __future__ import annotations

import hashlib
import json
import random

# The absolute pass gate of ``verify``: ``ok`` is ``max_residual < 1e-8``.
VERIFY_GATE = 1e-8
# Largest relative gap allowed between a Trotter row and the expm oracle.
TROTTER_RTOL = 1e-6
THRESHOLDS = {"verify": VERIFY_GATE, "trotter": TROTTER_RTOL}

KNOWN_DEFECTS = {
    "absolute_reflection_gate": (
        "verify compares the sampled reflection residual with an absolute 1e-8 gate "
        "while the Cartan matrices of spd-type models grow with the model, so the "
        "verdict depends on the seed"
    ),
    "center_unfaithful": (
        "the adjoint-type quotient realization kills the center of g/l, so the valid "
        "quotient product(sphere(2),spd(2)) / left_factor raises FaithfulnessError"
    ),
    "nonisomorphic_diagonal": (
        "the catalog designates `diagonal` whenever both product factors have the same "
        "dimension, also for non-isomorphic factors, where it is no triple subsystem (exit 2)"
    ),
}


# dim g_minus: n for sphere(n), n(n+1)/2 for spd(n), k(n-k) for grassmann(k,n)
def _spd(n):
    return n * (n + 1) // 2


def _grassmann(k, n):
    return k * (n - k)


def _verify(model, dim_minus, defect=None):
    return {
        "key": f"verify {model}",
        "argv": ["verify", "--model", model],
        "expect": {"exit": 0, "dim_minus": dim_minus},
        "known_defect": defect,
    }


def _quotient(model, ideal, dim_minus, ideal_dim, defect=None):
    return {
        "key": f"quotient {model} / {ideal}",
        "argv": ["quotient", "--model", model, "--ideal", ideal],
        "expect": {"exit": 0, "quotient_dim_minus": dim_minus - ideal_dim},
        "known_defect": defect,
    }


def _subspace(model, names, defect=None):
    return {
        "key": f"subspace {model}",
        "argv": ["subspace", "--model", model],
        "expect": {"exit": 0, "subspaces": sorted(names)},
        "known_defect": defect,
    }


def _trotter(model, x, y, k_min, k_max, z=None):
    argv = ["trotter", "--model", model, "--x", x, "--y", y]
    if z is not None:
        argv += ["--z", z]
    argv += ["--k-min", str(k_min), "--k-max", str(k_max)]
    ks = []
    k = k_min
    while k <= k_max:
        ks.append(k)
        k *= 2
    # The sum approximant is first order: doubling k halves the error.  Along
    # the diagonal k = l the bracket approximant's inner commutator words leave
    # an error of order sqrt(k) / l = k^(-1/2), so doubling k divides it by sqrt 2.
    decay = 0.5 if z is None else 2.0 ** -0.5
    return {
        "key": " ".join(["trotter", model, x, y] + ([z] if z else [])),
        "argv": argv,
        "expect": {"exit": 0, "ks": ks, "decay": decay},
        "known_defect": None,
        "trotter": {"model": model, "x": x, "y": y, "z": z, "ks": ks},
    }


SPD_GATE = "absolute_reflection_gate"
EXPLICIT_LEFT = "1,0,0,0,0,0;0,1,0,0,0,0;0,0,1,0,0,0"

WORKLOADS = {
    "quotient_ladder": {
        "why": (
            "quotient pipelines: is_ideal, onb recomputation, matrix_coords lstsq and "
            "submersion sampling dominate; check_lts_axioms never runs"
        ),
        "seed_groups": 2,
        "items": [
            _quotient("product(sphere(2),sphere(2))", "left_factor", 4, 2),
            _quotient("product(sphere(3),sphere(3))", "left_factor", 6, 3),
            _quotient("product(grassmann(2,5),grassmann(2,5))", "left_factor", 12, 6),
            _quotient("product(sphere(3),sphere(3))", EXPLICIT_LEFT, 6, 3),
            _quotient("spd(3)", "center", _spd(3), 1),
            _quotient("spd(4)", "center", _spd(4), 1),
            {
                "key": "quotient torus_abelian(sqrt2) / dense_line",
                "argv": ["quotient", "--model", "torus_abelian(sqrt2)", "--ideal", "dense_line"],
                # the dense winding line is no symmetric subspace: the gate must reject it
                "expect": {"exit": 3},
                "known_defect": None,
            },
            _quotient(
                "product(sphere(2),spd(2))", "left_factor", 2 + _spd(2), 2,
                defect="center_unfaithful",
            ),
        ],
    },
    "verify_ladder": {
        "why": (
            "axiom suites from m=2 to m=15: O(m^6) check_lts_axioms and the point algebra "
            "dominate; is_ideal and the quotient onb work never run"
        ),
        # absolute_reflection_gate fails an spd item on some program seeds and not on
        # others, so each item is checked on four
        "seed_groups": 4,
        "items": [
            _verify("sphere(2)", 2),
            _verify("sphere(3)", 3),
            _verify("sphere(4)", 4),
            _verify("sphere(5)", 5),
            _verify("spd(2)", _spd(2), SPD_GATE),
            _verify("spd(3)", _spd(3), SPD_GATE),
            _verify("spd(4)", _spd(4), SPD_GATE),
            _verify("spd(5)", _spd(5), SPD_GATE),
            _verify("grassmann(2,5)", _grassmann(2, 5)),
            _verify("product(sphere(3),sphere(3))", 2 * 3),
            _verify("product(spd(3),spd(3))", 2 * _spd(3), SPD_GATE),
            _verify("product(grassmann(2,5),grassmann(2,5))", 2 * _grassmann(2, 5)),
        ],
    },
    "chart_queries": {
        "why": (
            "membership through log_point and mat_log, chart-split radius halving, "
            "lts_of_pair rebuilds, and forward-exp Trotter words"
        ),
        "seed_groups": 2,
        "items": [
            _subspace("sphere(2)", ["great_circle"]),
            _subspace("spd(2)", ["diagonal", "center"]),
            _subspace("spd(3)", ["diagonal", "center"]),
            _subspace("spd(4)", ["diagonal", "center"]),
            _subspace("torus_abelian(sqrt2)", ["dense_line", "axis_line"]),
            _subspace("grassmann(2,5)", ["line"]),
            _subspace("product(sphere(2),sphere(2))", ["left_factor", "diagonal"]),
            _subspace("product(grassmann(2,5),grassmann(2,5))", ["left_factor", "diagonal"]),
            # spd(2) and sphere(3) both have dim 3 but are not isomorphic, so
            # only the left factor is a designated subsystem
            _subspace("product(spd(2),sphere(3))", ["left_factor"], defect="nonisomorphic_diagonal"),
            _trotter("spd(2)", "1,0,0", "0,0,1", 16, 4096),
            _trotter("spd(2)", "0.4,0,0", "0,0,0.56", 8, 32, z="0.4,0,0"),
            _trotter("sphere(3)", "0.5,0.2,0", "0,0.3,0.7", 16, 65536),
        ],
    },
}


# ---------------------------------------------------------------------------
# oracle


def _json(out):
    try:
        return json.loads(out)
    except ValueError:
        return None


def _check_verify(item, code, out, err):
    rep = _json(out)
    if rep is None:
        return f"exit {code} without a JSON report: {err.strip()[-200:]}", None
    resid = rep.get("max_residual")
    if rep.get("dim_minus") != item["expect"]["dim_minus"]:
        return f"dim_minus {rep.get('dim_minus')} != {item['expect']['dim_minus']}", resid
    if code != 0 or rep.get("ok") is not True:
        return f"exit {code}, max_residual above the gate {VERIFY_GATE!r}", resid
    return None, resid


def _check_quotient(item, code, out, err):
    expect = item["expect"]
    rep = _json(out)
    if expect["exit"] == 3:
        if code != 3 or rep is None or not rep.get("rejected_by"):
            return f"exit {code}, expected the symmetric-subspace gate to reject (exit 3)", None
        return None, None
    if rep is None:
        return f"exit {code} without a JSON report: {err.strip()[-200:]}", None
    if code != 0:
        return f"exit {code}: {rep.get('error') or rep.get('explanation')}", None
    if rep.get("weak_submersion") is not True or rep.get("ok") is not True:
        return "weak_submersion is not true", None
    rates = rep.get("sample_pass_rates") or {}
    if not rates or any(v != 1.0 for v in rates.values()):
        return f"sample pass rates {rates} are not all 1.0", None
    if rep.get("quotient_dim_minus") != expect["quotient_dim_minus"]:
        return f"quotient_dim_minus {rep.get('quotient_dim_minus')} != {expect['quotient_dim_minus']}", None
    return None, None


def _check_subspace(item, code, out, err):
    rep = _json(out)
    if code != 0 or rep is None:
        return f"exit {code}: {err.strip()[-200:]}", None
    subs = rep.get("subspaces") or {}
    missing = sorted(set(item["expect"]["subspaces"]) - set(subs))
    if missing:
        return f"designated subspaces {missing} missing", None
    wrong = sorted(name for name, entry in subs.items() if entry.get("matches_expectation") is not True)
    if wrong or rep.get("ok") is not True:
        return f"matches_expectation false for {wrong}", None
    return None, None


def _check_trotter(item, code, out, err, target):
    if code != 0:
        return f"exit {code}: {err.strip()[-200:]}", None
    expect = item["expect"]
    try:
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        ks = [int(r[0]) for r in rows]
        errors = [float(r[-1]) for r in rows]
    except ValueError:
        return "malformed k,error table", None
    if ks != expect["ks"]:
        return f"rows for k={ks}, expected {expect['ks']}", None
    if min(errors) <= 0.0:
        return "an error of zero or below", None
    worst = 0.0
    for got, want in zip(errors, target):
        worst = max(worst, abs(got - want) / want)
    if worst > TROTTER_RTOL:
        return f"error differs from the expm oracle by more than {TROTTER_RTOL!r} relative", worst
    for a, b in zip(errors, errors[1:]):
        if abs(b / a - expect["decay"]) > 0.05:
            return f"error ratio {b / a:.4f} under doubling k, expected {expect['decay']:.4f}", worst
    return None, worst


def check(item, code, out, err, target=None):
    """Return ``(reason, residual)``; ``reason`` is None when the output is correct.

    ``residual`` is the number the verdict turned on, where there is one: the
    verify ``max_residual`` (gate ``VERIFY_GATE``) or the trotter rows' worst
    relative gap to the expm target.
    """
    verb = item["argv"][0]
    if verb == "verify":
        return _check_verify(item, code, out, err)
    if verb == "quotient":
        return _check_quotient(item, code, out, err)
    if verb == "subspace":
        return _check_subspace(item, code, out, err)
    return _check_trotter(item, code, out, err, target)


def matches_known_defect(item, code, out, err):
    """True when a failed op shows exactly its item's registered defect."""
    defect = item["known_defect"]
    if defect == "absolute_reflection_gate":
        rep = _json(out)
        try:
            others = [rep[k]["max_residual"] for k in ("pair", "algebra", "lts_axioms")]
            others += [rep["one_param_homomorphism"], *rep["exp_functoriality"].values()]
            reflection = rep["reflection"]["max_residual"]
        except (KeyError, TypeError):
            return False
        # the sampled reflection residual is the only one to cross the gate
        return code == 1 and reflection >= VERIFY_GATE and max(others) < VERIFY_GATE
    if defect == "center_unfaithful":
        rep = _json(out)
        return code == 1 and rep is not None and "no faithful matrix realization" in str(rep.get("error"))
    if defect == "nonisomorphic_diagonal":
        return code == 2 and "seed is not a triple subsystem" in err
    return False


def program_seed(workload, key, group):
    """The ``--seed`` the program receives for one item in one seed group.

    It does not depend on the benchmark seed: ``verify``'s known defect turns
    on the program seed, and a run's failure count must not change with the
    benchmark seed.
    """
    digest = hashlib.sha256(f"{workload}/{key}/{group}".encode()).digest()
    return int.from_bytes(digest[:4], "big") % 2**31


def pass_order(seed, workload, first_op, count):
    """The item order of the pass that starts at op ``first_op``, drawn from the benchmark seed."""
    order = list(range(count))
    random.Random(f"{seed}/{workload}/{first_op}").shuffle(order)
    return order
