"""Command-line front end.

Verbs: verify, trotter, quotient, subspace, models.  Exit codes are a
stable contract: 0 all checks pass, 1 a check failed, 2 usage error,
3 the quotient theorem gate rejected the input (no weak-submersion
quotient exists).

``main`` builds the run's ``Tolerance``, model and generator once and hands
them to the verb's command, which returns its output text and exit code.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from typing import Optional

import numpy as np

from .catalog import ModelDescriptor, parse_model
from .lts import LinearSubspace, VerificationError, algebra_from_json
from .numkernel import Tolerance
from .quotient import (
    FaithfulnessError,
    QuotientGateError,
    quotient_theorem_pipeline,
    weak_submersion_check,
)
from .reports import (
    subspace_report,
    trotter_bracket_table,
    trotter_sum_table,
    verify_algebra,
    verify_model,
)
from .sympair import MatrixSymmetricPair

__all__ = ["main"]

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_GATE = 3

MODELS = """\
sphere(n)            round sphere geometry, G = SO(n+1)
spd(n)               positive-definite matrices, G = GL(n)
grassmann(k,n)       Grassmannian planes, G = SO(n)
torus_abelian(slope) flat torus; slope sqrt2 carries the dense winding line
product(a,b)         block-diagonal product of two models
"""


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="symspaces",
        description="Verification and quotient pipelines for matrix symmetric spaces.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def model_verb(name, run, summary):
        p = sub.add_parser(name, help=summary)
        p.set_defaults(run=run)
        p.add_argument("--model", required=True, help="model spec, e.g. sphere(2), or a JSON descriptor path")
        p.add_argument("--out", default=None, help="output path (default: stdout)")
        p.add_argument("--tol-abs", type=float, default=1e-10)
        p.add_argument("--tol-rel", type=float, default=1e-9)
        p.add_argument("--seed", type=int, default=42)
        return p

    model_verb("verify", _cmd_verify, "run axiom and functoriality suites")

    p_trotter = model_verb("trotter", _cmd_trotter, "emit Trotter convergence tables")
    p_trotter.add_argument("--x", required=True, help="comma-separated g_minus coordinates")
    p_trotter.add_argument("--y", required=True, help="comma-separated g_minus coordinates")
    p_trotter.add_argument("--z", default=None, help="optional third vector (bracket formula)")
    p_trotter.add_argument("--k-min", type=int, default=16)
    p_trotter.add_argument("--k-max", type=int, default=4096)
    p_trotter.add_argument("--format", default="csv", choices=("csv", "json"))

    p_quot = model_verb("quotient", _cmd_quotient, "run the quotient theorem pipeline")
    p_quot.add_argument(
        "--ideal",
        required=True,
        help="designated subspace name, or semicolon-separated g_minus basis vectors",
    )

    model_verb("subspace", _cmd_subspace, "round-trip and chart checks for designated subspaces")

    sub.add_parser("models", help="list catalog models")
    return parser


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The one parser of the process, built by the first :func:`main` call
    (not at import); each ``parse_args`` still makes a fresh ``Namespace``."""
    return _build_parser()


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json_text(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _verdict(report: dict) -> tuple:
    return _json_text(report), EXIT_OK if report["ok"] else EXIT_CHECK_FAILED


def _parse_vector(text: str) -> np.ndarray:
    v = np.array([float(part) for part in text.split(",") if part.strip() != ""])
    if not np.isfinite(v).all():
        raise ValueError(f"vector entries must be finite: {text!r}")
    return v


def _minus_vector(text: str, flag: str, dim_minus: int) -> np.ndarray:
    v = _parse_vector(text)
    if v.size != dim_minus:
        raise ValueError(f"{flag} has {v.size} entries, but g_minus has dimension {dim_minus}")
    return v


def _finite_numbers(value) -> bool:
    try:
        a = np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError):
        return False
    return a.ndim >= 1 and bool(np.isfinite(a).all())


def _sigma_rule(value) -> bool:
    if not (isinstance(value, dict) and isinstance(value.get("kind"), str)):
        return False
    return value.get("theta_matrix") is None or _finite_numbers(value["theta_matrix"])


_COUNT = (lambda v: type(v) is int and v >= 0, "a non-negative integer")
_NUMBERS = (_finite_numbers, "an array of finite numbers")
_SIGMA = (_sigma_rule, "an object with a string 'kind' and an optional 'theta_matrix' of finite numbers")
_LABELS = (lambda v: isinstance(v, list) and all(isinstance(x, str) for x in v), "a list of strings")

# What each kind of JSON model file must hold: the required fields that
# _load_model reads, each with its test and what it must be, then the optional ones.
_FIELDS = {
    "pair": (
        {"ambient_n": _COUNT, "plus_count": _COUNT, "algebra_basis": _NUMBERS, "sigma": _SIGMA},
        {"label": (lambda v: isinstance(v, str), "a string")},
    ),
    "lts": ({"dim": _COUNT, "tensor": _NUMBERS}, {"labels": _LABELS}),
    "symmetric_lie_algebra": ({"tensor": _NUMBERS, "theta": _NUMBERS}, {"labels": _LABELS}),
}


def _descriptor(path: str, verb: str) -> dict:
    """The JSON object of a model file, each field that :func:`_load_model`
    reads checked once; otherwise a ``ValueError`` that names the file, the
    field and what it must hold."""
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: not a JSON file ({exc})") from exc
    if not isinstance(data, dict):
        raise ValueError(f"{path}: expected a JSON object at the top level, found a {type(data).__name__}")
    if "ambient_n" in data:
        kind = "pair"
    elif verb != "verify":
        raise ValueError(f"{path} holds no pair descriptor (no ambient_n); only verify reads an algebra descriptor")
    elif (kind := data.get("kind")) not in ("lts", "symmetric_lie_algebra"):
        raise ValueError(
            f"{path}: field 'kind' is {kind!r}; expected 'lts' or 'symmetric_lie_algebra' (or 'ambient_n' of a pair)"
        )
    required, optional = _FIELDS[kind]
    for name, (holds, what) in (required | optional).items():
        if name not in data and name in required:
            raise ValueError(f"{path}: field {name!r} is missing; expected {what}")
        if name in data and not holds(data[name]):
            raise ValueError(f"{path}: field {name!r} is not {what}")
    return data


def _load_model(spec: str, tol: Tolerance, verb: str):
    """The model of a catalog spec or of a JSON pair descriptor; for ``verify``
    also the algebra of a bare algebra descriptor, which any other verb rejects.
    A malformed file is a ``ValueError`` that names it."""
    if not (spec.endswith(".json") or os.path.exists(spec)):
        return parse_model(spec, tol)
    data = _descriptor(spec, verb)
    try:
        if "ambient_n" in data:
            pair = MatrixSymmetricPair.from_json(data, tol)
            return ModelDescriptor(name=pair.label or "file", params={}, pair=pair)
        return algebra_from_json(data, tol)
    except ValueError as exc:
        raise ValueError(f"{spec}: {exc}") from exc


def _cmd_verify(args, model, rng) -> tuple:
    return _verdict(verify_model(model, rng) if isinstance(model, ModelDescriptor) else verify_algebra(model))


def _trotter_ks(k_min: int, k_max: int) -> list:
    """The doubling ladder k_min, 2 k_min, 4 k_min, ... up to k_max (empty if k_min > k_max)."""
    if k_min < 1:
        raise ValueError(f"--k-min must be at least 1, got {k_min}")
    ks = []
    k = k_min
    # from k >= 1, doubling passes k_max within k_max.bit_length() steps
    for _ in range(max(k_max, 0).bit_length()):
        if k > k_max:
            break
        ks.append(k)
        k *= 2
    return ks


def _cmd_trotter(args, model, rng) -> tuple:
    m = model.pair.dim_minus
    x, y = _minus_vector(args.x, "--x", m), _minus_vector(args.y, "--y", m)
    ks = _trotter_ks(args.k_min, args.k_max)
    if args.z is not None:
        rows = trotter_bracket_table(model, x, y, _minus_vector(args.z, "--z", m), ks)
        columns = ("k", "l", "error")
    else:
        rows = trotter_sum_table(model, x, y, ks)
        columns = ("k", "error")
    if args.format == "json":
        return _json_text(rows), EXIT_OK
    lines = [",".join(columns)] + [",".join(repr(row[c]) for c in columns) for row in rows]
    return "\n".join(lines) + "\n", EXIT_OK


def _resolve_ideal(model: ModelDescriptor, spec: str):
    try:
        sub = model.subspace_by_name(spec)
    except KeyError:
        pass
    else:
        return sub.seed, sub.subspace
    vectors = [
        _parse_vector(part) for part in spec.split(";") if part.strip() != ""
    ]
    m = model.pair.dim_minus
    if not vectors:
        return LinearSubspace.zero(m), None
    return LinearSubspace.span(np.array(vectors), m, model.pair.tol), None


def _cmd_quotient(args, model, rng) -> tuple:
    try:
        seed, space = _resolve_ideal(model, args.ideal)
    except ValueError as exc:
        raise ValueError(f"cannot parse --ideal: {exc}") from exc
    try:
        result = quotient_theorem_pipeline(model.pair, seed, subspace=space, rng=rng)
    except QuotientGateError as exc:
        gate = {
            "ok": False,
            "rejected_by": "symmetric-subspace gate",
            "explanation": str(exc),
            "witness": exc.report,
        }
        return _json_text(gate), EXIT_GATE
    except (FaithfulnessError, ValueError) as exc:
        return _verdict({"ok": False, "error": str(exc)})
    submersion = weak_submersion_check(result, rng=rng)
    report = dict(result.report)
    report["weak_submersion"] = submersion["ok"]
    report["sample_pass_rates"] = submersion["sample_pass_rates"]
    report["ok"] = submersion["ok"]
    return _verdict(report)


def _cmd_subspace(args, model, rng) -> tuple:
    return _verdict(subspace_report(model, rng))


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    if args.verb == "models":
        sys.stdout.write(MODELS)
        return EXIT_OK
    try:
        tol = Tolerance(args.tol_abs, args.tol_rel)
        model = _load_model(args.model, tol, args.verb)
        text, code = args.run(args, model, np.random.default_rng(args.seed))
        _emit(text, args.out)
        return code
    except (ValueError, KeyError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except VerificationError as exc:  # a re-checked guarantee failed, e.g. closure under a tolerance below its rounding
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_CHECK_FAILED


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
