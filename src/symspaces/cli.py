"""Command-line front end.

Verbs: verify, trotter, quotient, subspace, models.  Exit codes are a
stable contract: 0 all checks pass, 1 a check failed, 2 usage error,
3 the quotient theorem gate rejected the input (no weak-submersion
quotient exists).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from typing import Optional

import numpy as np

from .catalog import ModelDescriptor, build_model, parse_model
from .lts import LinearSubspace, VerificationError, algebra_from_json, check_lts_axioms
from .numkernel import Tolerance
from .quotient import (
    FaithfulnessError,
    QuotientGateError,
    quotient_theorem_pipeline,
    weak_submersion_check,
)
from .reports import (
    VERIFY_GATE,
    subspace_report,
    trotter_bracket_table,
    trotter_sum_table,
    verify_model,
)
from .sympair import MatrixSymmetricPair

__all__ = ["main"]

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_GATE = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="symspaces",
        description="Verification and quotient pipelines for matrix symmetric spaces.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def common(p):
        p.add_argument("--model", required=True, help="model spec, e.g. sphere(2), or a JSON descriptor path")
        p.add_argument(
            "--params",
            default=None,
            help="comma-separated k=v constructor parameters for a bare model name",
        )
        p.add_argument("--out", default=None, help="output path (default: stdout)")
        p.add_argument("--format", default=None, choices=("json", "csv", "text"))
        p.add_argument("--tol-abs", type=float, default=1e-10)
        p.add_argument("--tol-rel", type=float, default=1e-9)
        p.add_argument("--seed", type=int, default=42)

    p_verify = sub.add_parser("verify", help="run axiom and functoriality suites")
    common(p_verify)

    p_trotter = sub.add_parser("trotter", help="emit Trotter convergence tables")
    common(p_trotter)
    p_trotter.add_argument("--x", required=True, help="comma-separated g_minus coordinates")
    p_trotter.add_argument("--y", required=True, help="comma-separated g_minus coordinates")
    p_trotter.add_argument("--z", default=None, help="optional third vector (bracket formula)")
    p_trotter.add_argument("--k-min", type=int, default=16)
    p_trotter.add_argument("--k-max", type=int, default=4096)

    p_quot = sub.add_parser("quotient", help="run the quotient theorem pipeline")
    common(p_quot)
    p_quot.add_argument(
        "--ideal",
        required=True,
        help="designated subspace name, or semicolon-separated g_minus basis vectors",
    )

    p_sub = sub.add_parser("subspace", help="round-trip and chart checks for designated subspaces")
    common(p_sub)

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


def _load_model(spec: str, tol: Tolerance, params: Optional[str] = None) -> ModelDescriptor:
    if spec.endswith(".json") or os.path.exists(spec):
        with open(spec) as fh:
            data = json.load(fh)
        if "ambient_n" in data:
            pair = MatrixSymmetricPair.from_json(data, tol)
            return ModelDescriptor(name=pair.label or "file", params={}, pair=pair)
        raise _DescriptorOnly(data)
    if params:
        kv = {}
        for part in params.split(","):
            key, _, value = part.partition("=")
            if not _:
                raise ValueError(f"malformed --params entry {part!r}")
            kv[key.strip()] = value.strip()
        return build_model(spec, kv, tol)
    return parse_model(spec, tol)


class _DescriptorOnly(Exception):
    """Raised when the model file holds a bare algebra descriptor."""

    def __init__(self, data):
        super().__init__("algebra descriptor")
        self.data = data


def _cmd_verify(args) -> int:
    tol = Tolerance(args.tol_abs, args.tol_rel)
    try:
        model = _load_model(args.model, tol, args.params)
    except _DescriptorOnly as exc:
        algebra = algebra_from_json(exc.data, tol)
        rep = check_lts_axioms(algebra).as_dict() if hasattr(algebra, "tensor") else algebra.validate()
        rep["ok"] = bool(rep["max_residual"] < VERIFY_GATE)
        _emit(_json_text(rep), args.out)
        return EXIT_OK if rep["ok"] else EXIT_CHECK_FAILED
    rng = np.random.default_rng(args.seed)
    report = verify_model(model, rng)
    _emit(_json_text(report), args.out)
    return EXIT_OK if report["ok"] else EXIT_CHECK_FAILED


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


def _cmd_trotter(args) -> int:
    tol = Tolerance(args.tol_abs, args.tol_rel)
    model = _load_model(args.model, tol, args.params)
    m = model.pair.dim_minus
    x, y = _minus_vector(args.x, "--x", m), _minus_vector(args.y, "--y", m)
    ks = _trotter_ks(args.k_min, args.k_max)
    if args.z is not None:
        rows = trotter_bracket_table(model, x, y, _minus_vector(args.z, "--z", m), ks)
        header = "k,l,error"
        lines = [f"{r['k']},{r['l']},{r['error']!r}" for r in rows]
    else:
        rows = trotter_sum_table(model, x, y, ks)
        header = "k,error"
        lines = [f"{r['k']},{r['error']!r}" for r in rows]
    if args.format == "json":
        _emit(_json_text(rows), args.out)
    else:
        _emit("\n".join([header] + lines) + "\n", args.out)
    return EXIT_OK


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


def _cmd_quotient(args) -> int:
    tol = Tolerance(args.tol_abs, args.tol_rel)
    model = _load_model(args.model, tol, args.params)
    rng = np.random.default_rng(args.seed)
    try:
        seed, space = _resolve_ideal(model, args.ideal)
    except ValueError as exc:
        sys.stderr.write(f"error: cannot parse --ideal: {exc}\n")
        return EXIT_USAGE
    try:
        result = quotient_theorem_pipeline(model.pair, seed, subspace=space, rng=rng)
    except QuotientGateError as exc:
        _emit(
            _json_text(
                {
                    "ok": False,
                    "rejected_by": "symmetric-subspace gate",
                    "explanation": str(exc),
                    "witness": exc.report,
                }
            ),
            args.out,
        )
        return EXIT_GATE
    except (FaithfulnessError, ValueError) as exc:
        _emit(_json_text({"ok": False, "error": str(exc)}), args.out)
        return EXIT_CHECK_FAILED
    submersion = weak_submersion_check(result, rng=rng)
    report = dict(result.report)
    report["weak_submersion"] = submersion["ok"]
    report["sample_pass_rates"] = submersion["sample_pass_rates"]
    report["ok"] = submersion["ok"]
    _emit(_json_text(report), args.out)
    return EXIT_OK if submersion["ok"] else EXIT_CHECK_FAILED


def _cmd_subspace(args) -> int:
    tol = Tolerance(args.tol_abs, args.tol_rel)
    model = _load_model(args.model, tol, args.params)
    rng = np.random.default_rng(args.seed)
    report = subspace_report(model, rng)
    _emit(_json_text(report), args.out)
    return EXIT_OK if report["ok"] else EXIT_CHECK_FAILED


def _cmd_models(args) -> int:
    lines = [
        "sphere(n)            round sphere geometry, G = SO(n+1)",
        "spd(n)               positive-definite matrices, G = GL(n)",
        "grassmann(k,n)       Grassmannian planes, G = SO(n)",
        "torus_abelian(slope) flat torus; slope sqrt2 carries the dense winding line",
        "product(a,b)         block-diagonal product of two models",
    ]
    sys.stdout.write("\n".join(lines) + "\n")
    return EXIT_OK


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        if args.verb == "verify":
            return _cmd_verify(args)
        if args.verb == "trotter":
            return _cmd_trotter(args)
        if args.verb == "quotient":
            return _cmd_quotient(args)
        if args.verb == "subspace":
            return _cmd_subspace(args)
        if args.verb == "models":
            return _cmd_models(args)
    except (ValueError, KeyError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except VerificationError as exc:  # a re-checked guarantee failed, e.g. closure under a tolerance below its rounding
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_CHECK_FAILED
    return EXIT_USAGE


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
