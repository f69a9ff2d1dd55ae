"""List the functions of ``src/symspaces`` that the command line never enters.

    PYTHONPATH=src python3 scripts/public_surface.py

The script runs every benchmark case (``case_bytes.run_cases()``, 88 cases)
and the ``models`` verb in process under ``sys.setprofile``, records each
function of the package that is entered, and prints every function (methods
and nested closures included, lambdas and comprehensions not) that was
never entered, one per line as ``module:line  qualified name  (lines)``,
where ``lines`` runs from the ``def`` (or its first decorator) to the last
line of the body.  Then it counts the functions and lines never entered out
of all of them.

A function listed here needs another reason to stay in the package: an
acceptance criterion that names it, or a place in the README's "Public
API".  ``REASONS`` below holds the reason of every exported name; the last
line names each export whose reason there is ``cli`` that no case entered
(a function never entered, or a class none of whose methods was), or says
that there is none, and the exit code is 1 if there is one.
``tests/test_public_surface.py`` checks the table against the exports, the
acceptance criteria and the README; ``tests/test_case_digests.py`` makes
this audit on its own run of the cases.
"""

from __future__ import annotations

import ast
import contextlib
import io
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "symspaces"

# The reason of every name of a module's ``__all__``: ``cli`` (a benchmark case
# of the command line or ``symspaces models`` reaches it), ``criterion_NN``
# (acceptance criterion NN names it) or ``readme_api`` (the README's
# "Public API" lists it).
REASONS = {
    "numkernel.INVERTIBLE_DET_FLOOR": "cli",
    "numkernel.Tolerance": "cli",
    "numkernel.DEFAULT_TOL": "cli",
    "numkernel.DomainError": "cli",
    "numkernel.as_matrix": "cli",
    "numkernel.mat_exp": "readme_api",
    "numkernel.mat_log": "readme_api",
    "numkernel.nullspace": "criterion_05",
    "numkernel.op_norm": "readme_api",
    "lts.LinearSubspace": "cli",
    "lts.LieTripleSystem": "cli",
    "lts.LtsMorphism": "readme_api",
    "lts.SymmetricLieAlgebra": "cli",
    "lts.LtsAxiomReport": "cli",
    "lts.check_lts_axioms": "cli",
    "lts.is_subsystem": "cli",
    "lts.is_ideal": "cli",
    "lts.ideal_report": "cli",
    "lts.quotient_lts": "criterion_07",
    "lts.direct_sum_lts": "readme_api",
    "lts.standard_embedding": "readme_api",
    "lts.PsiRepresentation": "cli",
    "lts.psi_representation": "readme_api",
    "lts.ideal_ker_psi_plus_n": "criterion_09",
    "lts.ideal_bracket_plus_n": "criterion_09",
    "lts.displacement_algebra": "readme_api",
    "lts.algebra_to_json": "readme_api",
    "lts.algebra_from_json": "readme_api",
    "sympair.SigmaRule": "cli",
    "sympair.MatrixSymmetricPair": "cli",
    "sympair.PairMorphism": "cli",
    "sympair.group_sigma": "readme_api",
    "sympair.apply_pair_morphism": "readme_api",
    "symspace.SymPoint": "cli",
    "symspace.Points": "cli",
    "symspace.base_point": "readme_api",
    "symspace.mu_points": "cli",
    "symspace.same_points": "cli",
    "symspace.exp_point": "cli",
    "symspace.exp_points": "cli",
    "symspace.log_point": "readme_api",
    "symspace.log_points": "cli",
    "symspace.one_param": "readme_api",
    "symspace.translation": "readme_api",
    "symspace.tau_actions": "readme_api",
    "symspace.trotter_sum_sym": "cli",
    "symspace.trotter_bracket_sym": "cli",
    "symspace.chain_identity_check": "criterion_04",
    "symspace.lts_of_pair": "cli",
    "symspace.SymMorphism": "cli",
    "symspace.sym_morphism": "cli",
    "symspace.cartan_distance": "cli",
    "symspace.cartan_distances": "cli",
    "subspace.ProbeWitness": "cli",
    "subspace.ReflectionSubspace": "cli",
    "subspace.ChartMembership": "cli",
    "subspace.CertificationError": "readme_api",
    "subspace.ChartSplitError": "cli",
    "subspace.ChartReport": "cli",
    "subspace.algebraic_subspace": "cli",
    "subspace.fixed_point_subspace": "cli",
    "subspace.whole_space": "readme_api",
    "subspace.base_only": "criterion_06",
    "subspace.generate_integral": "cli",
    "subspace.lts_of_subspace": "cli",
    "subspace.lts_roundtrip_check": "criterion_05",
    "subspace.exp_chart_split": "cli",
    "subspace.split_complement_criterion": "cli",
    "subspace.preimage_subspace": "criterion_06",
    "subspace.kernel_subspace": "readme_api",
    "subspace.mu_closure_check": "criterion_11",
    "quotient.CongruenceRelation": "cli",
    "quotient.ChartRelation": "cli",
    "quotient.QuotientResult": "cli",
    "quotient.PointProjection": "cli",
    "quotient.QuotientGateError": "cli",
    "quotient.FaithfulnessError": "cli",
    "quotient.congruence_from_ideal": "criterion_12",
    "quotient.quotient_theorem_pipeline": "cli",
    "quotient.weak_submersion_check": "cli",
    "quotient.relation_closure_check": "criterion_12",
    "catalog.ModelDescriptor": "cli",
    "catalog.DesignatedSubspace": "cli",
    "catalog.DesignatedMorphism": "cli",
    "catalog.TorusLattice": "cli",
    "catalog.MODEL_NAMES": "cli",
    "catalog.build_model": "cli",
    "catalog.parse_model": "cli",
    "catalog.pell_convergents": "cli",
    "reports.reflection_axiom_report": "cli",
    "reports.verify_model": "cli",
    "reports.trotter_sum_table": "cli",
    "reports.trotter_bracket_table": "cli",
    "reports.subspace_report": "cli",
    "cli.main": "cli",
}


def functions() -> dict:
    """``{(path, first line): (qualified name, line count)}`` of every ``def`` under ``SRC``."""
    found = {}
    for path in sorted(SRC.glob("*.py")):

        def walk(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = child.decorator_list[0].lineno if child.decorator_list else child.lineno
                    name = f"{prefix}{child.name}"
                    found[(str(path), first)] = (name, child.end_lineno - first + 1)
                    walk(child, f"{name}.")
                elif isinstance(child, ast.ClassDef):
                    walk(child, f"{prefix}{child.name}.")
                else:
                    walk(child, prefix)

        walk(ast.parse(path.read_text()), "")
    return found


@contextlib.contextmanager
def recording():
    """Collect ``(path, first line)`` of every package function entered in the block."""
    entered = set()
    root = str(SRC)

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.startswith(root):
            entered.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        yield entered
    finally:
        sys.setprofile(previous)


def run_audited(case_bytes) -> tuple[dict, set]:
    """The records of ``case_bytes.run_cases()``, and ``(path, first line)`` of
    every package function that the cases and the ``models`` verb entered."""
    from symspaces import cli

    with recording() as entered:
        records = case_bytes.run_cases()
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(["models"])
    return records, entered


def unreached_cli_exports(found: dict, entered: set) -> list:
    """The exports whose reason is ``cli`` that name a function never entered,
    or a class with methods none of which was entered."""
    reached = {(Path(key[0]).stem, found[key][0]) for key in entered if key in found}
    defined = {(Path(path).stem, name) for (path, _), (name, _) in found.items()}
    out = []
    for key, reason in REASONS.items():
        module, name = key.split(".", 1)
        if reason != "cli":
            continue
        if (module, name) in defined and (module, name) not in reached:
            out.append(key)
        methods = {n for m, n in defined if m == module and n.startswith(f"{name}.")}
        if methods and not any((module, n) in reached for n in methods):
            out.append(key)
    return out


def main() -> int:
    import case_bytes  # the script's own directory is on sys.path

    found = functions()
    _, entered = run_audited(case_bytes)
    missed = sorted(key for key in found if key not in entered)
    for path, first in missed:
        name, lines = found[(path, first)]
        print(f"{Path(path).stem}:{first}  {name}  ({lines})")
    total_lines = sum(lines for _, lines in found.values())
    missed_lines = sum(found[key][1] for key in missed)
    print(f"{len(missed)} of {len(found)} functions ({missed_lines} of {total_lines} lines) never entered")
    unreached = unreached_cli_exports(found, entered)
    print(f"exports with the reason cli that no case entered: {', '.join(unreached) or 'none'}")
    return 1 if unreached else 0


if __name__ == "__main__":
    sys.exit(main())
