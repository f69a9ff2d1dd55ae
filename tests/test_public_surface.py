"""Every exported name has a reason to be public.

``scripts/public_surface.py``'s ``REASONS`` maps each name of a module's
``__all__`` (and with it every name that ``symspaces/__init__.py`` exports)
to one of three reasons:

* ``cli``: a benchmark case of the command line (or ``symspaces models``)
  reaches it.  ``tests/test_case_digests.py`` checks this for functions and
  classes on its run of the cases; here the name must at least be used by
  package code other than its own definition, which is the only check of
  the constants and of classes without methods.
* ``criterion_NN``: acceptance criterion ``NN`` of ``tests/test_acceptance.py``
  names it in its test.
* ``readme_api``: the "Public API" section of the README lists it.

The test is static: it runs no command line case.
"""

import ast
import importlib
import re
from pathlib import Path

import symspaces

from oracles import load_script

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "symspaces"
MODULES = ("numkernel", "lts", "sympair", "symspace", "subspace", "quotient", "catalog", "reports", "cli")

REASONS = load_script("public_surface").REASONS


def exported() -> dict:
    """``{"module.name": object}`` of every name in a module's ``__all__``."""
    out = {}
    for short in MODULES:
        mod = importlib.import_module(f"symspaces.{short}")
        for name in mod.__all__:
            out[f"{short}.{name}"] = getattr(mod, name)
    return out


def criterion_sources() -> dict:
    """``{"NN": source of test_criterion_NN_*}`` of the acceptance suite."""
    path = ROOT / "tests" / "test_acceptance.py"
    text = path.read_text()
    out = {}
    for node in ast.parse(text).body:
        match = isinstance(node, ast.FunctionDef) and re.fullmatch(r"test_criterion_(\d\d)_\w+", node.name)
        if match:
            out[match.group(1)] = ast.get_source_segment(text, node)
    return out


def readme_api_names() -> set:
    """The backquoted names of the README's "Public API" section."""
    text = (ROOT / "README.md").read_text()
    section = re.search(r"^## Public API\n(.*?)(?=^## )", text, re.S | re.M)
    assert section, "README has no Public API section"
    return set(re.findall(r"`([A-Za-z_][A-Za-z_0-9]*)`", section.group(1)))


def used_in_package(name: str) -> bool:
    """Whether package code other than the name's own definition and ``__all__`` entry uses it."""
    definition = re.compile(rf"^\s*(?:class|def)\s+{name}\b|^{name}\s*=|^\s*\"{name}\",$")
    word = re.compile(rf"\b{name}\b")
    for path in SRC.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for line in path.read_text().splitlines():
            if word.search(line) and not definition.search(line):
                return True
    return False


def test_every_export_has_a_reason():
    missing = sorted(set(exported()) - set(REASONS))
    assert not missing, f"exports with no reason: {missing}"


def test_every_reason_names_an_export():
    stale = sorted(set(REASONS) - set(exported()))
    assert not stale, f"reasons for names that are not exported: {stale}"


def test_every_package_export_is_a_module_export():
    objects = exported()
    public = [n for n in vars(symspaces) if not n.startswith("_") and n not in MODULES]
    loose = sorted(
        n for n in public
        if not any(key.endswith(f".{n}") and obj is getattr(symspaces, n) for key, obj in objects.items())
    )
    assert not loose, f"symspaces exports that no module __all__ holds: {loose}"


def test_reasons_are_the_three_kinds():
    kinds = {reason for reason in REASONS.values() if not re.fullmatch(r"criterion_\d\d", reason)}
    assert kinds <= {"cli", "readme_api"}


def test_a_cli_name_is_used_by_the_package():
    unused = sorted(k for k, r in REASONS.items() if r == "cli" and not used_in_package(k.split(".", 1)[1]))
    assert not unused, f"cli names that no other package code uses: {unused}"


def test_a_criterion_names_its_names():
    sources = criterion_sources()
    unnamed = []
    for key, reason in REASONS.items():
        if reason.startswith("criterion_"):
            source = sources.get(reason.split("_")[1], "")
            if not re.search(rf"\b{key.split('.', 1)[1]}\b", source):
                unnamed.append((key, reason))
    assert not unnamed, f"criteria that do not name their names: {unnamed}"


def test_the_readme_lists_exactly_the_readme_api_names():
    names = {key.split(".", 1)[1]: reason for key, reason in REASONS.items()}
    assert len(names) == len(REASONS), "an exported name is exported by two modules"
    listed = readme_api_names() & set(names)
    want = {name for name, reason in names.items() if reason == "readme_api"}
    assert listed == want, {"unlisted": sorted(want - listed), "listed without the reason": sorted(listed - want)}
