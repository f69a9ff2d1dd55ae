"""Record, or compare, the exact output bytes of every benchmark case.

    PYTHONPATH=src python3 scripts/case_bytes.py --out before.json
    PYTHONPATH=src python3 scripts/case_bytes.py --diff before.json after.json
    PYTHONPATH=src python3 scripts/case_bytes.py --digests tests/data/case_digests.json

A case is one item of ``bench/workloads.py`` on the program seed of one of
its workload's seed groups (88 cases in all).  Each case runs in process
through ``symspaces.cli.main``, as the benchmark worker runs it, and the
record maps ``"<workload> | <item key> | seed <seed>"`` to
``[exit, stdout, stderr]``.  ``workloads.py`` is read, never changed.

``--diff`` prints every case whose record differs.  JSON reports are
compared leaf by leaf, CSV tables cell by cell; a field is a leaf's path
with its list indices folded into ``[]``, or a table's column.  Over the
leaves both reports share it prints the largest absolute change of each
numeric field that moved, and it lists the fields of the leaves that only
one report has as removed or added.  Any other change is printed as text.
Its last line counts the differing cases whose exit code or any JSON
boolean of stdout changed (a case only in one file counts as differing,
not as a changed verdict).  The exit status is 1 when some case differs.

``--digests`` writes the small form of the record that the test suite
compares against (``tests/test_case_digests.py``): per case the exit code,
the SHA-256 of stdout and of stderr and the JSON booleans of stdout, with
the numpy and BLAS build the bytes were made on.  Every record is made at
one BLAS thread, whatever ``OPENBLAS_NUM_THREADS`` says, so that the
bytes do not follow the thread count of the host.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import hashlib
import io
import json
import math
import sys
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402

# BLAS threads of every record: a threaded contraction sums in an order that
# follows the thread count, and moves a report by an ulp
BLAS_THREADS = 1


def case_name(workload: str, item: dict, seed: int) -> str:
    return f"{workload} | {item['key']} | seed {seed}"


def run_cases(workload: str | None = None, group: int | None = None) -> dict:
    """The record of every case, or of one workload's cases (on one seed group),
    made at ``BLAS_THREADS`` BLAS threads; the old thread count is restored after."""
    from symspaces import cli

    record = {}
    with _blas_threads(BLAS_THREADS):
        for name, spec in workloads.WORKLOADS.items():
            if workload not in (None, name):
                continue
            for g in range(spec["seed_groups"]) if group is None else [group]:
                for item in spec["items"]:
                    seed = workloads.program_seed(name, item["key"], g)
                    out, err = io.StringIO(), io.StringIO()
                    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                        try:
                            code = cli.main(item["argv"] + ["--seed", str(seed)])
                        except Exception:  # an escaped exception is a result too
                            code = -1
                            traceback.print_exc(file=err)
                    record[case_name(name, item, seed)] = [code, out.getvalue(), err.getvalue()]
    return record


def environment() -> dict:
    """The numpy version, the BLAS build and runtime kernel, and the BLAS thread
    count of ``run_cases`` (None where it cannot be set): what decides the report bits."""
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    core = _openblas("scipy_openblas_get_corename64_", ctypes.c_char_p)
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_core": core().decode() if core else None,
        "blas_threads": BLAS_THREADS if _openblas("scipy_openblas_set_num_threads64_", None) else None,
    }


def _openblas(name: str, restype, *argtypes):
    # a function of the DYNAMIC_ARCH OpenBLAS that numpy bundles; None where numpy bundles no such library
    import numpy as np

    for lib in glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "libscipy_openblas64_*")):
        func = getattr(ctypes.CDLL(lib), name, None)
        if func is not None:
            func.argtypes, func.restype = list(argtypes), restype
            return func
    return None


@contextlib.contextmanager
def _blas_threads(count: int):
    """Run the block at ``count`` BLAS threads and restore the old count after;
    where the bundled OpenBLAS is missing, run it as it is."""
    get = _openblas("scipy_openblas_get_num_threads64_", ctypes.c_int)
    set_threads = _openblas("scipy_openblas_set_num_threads64_", None, ctypes.c_int)
    if get is None or set_threads is None:
        yield
        return
    old = get()
    set_threads(count)
    try:
        yield
    finally:
        set_threads(old)


def digests(record: dict) -> dict:
    """Per case ``[exit, sha256(stdout), sha256(stderr), JSON booleans of stdout]``."""

    def sha(text: str) -> str:
        return hashlib.sha256(text.encode()).hexdigest()

    cases = {case: [code, sha(out), sha(err), booleans(out)] for case, (code, out, err) in record.items()}
    return {"environment": environment(), "cases": cases}


def booleans(text: str) -> list:
    """The JSON booleans of a report, in leaf order ([] for a report that is not JSON)."""
    try:
        return [v for _, _, v in _leaves(json.loads(text)) if isinstance(v, bool)]
    except ValueError:  # a CSV table or an error: no JSON
        return []


def _leaves(value, path="", at=()):
    """Yield ``(field, indices, value)`` for every leaf of a parsed JSON value;
    the field folds the leaf's list indices into ``[]``, and ``indices`` holds them."""
    if isinstance(value, dict):
        for key, sub in value.items():
            yield from _leaves(sub, f"{path}.{key}" if path else str(key), at)
    elif isinstance(value, list):
        for i, sub in enumerate(value):
            yield from _leaves(sub, f"{path}[]", at + (i,))
    else:
        yield path, at, value


def _table(text):
    """Parse a CSV table with a header row into ``(column, (row,), cell)`` leaves, or None."""
    lines = text.strip().splitlines()
    if len(lines) < 2:
        return None
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    if any(len(row) != len(header) for row in rows):
        return None
    return [(header[j], (i,), _cell(cell)) for i, row in enumerate(rows) for j, cell in enumerate(row)]


def _report_leaves(text):
    """``{(field, indices): value}`` of a JSON report or a CSV table, or None for other text."""
    try:
        leaves = _leaves(json.loads(text))
    except ValueError:
        leaves = _table(text)
    return None if leaves is None else {(name, at): value for name, at, value in leaves}


def _cell(text):
    try:
        return float(text)
    except ValueError:
        return text


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def field_changes(before: str, after: str):
    """``(worst, removed, added)``: the largest absolute change per numeric field
    over the leaves both reports share, and the sorted fields of the leaves only
    the first or only the second has.  None if the texts are not both reports,
    if a shared leaf that is not a number changed, or if no leaf moved."""
    a, b = _report_leaves(before), _report_leaves(after)
    if a is None or b is None:
        return None
    worst = {}
    for key in a.keys() & b.keys():
        va, vb = a[key], b[key]
        if va == vb or (va != va and vb != vb):  # equal, or both NaN
            continue
        if not (_is_number(va) and _is_number(vb)):
            return None
        change = abs(vb - va) if math.isfinite(va) and math.isfinite(vb) else math.inf
        worst[key[0]] = max(worst.get(key[0], 0.0), change)
    removed = sorted({name for name, _ in a.keys() - b.keys()})
    added = sorted({name for name, _ in b.keys() - a.keys()})
    return (worst, removed, added) if worst or removed or added else None


def diff(a: dict, b: dict) -> int:
    changed = verdicts = 0
    for case in sorted(set(a) | set(b)):
        if case not in a or case not in b:
            print(f"{case}: only in {'the second' if case in b else 'the first'} file")
            changed += 1
            continue
        if a[case] == b[case]:
            continue
        changed += 1
        verdicts += a[case][0] != b[case][0] or booleans(a[case][1]) != booleans(b[case][1])
        print(case)
        for label, before, after in zip(("exit", "stdout", "stderr"), a[case], b[case]):
            if before == after:
                continue
            if label == "exit":
                print(f"  exit: {before} -> {after}")
                continue
            fields = field_changes(before, after)
            if fields is None:
                print(f"  {label}: text changed\n    - {before.strip()[-300:]!r}\n    + {after.strip()[-300:]!r}")
                continue
            worst, removed, added = fields
            for kind, names in (("removed", removed), ("added", added)):
                if names:
                    print(f"  {label} {kind}: {', '.join(names)}")
            for name, change in sorted(worst.items()):
                print(f"  {label} {name}: {change:.3e}")
    print(f"{changed} of {len(set(a) | set(b))} cases differ")
    print(f"{verdicts} of them changed an exit code or a JSON boolean")
    return 1 if changed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", help="write the case record here (default: stdout)")
    parser.add_argument("--diff", nargs=2, metavar=("A", "B"), help="compare two case records")
    parser.add_argument("--digests", metavar="PATH", help="write the digests of the case record here")
    args = parser.parse_args(argv)
    if args.diff:
        with open(args.diff[0]) as fa, open(args.diff[1]) as fb:
            return diff(json.load(fa), json.load(fb))
    if args.digests:
        record = digests(run_cases())
        cases = ",\n".join(f"{json.dumps(c)}: {json.dumps(v)}" for c, v in sorted(record["cases"].items()))
        env = json.dumps(record["environment"], sort_keys=True)
        Path(args.digests).write_text(f'{{\n"environment": {env},\n"cases": {{\n{cases}\n}}\n}}\n')
        return 0
    text = json.dumps(run_cases(), indent=1, sort_keys=True)
    if args.out:
        Path(args.out).write_text(text + "\n")
    else:
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
