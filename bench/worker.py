"""The measured interpreter of one benchmark run.

``run.py`` starts this script in a fresh interpreter and writes the run's
plan to its stdin as JSON.  The script imports ``symspaces.cli`` first (that
import is one set-up sample), then acts as a single closed-loop client:
passes over the workload's items call ``symspaces.cli.main(argv)`` in
process, one op after the other, with stdout and stderr captured.  It checks
each op's output against the oracle and prints one JSON object of op records
(and, for a traced run, per-pass span statistics) on its own stdout.

With ``--import-only`` it times the import and the calibration kernel and
prints just those.

Between ops the client times a fixed calibration kernel; ``run.py`` uses
those times to scale each op's wall time to a reference speed.
"""

import time

_start = time.perf_counter()
import symspaces.cli as cli  # noqa: E402  (the timed import must come first)

IMPORT_S = time.perf_counter() - _start

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402

import workloads  # noqa: E402

# bound before a traced run wraps them
_svd, _einsum = np.linalg.svd, np.einsum
_M = np.arange(36.0).reshape(6, 6) / 36.0 + np.eye(6)
_T = np.arange(12.0**4).reshape(12, 12, 12, 12) / 12.0**4
_R = np.arange(36.0).reshape(3, 12) / 36.0


def calibrate():
    """Time a fixed kernel in the program's own mix of work.

    Small LAPACK calls through numpy, numpy's own einsum loops and plain
    interpreter work, in about equal parts.
    """
    start = time.perf_counter()
    for _ in range(200):
        _svd(_M @ _M, compute_uv=False)
    _einsum("ijkl,ai,bj,ck->abcl", _T, _R, _R, _R)
    table = {}
    for i in range(12000):
        table[i & 255] = table.get(i & 255, 0.0) + 0.5 * i
    return time.perf_counter() - start


def run_op(item, seed, target):
    argv = item["argv"] + ["--seed", str(seed)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except Exception:  # an escaped exception is a failed op, not a crashed run
            code = -1
            traceback.print_exc(file=err)
        wall = time.perf_counter() - start
    text, msg = out.getvalue(), err.getvalue()
    reason, residual = workloads.check(item, code, text, msg, target)
    return {
        "seed": seed,
        "start": start,
        "wall_s": wall,
        "exit": code,
        "sha256": hashlib.sha256(text.encode()).hexdigest(),
        "reason": reason,
        "known": reason is not None and workloads.matches_known_defect(item, code, text, msg),
        "residual": residual,
    }


def run_phase(plan, ops, calibration, budget, min_passes, groups, tracer=None):
    """Run whole passes until ``budget`` seconds have passed and ``min_passes`` have run.

    Pass ``p`` gives every item the program seed of group ``p % groups``, in
    an item order drawn from the benchmark seed.  A calibration sample
    ``[time, seconds]`` is taken before the first op and after every op.
    """
    items, targets = plan["items"], plan["targets"]
    start = time.perf_counter()
    passes = 0
    calibration.append([start, calibrate()])
    while passes < min_passes or time.perf_counter() - start < budget:
        group = passes % groups
        for index in workloads.pass_order(plan["seed"], plan["workload"], len(ops), len(items)):
            item = items[index]
            seed = workloads.program_seed(plan["workload"], item["key"], group)
            if tracer is not None:
                tracer.op = len(ops)
            record = run_op(item, seed, targets.get(str(index)))
            record.update(item=index, group=group, traced=tracer is not None)
            ops.append(record)
            calibration.append([time.perf_counter(), calibrate()])
        passes += 1


def setup_sample():
    return {"import_s": IMPORT_S, "calib_s": calibrate()}


def main():
    if sys.argv[1:] == ["--import-only"]:
        json.dump(setup_sample(), sys.stdout)
        return
    setup = setup_sample()
    plan = json.load(sys.stdin)
    ops, calibration = [], []
    result = {"setup": setup, "ops": ops, "calibration": calibration}
    if not plan["trace"]:
        # every seed group runs at least twice: each case is checked and then repeated
        groups = plan["seed_groups"]
        run_phase(plan, ops, calibration, plan["seconds"], 2 * groups, groups)
    else:
        import tracer as tracing

        # the untraced phase checks every case; the traced passes all use group 0, so
        # they can be compared byte for byte with the untraced ops and counts must repeat
        groups = plan["seed_groups"]
        run_phase(plan, ops, calibration, plan["seconds"] / 2, 2 * groups, groups)
        first_traced = len(ops)
        tracer = tracing.Tracer()
        tracer.install()
        run_phase(plan, ops, calibration, plan["seconds"] / 2, 2, 1, tracer)
        per_op = tracer.per_op()
        width = len(plan["items"])
        passes = []
        for first in range(first_traced, len(ops), width):
            merged = {}
            for op in range(first, first + width):
                for name, stats in per_op.get(op, {}).items():
                    into = merged.setdefault(name, {})
                    for key, value in stats.items():
                        into[key] = max(into.get(key, 0), value) if key == "peak_mb" else into.get(key, 0) + value
            passes.append(merged)
        result["trace_passes"] = passes
        result["span_count"] = len(tracer.spans)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    json.dump(result, sys.stdout)


if __name__ == "__main__":
    main()
