"""Benchmark ladder of the symspaces command line.

    python3 bench/run.py --workload quotient_ladder --seed 1 --seconds 30 --trace 0

One run measures one workload (see ``workloads.py``).  The runner records
the environment, times ``import symspaces.cli`` in several fresh
interpreters, computes the Trotter oracle with ``scipy.linalg.expm``, and
then starts ``worker.py``, the measured interpreter, which drives the CLI in
process.  It writes a results file under ``bench/results/`` and prints, as
its last line, one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics of ``metric_map.json`` with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
DEFAULT_SEED = 1
SECOND_SEED = 2  # kept out of tuning, to re-check a claim on a seed not used while writing it
BLAS_THREADS = 1  # one closed-loop client; never every core of a shared machine
SETUP_PROBES = 5
DEADLINE_S = 170.0
# Times are scaled to the speed at which worker.calibrate() takes REF_CALIB_S,
# using the median of the calibration samples within WINDOW_S of each op.
REF_CALIB_S = 0.007
WINDOW_S = 2.0
END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "item_ms_geomean": "ms",
    "slowest_item_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    tree = hashlib.sha256()
    for path in sorted((SRC / "symspaces").rglob("*.py")):
        tree.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "commit": commit,
        "src_sha256": tree.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "platform": platform.platform(),
    }


def setup_samples(env: dict) -> list:
    """Import times of ``symspaces.cli`` in fresh interpreters, each with its calibration."""
    samples = []
    for probe in range(SETUP_PROBES + 1):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), "--import-only"], env=env, cwd=ROOT,
            capture_output=True, text=True, timeout=60, check=True,
        )
        if probe:  # the first import of a fresh checkout also writes the bytecode caches
            samples.append(json.loads(proc.stdout))
    return samples


def trotter_errors(spec: dict) -> list:
    """Errors of a Trotter table's rows, computed independently with ``scipy.linalg.expm``.

    A point is carried by its Cartan matrix ``expm(2 V)``; the symmetry at ``P``
    maps ``Y`` to ``P Y^-1 P``, so an even word of symmetries maps ``Y`` to
    ``A Y B`` and the approximant of the base point is ``A B``.
    """
    import numpy as np
    from scipy.linalg import expm

    sys.path.insert(0, str(SRC))
    from symspaces.catalog import parse_model

    basis = parse_model(spec["model"]).pair.minus_mats
    inv, power = np.linalg.inv, np.linalg.matrix_power

    def mat(text):
        return np.tensordot(np.array([float(v) for v in text.split(",")]), basis, axes=1)

    def word(cartans):
        a = b = np.eye(basis.shape[1])
        for p, q in zip(cartans[::2], cartans[1::2]):
            a = a @ p @ inv(q)
            b = inv(q) @ p @ b
        return a, b

    x, y = mat(spec["x"]), mat(spec["y"])
    errors = []
    if spec["z"] is None:
        target = expm(2 * (x + y))
        for k in spec["ks"]:
            a, b = word([expm(x / k), expm(-y / k)])
            errors.append(float(np.linalg.norm(power(a, k) @ power(b, k) - target)))
        return errors
    z = mat(spec["z"])
    xy = x @ y - y @ x
    target = expm(2 * (xy @ z - z @ xy))
    for k in spec["ks"]:
        c = 1.0 / (2.0 * k * math.sqrt(k))  # the diagonal l = k
        ex, ey, exm, eym = (expm(2 * c * m) for m in (x, y, -x, -y))
        ga, gb = (power(m, k * k) for m in word([ex, eym, exm, ey]))
        ha, hb = (power(m, k * k) for m in word([ex, ey, exm, eym]))
        ez = expm(z / k)
        # mu_E o (Y -> H_a Y H_b) o mu_E maps Y to (E H_b^-1 E^-1) Y (E^-1 H_a^-1 E)
        pa = ga @ ez @ inv(hb) @ inv(ez)
        pb = inv(ez) @ inv(ha) @ ez @ gb
        errors.append(float(np.linalg.norm(power(pa, k * k) @ power(pb, k * k) - target)))
    return errors


def scale(ops: list, calibration: list, samples: list) -> None:
    """Add ``norm_s`` to every op and ``setup_s`` to every set-up sample: times at the reference speed."""
    for op in ops:
        lo, hi = op["start"] - WINDOW_S, op["start"] + op["wall_s"] + WINDOW_S
        op["calib_s"] = statistics.median(c for t, c in calibration if lo <= t <= hi)
        op["norm_s"] = op["wall_s"] * REF_CALIB_S / op["calib_s"]
    for sample in samples:
        sample["setup_s"] = sample["import_s"] * REF_CALIB_S / sample["calib_s"]


def tail(samples: list):
    """The highest of the 99.9/99/90/75/50th percentiles with at least ten samples beyond it."""
    ordered = sorted(samples)
    for pct in (99.9, 99.0, 90.0, 75.0, 50.0):
        value = ordered[max(math.ceil(pct / 100 * len(ordered)) - 1, 0)]
        if sum(s > value for s in ordered) >= 10:
            return {"percentile": pct, "ms": value * 1e3}
    return None


def check_repeats(ops: list) -> None:
    """Mark every op whose report bytes differ from the first op of the same item and seed."""
    first = {}
    for op in ops:
        digest = first.setdefault((op["item"], op["seed"]), op["sha256"])
        if op["sha256"] != digest:
            op["reason"] = "report bytes differ from an earlier repeat of the same item and seed"
            op["known"] = False


def cases(ops: list) -> dict:
    """The failure of each case, one item on one program seed: the first failed op's reason, or None.

    Every case runs in every run, whatever the speed of the host, so the
    count of cases and of failed cases depends on the code alone.
    """
    verdicts = {}
    for op in ops:
        key = (op["item"], op["seed"])
        if verdicts.get(key) is None:
            verdicts[key] = None if op["reason"] is None else {"reason": op["reason"], "known": op["known"]}
    return verdicts


def goodput(ops: list, key: str = "norm_s") -> float:
    return sum(op["reason"] is None for op in ops) / sum(op[key] for op in ops)


def item_table(items: list, ops: list) -> list:
    table = []
    for index, item in enumerate(items):
        mine = [op for op in ops if op["item"] == index]
        walls = [op["wall_s"] for op in mine]
        norms = [op["norm_s"] for op in mine]
        reasons = {}
        for op in mine:
            if op["reason"] is not None:
                reasons[op["reason"]] = reasons.get(op["reason"], 0) + 1
        table.append({
            "key": item["key"],
            "argv": item["argv"],
            "known_defect": item["known_defect"],
            "samples": len(walls),
            "median_ms": statistics.median(norms) * 1e3,
            "tail": tail(norms),
            "raw_median_ms": statistics.median(walls) * 1e3,
            "raw_tail": tail(walls),
            "failed_ops": sum(op["reason"] is not None for op in mine),
            "reasons": reasons,
            "threshold": workloads.THRESHOLDS.get(item["argv"][0]),
            "residuals": sorted({(op["seed"], op["residual"]) for op in mine if op["residual"] is not None}),
            "sha256": {str(op["seed"]): op["sha256"] for op in mine},
        })
    return table


def end_to_end(table: list, ops: list, samples: list, peak_rss_mb: float, raw: bool = False) -> dict:
    """The end-to-end metrics, from times scaled to the reference speed or, with ``raw``, from wall times."""
    medians = [row["raw_median_ms" if raw else "median_ms"] for row in table]
    return {
        "ops_per_s": goodput(ops, "wall_s" if raw else "norm_s"),
        "item_ms_geomean": math.exp(statistics.fmean(math.log(m) for m in medians)),
        "slowest_item_ms": max(medians),
        "setup_s": statistics.median(s["import_s" if raw else "setup_s"] for s in samples),
        "peak_rss_mb": peak_rss_mb,
    }


def layer_metrics(passes: list, units: dict, overhead: float) -> tuple:
    """Per-layer metrics of the traced passes, and the names of counts that did not repeat."""
    counted = ("calls", "decided", "domain_errors", "halvings")
    unsteady = sorted(
        f"{span}.{key}"
        for span in set().union(*passes)
        for key in counted
        if len({p.get(span, {}).get(key, 0) for p in passes}) > 1
    )
    first = passes[0]
    values = {}
    for name in units:
        span, stat = name.rsplit(".", 1)
        if name == "trace.overhead_ratio":
            values[name] = overhead
        elif stat == "self_s":
            values[name] = statistics.median(p.get(span, {}).get("self_s", 0.0) for p in passes)
        elif stat == "peak_mb":
            values[name] = max(p.get(span, {}).get("peak_mb", 0.0) for p in passes)
        elif stat == "decided_ratio":
            calls = first.get(span, {}).get("calls", 0)
            values[name] = first[span].get("decided", 0) / calls if calls else 0.0
        else:
            values[name] = first.get(span, {}).get(stat, 0)
    return values, unsteady


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()
    if not (SRC / "symspaces" / "cli.py").is_file():
        sys.stderr.write(f"error: no symspaces sources under {SRC}\n")
        return 2

    spec = workloads.WORKLOADS[args.workload]
    items = spec["items"]
    env = child_env()
    record = {
        "workload": args.workload,
        "why": spec["why"],
        "seed": args.seed,
        "second_seed": SECOND_SEED,
        "seed_groups": spec["seed_groups"],
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
    }
    samples = setup_samples(env)
    targets = {str(i): trotter_errors(item["trotter"]) for i, item in enumerate(items) if "trotter" in item}
    plan = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": bool(args.trace), "items": items, "targets": targets,
            "seed_groups": spec["seed_groups"]}
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "worker.py")], input=json.dumps(plan), env=env, cwd=ROOT,
            capture_output=True, text=True, timeout=DEADLINE_S - (time.perf_counter() - started),
        )
    except subprocess.TimeoutExpired:
        sys.stderr.write("error: the measured run did not finish in time\n")
        return 1
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        sys.stderr.write(f"error: the measured run exited with {proc.returncode}\n")
        return 1
    result = json.loads(proc.stdout)
    ops = result["ops"]
    check_repeats(ops)
    samples.append(result["setup"])
    scale(ops, result["calibration"], samples)
    verdicts = cases(ops)
    failures = [(key, v) for key, v in sorted(verdicts.items()) if v is not None]
    failed = len(failures)
    unexpected = [(key, v) for key, v in failures if not v["known"]]
    table = item_table(items, ops)
    record.update(
        attempted=len(verdicts),
        failed=failed,
        fail_ratio=failed / len(verdicts),
        failed_cases=[{"item": items[i]["key"], "seed": seed, **v} for (i, seed), v in failures],
        setup_samples=samples,
        peak_rss_mb=result["peak_rss_mb"],
        items=table,
        ops=ops,
        calibration=result["calibration"],
        known_defects={d: workloads.KNOWN_DEFECTS[d] for d in sorted({i["known_defect"] for i in items} - {None})},
        op_count=len(ops),
    )
    correct = not unexpected
    if args.trace:
        units = {name: m["unit"] for name, m in json.loads((BENCH / "metric_map.json").read_text()).items()}
        # the first pass is left out: it alone pays for warming the interpreter and numpy
        untraced = [op for op in ops[len(items):] if not op["traced"] and op["group"] == 0]
        overhead = goodput([op for op in ops if op["traced"]]) / goodput(untraced)
        values, unsteady = layer_metrics(result["trace_passes"], units, overhead)
        correct = correct and not unsteady
        record.update(spans=result["trace_passes"][0], span_count=result["span_count"], unsteady_counts=unsteady)
    else:
        values = end_to_end(table, ops, samples, result["peak_rss_mb"])
        record["raw_metrics"] = end_to_end(table, ops, samples, result["peak_rss_mb"], raw=True)
        units = END_TO_END_UNITS
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    record.update(correct=correct, metrics=metrics)
    out_dir = BENCH / "results"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"correct": correct, "attempted": len(verdicts), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
