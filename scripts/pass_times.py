"""Compare the in-process pass times of two checkouts on the benchmark workloads.

    python3 scripts/pass_times.py PARENT CHANGE --workload verify_ladder

``PARENT`` and ``CHANGE`` are the roots of two checkouts of this repository.
A run is one fresh interpreter that imports ``symspaces`` from one
checkout's ``src``, runs one warm-up pass per seed group and then
``PASSES`` timed passes, and reports the median pass time.  A pass is
``case_bytes.run_cases`` of the workload on the seed group
``pass % seed_groups``: ``symspaces.cli.main`` once per item, as the
benchmark worker calls it.  ``PASSES`` is a multiple of every workload's
``seed_groups`` (2 or 4), so each run times each seed group equally often.  Each side makes ``RUNS`` runs; the runs
alternate between the checkouts, and the side that runs first alternates
between rounds.  Both sides run the items of this checkout's
``bench/workloads.py``, which is read, never changed; BLAS runs on one
thread.

Per workload the script prints each side's median and quartiles of its run
medians, each run's median, the failed-case count of each side's passes
(outside the timed part), in how many rounds the second checkout was
faster, the ratio of the medians, and one verdict on the second checkout:
"faster" where it wins at least nine tenths of the rounds and its median is
below the first's by more than the first's interquartile range, "slower"
where the first checkout wins so, and "unresolved" otherwise.  Ties count
for neither side.  These are wall times of the host, not the benchmark's
scaled metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREADS = 1
RUNS = 10  # runs per side
PASSES = 4  # timed passes per run, a multiple of every seed_groups


def _case_bytes():
    sys.dont_write_bytecode = True  # leave nothing behind under bench/
    sys.path.insert(0, str(ROOT / "scripts"))
    import case_bytes

    return case_bytes


def run_passes(workload_name: str) -> dict:
    """Warm up, then time ``PASSES`` whole passes of one workload in this process."""
    # the checkout's symspaces (on PYTHONPATH) is imported before case_bytes
    # puts this checkout's src first on sys.path; its path is reported back
    import symspaces.cli

    case_bytes = _case_bytes()
    workloads = case_bytes.workloads
    workload = workloads.WORKLOADS[workload_name]
    groups = workload["seed_groups"]

    def failures(group: int, record: dict) -> int:
        failed = 0
        for item in workload["items"]:
            seed = workloads.program_seed(workload_name, item["key"], group)
            code, out, err = record[case_bytes.case_name(workload_name, item, seed)]
            if item["argv"][0] != "trotter":
                failed += workloads.check(item, code, out, err)[0] is not None
            else:  # the trotter oracle needs scipy; its exit code is checked
                failed += code != 0
        return failed

    for group in range(groups):
        case_bytes.run_cases(workload_name, group)
    times, failed = [], 0
    for p in range(PASSES):
        start = time.perf_counter()
        record = case_bytes.run_cases(workload_name, p % groups)
        times.append(time.perf_counter() - start)
        failed += failures(p % groups, record)
    return {
        "times": times,
        "failed": failed,
        "attempted": PASSES * len(workload["items"]),
        "package": symspaces.__file__,
    }


def child_env(checkout: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(checkout / "src")
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def one_run(checkout: Path, workload: str) -> dict:
    argv = [sys.executable, str(Path(__file__).resolve()), "--child", workload]
    proc = subprocess.run(argv, env=child_env(checkout), capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout)
    if not Path(result["package"]).resolve().is_relative_to(checkout / "src"):
        raise RuntimeError(f"a run for {checkout} imported symspaces from {result['package']}")
    return result


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def compare(sides: list, workload: str) -> None:
    medians, failed, attempted = [[], []], [0, 0], [0, 0]
    for r in range(RUNS):
        for i in (0, 1) if r % 2 == 0 else (1, 0):
            result = one_run(sides[i], workload)
            medians[i].append(statistics.median(result["times"]))
            failed[i] += result["failed"]
            attempted[i] += result["attempted"]
    print(f"{workload}: {RUNS} runs of {PASSES} passes per side, median pass time per run in s")
    for i, label in enumerate(("first ", "second")):
        lo, hi = quartiles(medians[i])
        runs_text = " ".join(f"{v:.3f}" for v in medians[i])
        print(
            f"  {label} {sides[i]}: median {statistics.median(medians[i]):.3f} (quartiles {lo:.3f}-{hi:.3f}); "
            f"runs {runs_text}; failed {failed[i]}/{attempted[i]}"
        )
    wins = sum(b < a for a, b in zip(*medians))
    ratio = statistics.median(medians[1]) / statistics.median(medians[0])
    print(f"  second faster in {wins} of {RUNS} rounds; median ratio second/first {ratio:.3f}")
    print(f"  verdict: {verdict(*medians)}")


def verdict(firsts: list, seconds: list) -> str:
    """"faster" or "slower" for the second side of paired rounds, or "unresolved"."""
    lo, hi = quartiles(firsts)
    gap = statistics.median(firsts) - statistics.median(seconds)
    if 10 * sum(b < a for a, b in zip(firsts, seconds)) >= 9 * len(firsts) and gap > hi - lo:
        return "faster"
    if 10 * sum(a < b for a, b in zip(firsts, seconds)) >= 9 * len(firsts) and -gap > hi - lo:
        return "slower"
    return "unresolved"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("checkouts", nargs="*", type=Path, metavar="CHECKOUT", help="the two checkout roots")
    parser.add_argument("--workload", action="append", help="workload name (repeatable; default: all)")
    parser.add_argument("--child", metavar="WORKLOAD", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        json.dump(run_passes(args.child), sys.stdout)
        return 0
    if len(args.checkouts) != 2:
        parser.error("give two checkout roots")
    sides = [path.resolve() for path in args.checkouts]
    for side in sides:
        if not (side / "src" / "symspaces").is_dir():
            parser.error(f"{side} has no src/symspaces")
    known = _case_bytes().workloads.WORKLOADS
    names = args.workload or list(known)
    for name in names:
        if name not in known:
            parser.error(f"unknown workload {name!r}; choose from {', '.join(known)}")
    for name in names:
        compare(sides, name)
    return 0


if __name__ == "__main__":
    sys.exit(main())
