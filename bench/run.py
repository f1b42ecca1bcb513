"""scrublang benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload cohort-pipeline --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The workload's inputs are generated from
``--seed`` into ``.bench_work/``; scrublang only sees the generated files.
Every step runs in its own child process with BLAS pinned to one thread:

1. generate the inputs (not timed);
2. set up in ``SETUP_PROBES`` fresh interpreters (import scrublang, build the
   detector suite, read the inputs) and once more in the measuring child;
   ``setup_s`` is the median of the five;
3. measure for about ``--seconds``: untraced with ``--trace 0`` (end-to-end
   metrics), traced with ``--trace 1`` (per-layer metrics, no set-up).

Informational lines go to stdout first; the last line is the result object
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("cohort-pipeline", "keystroke-stream", "analysis-wide")
SETUP_PROBES = 4
# nproc is 2 on the reference machine and the runs must not compete with
# themselves: every BLAS/OpenMP pool gets one thread
THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
CHILD_TIMEOUT_S = 170


class BenchError(RuntimeError):
    pass


def child(step: list[str], cwd: Path, timeout: float) -> dict:
    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(HERE)])
    env["PYTHONHASHSEED"] = "0"
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *step],
            cwd=cwd, env=env, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"step {step[0]} timed out after {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"step {step[0]} exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines()) for p in sorted(SRC.rglob("*.py")))


def run(workload: str, seed: int, seconds: int, trace: bool) -> tuple[dict, dict]:
    work = ROOT / ".bench_work" / f"{workload}-s{seed}-p{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        child(["generate", workload, str(work), str(seed)], work, CHILD_TIMEOUT_S)
        base = ["trace" if trace else "measure", workload, str(work), str(seconds)]
        if trace:
            trace_file = ROOT / ".bench_work" / "traces" / f"{workload}-s{seed}.jsonl.gz"
            trace_file.parent.mkdir(exist_ok=True)
            res = child([*base, str(trace_file)], work, CHILD_TIMEOUT_S)
            metrics = res["metrics"]
        else:
            setups = [child(["setup", workload, str(work)], work, 60)["setup_s"] for _ in range(SETUP_PROBES)]
            res = child(base, work, CHILD_TIMEOUT_S)
            setups.append(res["setup_s"])
            # set-up is import and file bound, so it is reported unscaled
            metrics = {"setup_s": statistics.median(setups), **res["metrics"]}
            res["info"]["setup_samples_s"] = setups
    finally:
        shutil.rmtree(work, ignore_errors=True)
    info = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "src_lines": src_lines(),
        "threads": THREAD_ENV,
        **res["info"],
    }
    result = {
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": res["units"][k]} for k, v in metrics.items()},
    }
    return info, result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "scrublang" / "__init__.py").is_file():
        print(f"error: no scrublang sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    try:
        info, result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
