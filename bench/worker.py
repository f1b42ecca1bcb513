"""Child process of the benchmark; ``run.py`` starts one per step.

    python3 bench/worker.py generate WORKLOAD DIR SEED
    python3 bench/worker.py setup    WORKLOAD DIR
    python3 bench/worker.py measure  WORKLOAD DIR SECONDS
    python3 bench/worker.py trace    WORKLOAD DIR SECONDS TRACE_FILE

Prints one JSON object as its last line.  Set-up time runs from before
scrublang is imported to the end of ``workloads.setup``, so every set-up
sample is a fresh interpreter.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path


def main(argv: list[str]) -> dict:
    mode, workload, d = argv[0], argv[1], Path(argv[2])
    if mode == "generate":
        import gen

        gen.GENERATORS[workload](d, int(argv[3]))
        return {}
    start = time.perf_counter()
    import workloads

    ctx = workloads.setup(workload, d)
    setup_s = time.perf_counter() - start
    if mode == "setup":
        return {"setup_s": setup_s}
    if mode == "measure":
        return {"setup_s": setup_s, **workloads.measure(ctx, float(argv[3]))}
    if mode == "trace":
        import tracing

        return tracing.measure(ctx, float(argv[3]), Path(argv[4]))
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1:])))
