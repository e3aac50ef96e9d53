"""Record the benchmark's references at the current commit.

    python3 perfbench/record.py digests    # reference_digests.json
    python3 perfbench/record.py baseline   # baseline.json

``digests`` runs every workload once per CLI seed of the pool and stores
the SHA-256 of each CSV; it refuses to record output that fails a check.
``baseline`` runs ``run.py`` on every workload, plain and traced, with
seed 0 and the run length of ``BENCHMARK.json``, and stores the results
with the environment they were measured in.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

import run


def record_digests() -> int:
    work = run.ROOT / ".perfbench_work" / str(os.getpid())
    work.mkdir(parents=True)
    try:
        runner = run.Runner(work, time.perf_counter() + 3600)
        digests = {}
        for workload in run.WORKLOADS:
            digests[workload] = {}
            for k in range(run.SEED_POOL):
                seed = run.cli_seed(0, k)
                cycle = runner.cycle(workload, seed, traced=False)
                if cycle.failed:
                    print(f"{workload} seed {seed}: failed, nothing recorded",
                          file=sys.stderr)
                    return 1
                for sub, data in cycle.csvs.items():
                    digests[workload][f"{sub} {seed}"] = hashlib.sha256(data).hexdigest()
                print(f"{workload} seed {seed} ok")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    path = run.BENCH / "reference_digests.json"
    path.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    return 0


def record_baseline() -> int:
    seconds = json.loads((run.ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    baseline = {}
    for workload in run.WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(run.BENCH / "run.py"), "--workload", workload,
                 "--seed", "0", "--seconds", str(seconds), "--trace", str(trace)],
                capture_output=True, text=True, check=True)
            lines = proc.stdout.splitlines()
            result = json.loads(lines[-1])
            if not result["correct"]:
                print(f"{workload} trace {trace}: not correct", file=sys.stderr)
                return 1
            baseline.setdefault(workload, {})[f"trace{trace}"] = {
                **json.loads(lines[0]), "seed": 0, "seconds": seconds, **result}
            print(f"{workload} trace {trace} ok")
    path = run.BENCH / "baseline.json"
    path.write_text(json.dumps(baseline, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    if sys.argv[1:] == ["digests"]:
        sys.exit(record_digests())
    if sys.argv[1:] == ["baseline"]:
        sys.exit(record_baseline())
    sys.exit(__doc__)
