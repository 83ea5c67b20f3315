"""Repeatability self-check of the trace's deterministic counts.

    python3 bench/selfcheck.py

For every workload, two traced runs of ``SEED`` must report identical
values for every count in ``tracer.DETERMINISTIC``, and a traced run of
``HELD_OUT_SEED`` is shown next to them.  The held-out seed draws other
inputs, so its counts differ, except on ``membership``, where each op makes
the same 13 calls whatever its inputs.  Keep the held-out seed out of
tuning; it is for confirming a claimed gain on inputs the change was not
written against.
Exits 1 if a repeated run disagrees.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import tracer as tr  # noqa: E402
import workloads as wl  # noqa: E402

SEED = 1
HELD_OUT_SEED = 9001


def traced_counts(workload: str, seed: int) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed), "--seconds", "1", "--trace", "1"]
    proc = subprocess.run(cmd, cwd=BENCH_DIR.parent, capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: outputs failed the gate\n{proc.stdout}")
    return {name: result["metrics"][name]["value"] for name in tr.DETERMINISTIC}


def main() -> int:
    ok = True
    for workload in wl.WORKLOADS:
        first, second = traced_counts(workload, SEED), traced_counts(workload, SEED)
        held_out = traced_counts(workload, HELD_OUT_SEED)
        repeat = first == second
        ok = ok and repeat
        print(f"{workload}: counts {'repeat' if repeat else 'DIFFER'} across two runs of seed {SEED}; "
              f"held-out seed {HELD_OUT_SEED} {'differs' if held_out != first else 'matches'}")
        for name in tr.DETERMINISTIC:
            print(f"  {name:32s} {first[name]:>10g} {second[name]:>10g} {held_out[name]:>10g}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
