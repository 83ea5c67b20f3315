"""Benchmark of the immobilize2d library and CLI.

    python3 bench/run.py --workload verdicts --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20

Run from the root of a checkout; the library is imported from ``src/`` there.
Each workload is a closed loop with one client in this process (plus the
library's own fuzz worker pool).  Set-up imports the library, generates the
seed's inputs and serialises them to files under ``.bench_work/``; it runs
SETUP_REPEATS times and ``setup_s`` is the median (the first is timed from
the start of this script).  With ``--trace 0`` the loop repeats the seed's
round for ``--seconds`` and reports the end-to-end metrics, every time in
reference time: scaled by the speed of the host around it, as measured by
``measure.yardstick`` between set-ups and between ops.  With
``--trace 1`` the round runs once untraced and once traced, and the
per-layer metrics come from the traced pass.  Every output is checked
against ``reference/`` after the timed interval.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it restate the metrics with
their units, the tail percentile used, the failure ratio and the
environment.
"""

from __future__ import annotations

import time

_SCRIPT_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
if str(BENCH_DIR) not in sys.path:
    sys.path.insert(0, str(BENCH_DIR))

import gate  # noqa: E402
import tracer as tr  # noqa: E402
import workloads as wl  # noqa: E402
from measure import local_scales, tail_percentile, time_yardstick  # noqa: E402

SETUP_REPEATS = 9
YARDSTICK_EVERY_S = 0.1  # op time between two yardstick samples in the timed loop
YARDSTICK_PER_SETUP = 5  # yardstick samples after each set-up
YARDSTICK_WIDTH = 10  # samples either side of a time that set its scale
WORK_DIR = ROOT / ".bench_work"
THREADS_VAR = "IMMOBILIZE2D_THREADS"


def environment(threads_before: str | None) -> dict:
    gil = getattr(sys, "_is_gil_enabled", None)
    return {
        "commit": _git_commit(ROOT),
        "src_sha256": wl.src_digest(ROOT / "src"),
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "nproc": os.cpu_count(),
        "gil": "enabled" if gil is None or gil() else "disabled",
        THREADS_VAR: "unset" if threads_before is None else f"was {threads_before!r}; cleared, library default used",
    }


def _git_commit(root: Path) -> str:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_path = root / ".git" / ref[5:]
    return ref_path.read_text().strip() if ref_path.is_file() else f"unknown ({ref})"


class Setup:
    """Library, inputs on disk, reference and the op list of one round."""

    def __init__(self, workload: wl.Workload, seed: int):
        self.lib = wl.import_library(ROOT / "src")
        self.reference = wl.load_reference(BENCH_DIR, workload.name)
        ids = wl.round_ids(workload, self.reference, seed)
        distinct = {iid: wl.make_instance(self.lib, workload.name, iid) for iid in dict.fromkeys(ids)}
        WORK_DIR.mkdir(exist_ok=True)
        self.workdir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK_DIR))
        wl.write_inputs(self.lib, list(distinct.values()), self.workdir)
        self.ops = wl.ops_of_round(workload, [distinct[iid] for iid in ids])

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


def timed_loop(setup: Setup, workload: wl.Workload, seconds: float, yard: list[float]):
    """Closed loop that repeats the round until ``seconds`` pass.

    After every YARDSTICK_EVERY_S of op time the yardstick runs once, outside
    the op timings, and its duration is appended to ``yard``.  Returns
    (latencies in s, process CPU s of each op, results, yardstick position
    of each op).
    """
    lib, ops = setup.lib, setup.ops
    clock, cpu_clock = time.perf_counter, time.process_time
    latencies, cpus, results, positions = [], [], [], []
    since = 0.0
    now = clock()
    deadline = now + seconds
    k = 0
    while now < deadline:
        inst, j = ops[k % len(ops)]
        c0 = cpu_clock()
        t0 = clock()
        try:
            result = wl.run_op(lib, workload, inst, j)
        except Exception as exc:  # a raising op is a failed op, not a crashed run
            result = exc
        t1 = clock()
        cpus.append(cpu_clock() - c0)
        latencies.append(t1 - t0)
        results.append(result)
        positions.append(len(yard))
        k += 1
        since += t1 - t0
        if since >= YARDSTICK_EVERY_S:
            time_yardstick(yard)
            since = 0.0
        now = clock()
    return latencies, cpus, results, positions


def traced_passes(setup: Setup, workload: wl.Workload):
    """One pass over the round untraced, then one traced.

    Returns the ops and results of both passes, the per-layer metrics, the
    tracer and its span index.
    """
    lib, ops = setup.lib, setup.ops
    results = []
    start = time.perf_counter()
    for inst, j in ops:
        results.append(_guarded(wl.run_op, lib, workload, inst, j))
    untraced = time.perf_counter() - start

    tracer = tr.Tracer()
    tracer.install(lib)
    op_span = tracer.wrap(wl.run_op, tr.OP)
    try:
        start = time.perf_counter()
        for k, (inst, j) in enumerate(ops):
            tracer.op = k
            results.append(_guarded(op_span, lib, workload, inst, j))
        traced = time.perf_counter() - start
    finally:
        tracer.op = -1
        tracer.uninstall()
    index = tr.SpanIndex(tracer.names, tracer.spans)
    metrics = tr.per_layer(index, len(ops), traced / untraced, len(tracer.absent))
    return ops + ops, results, metrics, tracer, index


def _guarded(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # a raising op is a failed op, not a crashed run
        return exc


def check_results(setup: Setup, workload: wl.Workload, ops: list, results: list) -> tuple[int, list[str]]:
    """Failed op count and the first problems found; each distinct output is checked once."""
    failed, problems, seen = 0, [], {}
    for (inst, j), result in zip(ops, results, strict=True):
        if isinstance(result, Exception):
            found = [f"raised {type(result).__name__}: {result}"]
        else:
            key = (inst.id, j, result)
            if key not in seen:
                seen[key] = gate.check(setup.lib, workload.name, inst, j, result, setup.reference[inst.id])
            found = seen[key]
        if found:
            failed += 1
            if len(problems) < 20:
                problems += [f"{inst.id}: {p}" for p in found]
    return failed, problems


def stratum_shares(setup: Setup, index: tr.SpanIndex) -> dict[str, tuple[int, float]]:
    """Per round stratum: traced ops and their share of the summed op span time."""
    ops, seconds = Counter(), Counter()
    for span in index.spans(tr.OP):
        iid = setup.ops[span[5]][0].id
        name = wl.stratum_of(setup.reference, iid)
        ops[name] += 1
        seconds[name] += span[3] - span[2]
    total = sum(seconds.values())
    return {name: (ops[name], seconds[name] / total) for name in ops}


def write_spans(tracer: tr.Tracer, workload: str, seed: int, env: dict) -> Path:
    path = WORK_DIR / f"spans-{workload}.tsv"
    with path.open("w") as f:
        f.write(f"# workload={workload} seed={seed} env={json.dumps(env)}\n")
        f.write("id\tname\tstart_s\tend_s\tparent\top\tthread\texcluded_s\n")
        for s in tracer.spans:
            f.write(f"{s[0]}\t{tracer.names[s[1]]}\t{s[2]:.9f}\t{s[3]:.9f}\t{s[4]}\t{s[5]}\t{s[6]}\t{s[7]:.9f}\n")
    return path


def run_one(args) -> int:
    threads_before = os.environ.pop(THREADS_VAR, None)
    workload = wl.WORKLOADS[args.workload]
    env = environment(threads_before)

    setup_times, yard, setup = [], [], None
    try:
        for r in range(SETUP_REPEATS):
            if setup is not None:
                setup.close()
            start = _SCRIPT_START if r == 0 else time.perf_counter()
            setup = Setup(workload, args.seed)
            setup_times.append(time.perf_counter() - start)
            time_yardstick(yard, YARDSTICK_PER_SETUP)
    except wl.LibraryMissing as exc:
        if setup is not None:
            setup.close()
        print(f"error: {exc}", file=sys.stderr)
        return 2

    try:
        print(f"# env {json.dumps(env)}")
        print(f"# workload={workload.name} seed={args.seed} seconds={args.seconds} trace={args.trace} round_ops={len(setup.ops)}")
        if args.trace:
            ops, results, metrics, tracer, index = traced_passes(setup, workload)
            spans_path = write_spans(tracer, workload.name, args.seed, env)
            print(f"# traced {len(setup.ops)} ops (one round), {len(tracer.spans)} spans -> {spans_path.relative_to(ROOT)}")
            if tracer.absent:
                print(f"# absent boundaries: {', '.join(tracer.absent)}")
            print("# stratum share of traced op time: " + ", ".join(
                f"{name} {n} ops {share:.3f}" for name, (n, share) in stratum_shares(setup, index).items()))
            layers = {layer: index.layer_self_ms(layer) for layer in tr.LAYERS}
            print("# layer self ms: " + ", ".join(f"{k} {v:.1f}" for k, v in sorted(layers.items(), key=lambda kv: -kv[1])))
        else:
            latencies, cpus, results, positions = timed_loop(setup, workload, args.seconds, yard)
            ops = [setup.ops[k % len(setup.ops)] for k in range(len(results))]
        failed, problems = check_results(setup, workload, ops, results)
    finally:
        setup.close()

    attempted = len(results)
    for p in problems:
        print(f"# FAIL {p}")
    print(f"# failed_ratio {failed / attempted:.6g} ({failed} of {attempted} ops)")
    if not args.trace:
        scales = local_scales(positions, yard, YARDSTICK_WIDTH)
        setup_scales = local_scales([YARDSTICK_PER_SETUP * r for r in range(SETUP_REPEATS)], yard, YARDSTICK_WIDTH)
        ref_latencies = [t * f for t, f in zip(latencies, scales)]
        p, tail, beyond = tail_percentile(ref_latencies)
        print(f"# {attempted} ops, {attempted / len(setup.ops):.3g} passes over a round of {len(setup.ops)}")
        print(f"# latency_tail_ms is p{p:.4g} of {attempted} samples ({beyond} beyond it)")
        print(f"# machine scale: median {statistics.median(scales):.4f}, range {min(scales):.4f}-{max(scales):.4f} "
              f"over {len(yard)} yardstick samples; reference time = raw time x scale")
        print(f"# raw: setup_s {statistics.median(setup_times):.6g}, ops_per_s {attempted / sum(latencies):.6g}, "
              f"latency_p50_ms {1000 * statistics.median(latencies):.6g}, latency_tail_ms {1000 * tail_percentile(latencies)[1]:.6g}, "
              f"cpu_ms_per_op {1000 * sum(cpus) / attempted:.6g}")
        busy = sum(ref_latencies)
        if workload.name == "fuzz":
            print(f"# fuzz trials_per_s = {attempted * wl.FUZZ_TRIALS / busy:.6g} 1/s ({wl.FUZZ_TRIALS} trials per op)")
        print(f"# setup_s runs (raw): {', '.join(f'{t:.4f}' for t in setup_times)}")
        metrics = {
            "setup_s": (statistics.median(t * f for t, f in zip(setup_times, setup_scales)), "s"),
            "ops_per_s": (attempted / busy, "1/s"),
            "latency_p50_ms": (1000 * statistics.median(ref_latencies), "ms"),
            "latency_tail_ms": (1000 * tail, "ms"),
            "cpu_ms_per_op": (1000 * sum(c * f for c, f in zip(cpus, scales)) / attempted, "ms"),
            "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
            "ok_ratio": ((attempted - failed) / attempted, "ratio"),
        }
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value:.6g} {unit}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
            }
        )
    )
    return 0


def run_all(args) -> int:
    """Each workload in its own process, one after the other; a table of the results."""
    ok = True
    for name in wl.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            ok = False
            continue
        result = json.loads(lines[-1])
        ok = ok and result["correct"]
        print(f"== {name}: correct={result['correct']} attempted={result['attempted']} failed={result['failed']}")
        for line in lines[:-1]:
            if not line.startswith("# env"):
                print(f"   {line[2:]}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*wl.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
