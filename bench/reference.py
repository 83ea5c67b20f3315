"""Regenerate ``reference/<workload>.json`` from the library in ``src/``.

    python3 bench/reference.py [workload ...]

Runs every pool instance once through the benchmark's own op, checks its
certificates with the gate, and stores the expected output together with a
deterministic work count (exact solves plus half the containment tests)
that rounds use to sample every cost range evenly.  Instances the
benchmark must not use are left out: refine inputs that the CLI refuses by
design (exit 11, not almost-positive; exit 12, the radius schedule is
exhausted) or that need more than ``REFINE_MAX_PLACEMENTS`` placements, and
generated bodies that degenerate.  The reference pins the verdicts of the
commit it was made at; regenerate it only when a change is meant to alter
outputs, and say so.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import gate
import tracer as tr
import workloads as wl

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def _refine_placements_tried(expected: dict, n_points: int) -> int:
    """Position of the winning placement in ``refine_almost_to_fix``'s scan (1-based)."""
    placement = expected["placement"]
    halvings = (Fraction(wl.REFINE_EPSILON) / Fraction(placement["delta"])).numerator.bit_length() - 1
    order = ("both_sides", "same_side_right", "same_side_left")
    index = 0
    for entry in placement["entries"]:
        index = 3 * index + order.index(entry["tag"])
    return (halvings - 1) * 3**n_points + index + 1


def build(lib, name: str) -> dict:
    workload = wl.WORKLOADS[name]
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="reference-", dir=ROOT / ".bench_work"))
    instances: dict[str, dict] = {}
    problems = []
    try:
        for iid in wl.pool_ids(workload):
            try:
                inst = wl.make_instance(lib, name, iid)
            except lib.fixtures.DegenerateError:
                continue
            wl.write_inputs(lib, [inst], workdir)
            ops = wl.ops_of_round(workload, [inst])
            tracer = tr.Tracer()
            tracer.install(lib)
            try:
                results = [wl.run_op(lib, workload, inst, j) for inst, j in ops]
            finally:
                tracer.uninstall()
            spans = tr.SpanIndex(tracer.names, tracer.spans)
            expected = gate.expected_from(name, inst, results)
            expected["work"] = spans.calls("feasibility._feasible_exact") + spans.calls("body.contains_interior") // 2
            if name == "verdicts" and inst.argv[0] == "refine":
                if expected["code"] in (11, 12):
                    continue
                if expected["code"] == 0 and _refine_placements_tried(expected, len(inst.points)) > wl.REFINE_MAX_PLACEMENTS:
                    continue
            if name == "escape":
                report = expected["doc"]["escape"]
                expected["stratum"] = report["family"] if report else "none"
            for (inst, j), result in zip(ops, results):
                problems += [f"{iid}: {p}" for p in gate.check(lib, name, inst, j, result, expected)]
            instances[iid] = expected
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if problems:
        raise SystemExit("reference outputs fail the gate:\n" + "\n".join(problems[:50]))
    return {"src_sha256": wl.src_digest(ROOT / "src"), "instances": instances}


def dumps(doc: dict) -> str:
    """One instance per line, keys sorted, so a diff shows which outputs changed."""
    rows = [f"  {json.dumps(k)}: {json.dumps(v, sort_keys=True, separators=(',', ':'))}" for k, v in doc["instances"].items()]
    return f'{{\n "src_sha256": {json.dumps(doc["src_sha256"])},\n "instances": {{\n' + ",\n".join(rows) + "\n }\n}\n"


def main(names: list[str]) -> int:
    lib = wl.import_library(ROOT / "src")
    for name in names or list(wl.WORKLOADS):
        doc = build(lib, name)
        out = BENCH_DIR / "reference" / f"{name}.json"
        out.parent.mkdir(exist_ok=True)
        out.write_text(dumps(doc))
        print(f"{name}: {len(doc['instances'])} instances -> {out.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
