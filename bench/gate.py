"""Correctness gate: compare each op's output with the stored reference and
check every certificate it carries independently of ``feasibility``.

* verdicts: exit code and status match the reference; each NONEMPTY test's
  rotation witness lies in every sector of that test and its direction
  witness in every direction set; a refine placement matches the reference
  and its points re-classify POSITIVE.
* escape: the report matches the reference, and a non-null report passes
  ``validate_rotation_witness`` or ``validate_translation_witness``.
* fuzz: exit code, status counts and skips match; no violations.
* membership: the probe code matches the reference and obeys the
  criterion-7 identities (complements, direction/sector coherence, smooth
  collapse).

Checks run after the timed interval.  Each returns a list of problems; an
empty list means the op passed.
"""

from __future__ import annotations

import json

from workloads import SECTOR_KINDS

PROBE_CODE_LEN = 2 * len(SECTOR_KINDS) + len(SECTOR_KINDS) + 1
_QUESTION_KINDS = {"FIX": ("L", "R"), "ALMOST_FIX": ("small_l", "small_r")}
_FUZZ_KEYS = ("fix_statuses", "almost_statuses", "skipped", "violations")


def expected_from(workload: str, inst, results: list) -> dict:
    """Reference entry for an instance from its outputs at the reference commit."""
    if workload == "membership":
        return {"codes": "".join(results)}
    code, out, _ = results[0]
    if workload == "escape":
        return {"code": code, "doc": json.loads(out)}
    if workload == "fuzz":
        doc = json.loads(out)
        return {"code": code, **{k: doc[k] for k in _FUZZ_KEYS}}
    if code not in (0, 10, 20):
        return {"code": code}
    doc = json.loads(out)
    if inst.argv[0] == "refine":
        return {"code": code, "placement": doc["placement"]}
    return {"code": code, "status": doc["status"]}


def check(lib, workload: str, inst, j: int, result, expected: dict) -> list[str]:
    if workload == "membership":
        return _check_probe(inst, j, result, expected)
    code, out, err = result
    if code != expected["code"]:
        return [f"exit code {code}, reference {expected['code']}: {err.strip()[:200]}"]
    if err and code in (0, 10, 20):  # only refused commands explain themselves on stderr
        return [f"unexpected stderr: {err.strip()[:200]}"]
    if workload == "fuzz":
        doc = json.loads(out)
        problems = [f"{k} differs from the reference" for k in _FUZZ_KEYS if doc[k] != expected[k]]
        if doc["violations"]:
            problems.append(f"fuzz violations: {doc['violations']}")
        return problems
    if workload == "escape":
        return _check_escape(lib, inst, json.loads(out), expected)
    doc = json.loads(out)
    if inst.argv[0] == "refine":
        return _check_refine(lib, inst, doc, expected)
    if doc["status"] != expected["status"]:
        return [f"status {doc['status']}, reference {expected['status']}"]
    return witness_problems(lib, inst.body, inst.points, doc)


def witness_problems(lib, body, points, doc: dict) -> list[str]:
    """Each NONEMPTY test's witness must lie in all of that test's sectors or direction sets."""
    sectors, io = lib.sectors, lib.io
    kind_left, kind_right = _QUESTION_KINDS[doc["question"]]
    tds = [(bp.coords, lib.body.tangents_at(body, bp)) for bp in points]
    problems = []
    for name, kind, closed in (
        ("openL", kind_left, False),
        ("openR", kind_right, False),
        ("closedL", kind_left, True),
        ("closedR", kind_right, True),
    ):
        test = doc["tests"][name]
        if test["status"] != "NONEMPTY":
            continue
        if test["witness"] is None:
            problems.append(f"{name} is NONEMPTY without a witness")
            continue
        w = io.vec_from_json(test["witness"])
        for apex, td in tds:
            where = sectors.sector_contains(sectors.make_sector(kind, closed, apex, td), w)
            if where == "OUT" or (not closed and where != "IN"):
                problems.append(f"{name} witness {test['witness']} is {where} a sector at {apex}")
                break
    test = doc["tests"]["directions"]
    if test["status"] == "NONEMPTY":
        d = io.vec_from_json(test["witness"])
        if not all(sectors.direction_set_contains(sectors.direction_set(kind_left, apex, td), d) for apex, td in tds):
            problems.append(f"directions witness {test['witness']} misses a direction set")
    return problems


def _check_refine(lib, inst, doc: dict, expected: dict) -> list[str]:
    problems = []
    if doc["placement"] != expected["placement"]:
        problems.append("refine placement differs from the reference")
    if doc["verdict"]["status"] != "POSITIVE":
        problems.append(f"refine verdict {doc['verdict']['status']}")
    pts = lib.io.points_from_json(doc["points"], inst.body)
    status = lib.classify.classify_fix(inst.body, pts).status
    if status != "POSITIVE":
        problems.append(f"refined placement re-classifies {status}")
    return problems


def _check_escape(lib, inst, doc: dict, expected: dict) -> list[str]:
    if doc != expected["doc"]:
        return ["escape report differs from the reference"]
    report = doc["escape"]
    if report is None:
        return []
    io, oracle = lib.io, lib.oracle
    if report["family"] == "rotation":
        ok = oracle.validate_rotation_witness(inst.body, inst.points, io.vec_from_json(report["center"]), report["sense"])
    else:
        ok = oracle.validate_translation_witness(inst.body, inst.points, io.vec_from_json(report["direction"]))
    return [] if ok else [f"escape report fails exact validation: {report}"]


def probe_identity_problems(code: str, smooth: bool) -> list[str]:
    """Criterion-7 identities on one probe code (see ``membership_probe``)."""
    s, ds = code[:8], code[8:12]
    L_open, L_closed, R_open, R_closed, l_open, l_closed, r_open, r_closed = s
    problems = []
    if (r_open == "I") != (L_closed == "O"):
        problems.append("open small_r is not the complement of closed L")
    if (l_open == "I") != (R_closed == "O"):
        problems.append("open small_l is not the complement of closed R")
    for k, kind in enumerate(SECTOR_KINDS):
        if (s[2 * k + 1] != "O") != (ds[k] == "1"):
            problems.append(f"direction set {kind} disagrees with its closed sector")
    if smooth and (s[0:4] != s[4:8]):
        problems.append("large and small sectors differ at a smooth apex")
    return problems


def _check_probe(inst, j: int, code: str, expected: dict) -> list[str]:
    want = expected["codes"][PROBE_CODE_LEN * j : PROBE_CODE_LEN * (j + 1)]
    problems = [] if code == want else [f"probe {j} code {code}, reference {want}"]
    return problems + probe_identity_problems(code, inst.extra["smooth"])
