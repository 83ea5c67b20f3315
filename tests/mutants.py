"""Mutant runner: each listed mutant of the library must fail the tests named for it.

Run from anywhere with ``python tests/mutants.py``.  Each entry of
``MUTANTS`` is (file, old text, new text, test ids, reason): the old text
must occur exactly once in the file, and the reason is None unless the
mutant is equivalent (it cannot change any result), in which case it says
why.  For each entry the runner copies ``src/`` and ``tests/`` to a
temporary directory, applies the one edit there, and runs the named tests
with ``pytest -x -q``; a run that takes longer than ``TIME_LIMIT_S`` counts
as killed, since a mutant can make a loop run on.  The outcome of every
mutant (killed or survived, and the first failing test) goes to
``MUTANTS.json`` at the repository root.  The exit status is 1 when a mutant that is not marked equivalent survives,
or when the unmutated copy fails its tests.

Pytest does not collect this file (it is no ``test_*.py``), so tier-1 does
not run it; each mutant costs one run of its named tests.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIME_LIMIT_S = 600  # a mutant can make a loop run on; the unmutated runs take well under a minute each

CLI = "src/immobilize2d/cli.py"
CLASSIFY = "src/immobilize2d/classify.py"
FEASIBILITY = "src/immobilize2d/feasibility.py"
BODY = "src/immobilize2d/body.py"
GEOM = "src/immobilize2d/geom.py"
ORACLE = "src/immobilize2d/oracle.py"
SECTORS = "src/immobilize2d/sectors.py"

FUZZ_CHECKS = ("tests/test_cli.py::test_fuzz_reports_each_violation_and_exits_13",)
CORNER_FUZZ = ("tests/test_fuzz_corners.py",)
READOUT = ("tests/test_witness_readout.py",)
RECENTRE = ("tests/test_recentre.py",)
VALIDATE = ("tests/test_validate_race.py",)
MOTIONS = ("tests/test_geom.py", "tests/test_containment_property.py", "tests/test_escape_race.py", "tests/test_oracle.py")
NEWTON_TIE = "a tie in value and in slope is the same line, so either pick gives the same bound"

MUTANTS = [
    # the fuzz trial's consistency checks, each switched off
    (CLI, "if fix.status == cls.POSITIVE and almost.status != cls.POSITIVE:", "if False:", FUZZ_CHECKS, None),
    (CLI, "if almost.status == cls.NOT_ALMOST_FIX and fix.status != cls.NOT_WEAKLY_FIX:", "if False:", FUZZ_CHECKS, None),
    (CLI, "if not oracle.validate_rotation_witness(body, pts, w.point, w.sense):", "if False:", FUZZ_CHECKS, None),
    (CLI, "if oracle.escape_search(body, pts, samples=240, seed=index) is not None:", "if False:", FUZZ_CHECKS, None),
    # the corner path: a large sector is the union of its contact's rows, which
    # the default fuzz's smooth contacts never tell from its first row alone
    (SECTORS, "else tuple((lc,) for lc in flipped))", "else tuple((lc,) for lc in flipped[:1]))", CORNER_FUZZ, None),
    # the interval picker merges the strict flags of tied bounds
    (FEASIBILITY, "elif strict and n * lo[1] == lo[0] * b:", "elif False:", READOUT, None),
    # witness re-centring and snapping
    (FEASIBILITY, "Fraction(m, 2 * n * d))", "Fraction(m, 4 * n * d))", RECENTRE, None),
    (FEASIBILITY, "n * (s * w + abs(", "n * (s * d + abs(", (*READOUT, *RECENTRE), None),
    (FEASIBILITY, "_QUALITY_GOOD = Fraction(1, 64)", "_QUALITY_GOOD = Fraction(1, 128)", RECENTRE, None),
    (FEASIBILITY, "(2 * r == d and q & 1)", "(2 * r == d)", (*READOUT, *RECENTRE), None),
    (FEASIBILITY, "d == 0 and w * la < lw * a", "d == 0 and w * la <= lw * a", RECENTRE, NEWTON_TIE),
    (FEASIBILITY, "d == 0 and w * ua > uw * a", "d == 0 and w * ua >= uw * a", RECENTRE, NEWTON_TIE),
    # the direction twin grows arcs for the empty test and shrinks them for the other
    (
        FEASIBILITY,
        "grow_arc(a, tol) if start is None else shrink_arc(a, tol)",
        "shrink_arc(a, tol) if start is None else grow_arc(a, tol)",
        ("tests/test_feasibility.py",),
        None,
    ),
    (CLASSIFY, "if key in by_coords and by_coords[key] != addr:", "if False:", ("tests/test_classify.py",), None),
    # validate's mixed-mode junction snap and the arclength walk
    (BODY, "m, bound = td * c, tn *", "m, bound = c, tn *", VALIDATE, None),
    (BODY, "bisect.bisect_right(starts, pos) - 1", "bisect.bisect_left(starts, pos) - 1", VALIDATE, None),
    # exact mode sums the area only for a chain that does not wind once
    (BODY, "elif twice_area <= 0:", "elif False:", ("tests/test_body.py::test_validation_counts_winding_without_floats",), None),
    # a smooth contact is one row
    (
        SECTORS,
        "(left,) if left == right else (left, right)",
        "(left, right)",
        ("tests/test_classify.py::test_almost_fix_at_smooth_contacts_solves_one_row_per_contact",),
        None,
    ),
    # the one integer map of a rigid motion and the one probe loop
    (GEOM, "c * ow, s * ow, ox * (d - c) + s * oy,", "c * ow, s * ow, -(ox * (d - c) + s * oy),", MOTIONS, None),
    (GEOM, "return c, -s if sense == \"CW\" else s, d", "return c, -s if sense == \"CCW\" else s, d", MOTIONS, None),
    (GEOM, "return vw, 0, vx, vy, vw", "return vw, 1, vx, vy, vw", MOTIONS, None),
    (ORACLE, "b * x + a * y + f * w", "-b * x + a * y + f * w", MOTIONS, None),
    (ORACLE, "_clear(body, pts, (vw, 0, vx, vy, vw))", "_clear(body, pts, (vw, 1, vx, vy, vw))", MOTIONS, None),
    (
        ORACLE,
        "                return False\n    except NearDegenerateError:\n        return False",
        "                return False\n    except NearDegenerateError:\n        return True",
        MOTIONS,
        None,
    ),
    # sampled motion paths keep their times in order
    (ORACLE, "any(s >= t for s, t in zip(times, times[1:]))", "False", ("tests/test_oracle.py",), None),
]


def _pytest(copy: Path, tests) -> tuple[int, str | None]:
    """Run the tests in the copy with ``-x -q``: the exit status and the first
    failing test id; a run past ``TIME_LIMIT_S`` counts as failing."""
    env = {**os.environ, "PYTHONPATH": "src", "PYTHONDONTWRITEBYTECODE": "1"}
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    try:
        proc = subprocess.run(cmd, cwd=copy, env=env, capture_output=True, text=True, timeout=TIME_LIMIT_S)
    except subprocess.TimeoutExpired:
        return 1, f"(no result within {TIME_LIMIT_S} s)"
    failed = re.search(r"^(?:FAILED|ERROR) (\S+)", proc.stdout, re.MULTILINE)
    return proc.returncode, failed.group(1) if failed else None


def _fresh_copy(tmp: Path) -> Path:
    copy = tmp / "repo"
    shutil.rmtree(copy, ignore_errors=True)
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis")
    for part in ("src", "tests"):
        shutil.copytree(ROOT / part, copy / part, ignore=ignore)
    shutil.copy2(ROOT / "pyproject.toml", copy / "pyproject.toml")
    return copy


def main() -> int:
    results, bad = [], []
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        every_test = sorted({t for *_, tests, _ in MUTANTS for t in tests})
        status, failed = _pytest(_fresh_copy(Path(tmp)), every_test)
        if status != 0:
            print(f"the unmutated copy fails its tests (exit {status}, first failure {failed})")
            return 1
        for file, old, new, tests, equivalent in MUTANTS:
            copy = _fresh_copy(Path(tmp))
            target = copy / file
            text = target.read_text()
            if text.count(old) != 1:
                print(f"{file}: the old text occurs {text.count(old)} times, not once: {old!r}")
                return 1
            target.write_text(text.replace(old, new))
            status, failed = _pytest(copy, tests)
            if status not in (0, 1):
                print(f"{file}: {old!r} -> {new!r}: pytest exited {status}")
                return 1
            outcome = "killed" if status == 1 else "survived"
            results.append(
                {
                    "file": file,
                    "old": old,
                    "new": new,
                    "tests": list(tests),
                    "equivalent": equivalent,
                    "outcome": outcome,
                    "killed_by": failed,
                }
            )
            print(f"{outcome:8} {file}: {old!r} -> {new!r}" + (f" ({failed})" if failed else ""))
            if outcome == "survived" and equivalent is None:
                bad.append(results[-1])
    (ROOT / "MUTANTS.json").write_text(json.dumps(results, indent=2) + "\n")
    print(f"{len(results)} mutants, {len(bad)} surviving that are not marked equivalent")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
