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
IO = "src/immobilize2d/io.py"
ORACLE = "src/immobilize2d/oracle.py"
SECTORS = "src/immobilize2d/sectors.py"

FUZZ_CHECKS = ("tests/test_cli.py::test_fuzz_reports_each_violation_and_exits_13",)
CORNER_FUZZ = ("tests/test_fuzz_corners.py",)
READOUT = ("tests/test_witness_readout.py",)
RECENTRE = ("tests/test_recentre.py",)
VALIDATE = ("tests/test_validate_race.py",)
MOTIONS = ("tests/test_geom.py", "tests/test_containment_property.py", "tests/test_escape_race.py", "tests/test_oracle.py")
READ_SCALAR = (
    "tests/test_geom.py::test_read_scalar_refuses_booleans_and_exponents_past_the_digit_limit",
    "tests/test_geom.py::test_vec_reads_its_coordinates_through_read_scalar",
    "tests/test_fixtures.py::test_parameter_bounds",
)
ROTATION_UNITS = "tests/test_oracle.py::test_a_rotation_escape_reads_its_units_from_the_table"
NEWTON_TIE = "a tie in value and in slope is the same line, so either pick gives the same bound"

MUTANTS = [
    # the fuzz trial's consistency checks, each switched off
    (CLI, "if fix.status == cls.POSITIVE and almost.status != cls.POSITIVE:", "if False:", FUZZ_CHECKS, None),
    (CLI, "if almost.status == cls.NOT_ALMOST_FIX and fix.status != cls.NOT_WEAKLY_FIX:", "if False:", FUZZ_CHECKS, None),
    (CLI, "if not valid[w.point, w.sense]:", "if False:", FUZZ_CHECKS, None),
    (CLI, "if oracle.escape_search(body, pts, samples=240, seed=index) is not None:", "if False:", FUZZ_CHECKS, None),
    # the corner path: a large sector is the union of its contact's rows, which
    # the default fuzz's smooth contacts never tell from its first row alone
    (SECTORS, "else tuple((lc,) for lc in flipped))", "else tuple((lc,) for lc in flipped[:1]))", CORNER_FUZZ, None),
    # both questions share each solved system by its rows; keyed by test name, ALMOST_FIX
    # would reuse FIX's results, which only corner contacts tell apart
    (CLASSIFY, "key = (solver, tuple(s.alternatives for s in system))", "key = (solver, name)", CORNER_FUZZ, None),
    # the interval picker merges the strict flags of tied bounds
    (FEASIBILITY, "elif strict and n * lo[1] == lo[0] * b:", "elif False:", READOUT, None),
    # witness re-centring and snapping
    (FEASIBILITY, "(m, 2 * n * d))", "(m, 4 * n * d))", RECENTRE, None),
    (FEASIBILITY, "n * (s * w + abs(", "n * (s * d + abs(", (*READOUT, *RECENTRE), None),
    (FEASIBILITY, "_QUALITY_GOOD = 64", "_QUALITY_GOOD = 128", RECENTRE, None),
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
    # a smooth contact is one row, and so is a corner whose tangents point the same way
    (
        SECTORS,
        "if lx * ry == ly * rx and lx * rx + ly * ry > 0:",
        "if False:",
        (
            "tests/test_classify.py::test_almost_fix_at_smooth_contacts_solves_one_row_per_contact",
            "tests/test_row_property.py::test_sectors_read_off_contact_rows_are_the_fraction_sectors",
        ),
        None,
    ),
    # the body reader keys each vector by its coordinates' types too: true == 1 and hash(true) == hash(1)
    (
        IO,
        'key = (type(d["x"]), d["x"], type(d["y"]), d["y"])',
        'key = (d["x"], d["y"])',
        ("tests/test_io.py::test_a_boolean_after_a_number_is_still_refused",),
        None,
    ),
    # the fixed rows rule a union out only when they are empty
    (FEASIBILITY, "if fixed and _feasible_exact(fixed) is None:", "if fixed and _feasible_exact(fixed) is not None:", ("tests/test_feasibility.py",), None),
    # the one integer map of a rotation, the translation map and the one probe loop
    (GEOM, "c * ow, s * ow, ox * (d - c) + s * oy,", "c * ow, s * ow, -(ox * (d - c) + s * oy),", MOTIONS, None),
    (GEOM, "return c, -s if sense == \"CW\" else s, d", "return c, -s if sense == \"CCW\" else s, d", MOTIONS, None),
    (ORACLE, "if contains_over(body, a * x - b * y + e * w, b * x", "if contains_over(body, a * x - b * y + e * w, -b * x", MOTIONS, None),
    (ORACLE, "_clear(body, pts, (vw, 0, vx, vy, vw))", "_clear(body, pts, (vw, 1, vx, vy, vw))", MOTIONS, None),
    (
        ORACLE,
        "                return False\n    except NearDegenerateError:\n        return False",
        "                return False\n    except NearDegenerateError:\n        return True",
        MOTIONS,
        None,
    ),
    # the escape search reads each rotation step's unit, in its own sense, off the table built once
    (
        ORACLE,
        "rotation_unit(t, sense)) for t in DEFAULT_ROTATION_SCHEDULE",
        "rotation_unit(t, CCW)) for t in DEFAULT_ROTATION_SCHEDULE",
        (ROTATION_UNITS, "tests/test_escape_bytes.py::test_escape_reports_are_pinned"),
        None,
    ),
    (
        ORACLE,
        "_rotation_clear(body, pts, center, sense, t, unit) for t, unit",
        "_rotation_clear(body, pts, center, sense, t) for t, unit",
        (ROTATION_UNITS,),
        None,
    ),
    # the one number reader refuses a boolean and a decimal exponent past MAX_DIGITS
    (GEOM, "if isinstance(value, bool):", "if False:", READ_SCALAR, None),
    (GEOM, "if e and abs(int(exponent)) > MAX_DIGITS:", "if False:", READ_SCALAR, None),
    # rows from outside are read through it too, and a Vec reads its own coordinates
    (
        FEASIBILITY,
        "_coprime_row(*(read_scalar(v, \"row term\") for v in (lc.nx, lc.ny, lc.c)), lc.strict)",
        "_coprime_row(lc.nx, lc.ny, lc.c, lc.strict)",
        ("tests/test_feasibility.py::test_non_finite_and_boolean_row_terms_raise_out_of_range",),
        None,
    ),
    (
        GEOM,
        "_EXACT = (int, Fraction)",
        "_EXACT = (int, Fraction, float)",
        (
            "tests/test_sectors.py::test_sector_membership_decides_a_float_point_at_its_exact_value",
            "tests/test_body.py::test_a_body_of_float_vecs_decides_as_its_tuple_twin",
        ),
        None,
    ),
    # the row normaliser divides by the terms' gcd
    (GEOM, "g = gcd(a, b, k) or 1", "g = 1", ("tests/test_row_property.py::test_rows_are_coprime_ints_with_the_rational_rows_terms",), None),
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
