"""Benchmark inputs: instance pools, per-seed rounds and the op of each workload.

Every workload draws its inputs from a fixed pool of instances.  Instance
``<category>/<i>`` is generated from its name alone, so the stored reference
(``reference/<workload>.json``) can pin its expected output.  The run seed
only chooses which pool instances a run uses and in which order.  A round is
a list of blocks; each block holds one instance of every stratum,
shuffled.  The strata are the cost paths the workload exists to cover, and
nothing measured says how often a caller takes each one, so they weigh the
same; a traced run prints each stratum's measured share of the op time.  A
run repeats its round, so every pass does the same work.

The library is imported fresh by :func:`import_library` and reached only
through module attributes at call time, so the tracer can wrap the names
callers resolve.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io as _stdio
import json
import random
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

MODULES = ("geom", "body", "sectors", "feasibility", "classify", "oracle", "fixtures", "io", "cli")

SECTOR_KINDS = ("L", "R", "small_l", "small_r")
REFINE_EPSILON = "1/5"
ESCAPE_SAMPLES = 1000
FUZZ_TRIALS = 2  # >= nproc on the reference machine, so the worker pool runs
PROBES_PER_APEX = 16
REFINE_MAX_PLACEMENTS = 9  # refine inputs must succeed within this many placements


class LibraryMissing(RuntimeError):
    pass


def import_library(src: Path) -> SimpleNamespace:
    """Import ``immobilize2d`` from ``src``, dropping any earlier import first."""
    src = src.resolve()
    if not (src / "immobilize2d" / "__init__.py").is_file():
        raise LibraryMissing(f"no immobilize2d package under {src}")
    for name in [n for n in sys.modules if n == "immobilize2d" or n.startswith("immobilize2d.")]:
        del sys.modules[name]
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    importlib.invalidate_caches()
    mods = {m: importlib.import_module(f"immobilize2d.{m}") for m in MODULES}
    pkg_file = Path(sys.modules["immobilize2d"].__file__).resolve()
    if src not in pkg_file.parents:
        raise LibraryMissing(f"immobilize2d imported from {pkg_file}, not from {src}")
    return SimpleNamespace(**mods)


@dataclass
class Instance:
    id: str
    body: object
    points: list
    argv: list = field(default_factory=list)  # CLI op; set-up adds --body/--points in extra["argv"]
    extra: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    name: str
    pools: dict  # generation category -> pool size
    strata: tuple  # round strata; a block holds one instance of each
    blocks: int  # blocks in one round
    cli: bool = True


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="verdicts",
            pools={"corner": 1200, "kgon": 64, "poscorner": 48, "arc": 20, "small": 300, "refine": 300},
            strata=("corner", "kgon", "poscorner", "arc", "small", "refine"),
            blocks=54,
        ),
        Workload(
            name="fuzz",
            pools={"fuzz": 768},
            strata=("fuzz",),
            blocks=100,
        ),
        Workload(
            name="escape",
            pools={"escape": 480},
            strata=("none", "rotation", "translation"),
            blocks=40,
        ),
        Workload(
            name="membership",
            pools={"apex": 256},
            strata=("apex",),
            blocks=128,
            cli=False,
        ),
    )
}


def _rng(*parts) -> random.Random:
    return random.Random(":".join(str(p) for p in parts))


def _random_polygon(lib, rng: random.Random, lo: int, hi: int):
    return lib.fixtures.random_convex_polygon(rng.randrange(2**31), rng.randint(lo, hi))


def _radius(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(4, 24), rng.randint(2, 4))


# -- instance generators: (lib, index) -> Instance ----------------------------


def _verdicts_instance(lib, category: str, i: int) -> Instance:
    rng = _rng("verdicts", category, i)
    bp = lib.body.boundary_point
    mode = "fix" if i % 2 == 0 else "almost"
    if category == "corner":
        body = _random_polygon(lib, rng, 4, 9)
        n = len(body.elements)
        idx = sorted(rng.sample(range(n), rng.randint(3, min(8, n))))
        pts = [bp(body, j, Fraction(0)) for j in idx]
    elif category == "kgon":
        body = lib.fixtures.regular_polygon(5 + i % 4, _radius(rng))
        pts = [bp(body, j, Fraction(0)) for j in range(len(body.elements))]
        mode = "fix"
    elif category == "poscorner":
        # A fixing set (each vertex straddled at +-1/10) plus every vertex:
        # POSITIVE, so every test visits all 2**k branches.
        body = lib.fixtures.regular_polygon(4 + i % 3, _radius(rng))
        corners = [bp(body, j, Fraction(0)) for j in range(len(body.elements))]
        delta = Fraction(1, 10)
        pts = [lib.body.offset_along_boundary(body, c, s) for c in corners for s in (-delta, delta)] + corners
        mode = "fix"
    elif category == "arc":
        fx = (lib.fixtures.example_e1 if i % 2 == 0 else lib.fixtures.example_e2)(2 + (i // 2) % 5)
        body, pts = fx.body, list(fx.points)
        mode = "fix" if (i // 10) % 2 == 0 else "almost"
    elif category == "small":
        if i % 3 == 0:
            fx = lib.fixtures.rectangle_remark()
            body, pts = fx.body, list(fx.points)
        else:
            body = _random_polygon(lib, rng, 3, 6)
            n = len(body.elements)
            pts = [bp(body, j, Fraction(rng.randint(1, 15), 16)) for j in rng.sample(range(n), min(n, rng.randint(2, 3)))]
    elif category == "refine":
        body = _random_polygon(lib, rng, 4, 7)
        n = len(body.elements)
        pts = [bp(body, j, Fraction(0)) for j in sorted(rng.sample(range(n), rng.randint(2, min(4, n))))]
        return Instance(f"{category}/{i}", body, pts, ["refine", "--epsilon", REFINE_EPSILON])
    else:
        raise KeyError(category)
    return Instance(f"{category}/{i}", body, pts, ["classify", "--mode", mode])


def _escape_instance(lib, category: str, i: int) -> Instance:
    rng = _rng("escape", i)
    bp = lib.body.boundary_point
    kind = i % 4
    if kind == 3:
        # Two contacts on the bottom edge of a rectangle and one on the top
        # edge between them, as in the remark fixture: no rotation escapes,
        # the body slides along the edges.
        w, h = rng.randint(2, 9), rng.randint(1, 5)
        body = lib.body.polygon([(0, 0), (w, 0), (w, h), (0, h)])
        lib.body.validate(body)
        a = rng.randint(1, 12)
        b = rng.randint(a + 2, 15)
        top = rng.randint(a + 1, b - 1)  # the top edge runs from x = w to x = 0
        pts = [bp(body, 0, Fraction(a, 16)), bp(body, 0, Fraction(b, 16)), bp(body, 2, Fraction(16 - top, 16))]
    else:
        body = _random_polygon(lib, rng, 4, 8)
        n = len(body.elements)
        if kind == 0:  # every edge midpoint: usually no escape, the whole budget is scanned
            pts = [bp(body, j, Fraction(1, 2)) for j in range(n)]
        elif kind == 1:  # two vertices: an early rotation escape
            j, k = rng.sample(range(n), 2)
            pts = [bp(body, j, Fraction(0)), bp(body, k, Fraction(0))]
        else:
            pts = [bp(body, j, Fraction(rng.randint(1, 15), 16)) for j in rng.sample(range(n), min(n, 3))]
    return Instance(f"{category}/{i}", body, pts, ["escape", "--samples", str(ESCAPE_SAMPLES)])


def _fuzz_instance(lib, category: str, i: int) -> Instance:
    return Instance(f"{category}/{i}", None, [], ["fuzz", "--trials", str(FUZZ_TRIALS), "--seed", str(i)])


def _membership_instance(lib, category: str, i: int) -> Instance:
    rng = _rng("membership", i)
    body = _random_polygon(lib, rng, 4, 9)
    n = len(body.elements)
    param = Fraction(0) if i % 2 == 0 else Fraction(rng.randint(1, 2047), 2048)
    apex_bp = lib.body.boundary_point(body, rng.randrange(n), param)
    td = lib.body.tangents_at(body, apex_bp)
    apex = apex_bp.coords
    lo, hi = body.bounding_box()
    span = max(hi.x - lo.x, hi.y - lo.y, Fraction(1))
    probes = []
    while len(probes) < PROBES_PER_APEX:
        d = lib.geom.Vec(span * Fraction(rng.randint(-512, 512), 256), span * Fraction(rng.randint(-512, 512), 256))
        if not d.is_zero():
            probes.append((apex + d, d))
    sectors = [lib.sectors.make_sector(kind, closed, apex, td) for kind in SECTOR_KINDS for closed in (False, True)]
    dsets = [lib.sectors.direction_set(kind, apex, td) for kind in SECTOR_KINDS]
    extra = {"sectors": sectors, "dsets": dsets, "probes": probes, "smooth": td.u_left == td.u_right}
    return Instance(f"{category}/{i}", body, [apex_bp], extra=extra)


GENERATORS = {
    "verdicts": _verdicts_instance,
    "escape": _escape_instance,
    "fuzz": _fuzz_instance,
    "membership": _membership_instance,
}


def make_instance(lib, workload: str, instance_id: str) -> Instance:
    category, index = instance_id.split("/")
    return GENERATORS[workload](lib, category, int(index))


def pool_ids(workload: Workload) -> list[str]:
    return [f"{c}/{i}" for c, size in workload.pools.items() for i in range(size)]


# -- rounds ------------------------------------------------------------------


def round_ids(workload: Workload, reference: dict, seed: int) -> list[str]:
    """Instance ids of one round for this seed, in block order.

    Only ids the reference lists are used; ``stratum`` there names the
    round stratum when it differs from the generation category.  Each
    stratum's ids are ranked by the reference's ``work`` count (exact solves
    plus half the containment tests, a deterministic stand-in for cost) and
    cut into as many equal bins as the round needs; the seed picks one id
    per bin.  Bins are visited in van der Corput order, so every prefix of
    the round spans the whole cost range.  Different seeds therefore run
    different inputs with the same cost profile.
    """
    rng = random.Random(f"round:{workload.name}:{seed}")
    strata: dict[str, list[str]] = {s: [] for s in workload.strata}
    for iid in sorted(reference, key=_id_key):
        strata[stratum_of(reference, iid)].append(iid)
    queues = {}
    need = workload.blocks
    for name in workload.strata:
        ids = sorted(strata[name], key=lambda iid: (reference[iid]["work"], _id_key(iid)))
        if not ids:
            raise ValueError(f"reference for {workload.name} has no {name!r} instances")
        picks = []
        for b in range(need):
            lo = b * len(ids) // need
            hi = max(lo + 1, (b + 1) * len(ids) // need)
            picks.append(ids[rng.randrange(lo, hi)])
        queues[name] = iter([picks[b] for b in van_der_corput(need)])
    out = []
    for _ in range(workload.blocks):
        block = [next(queues[name]) for name in workload.strata]
        rng.shuffle(block)
        out.extend(block)
    return out


def stratum_of(reference: dict, iid: str) -> str:
    return reference[iid].get("stratum", iid.split("/")[0])


def _id_key(iid: str) -> tuple[str, int]:
    category, index = iid.split("/")
    return category, int(index)


def van_der_corput(n: int) -> list[int]:
    """0..n-1 in bit-reversed order: every prefix is spread evenly over the range."""
    bits = max(1, (n - 1).bit_length())
    order = []
    for i in range(1 << bits):
        r = int(format(i, f"0{bits}b")[::-1], 2)
        if r < n:
            order.append(r)
    return order


def ops_of_round(workload: Workload, instances: list[Instance]) -> list[tuple[Instance, int]]:
    """One op per CLI instance; one op per probe for membership."""
    if workload.cli:
        return [(inst, 0) for inst in instances]
    return [(inst, j) for inst in instances for j in range(len(inst.extra["probes"]))]


def write_inputs(lib, instances: list[Instance], workdir: Path) -> None:
    """Serialise each body and its points; fill in the CLI argv."""
    for n, inst in enumerate(instances):
        if inst.body is None:
            inst.extra["argv"] = list(inst.argv)
            continue
        body_path = workdir / f"{n}-body.json"
        points_path = workdir / f"{n}-points.json"
        body_path.write_text(lib.io.dumps(lib.io.body_to_json(inst.body)))
        points_path.write_text(lib.io.dumps(lib.io.points_to_json(inst.points)))
        inst.extra["argv"] = list(inst.argv[:1]) + ["--body", str(body_path), "--points", str(points_path)] + list(inst.argv[1:])


# -- ops ---------------------------------------------------------------------


def run_cli(lib, argv: list[str]) -> tuple[int, str, str]:
    """One in-process ``cli.main`` call with stdout and stderr captured."""
    out, err = _stdio.StringIO(), _stdio.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = lib.cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 1
    return code, out.getvalue(), err.getvalue()


_SECTOR_LETTER = {"IN": "I", "ON_BOUNDARY": "B", "OUT": "O"}


def membership_probe(lib, inst: Instance, j: int) -> str:
    """8 sector_contains, 4 direction_set_contains and 1 contains_interior, as a code.

    The code has one letter per sector (I/B/O, in SECTOR_KINDS x (open,
    closed) order), one digit per direction set and one letter for the
    containment (I/B/E).
    """
    p, d = inst.extra["probes"][j]
    sectors_mod, body_mod = lib.sectors, lib.body
    s = "".join(_SECTOR_LETTER[sectors_mod.sector_contains(sec, p)] for sec in inst.extra["sectors"])
    ds = "".join("1" if sectors_mod.direction_set_contains(dset, d) else "0" for dset in inst.extra["dsets"])
    return s + ds + body_mod.contains_interior(inst.body, p).value[0]


def run_op(lib, workload: Workload, inst: Instance, j: int):
    if workload.cli:
        return run_cli(lib, inst.extra["argv"])
    return membership_probe(lib, inst, j)


def src_digest(src: Path) -> str:
    """SHA-256 over the library's module sources, in name order."""
    h = hashlib.sha256()
    for path in sorted((src / "immobilize2d").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def load_reference(bench_dir: Path, workload: str) -> dict:
    return json.loads((bench_dir / "reference" / f"{workload}.json").read_text())["instances"]
