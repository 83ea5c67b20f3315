"""Outside-in layer trace.

The tracer replaces, at run time, the module attributes through which one
layer calls the next (the names callers resolve; see ``BOUNDARIES``) with
wrappers that record a span per call: name, start, end, parent span, op id
and thread.  Span stacks are per thread, so spans made by the fuzz worker
pool nest correctly.  Each wrapper also measures its own bookkeeping and
charges it to the parent span as excluded time, so self times stay close to
those of an untraced run.  Spans stay in memory until the run ends.

A span's self time is its duration minus the durations of its children and
minus the wrapper time excluded from it.  A name that no longer exists in
its module is reported as an absent boundary, not an error.
"""

from __future__ import annotations

import itertools
import statistics
import threading
import time
from collections import Counter, defaultdict
from fractions import Fraction

LAYERS = ("bench", "cli", "io", "classify", "feasibility", "sectors", "body", "oracle", "geom")

# (module the caller resolves the name in, attribute, span name); the span
# name's first part is the layer the callee belongs to.
BOUNDARIES = (
    ("cli", "main", "cli.main"),
    ("cli", "cmd_classify", "cli.cmd_classify"),
    ("cli", "cmd_refine", "cli.cmd_refine"),
    ("cli", "cmd_escape", "cli.cmd_escape"),
    ("cli", "cmd_fuzz", "cli.cmd_fuzz"),
    ("cli", "_fuzz_trial", "cli._fuzz_trial"),
    ("cli", "_rotation_witness_validates", "cli._rotation_witness_validates"),
    ("cli", "validate", "body.validate"),
    ("io", "loads", "io.loads"),
    ("io", "body_from_json", "io.body_from_json"),
    ("io", "points_from_json", "io.points_from_json"),
    ("io", "dumps", "io.dumps"),
    ("io", "verdict_to_json", "io.verdict_to_json"),
    ("io", "placement_to_json", "io.placement_to_json"),
    ("io", "points_to_json", "io.points_to_json"),
    ("io", "escape_report_to_json", "io.escape_report_to_json"),
    ("classify", "classify_fix", "classify.classify_fix"),
    ("classify", "classify_almost_fix", "classify.classify_almost_fix"),
    ("classify", "refine_almost_to_fix", "classify.refine_almost_to_fix"),
    ("classify", "sectors_intersection", "feasibility.sectors_intersection"),
    ("classify", "directions_intersection", "feasibility.directions_intersection"),
    ("classify", "make_sector", "sectors.make_sector"),
    ("classify", "direction_set", "sectors.direction_set"),
    ("classify", "tangents_at", "body.tangents_at"),
    ("classify", "offset_along_boundary", "body.offset_along_boundary"),
    ("feasibility", "linear_feasible", "feasibility.linear_feasible"),
    ("feasibility", "_feasible_exact", "feasibility._feasible_exact"),
    ("feasibility", "_improve_witness", "feasibility._improve_witness"),
    ("feasibility", "_twin_any", "feasibility._twin_any"),
    ("feasibility", "intersect_direction_sets", "sectors.intersect_direction_sets"),
    ("sectors", "sector_contains", "sectors.sector_contains"),
    ("sectors", "direction_set_contains", "sectors.direction_set_contains"),
    ("body", "contains_interior", "body.contains_interior"),
    ("oracle", "contains_interior", "body.contains_interior"),
    ("oracle", "escape_search", "oracle.escape_search"),
    ("oracle", "validate_rotation_witness", "oracle.validate_rotation_witness"),
    ("oracle", "_rotation_clear", "oracle._rotation_clear"),
    ("oracle", "_translation_clear", "oracle._translation_clear"),
    ("oracle", "rotation_about", "geom.rotation_about"),
    ("oracle", "apply_motion", "geom.apply_motion"),
)
# Generators: each yield is recorded as a zero-length event under the consumer.
GENERATOR_BOUNDARIES = (("feasibility", "sector_branches", "feasibility.branch"),)

OP = "bench.op"


def _solve_info(lib):
    def info(args, result):
        rows = args[0]
        lower = upper = bits = 0
        for lc in rows:
            if lc.ny > 0:
                lower += 1
            elif lc.ny < 0:
                upper += 1
            for v in (lc.nx, lc.ny, lc.c):
                b = max(v.numerator.bit_length(), v.denominator.bit_length())
                if b > bits:
                    bits = b
        return (len(rows), lower * upper, bits)

    return info


def _rotation_probe_info(lib):
    first = lib.oracle.DEFAULT_ROTATION_SCHEDULE[0]
    return lambda args, result: (bool(result), args[4] == first)


def _translation_probe_info(lib):
    quarter = Fraction(1, 4)  # escape_search's directions are unit vectors and its first magnitude is 1/2
    return lambda args, result: (bool(result), args[2].x * args[2].x + args[2].y * args[2].y == quarter)


INFO = {
    "feasibility._feasible_exact": _solve_info,
    "feasibility.linear_feasible": lambda lib: lambda args, result: result.feasible,
    "classify.classify_fix": lambda lib: lambda args, result: result.status,
    "classify.classify_almost_fix": lambda lib: lambda args, result: result.status,
    "sectors.intersect_direction_sets": lambda lib: lambda args, result: len(result.arcs),
    "oracle._rotation_clear": _rotation_probe_info,
    "oracle._translation_clear": _translation_probe_info,
}


class Tracer:
    """Span recorder.  A span is (id, name index, start, end, parent id,
    op id, thread id, excluded seconds, info); parent id -1 is a root."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[tuple] = []
        self.op = -1
        self.absent: list[str] = []
        self._index: dict[str, int] = {}
        self._ids = itertools.count()
        self._local = threading.local()
        self._installed: list[tuple] = []

    def name_index(self, name: str) -> int:
        if name not in self._index:
            self._index[name] = len(self.names)
            self.names.append(name)
        return self._index[name]

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn, name: str, info=None):
        idx = self.name_index(name)
        clock, spans, ids, stack_of = time.perf_counter, self.spans, self._ids, self._stack
        tracer = self

        def record(frame, parent, t0, t1, data):
            spans.append(
                (frame[0], idx, t0, t1, parent[0] if parent else -1, tracer.op, threading.get_ident(), frame[1], data)
            )

        def wrapper(*args, **kwargs):
            enter = clock()
            stack = stack_of()
            parent = stack[-1] if stack else None
            frame = [next(ids), 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                t1 = clock()
                stack.pop()
                record(frame, parent, t0, t1, None)
                if parent is not None:
                    parent[1] += (t0 - enter) + (clock() - t1)
                raise
            t1 = clock()
            stack.pop()
            record(frame, parent, t0, t1, info(args, result) if info is not None else None)
            if parent is not None:
                parent[1] += (t0 - enter) + (clock() - t1)
            return result

        return wrapper

    def wrap_generator(self, fn, name: str):
        idx = self.name_index(name)
        clock, spans, ids, stack_of = time.perf_counter, self.spans, self._ids, self._stack
        tracer = self

        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                enter = clock()
                stack = stack_of()
                parent = stack[-1] if stack else None
                spans.append(
                    (next(ids), idx, enter, enter, parent[0] if parent else -1, tracer.op, threading.get_ident(), 0.0, None)
                )
                if parent is not None:
                    parent[1] += clock() - enter
                yield item

        return wrapper

    def install(self, lib) -> None:
        """Wrap every boundary in ``lib`` (a namespace of library modules)."""
        for module_name, attr, name in BOUNDARIES:
            self._replace(lib, module_name, attr, lambda fn, n=name: self.wrap(fn, n, INFO[n](lib) if n in INFO else None))
        for module_name, attr, name in GENERATOR_BOUNDARIES:
            self._replace(lib, module_name, attr, lambda fn, n=name: self.wrap_generator(fn, n))

    def _replace(self, lib, module_name, attr, make) -> None:
        module = getattr(lib, module_name, None)
        original = getattr(module, attr, None) if module is not None else None
        if original is None:
            self.absent.append(f"{module_name}.{attr}")
            return
        setattr(module, attr, make(original))
        self._installed.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()


# -- derived metrics -----------------------------------------------------------


class SpanIndex:
    """Self times and ancestry over a list of spans.

    A root span made on another thread than its op's ``bench.op`` span (a
    fuzz pool worker's trial) is adopted by the innermost span of that op
    on the op's thread that was open when the worker span started, so the
    time the op's thread spent waiting on the pool is covered, not self
    time.  Children on several threads can overlap; a span's self time
    subtracts the union of its children's intervals.
    """

    def __init__(self, names: list[str], spans: list[tuple]):
        self.by_name: dict[str, list[tuple]] = defaultdict(list)
        self.parent: dict[int, int] = {}
        self.name_of: dict[int, str] = {}
        for s in spans:
            self.by_name[names[s[1]]].append(s)
            self.parent[s[0]] = s[4]
            self.name_of[s[0]] = names[s[1]]
        self._adopt_worker_roots(spans)
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for s in spans:
            if self.parent[s[0]] >= 0:
                children[self.parent[s[0]]].append((s[2], s[3]))
        self.self_time = {s[0]: (s[3] - s[2]) - _covered(children.get(s[0], ())) - s[7] for s in spans}

    def _adopt_worker_roots(self, spans: list[tuple]) -> None:
        op_thread = {s[5]: s[6] for s in self.by_name.get(OP, ())}
        on_op_thread: dict[int, list[tuple]] = defaultdict(list)
        for s in spans:
            if op_thread.get(s[5]) == s[6]:
                on_op_thread[s[5]].append(s)
        for s in spans:
            if s[4] < 0 and s[5] in op_thread and op_thread[s[5]] != s[6]:
                open_then = [m for m in on_op_thread[s[5]] if m[2] <= s[2] <= m[3]]
                if open_then:
                    self.parent[s[0]] = max(open_then, key=lambda m: m[2])[0]

    def spans(self, *names: str) -> list[tuple]:
        return [s for n in names for s in self.by_name.get(n, ())]

    def calls(self, *names: str) -> int:
        return sum(len(self.by_name.get(n, ())) for n in names)

    def ancestors(self, sid: int):
        p = self.parent.get(sid, -1)
        while p >= 0:
            yield self.name_of[p]
            p = self.parent.get(p, -1)

    def busy_ms(self, *names: str) -> float:
        """Time covered by the outermost spans of the named group."""
        group = set(names)
        return 1000 * sum(s[3] - s[2] for s in self.spans(*names) if not any(a in group for a in self.ancestors(s[0])))

    def self_ms(self, *names: str) -> float:
        return 1000 * sum(self.self_time[s[0]] for s in self.spans(*names))

    def layer_self_ms(self, layer: str) -> float:
        return self.self_ms(*[n for n in self.by_name if n.split(".", 1)[0] == layer])

    def parent_named(self, span: tuple) -> str | None:
        return self.name_of.get(self.parent[span[0]])


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# (metric, unit, additive): additive metrics are also reported per op.
def layer_metrics(ix: SpanIndex) -> list[tuple[str, str, bool, float]]:
    solves = ix.spans("feasibility._feasible_exact")
    probes = ix.spans("oracle._rotation_clear", "oracle._translation_clear")
    classified = ix.spans("classify.classify_fix", "classify.classify_almost_fix")
    statuses = Counter(s[8] for s in classified)
    lin = ix.spans("feasibility.linear_feasible")
    improve = ix.spans("feasibility._improve_witness")
    improve_ids = {s[0] for s in improve}
    searched = {ix.parent[s[0]] for s in solves if ix.parent[s[0]] in improve_ids}
    branch_events = ix.spans("feasibility.branch")
    tests = ix.calls("feasibility.sectors_intersection")
    trials = ix.spans("cli._fuzz_trial")
    rescales = Counter(ix.parent[s[0]] for s in ix.spans("oracle.validate_rotation_witness") if ix.parent_named(s) == "cli._rotation_witness_validates")
    bits = sorted(s[8][2] for s in solves)
    arcs_out = [s[8] for s in ix.spans("sectors.intersect_direction_sets")]
    out = [
        ("cli.parse_ms", "ms", True, ix.busy_ms("io.loads", "io.body_from_json", "io.points_from_json", "body.validate")),
        ("cli.emit_ms", "ms", True, ix.busy_ms("io.dumps", "io.verdict_to_json", "io.placement_to_json", "io.points_to_json", "io.escape_report_to_json")),
        ("cli.fuzz_trial_ms_p50", "ms", False, 1000 * statistics.median(s[3] - s[2] for s in trials) if trials else 0.0),
        ("cli.fuzz_concurrency", "ratio", False, _ratio(sum(s[3] - s[2] for s in trials), sum(s[3] - s[2] for s in ix.spans("cli.cmd_fuzz")))),
        ("cli.witness_rescales", "count", True, sum(n - 1 for n in rescales.values())),
        ("classify.calls", "count", True, len(classified)),
        ("classify.self_ms", "ms", True, ix.layer_self_ms("classify")),
        ("classify.positive", "count", True, statuses["POSITIVE"]),
        ("classify.negative", "count", True, statuses["NOT_WEAKLY_FIX"] + statuses["NOT_ALMOST_FIX"]),
        ("classify.indeterminate", "count", True, statuses["FIRST_ORDER_INDETERMINATE"]),
        ("classify.refine_placements", "count", True, sum(1 for s in ix.spans("classify.classify_fix") if "classify.refine_almost_to_fix" in ix.ancestors(s[0]))),
        ("feasibility.sectors_intersection.calls", "count", True, tests),
        ("feasibility.sectors_intersection.busy_ms", "ms", True, ix.busy_ms("feasibility.sectors_intersection")),
        ("feasibility.sectors_intersection.self_ms", "ms", True, ix.self_ms("feasibility.sectors_intersection")),
        ("feasibility.branches", "count", True, len(branch_events)),
        ("feasibility.branches_per_test", "count", False, _ratio(sum(1 for s in branch_events if ix.parent_named(s) == "feasibility.sectors_intersection"), tests)),
        ("feasibility.branch_hit_ratio", "ratio", False, _ratio(sum(1 for s in lin if s[8]), len(lin))),
        ("feasibility.exact_solves", "count", True, len(solves)),
        ("feasibility.exact_solve_ms", "ms", True, ix.busy_ms("feasibility._feasible_exact")),
        ("feasibility.exact_rows_mean", "rows", False, statistics.fmean(s[8][0] for s in solves) if solves else 0.0),
        ("feasibility.exact_pairs_mean", "pairs", False, statistics.fmean(s[8][1] for s in solves) if solves else 0.0),
        ("feasibility.coeff_bits_p50", "bits", False, statistics.median(bits) if bits else 0),
        ("feasibility.coeff_bits_max", "bits", False, bits[-1] if bits else 0),
        ("feasibility.recentre.calls", "count", True, len(improve)),
        ("feasibility.recentre.ms", "ms", True, ix.busy_ms("feasibility._improve_witness")),
        ("feasibility.recentre.solves", "count", True, sum(1 for s in solves if ix.parent[s[0]] in improve_ids)),
        ("feasibility.recentre_ratio", "ratio", False, _ratio(len(searched), len(improve))),
        ("feasibility.twin_solves", "count", True, sum(1 for s in solves if ix.parent_named(s) == "feasibility._twin_any")),
        ("feasibility.twin_ms", "ms", True, ix.busy_ms("feasibility._twin_any")),
    ]
    for name in ("feasibility.linear_feasible", "feasibility.directions_intersection", "sectors.sector_contains",
                 "sectors.direction_set_contains", "sectors.make_sector", "sectors.direction_set",
                 "sectors.intersect_direction_sets", "body.contains_interior", "body.validate", "body.tangents_at",
                 "body.offset_along_boundary"):
        out.append((f"{name}.calls", "count", True, ix.calls(name)))
        out.append((f"{name}.ms", "ms", True, ix.busy_ms(name)))
    out += [
        ("sectors.intersect_direction_sets.arcs_out_max", "count", False, max(arcs_out, default=0)),
        ("oracle.escape_search.calls", "count", True, ix.calls("oracle.escape_search")),
        ("oracle.escape_search.busy_ms", "ms", True, ix.busy_ms("oracle.escape_search")),
        ("oracle.escape_search.self_ms", "ms", True, ix.self_ms("oracle.escape_search")),
        ("oracle.families_tried", "count", True, sum(1 for s in probes if s[8] and s[8][1] and ix.parent_named(s) == "oracle.escape_search")),
        ("oracle.probes", "count", True, len(probes)),
        ("oracle.clear_ratio", "ratio", False, _ratio(sum(1 for s in probes if s[8] and s[8][0]), len(probes))),
        ("oracle.validate_rotation_witness.calls", "count", True, ix.calls("oracle.validate_rotation_witness")),
        ("oracle.validate_rotation_witness.ms", "ms", True, ix.busy_ms("oracle.validate_rotation_witness")),
    ]
    for name in ("geom.rotation_about", "geom.apply_motion"):
        out.append((f"{name}.calls", "count", True, ix.calls(name)))
        out.append((f"{name}.ms", "ms", True, ix.busy_ms(name)))
    for layer in LAYERS:
        out.append((f"layer.{layer}.self_ms", "ms", True, ix.layer_self_ms(layer)))
    return out


def per_layer(ix: SpanIndex, n_ops: int, overhead_ratio: float, absent: int) -> dict[str, tuple[float, str]]:
    """Every per-layer metric as name -> (value, unit): run totals, then per-op values."""
    rows = layer_metrics(ix)
    out = {name: (value, unit) for name, unit, _, value in rows}
    for name, unit, additive, value in rows:
        if additive:
            out[f"{name}.per_op"] = (_ratio(value, n_ops), unit)
    out["trace.overhead_ratio"] = (overhead_ratio, "ratio")
    out["trace.absent_boundaries"] = (absent, "count")
    return out


# Counts that do not depend on timing: two traced runs of one seed must agree.
DETERMINISTIC = (
    "feasibility.exact_solves",
    "feasibility.branches",
    "feasibility.recentre.solves",
    "oracle.probes",
    "sectors.sector_contains.calls",
    "classify.positive",
    "classify.negative",
    "classify.indeterminate",
)
