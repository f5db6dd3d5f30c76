"""In-process traced run: spans around pvtower's layer boundaries.

Wrappers are installed from here, never from pvtower's own code: every
named public function is replaced in each pvtower module namespace that
binds it, plus ``IntMatrix.__matmul__``, ``PolyMatrix.evaluate`` and
``ModuleDatum.from_json_dict`` on their classes.  A span is
(name, start, end, parent, job); spans stay in memory for one pass and
self time is derived from them afterwards.  Counters that need a look
at the matrices (bit sizes, repeat hashes) are computed after the span
closes; that time is kept out of every span and reported as
``trace.bookkeeping_s``.
"""

from __future__ import annotations

import contextlib
import io
import statistics
import sys
import time
from collections import defaultdict

LAYERS = ("cli", "ring", "exterior", "abgroup", "koszul", "tower", "cubical", "liegroups")

# Span name -> (module, attribute).  Names start with the layer (module) they belong to.
FUNCTIONS = {
    "cli.main": ("cli", "main"),
    "cli.run": ("cli", "run"),
    "abgroup.snf": ("abgroup", "snf"),
    "abgroup.kernel_basis": ("abgroup", "kernel_basis"),
    "abgroup.column_span_basis": ("abgroup", "column_span_basis"),
    "abgroup.solve_exact": ("abgroup", "solve_exact"),
    "abgroup.subquotient": ("abgroup", "subquotient"),
    "abgroup.cokernel": ("abgroup", "cokernel"),
    "abgroup.kernel_rank": ("abgroup", "kernel_rank"),
    "abgroup.rational_rank": ("abgroup", "rational_rank"),
    "exterior.koszul_matrix": ("exterior", "koszul_matrix"),
    "koszul.build_datum": ("koszul", "build_datum"),
    "koszul.build_symbolic": ("koszul", "build_symbolic"),
    "koszul.spot_cohomology": ("koszul", "datum_spot_cohomology"),
    "koszul.spot_kernel": ("koszul", "datum_spot_kernel"),
    "koszul.rank_witness": ("koszul", "generic_rank_exactness"),
    "tower.pv_tower": ("tower", "pv_tower"),
    "tower.pv_rank1": ("tower", "pv_rank1"),
    "tower.tower_shape": ("tower", "tower_shape"),
    "cubical.oracle_compare": ("cubical", "oracle_compare"),
    "liegroups.homogeneous_ktheory": ("liegroups", "homogeneous_ktheory"),
}
METHODS = {
    "abgroup.matmul": ("abgroup", "IntMatrix", "__matmul__"),
    "ring.evaluate": ("ring", "PolyMatrix", "evaluate"),
}
VALIDATE = "koszul.validate"  # the classmethod ModuleDatum.from_json_dict
LATTICE = (
    "abgroup.kernel_basis",
    "abgroup.column_span_basis",
    "abgroup.solve_exact",
    "abgroup.subquotient",
    "abgroup.cokernel",
    "abgroup.kernel_rank",
)
# Callers that read only the diagonal of the SNF they ask for; a direct SNF
# child of subquotient is its final one (the others sit under
# column_span_basis and solve_exact).
DIAG_ONLY_PARENTS = ("abgroup.cokernel", "abgroup.kernel_rank", "abgroup.subquotient")

# Per-layer metrics in report order, with units.
METRICS = (
    ("abgroup.snf.calls", "count"),
    ("abgroup.snf.self_s", "s"),
    ("abgroup.snf.cells", "count"),
    ("abgroup.snf.max_dim", "count"),
    ("abgroup.snf.max_bits", "bits"),
    ("abgroup.snf.diag_only_frac", "ratio"),
    ("abgroup.snf.repeat_frac", "ratio"),
    ("abgroup.lattice.calls", "count"),
    ("abgroup.lattice.self_s", "s"),
    ("abgroup.matmul.calls", "count"),
    ("abgroup.matmul.self_s", "s"),
    ("abgroup.matmul.mults", "count"),
    ("abgroup.matmul.max_bits", "bits"),
    ("abgroup.rational_rank.calls", "count"),
    ("abgroup.rational_rank.self_s", "s"),
    ("ring.evaluate.calls", "count"),
    ("ring.evaluate.self_s", "s"),
    ("exterior.koszul_matrix.self_s", "s"),
    ("koszul.rank_witness.self_s", "s"),
    ("cubical.oracle_compare.self_s", "s"),
    ("liegroups.homogeneous_ktheory.self_s", "s"),
    ("koszul.validate_s", "s"),
    ("koszul.build_datum.self_s", "s"),
    ("koszul.spot_cohomology.self_s", "s"),
    ("koszul.spot_kernel.self_s", "s"),
    ("tower.pv_tower.self_s", "s"),
    ("tower.pv_rank1.self_s", "s"),
    ("cli.import_s", "s"),
    ("cli.self_s", "s"),
    *((f"{layer}.self_s", "s") for layer in LAYERS if layer != "cli"),
    ("trace.inproc_wall_s", "s"),
    ("trace.traced_wall_s", "s"),
    ("trace.bookkeeping_s", "s"),
    ("trace.overhead_frac", "ratio"),
    ("trace.covered_frac", "ratio"),
)


def _max_bits(rows) -> int:
    return max((max(max(r), -min(r)) for r in rows if r), default=0).bit_length()


class Tracer:
    """Span recorder for one traced pass; install() patches pvtower, remove() undoes it."""

    def __init__(self, modules: dict):
        self.modules = modules
        self.spans: list[list] = []  # [name, start, end, parent index, job]
        self.stack: list[int] = []
        self.excluded: dict[int, float] = defaultdict(float)  # bookkeeping inside a span
        self.job = 0
        self.seen: set[int] = set()
        self.counts: dict[str, int] = defaultdict(int)
        self._undo: list = []

    # -- wrappers ------------------------------------------------------

    def _wrap(self, name: str, fn, post=None):
        spans, stack, excluded = self.spans, self.stack, self.excluded
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            span = [name, 0.0, 0.0, parent, self.job]
            spans.append(span)
            stack.append(idx)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                span[1], span[2] = start, end
            if post is not None:
                post(parent, args, out)
                excluded[parent] += clock() - end
            return out

        return wrapper

    def _snf_post(self, parent: int, args, out) -> None:
        m, c = args[0], self.counts
        c["snf.cells"] += m.rows * m.cols
        c["snf.max_dim"] = max(c["snf.max_dim"], m.rows, m.cols)
        bits = max(_max_bits(t.entries) for t in (out.U, out.D, out.V, out.Uinv, out.Vinv))
        c["snf.max_bits"] = max(c["snf.max_bits"], bits)
        key = hash((m.rows, m.cols, m.entries))
        if key in self.seen:
            c["snf.repeats"] += 1
        self.seen.add(key)
        if parent >= 0 and self.spans[parent][0] in DIAG_ONLY_PARENTS:
            c["snf.diag_only"] += 1

    def _matmul_post(self, parent: int, args, out) -> None:
        a, b = args
        c = self.counts
        c["matmul.mults"] += a.rows * a.cols * b.cols
        c["matmul.max_bits"] = max(c["matmul.max_bits"], _max_bits(out.entries))

    def install(self) -> None:
        posts = {"abgroup.snf": self._snf_post, "abgroup.matmul": self._matmul_post}
        for name, (home, attr) in FUNCTIONS.items():
            orig = getattr(self.modules[home], attr)
            wrapper = self._wrap(name, orig, posts.get(name))
            for mod in self.modules.values():
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._undo.append((mod, key, orig))
                        setattr(mod, key, wrapper)
        for name, (home, cls_name, attr) in METHODS.items():
            cls = getattr(self.modules[home], cls_name)
            orig = cls.__dict__[attr]
            self._undo.append((cls, attr, orig))
            setattr(cls, attr, self._wrap(name, orig, posts.get(name)))
        datum_cls = self.modules["koszul"].ModuleDatum
        raw = datum_cls.__dict__["from_json_dict"]
        self._undo.append((datum_cls, "from_json_dict", raw))
        datum_cls.from_json_dict = classmethod(self._wrap(VALIDATE, raw.__func__))

    def remove(self) -> None:
        for owner, key, orig in reversed(self._undo):
            setattr(owner, key, orig)
        self._undo.clear()

    def start_job(self, job: int) -> None:
        self.job = job
        self.seen = set()

    # -- analysis ------------------------------------------------------

    def summary(self) -> dict:
        """Self and inclusive time per span name, and the counters, for the pass."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        incl_s: dict[str, float] = defaultdict(float)
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += end - start - child[i] - self.excluded.get(i, 0.0)
            incl_s[name] += end - start
        return {
            "calls": calls,
            "self": self_s,
            "incl": incl_s,
            "counts": dict(self.counts),
            "bookkeeping": sum(self.excluded.values()),
        }


def call_cli(cli, job) -> tuple[int, bytes]:
    """Run one job through ``cli.main`` in this process, stdin and stdout swapped."""
    saved = sys.stdin
    sys.stdin = io.TextIOWrapper(io.BytesIO(job.payload))
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = cli.main(list(job.argv))
            except SystemExit as exc:  # argparse rejects an argument
                code = exc.code if isinstance(exc.code, int) else 2
    finally:
        sys.stdin = saved
    return code, out.getvalue().encode()


def run_pass(cli, jobs, tracer: Tracer | None = None):
    """One pass over the jobs; returns (wall seconds, [(code, stdout)])."""
    results = []
    wall = 0.0
    for i, job in enumerate(jobs):
        if tracer is not None:
            tracer.start_job(i)
        start = time.perf_counter()
        results.append(call_cli(cli, job))
        wall += time.perf_counter() - start
    return wall, results


def pass_metrics(summary: dict, wall: float, untraced_wall: float, import_s: float) -> dict:
    """Per-layer metrics of one traced pass against the untraced in-process pass."""
    calls, self_s, incl_s, c = summary["calls"], summary["self"], summary["incl"], summary["counts"]
    bookkeeping = summary["bookkeeping"]
    snf_calls = calls.get("abgroup.snf", 0)
    m = {
        "abgroup.snf.calls": snf_calls,
        "abgroup.snf.self_s": self_s.get("abgroup.snf", 0.0),
        "abgroup.snf.cells": c.get("snf.cells", 0),
        "abgroup.snf.max_dim": c.get("snf.max_dim", 0),
        "abgroup.snf.max_bits": c.get("snf.max_bits", 0),
        "abgroup.snf.diag_only_frac": c.get("snf.diag_only", 0) / snf_calls if snf_calls else 0.0,
        "abgroup.snf.repeat_frac": c.get("snf.repeats", 0) / snf_calls if snf_calls else 0.0,
        "abgroup.lattice.calls": sum(calls.get(n, 0) for n in LATTICE),
        "abgroup.lattice.self_s": sum(self_s.get(n, 0.0) for n in LATTICE),
        "abgroup.matmul.calls": calls.get("abgroup.matmul", 0),
        "abgroup.matmul.self_s": self_s.get("abgroup.matmul", 0.0),
        "abgroup.matmul.mults": c.get("matmul.mults", 0),
        "abgroup.matmul.max_bits": c.get("matmul.max_bits", 0),
        "abgroup.rational_rank.calls": calls.get("abgroup.rational_rank", 0),
        "abgroup.rational_rank.self_s": self_s.get("abgroup.rational_rank", 0.0),
        "ring.evaluate.calls": calls.get("ring.evaluate", 0),
        "ring.evaluate.self_s": self_s.get("ring.evaluate", 0.0),
        "koszul.validate_s": incl_s.get(VALIDATE, 0.0),
        "cli.import_s": import_s,
        "trace.inproc_wall_s": untraced_wall,
        "trace.traced_wall_s": wall,
        "trace.bookkeeping_s": bookkeeping,
        "trace.overhead_frac": (wall - bookkeeping) / untraced_wall - 1.0,
        "trace.covered_frac": sum(self_s.values()) / (wall - bookkeeping),
    }
    for name in (
        "exterior.koszul_matrix",
        "koszul.rank_witness",
        "cubical.oracle_compare",
        "liegroups.homogeneous_ktheory",
        "koszul.build_datum",
        "koszul.spot_cohomology",
        "koszul.spot_kernel",
        "tower.pv_tower",
        "tower.pv_rank1",
    ):
        m[f"{name}.self_s"] = self_s.get(name, 0.0)
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(v for k, v in self_s.items() if k.split(".")[0] == layer)
    return m


def median_metrics(per_pass: list[dict]) -> dict:
    return {key: statistics.median(p[key] for p in per_pass) for key in per_pass[0]}
