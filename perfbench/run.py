"""pvtower benchmark: end-to-end ``pv`` timings and a traced per-layer run.

Usage, from the repository root:

    python3 perfbench/run.py --workload wide --seed 1 --seconds 25 --trace 0

``--trace 0`` drives ``python -m pvtower.cli`` (with ``PYTHONPATH=src``)
from outside: one job process at a time in a closed loop with a single
client, pass after pass over the workload's seeded job lists until
``--seconds`` have gone by, then checks every output against the
reference in ``reference.py``.  ``--trace 1`` runs the same jobs in
this process through ``pvtower.cli.main``, alternating untraced and
traced passes, and reports the per-layer metrics.  The last line of
stdout is one JSON object: correct, attempted, failed, metrics.
See README.md in this directory for what each metric means.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

import reference
import tracing
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, "perfbench", "out")

SETUP_REPEATS = 3
# Passes cycle through this many job lists drawn from the seed, so a run's
# figures average over several random instances of each job slot.
PASS_LISTS = 4
IMPORT_REPEATS = 5
JOB_TIMEOUT_S = 120.0
HARD_LIMIT_S = 150.0  # stop starting jobs past this point; the run must end within 180 s
TAIL_BEYOND = 10


class BenchError(RuntimeError):
    """The benchmark cannot run here; exits without a result."""


@dataclass
class JobRun:
    code: int
    stdout: bytes
    stderr: bytes
    start: float
    end: float
    cpu_s: float
    maxrss_kb: int

    @property
    def latency_s(self) -> float:
        return self.end - self.start


def child_env() -> dict:
    """pvtower on the path, and bytecode caching on as in a default Python."""
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(argv: list[str], payload: bytes, env: dict, timeout: float = JOB_TIMEOUT_S) -> JobRun:
    """Run one process to its exit, killing it after `timeout` seconds.

    Its rusage comes from wait4 on that process alone.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(
        argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env=env, cwd=ROOT,
    )
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        try:
            proc.stdin.write(payload)
            proc.stdin.close()
        except BrokenPipeError:
            pass
        out = proc.stdout.read()
        err = proc.stderr.read()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
        timer.join()
    end = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    return JobRun(
        proc.returncode, out, err, start, end, usage.ru_utime + usage.ru_stime, usage.ru_maxrss
    )


def pv_argv(job: workloads.Job) -> list[str]:
    return [sys.executable, "-m", "pvtower.cli", *job.argv]


def setup(workload: str, seed: int, env: dict, lists: int):
    """Generate the job lists, compute their references, warm the bytecode cache once.

    Returns the jobs of all lists in one flat list, the index range of each
    list in it, the references, and the seconds taken.
    """
    start = time.perf_counter()
    jobs, ranges = [], []
    for index in range(lists):
        part = workloads.generate(workload, seed, index)
        ranges.append(range(len(jobs), len(jobs) + len(part)))
        jobs += part
    expected = [reference.expectation(job) for job in jobs]
    warm = spawn(pv_argv(jobs[0]), jobs[0].payload, env)
    if warm.code != 0:
        raise BenchError(f"warm-up job failed with exit {warm.code}: {warm.stderr[-300:]!r}")
    return jobs, ranges, expected, time.perf_counter() - start


def describe(jobs, expected) -> list[str]:
    """One line per job: what it runs, its sizes and nonzeros."""
    lines = []
    for i, (job, exp) in enumerate(zip(jobs, expected)):
        spec = job.spec
        if "datum" in spec:
            d, stats = spec["datum"], exp["stats"]
            groups = []
            for parity in reference.PARITIES:
                m = reference.torsion_modulus(d, parity)
                g = d[parity]["free_rank"]
                groups.append(f"{parity} {'Z' if m == 0 else f'(Z/{m})'}^{g}")
            dims = " ".join(f"{p}={stats['dims'][p]}" for p in reference.PARITIES)
            lines.append(
                f"job {i}: {spec['kind']} n={d['n']} g=({', '.join(groups)}) "
                f"spot dims {dims} nonzeros {stats['nnz']}"
            )
        else:
            lines.append(f"job {i}: {job.label}")
    return lines


def tail(latencies: list[float], per_round: int) -> tuple[float, float]:
    """(value, percentile) of the tail latency.

    The percentile is the highest one with TAIL_BEYOND jobs beyond it in one
    round of `per_round` jobs (one pass over each list); it is read off all
    the latencies of the run, so every run reports the same percentile.
    """
    ordered = sorted(latencies)
    if per_round <= TAIL_BEYOND:
        return ordered[-1], 100.0
    level = (per_round - TAIL_BEYOND) / per_round
    return ordered[math.ceil(level * len(ordered)) - 1], 100.0 * level


def count_failures(jobs, expected, outputs) -> tuple[int, list[str]]:
    """outputs: (job index, exit code, stdout) per attempted job."""
    failed, notes = 0, []
    for index, code, stdout in outputs:
        problems = reference.check(jobs[index], expected[index], code, stdout)
        if problems:
            failed += 1
            notes.append(f"job {index} ({jobs[index].label}): {'; '.join(problems[:3])}")
    return failed, notes


def closed_loop(jobs, ranges, env: dict, seconds: float, deadline: float):
    """Whole passes, one process at a time, pass p running list p mod len(ranges).

    Runs at least one pass per list and goes on until `seconds` elapse.
    """
    passes, runs = [], []
    begin = time.perf_counter()
    while len(passes) < len(ranges) or time.perf_counter() - begin < seconds:
        this = []
        for i in ranges[len(passes) % len(ranges)]:
            if time.perf_counter() > deadline:
                raise BenchError("pass did not finish within the hard time limit")
            left = min(JOB_TIMEOUT_S, deadline - time.perf_counter())
            this.append((i, spawn(pv_argv(jobs[i]), jobs[i].payload, env, left)))
        passes.append((this[-1][1].end - this[0][1].start, sum(r.cpu_s for _, r in this)))
        runs.extend(this)
    return passes, runs


def announce(workload: str, seed: int, jobs, ranges, expected) -> None:
    print(f"workload {workload} seed {seed}: {len(ranges)} job lists of {len(ranges[0])} jobs, "
          f"digest {workloads.digest(jobs)}")
    for line in describe(jobs, expected):
        print(line)


def report_failures(failed: int, attempted: int, notes: list[str]) -> None:
    print(f"failed_frac = {failed / attempted:.4f}  ({failed} of {attempted} jobs)")
    for note in notes[:20]:
        print(f"FAILED {note}")


def end_to_end(workload: str, seed: int, seconds: float, env: dict, deadline: float) -> dict:
    setups = []
    for _ in range(SETUP_REPEATS):
        jobs, ranges, expected, took = setup(workload, seed, env, PASS_LISTS)
        setups.append(took)
    announce(workload, seed, jobs, ranges, expected)
    passes, runs = closed_loop(jobs, ranges, env, seconds, deadline)
    latencies = [r.latency_s for _, r in runs]
    tail_value, tail_pct = tail(latencies, len(jobs))
    failed, notes = count_failures(jobs, expected, [(i, r.code, r.stdout) for i, r in runs])
    metrics = {
        "wall_s": (statistics.median(p[0] for p in passes), "s"),
        "cpu_s": (statistics.median(p[1] for p in passes), "s"),
        "latency_p50_s": (statistics.median(latencies), "s"),
        "latency_tail_s": (tail_value, "s"),
        "peak_rss_mb": (max(r.maxrss_kb for _, r in runs) / 1024.0, "MB"),
        "setup_s": (statistics.median(setups), "s"),
    }
    print(f"passes {len(passes)}: wall " + " ".join(f"{w:.3f}" for w, _ in passes)
          + " s, cpu " + " ".join(f"{c:.3f}" for _, c in passes) + " s")
    print("setup runs: " + " ".join(f"{s:.3f}" for s in setups) + " s")
    for name, (value, unit) in metrics.items():
        note = ""
        if name == "latency_tail_s":
            note = (f"  (p{tail_pct:.1f}: {TAIL_BEYOND} of every {len(jobs)} jobs beyond; "
                    f"{len(latencies)} jobs)")
        print(f"{name} = {value:.6f} {unit}{note}")
    report_failures(failed, len(runs), notes)
    return {"attempted": len(runs), "failed": failed, "metrics": metrics}


def cli_import_s(env: dict) -> float:
    """Median of (python -c 'import pvtower.cli') minus median of (python -c 'pass')."""
    bare, full = [], []
    for _ in range(IMPORT_REPEATS):
        bare.append(spawn([sys.executable, "-c", "pass"], b"", env).latency_s)
        full.append(spawn([sys.executable, "-c", "import pvtower.cli"], b"", env).latency_s)
    return statistics.median(full) - statistics.median(bare)


def per_layer(workload: str, seed: int, seconds: float, env: dict, deadline: float) -> dict:
    jobs, ranges, expected, _ = setup(workload, seed, env, 1)  # traced passes repeat list 0
    announce(workload, seed, jobs, ranges, expected)
    import_s = cli_import_s(env)
    sys.path.insert(0, SRC)
    modules = {name: importlib.import_module(f"pvtower.{name}") for name in tracing.LAYERS}
    modules["pvtower"] = importlib.import_module("pvtower")
    cli = modules["cli"]
    tracing.call_cli(cli, jobs[0])  # first in-process call, untimed

    def one_pass(traced: bool):
        if not traced:
            return tracing.run_pass(cli, jobs), None
        tracer = tracing.Tracer(modules)
        tracer.install()
        try:
            return tracing.run_pass(cli, jobs, tracer), tracer
        finally:
            tracer.remove()

    per_pass, outputs, walls, tracer = [], [], [], None
    begin = time.perf_counter()
    while not per_pass or time.perf_counter() - begin < seconds:
        if time.perf_counter() > deadline:
            raise BenchError("traced passes did not finish within the hard time limit")
        wall = {}
        # Alternate which of the pair runs first, so neither gets the warmer machine.
        for traced in (False, True) if len(per_pass) % 2 == 0 else (True, False):
            (wall[traced], results), made = one_pass(traced)
            outputs += [(i, code, out) for i, (code, out) in enumerate(results)]
            if made is not None:
                tracer = made
        walls.append((wall[False], wall[True]))
        per_pass.append(tracing.pass_metrics(tracer.summary(), wall[True], wall[False], import_s))
    metrics = tracing.median_metrics(per_pass)
    failed, notes = count_failures(jobs, expected, outputs)
    write_spans(tracer, workload, seed)
    print(f"passes {len(walls)}: untraced/traced wall "
          + " ".join(f"{u:.3f}/{t:.3f}" for u, t in walls) + " s")
    for name, unit in tracing.METRICS:
        print(f"{name} = {metrics[name]:.6g} {unit}")
    report_failures(failed, len(outputs), notes)
    return {
        "attempted": len(outputs),
        "failed": failed,
        "metrics": {name: (metrics[name], unit) for name, unit in tracing.METRICS},
    }


def write_spans(tracer, workload: str, seed: int) -> None:
    """The last traced pass's spans as JSON lines under perfbench/out/."""
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"spans-{workload}-{seed}.jsonl")
    with open(path, "w") as fh:
        for name, start, end, parent, job in tracer.spans:
            fh.write(json.dumps(
                {"name": name, "start": start, "end": end, "parent": parent, "job": job}
            ) + "\n")
    print(f"spans: {len(tracer.spans)} written to {os.path.relpath(path, ROOT)}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.perf_counter() + HARD_LIMIT_S
    if not os.path.isfile(os.path.join(SRC, "pvtower", "cli.py")):
        print(f"error: no pvtower sources under {SRC}", file=sys.stderr)
        return 2
    env = child_env()
    run = per_layer if args.trace else end_to_end
    try:
        result = run(args.workload, args.seed, args.seconds, env, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in result["metrics"].items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
