#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of kw1's two routes to M.

Run from the repository root:

    python3 perfbench/run.py --workload verdict --seed 0 --seconds 60 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 60

``--workload all`` runs every workload in its own process, one after
another, and passes on each one's output.  Each workload is a closed loop
with one client.  A pass runs each case once per library seed, one run
after another, each on an algebra built just before it (cold PBW memo) and
dropped once its answer is checked against the value pinned in
``cases.py``.  The library seeds follow from the workload seed.  A run
repeats passes while another pass still fits in ``--seconds``, or while
fewer than ``MIN_PASSES`` have run and time is left.  Every pass computes
the same answers, and ``wall_s`` is the mean pass.  On a shared host a
core's speed can halve for tens of seconds as other loads come and go; the
mean of many short passes averages that over the whole run, where the
median flips between the fast and the slow speed.

With ``--trace 0`` the last line of output is a JSON object with the
end-to-end metrics ``wall_s``, ``setup_s`` and ``peak_rss_mb``; failed cases
are counted in ``failed`` out of ``attempted`` (``fail_rate`` is printed on
the line before).  No wrapper is installed.  With ``--trace 1`` the run makes
two traced passes, each in its own child process, and then one untraced
pass.  The JSON object holds the per-layer metrics of the first traced pass
and the tracing overhead (traced minus untraced wall time).  Every count
that must repeat exactly is compared between the two traced passes; each one
that differs is printed as NON-EXACT and makes the run incorrect.  Spans are
written to ``.perfbench/spans-*.npz``.

The library is loaded from ``src/`` of the checkout and treated as a black
box: the traced run wraps its functions from the benchmark's own files.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
sys.path.insert(0, str(HERE))

from cases import ORACLE_SAMPLES, EXTRA_WORKLOADS, WORKLOADS, check_answer  # noqa: E402

SETUP_REPEATS = 7
MIN_PASSES = 3


def load_kw1():
    """Import kw1 from this checkout's sources, never from elsewhere."""
    if not (SRC / "kw1" / "__init__.py").is_file():
        sys.exit(f"perfbench: no kw1 sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import kw1

    if Path(kw1.__file__).resolve().parent != SRC / "kw1":
        sys.exit(f"perfbench: kw1 was imported from {kw1.__file__}, not from {SRC}")
    return kw1


def build(kw1, case):
    pres = kw1.get_example(case.example)
    return kw1.with_p_map(kw1.base_change_mod_p(pres, case.p))


def solve(kw1, case, alg, seed):
    if case.kind == "oracle":
        return kw1.max_irreducible_dim(alg, samples=ORACLE_SAMPLES, seed=seed)
    return kw1.kw1_verdict(alg, degree_bound=case.degree_bound, seed=seed)


@dataclass
class Pass:
    wall_s: float
    case_s: list  # seconds per case, summed over its library seeds
    runs: int
    failed: int


def run_pass(kw1, cases, seed, rec=None, before_run=None):
    """One pass over the case list.

    A case runs once per library seed.  Each run gets an algebra built just
    before it, off the clock, which is dropped once the answer is checked,
    so peak memory is that of the largest run.  ``wall_s`` is the sum of the
    timed runs.  ``before_run`` is called before each build.  With a
    recorder, each run is a span, and the memo size and specialization
    degree are counted.
    """
    case_nid = rec.name_id("case") if rec is not None else None
    case_s = [0.0] * len(cases)
    runs = failed = 0
    for i, case in enumerate(cases):
        for lib_seed in case.library_seeds(seed):
            if before_run is not None:
                before_run()
            if rec is not None:
                rec.case_id = i
            alg = build(kw1, case)
            result = None
            tc = time.perf_counter()
            if rec is not None:
                idx = rec.enter(case_nid)
            try:
                result = solve(kw1, case, alg, lib_seed)
                found = check_answer(case, result)
            except Exception as exc:  # a raising run counts as failed; the pass goes on
                found = [f"{case.case_id}: raised {type(exc).__name__}: {exc}"]
            finally:
                if rec is not None:
                    rec.exit(idx)
            case_s[i] += time.perf_counter() - tc
            for line in found:
                print(f"FAIL seed {lib_seed}: {line}")
            runs += 1
            failed += bool(found)
            if rec is not None:
                rec.count("pbw.memo_entries", len(getattr(alg, "_pbw_memo", ())))
                if case.kind == "verdict" and result is not None:
                    e = rec.counters.get("center.spec_field_e", 0)
                    rec.counters["center.spec_field_e"] = max(e, result.e)
            alg = result = None
    return Pass(sum(case_s), case_s, runs, failed)


class SetupSampler:
    """Set-up time samples, spread over the run.

    Each sample is a fresh interpreter, so it pays ``import kw1`` as a user
    does; the child prints ``ready`` once every case's algebra is built.
    Before each run, samples are taken until there is one for every
    ``spacing`` seconds since the first, so the samples see the same drift
    of the host's speed as the passes do; ``median`` tops them up to
    ``SETUP_REPEATS`` first.
    """

    def __init__(self, workload, spacing):
        self.cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--setup-child"]
        self.spacing = spacing
        self.samples = []
        self.t0 = time.perf_counter()

    def catch_up(self):
        while len(self.samples) <= (time.perf_counter() - self.t0) / self.spacing:
            self.take()

    def take(self):
        t0 = time.perf_counter()
        with subprocess.Popen(self.cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
            line = proc.stdout.readline()
            self.samples.append(time.perf_counter() - t0)
            proc.stdout.read()
        if proc.returncode != 0 or line.strip() != "ready":
            sys.exit(f"perfbench: set-up child exited with code {proc.returncode}")

    def median(self):
        while len(self.samples) < SETUP_REPEATS:
            self.take()
        return statistics.median(self.samples)


def metric(value, unit):
    return {"value": value, "unit": unit}


def emit(correct, attempted, failed, metrics):
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


def run_untraced(args, cases):
    kw1 = load_kw1()
    setup = SetupSampler(args.workload, args.seconds / SETUP_REPEATS)
    passes = []
    t_start = time.perf_counter()
    while True:
        passes.append(run_pass(kw1, cases, args.seed, before_run=setup.catch_up))
        elapsed = time.perf_counter() - t_start
        if elapsed >= args.seconds or (
                len(passes) >= MIN_PASSES and elapsed + passes[-1].wall_s > args.seconds):
            break
    wall_s = statistics.fmean(p.wall_s for p in passes)
    setup_s = setup.median()
    attempted = sum(p.runs for p in passes)
    failed = sum(p.failed for p in passes)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"{args.workload} seed {args.seed}: passes "
          f"{', '.join(f'{p.wall_s:.3f}' for p in passes)} s; wall_s {wall_s:.3f} s, "
          f"setup_s {setup_s:.3f} s ({len(setup.samples)} samples), "
          f"peak_rss_mb {peak_rss_mb:.1f} MB, "
          f"fail_rate {failed / attempted:.3f} ({failed}/{attempted} runs)")
    emit(failed == 0, attempted, failed, {
        "wall_s": metric(wall_s, "s"),
        "setup_s": metric(setup_s, "s"),
        "peak_rss_mb": metric(peak_rss_mb, "MB"),
    })


def unit_of(name):
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("accept_ratio"):
        return "ratio"
    if name.endswith("max_cells"):
        return "cells"
    if name == "center.spec_field_e":
        return "degree"
    return "count"


def run_trace_child(args, cases):
    """One traced pass; prints its layer metrics as the last line."""
    import tracing

    kw1 = load_kw1()
    rec = tracing.Recorder()
    installed = tracing.Installation(rec)
    try:
        traced = run_pass(kw1, cases, args.seed, rec)
    finally:
        installed.remove()
    OUT_DIR.mkdir(exist_ok=True)
    rec.save(OUT_DIR / f"spans-{args.workload}-seed{args.seed}-{args.trace_child}.npz",
             cases=[c.case_id for c in cases])
    print(json.dumps({"wall_s": traced.wall_s, "runs": traced.runs, "failed": traced.failed,
                      "layers": tracing.layer_metrics(rec)}))


def traced_in_child(args, k):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--trace-child", str(k)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    lines = proc.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    if proc.returncode != 0 or not lines:
        sys.exit(f"perfbench: traced child {k} exited with code {proc.returncode}")
    return json.loads(lines[-1])


def run_traced(args, cases):
    import tracing

    kw1 = load_kw1()
    first, second = (traced_in_child(args, k) for k in (1, 2))
    nonexact = sorted(name for name, value in first["layers"].items()
                      if tracing.is_exact_count(name) and second["layers"][name] != value)
    for name in nonexact:
        print(f"NON-EXACT {name}: {first['layers'][name]} in the first traced pass, "
              f"{second['layers'][name]} in the second")
    untraced = run_pass(kw1, cases, args.seed)

    values = dict(first["layers"])
    overhead = first["wall_s"] - untraced.wall_s
    values["trace.wall_s"] = first["wall_s"]
    values["trace.untraced_wall_s"] = untraced.wall_s
    values["trace.overhead_s"] = overhead
    attempted = first["runs"] + second["runs"] + untraced.runs
    failed = first["failed"] + second["failed"] + untraced.failed
    exact = sum(1 for name in first["layers"] if tracing.is_exact_count(name))
    print(f"{args.workload} seed {args.seed}: traced wall {first['wall_s']:.3f} s, "
          f"untraced {untraced.wall_s:.3f} s, overhead {overhead:.3f} s; "
          f"{len(nonexact)} of {exact} exact counts differ between two traced passes; "
          f"fail_rate {failed / attempted:.3f} ({failed}/{attempted} runs)")
    print("untraced seconds per case: " + ", ".join(
        f"{case.case_id} {s:.3f}" for case, s in zip(cases, untraced.case_s)))
    emit(failed == 0 and not nonexact, attempted, failed,
         {k: metric(v, unit_of(k)) for k, v in values.items()})


def run_setup_child(cases):
    kw1 = load_kw1()
    for case in cases:
        build(kw1, case)
    print("ready", flush=True)


def run_all(args):
    """Each workload in its own process, one after another."""
    status = 0
    for workload in WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        status = subprocess.run(cmd, cwd=ROOT).returncode or status
    return status


def main(argv=None):
    workloads = {**WORKLOADS, **EXTRA_WORKLOADS}
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--trace-child", type=int, default=0, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    cases = workloads[args.workload]
    if args.setup_child:
        run_setup_child(cases)
    elif args.trace_child:
        run_trace_child(args, cases)
    elif args.trace:
        run_traced(args, cases)
    else:
        run_untraced(args, cases)
    return 0


if __name__ == "__main__":
    sys.exit(main())
