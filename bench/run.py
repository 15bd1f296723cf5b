"""Benchmark harness for rootposets.

    python3 bench/run.py --workload certify|census|cli --seed N --seconds S --trace 0|1

With ``--trace 0`` it measures the end-to-end metrics: the workload is set
up several times, then runs whole rounds (every job once, in an order
shuffled with the seed) until ``--seconds`` would be exceeded, and at
least the workload's ``min_rounds`` of them.  With ``--trace 1`` it runs
one untraced and one traced round and reports the per-layer metrics.  Every timing is in
reference seconds (see calib.py).  Human-readable lines go first; the last
line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import calib  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

RESULTS = HERE / "results"
END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "rootsys.build_root_system.calls": "count",
    "rootsys.build_root_system.self_s": "s",
    "weyl.weyl_group.self_s": "s",
    "weyl.enumerate_cosets.self_s": "s",
    "weyl.interval_poset.calls": "count",
    "cambrian.coxeter_element.calls": "count",
    "cambrian.cambrian_classes.calls": "count",
    "cambrian.cambrian_classes.self_s": "s",
    "cambrian.facial_cambrian_classes.self_s": "s",
    "cambrian.snake_decomposable_roots.calls": "count",
    "cambrian.snake_decomposable_roots.self_s": "s",
    "families.construct_family.calls": "count",
    "families.construct_family.self_s": "s",
    "families.member_predicate.calls": "count",
    "families.member_predicate.self_s": "s",
    "rootset.classify.calls": "count",
    "rootset.classify.self_s": "s",
    "rootset.closure_bits.calls": "count",
    "rootset.closure_bits.self_s": "s",
    "rootset.closure_deletion.calls": "count",
    "rootset.closure_deletion.self_s": "s",
    "rootset.format_set_literal.calls": "count",
    "rootset.format_set_literal.self_s": "s",
    "weakorder.verify_lattice.calls": "count",
    "weakorder.verify_lattice.self_s": "s",
    "weakorder.verify_lattice.pairs": "count",
    "weakorder.lattice_op_bits.calls": "count",
    "weakorder.lattice_op_bits.self_s": "s",
    "weakorder.hasse_edges.self_s": "s",
    "census.count_family.calls": "count",
    "census.count_family.self_s": "s",
    "census.sets_counted": "count",
    "census.enumerate_posets.self_s": "s",
    "census.check_sublattice.self_s": "s",
    "census.check_conjecture.self_s": "s",
    "cli.import_s": "s",
    "cli.main.calls": "count",
    "cli.main.self_s": "s",
    "cli.stdout_bytes": "B",
    "trace.overhead_pct": "%",
}


def sample(fn):
    """Run fn once between two calibration loops.

    Returns (output, raw seconds, reference seconds, mean loop seconds).
    """
    gc.collect()
    before = calib.loop_seconds()
    t0 = perf_counter()
    out = fn()
    raw = perf_counter() - t0
    loop = (before + calib.loop_seconds()) / 2
    return out, raw, raw * calib.NOMINAL_LOOP_S / loop, loop


class Tally:
    """Operations attempted and failed.  An operation whose output is wrong
    also makes the run incorrect; one that raised does not."""

    def __init__(self):
        self.attempted = self.failed = 0
        self.correct = True
        self.wrong = []

    def record(self, label, ok):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.correct = False
            self.wrong.append(label)

    def crashed(self, label):
        self.attempted += 1
        self.failed += 1
        self.wrong.append(f"{label} (raised)")
        traceback.print_exc(file=sys.stderr)


def run_jobs(jobs, rng, tally, times, last, tracer=None):
    """One round: every job once, shuffled, each output checked."""
    order = list(jobs)
    rng.shuffle(order)
    for job in order:
        try:
            out, raw, ref, loop = sample(job.run)
        except Exception:
            tally.crashed(job.name)
            continue
        if tracer is not None:
            tracer.end_sample(calib.NOMINAL_LOOP_S / loop)
        times.setdefault(job.name, []).append((raw, ref, loop))
        tally.record(f"{job.name} round output", job.quick(out))
        last[job.name] = out


def final_checks(wl, ctx, jobs, last, rng, tally):
    for label, ok in wl.checks(ctx):
        tally.record(label, ok)
    for job in jobs:
        if job.name not in last:
            continue
        try:
            found = job.checks(last[job.name], rng)
        except Exception:
            tally.crashed(f"{job.name} checks")
            continue
        for label, ok in found:
            tally.record(label, ok)


def set_up(wl, times, tracer=None):
    """One fresh build, each step a calibrated sample; returns the context."""
    ctx = {}
    for name, step in wl.setup:
        _, raw, ref, loop = sample(lambda: step(ctx))
        if tracer is not None:
            tracer.end_sample(calib.NOMINAL_LOOP_S / loop)
        times.setdefault(name, []).append((raw, ref, loop))
    return ctx


def median_sum(times, k):
    """Sum over steps or jobs of the median of field k over repeats."""
    return sum(statistics.median(t[k] for t in ts) for ts in times.values())


def measure(wl, jobs_of, rng, seconds, tally):
    setup_times = {}
    for _ in range(wl.setup_repeats):
        ctx = set_up(wl, setup_times)
    jobs = jobs_of(ctx, False)
    times, last = {}, {}
    start = perf_counter()
    rounds = 0
    while True:
        t_round = perf_counter()
        run_jobs(jobs, rng, tally, times, last)
        rounds += 1
        now = perf_counter()
        # stop before a round that would end past the deadline
        if rounds >= wl.min_rounds and (now - start) + (now - t_round) > seconds:
            break
    who = resource.RUSAGE_CHILDREN if wl.children else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024
    final_checks(wl, ctx, jobs, last, rng, tally)
    metrics = {
        "setup_s": median_sum(setup_times, 1),
        "wall_s": median_sum(times, 1),
        "peak_rss_mb": peak_rss_mb,
    }
    loops = [t[2] for d in (setup_times, times) for ts in d.values() for t in ts]
    detail = {
        "rounds": rounds,
        "own_peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "loop_median_ms": 1e3 * statistics.median(loops),
        "raw_setup_s": median_sum(setup_times, 0),
        "raw_wall_s": median_sum(times, 0),
        "setup": setup_times,
        "jobs": {name: {"median_ref_s": statistics.median(t[1] for t in ts),
                        "median_raw_s": statistics.median(t[0] for t in ts),
                        "samples": ts} for name, ts in sorted(times.items())},
    }
    return metrics, detail


def measure_traced(wl, jobs_of, rng, tally, seed):
    ctx = set_up(wl, {})
    base_times, last = {}, {}
    run_jobs(jobs_of(ctx, True), rng, tally, base_times, last)
    tracer = spans.Tracer()
    tracer.install()
    try:
        ctx = set_up(wl, {}, tracer)
        jobs = jobs_of(ctx, True)
        traced_times, last = {}, {}
        run_jobs(jobs, rng, tally, traced_times, last, tracer)
    finally:
        tracer.uninstall()
    final_checks(wl, ctx, jobs, last, rng, tally)
    base = sum(t[1] for ts in base_times.values() for t in ts)
    traced = sum(t[1] for ts in traced_times.values() for t in ts)
    metrics = {name: 0 for name in PER_LAYER}
    metrics.update(tracer.metrics())
    metrics.update(wl.layer_metrics(ctx, sample))
    metrics["trace.overhead_pct"] = 100 * (traced / base - 1) if base else 0.0
    metrics = {name: metrics[name] for name in PER_LAYER}
    RESULTS.mkdir(exist_ok=True)
    tracer.write(RESULTS / f"trace-{wl.name}-seed{seed}.json",
                 [name for name, _ in wl.setup] + list(traced_times))
    detail = {"untraced_s": base, "traced_s": traced,
              "jobs": {n: {"untraced_s": base_times[n][0][1],
                           "traced_s": traced_times[n][0][1]}
                       for n in traced_times if n in base_times}}
    return metrics, detail


def pin_to_one_cpu():
    """Run this process and its children on one CPU, so that the calibration
    loops and a child process measure the same core's speed."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "small"), default="full",
                        help="small: only the cheapest jobs, for the self-test")
    args = parser.parse_args(argv)

    wl = workloads.WORKLOADS[args.workload]
    pin_to_one_cpu()

    def jobs_of(ctx, in_process):
        jobs = wl.jobs(ctx, in_process)
        return [j for j in jobs if j.small] if args.size == "small" else jobs

    rng = random.Random(args.seed)
    tally = Tally()
    if args.trace:
        metrics, detail = measure_traced(wl, jobs_of, rng, tally, args.seed)
        units = PER_LAYER
    else:
        metrics, detail = measure(wl, jobs_of, rng, args.seconds, tally)
        units = END_TO_END
        print(f"# rounds {detail['rounds']}, median calibration loop "
              f"{detail['loop_median_ms']:.2f} ms (nominal "
              f"{1e3 * calib.NOMINAL_LOOP_S:.0f} ms), raw wall {detail['raw_wall_s']:.3f} s")
    for label in tally.wrong:
        print(f"# FAILED {label}")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    result = {
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    RESULTS.mkdir(exist_ok=True)
    with open(RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump({"args": vars(args), "result": result, "detail": detail,
                   "failed_operations": tally.wrong}, fh, indent=1)
    print(json.dumps(result))
    return result


if __name__ == "__main__":
    main()
