#!/usr/bin/env python3
"""Benchmark entry point: one seeded workload, measured for a fixed time.

Usage (from the repository root)::

    python3 perfbench/run.py --workload bulk-plugged --seed 1 --seconds 20 --trace 0

``--trace 0`` measures with nothing patched and prints the end-to-end
metrics; ``--trace 1`` repeats the untraced measurement, then traces a
fixed number of operations through every layer and prints the per-layer
metrics (spans are written to ``.perfbench_out/``).  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  Human-readable lines before it name every
metric of the workload with its unit.

Host-time metrics are medians over the operations of a run, scaled to a
reference machine speed (see :class:`ReferenceKernel`), with a
``gc.collect()`` between operations and never inside a timed region.
Simulated-time metrics come from the first ``sim_ops`` operations only,
so they repeat exactly for a seed.
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import resource
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Set-up is measured in fresh processes, from the first ``repro``
#: import to the end of the workload's set-up; the median of this many
#: is reported, scaled by the run's median machine speed.  The probes
#: are spread over the measuring time, because slow phases of a shared
#: host last longer than a few back-to-back probes (medians of eleven
#: back-to-back probes spread 20% run to run).  A single probe hardly
#: follows the reference kernel timed just before it (correlation 0.01
#: over 40 probes), but a run's median set-up follows the run's median
#: speed: over twenty runs of plugin-exchange the unscaled medians of two
#: sets of ten differed by 25%, the scaled ones by 1%.
SETUP_PROBES = 21
#: Host seconds are reported at a reference machine speed: each measured
#: interval is multiplied by the machine's speed, ``REF_KERNEL_S / t`` for
#: a :class:`ReferenceKernel` run of ``t`` seconds, averaged over the runs
#: just before and just after it.  On a shared host the machine's speed
#: drifts by 30-60% over tens of seconds; the kernel imports nothing from
#: the program, so the scaling cancels that drift but not a change in
#: the program.
REF_KERNEL_S = 0.02

END_TO_END = [
    ("setup_s", "s"),
    ("peak_rss_MiB", "MiB"),
    ("goodput_host_MBps", "MB/s"),
    ("goodput_sim_Mbps", "Mbit/s"),
    ("conns_host_per_s", "1/s"),
    ("conn_time_p50_ms", "ms"),
    ("conn_time_tail_ms", "ms"),
]


def tail(values: list) -> tuple:
    """The highest percentile with at least ten samples beyond it, and
    that percentile; the maximum when there are too few samples."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    idx = n - 11
    return ordered[idx], 100.0 * (idx + 1) / n


class ReferenceKernel:
    """A fixed memory-bound loop whose time tracks the machine's speed.

    Random reads over an 8 MiB buffer followed the workloads' host time
    across the slow and fast phases of a shared 2-vCPU virtual machine
    about twice as closely as a cache-resident loop did (bulk-plugged,
    15-second windows: 4.6% variation left after scaling against 7.5%,
    from 9.9% unscaled).  The buffer stays allocated, so
    ``peak_rss_MiB`` includes the same ~9 MiB at every commit."""

    def __init__(self) -> None:
        rng = random.Random(20190821)
        self.buf = bytearray(rng.randbytes(8 << 20))
        self.order = array("l", (rng.randrange(len(self.buf))
                                 for _ in range(60_000)))

    def seconds(self) -> float:
        """Time one pass, with the collector off so the program's heap
        cannot change it."""
        gc.collect()
        gc.disable()
        try:
            t0 = time.perf_counter()
            buf, acc, table = self.buf, 0, {}
            for j in self.order:
                acc += buf[j]
                table[j & 4095] = acc
            return time.perf_counter() - t0
        finally:
            gc.enable()

    def speed(self) -> float:
        """Reference seconds per measured second, right now."""
        return REF_KERNEL_S / self.seconds()


def run_ops(workload, seconds: float, reference: ReferenceKernel,
            setup_probe=None) -> tuple:
    """Operations for ``seconds`` of measuring (and at least ``sim_ops``
    of them), each bracketed by reference kernel runs: an operation's
    speed is the mean of the one just before it and the one just after
    it, since a 1-2 s operation outlasts some of the host's speed swings.
    ``setup_probe``, when given, is called ``SETUP_PROBES`` times at even
    intervals of the measuring time, between operations; the time it
    takes does not count as measuring.  Returns (the results, the
    probes' values)."""
    results, probes = [], []
    t_start = time.perf_counter()
    t_end = t_start + seconds
    wanted = SETUP_PROBES if setup_probe is not None else 0
    before = reference.speed()
    while time.perf_counter() < t_end or len(results) < workload.sim_ops:
        gc.collect()
        res = workload.run_op(len(results))
        after = reference.speed()
        res.speed = (before + after) / 2
        results.append(res)
        before = after
        if len(probes) < wanted and time.perf_counter() >= \
                t_start + len(probes) * seconds / wanted:
            t0 = time.perf_counter()
            probes.append(setup_probe())
            t_end += time.perf_counter() - t0
            before = reference.speed()
    while len(probes) < wanted:
        probes.append(setup_probe())
    return results, probes


def end_to_end(workload, results: list, setup_samples: list) -> tuple:
    """The end-to-end metrics and the human-readable summary lines."""
    # Failed operations count against error_rate, not the timings.
    ops = [r for r in results if r.conns]
    sim_ops = [r for r in results[:workload.sim_ops] if r.conns]
    if not ops or not sim_ops:
        raise SystemExit("perfbench: no operation passed its checks")
    med = statistics.median
    speed = med(r.speed for r in results)
    conn_times = [t for r in sim_ops for t in r.conn_times_ms]
    tail_ms, tail_pct = tail(conn_times)
    metrics = {
        "setup_s": med(setup_samples) * speed,
        "peak_rss_MiB": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "goodput_host_MBps": med(r.payload_bytes / (r.payload_host_s * r.speed)
                                 for r in ops) / 1e6,
        "goodput_sim_Mbps": med(g for r in sim_ops for g in r.sim_goodputs) / 1e6,
        "conns_host_per_s": med(r.conns / (r.host_s * r.speed) for r in ops),
        "conn_time_p50_ms": med(conn_times),
        "conn_time_tail_ms": tail_ms,
    }
    lines = [
        f"operations {len(results)}; sim metrics over the first {len(sim_ops)}; "
        f"conn_time_tail_ms is p{tail_pct:.2f} of {len(conn_times)} samples",
        f"machine speed vs reference: median {speed:.4f}; unscaled "
        f"conns_host_per_s {med(r.conns / r.host_s for r in ops):.6g}, "
        f"setup_s {med(setup_samples):.6g}",
    ] + workload.summary(ops, sim_ops)
    return metrics, lines


def run_traced(workload, out_dir: Path, reference: ReferenceKernel) -> tuple:
    """Run operations ``0..trace_ops-1`` twice each, untraced then traced,
    so the overhead ratio compares neighbours in time.  Returns (per-layer
    metrics, every result)."""
    from layers import PER_LAYER, LayerTracer

    tracer = LayerTracer()
    results = []
    ratios = []
    speeds = []
    for j in range(workload.trace_ops):
        speeds.append(reference.speed())
        gc.collect()
        plain = workload.run_op(j)
        gc.collect()
        tracer.install()
        workload.probe = tracer
        try:
            tracer.begin_op(j)
            t0 = time.perf_counter()
            traced = workload.run_op(j)
            tracer.op_walls.append(time.perf_counter() - t0)
        finally:
            workload.probe = None
            tracer.restore()
        results += [plain, traced]
        ratios.append(traced.host_s / plain.host_s)
    metrics = tracer.metrics(workload.trace_ops, statistics.median(ratios))
    speed = statistics.median(speeds)
    for name, unit, _ in PER_LAYER:
        if unit in ("s/op", "us"):
            metrics[name] *= speed
    tracer.dump(out_dir / f"spans-{workload.name}-seed{workload.seed}.bin")
    return metrics, results


def measure_setup(workload_name: str, seed: int) -> float:
    """The program's set-up time in a fresh process: from just before the
    first ``repro`` import until the workload's set-up has returned, as
    the child measures it."""
    child = subprocess.run(
        [sys.executable, str(Path(__file__)), "--workload", workload_name,
         "--seed", str(seed), "--setup-only"],
        check=True, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    return float(child.stdout.split()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="import and set up, print the seconds it took, exit")
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "repro").is_dir():
        print(f"perfbench: no program sources at {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    t_setup = time.perf_counter()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed)
    if args.setup_only:
        workload.setup()
        print(time.perf_counter() - t_setup)
        return 0

    reference = ReferenceKernel()
    workload.setup()
    results, setup_samples = run_ops(
        workload, args.seconds, reference,
        lambda: measure_setup(args.workload, args.seed))
    metrics, lines = end_to_end(workload, results, setup_samples)
    units = dict(END_TO_END)
    if args.trace:
        from layers import PER_LAYER

        metrics, traced = run_traced(workload, ROOT / ".perfbench_out", reference)
        results += traced
        units = {name: unit for name, unit, _ in PER_LAYER}
    attempted = sum(r.attempted for r in results)
    failed = sum(r.attempted - r.conns for r in results)
    lines.append(f"error_rate {failed / attempted:.6f} ratio ({failed}/{attempted})")
    lines += [f"{name} {value:.6g} {units[name]}" for name, value in metrics.items()]
    lines += [f"FAILED: {failure}" for r in results for failure in r.failures]
    print("\n".join(lines))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
