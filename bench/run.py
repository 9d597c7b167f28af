"""edick benchmark: one seeded workload, timed end to end or traced per module.

    python3 bench/run.py --workload synth|verify|binomial --seed N --seconds S --trace 0|1

Run from the root of a checkout; edick is imported from its src/. One caller
in one process sends the next op when the last one returns (a closed loop),
with no threads. The last line of standard output is the result object; the
line before it is the environment record. Both are also written, with the
spans of a traced run, under .bench_out/ in the checkout. See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

# One caller, no threads: numpy's BLAS would otherwise start a thread per CPU
# for the simulator's norms and inner products, and its idle threads spin on
# the second CPU. Set before numpy is first imported; set-up probes inherit it.
SINGLE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"
SETUP_RUNS = 6  # set-up probes before the timed ops, and as many after them
TAIL_BEYOND = 10  # op_ms_tail is the highest percentile with this many per-op samples above it
# host_probe_s() on a quiet host: its fastest time on the 2-vCPU Intel Xeon VM
# the benchmark was written on. End-to-end times are scaled to this speed.
REFERENCE_PROBE_S = 1.7e-3


@dataclass
class Tally:
    """What a run of ops did: per-op latencies, failures, and first-pass totals."""

    latencies_s: list[float] = field(default_factory=list)
    probes_s: list[float] = field(default_factory=list)  # host_probe_s() before the first op and after each
    probe_at_s: list[float] = field(default_factory=list)  # when each probe ended
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    max_error: float = 0.0
    counts: dict[str, int] = field(default_factory=dict)

    @property
    def attempted(self) -> int:
        return len(self.latencies_s)


def host_probe_s() -> float:
    """Seconds that a fixed piece of work takes now, the median of three
    tries. Like an op, it allocates many small objects, formats and parses
    text, and streams a numpy array through memory; unlike an op, it calls
    nothing in edick, so its time moves with the host's speed alone."""
    import numpy as np

    samples = []
    for _ in range(3):
        t0 = time.perf_counter()
        records = [(k, k * 7 % 13, f"q[{k}]") for k in range(2500)]
        text = ";".join(f"cx {a},{b};{name}" for a, b, name in records)
        total = sum(len(line.split(",")) for line in text.split(";"))
        amplitudes = np.full(1 << 15, total + 0j)
        amplitudes *= 1.0001
        float(np.abs(amplitudes).sum())
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def run_ops(ops_list, seconds: float, tracer=None) -> Tally:
    """Run the op list in order, again and again, until `seconds` of wall
    time have passed and the first pass is complete.

    Only `ops.execute` is timed; the host probe and the check follow
    untimed. A failed op, one that raises or fails its check, is counted and
    the run goes on. Count totals cover the first pass only, so they depend
    on the seed alone.
    """
    import ops

    tally = Tally(probes_s=[host_probe_s()], probe_at_s=[time.perf_counter()])
    start = time.perf_counter()
    i = 0
    while i < len(ops_list) or time.perf_counter() - start < seconds:
        op = ops_list[i % len(ops_list)]
        raw = None
        t0 = time.perf_counter()
        try:
            if tracer is None:
                raw = ops.execute(op)
            else:
                with tracer.op(i):
                    raw = ops.execute(op)
        except Exception as exc:  # a failing op is a result, not the end of the run
            raw = exc
        tally.latencies_s.append(time.perf_counter() - t0)
        tally.probes_s.append(host_probe_s())
        tally.probe_at_s.append(time.perf_counter())
        try:
            if isinstance(raw, Exception):
                raise raw
            outcome = ops.check(op, raw)
        except Exception as exc:
            tally.failed += 1
            if len(tally.failures) < 5:
                tally.failures.append(f"{op}: {type(exc).__name__}: {exc}")
        else:
            if outcome.error is not None:
                tally.max_error = max(tally.max_error, outcome.error)
            if i < len(ops_list):
                for key, value in outcome.counts.items():
                    tally.counts[key] = tally.counts.get(key, 0) + value
        del raw
        i += 1
    return tally


def per_op(latencies: list[float], ops_per_pass: int, reduce=min) -> list[float]:
    """Each distinct op's latencies over the passes of a run, reduced to one.

    With `min`, each op's best time. Other processes on the host slow a run
    in bursts; an op's best time over the passes is the one the bursts
    touched least. The latency percentiles are taken over these, so that a
    disturbed pass, or one pass more or less, does not move them. With
    `statistics.fmean`, the sum is the wall time of one pass, whether or not
    the run ended mid-pass.
    """
    return [reduce(latencies[j::ops_per_pass]) for j in range(min(ops_per_pass, len(latencies)))]


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples above it."""
    ordered = sorted(samples)
    k = max(len(ordered) - TAIL_BEYOND - 1, 0)
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def latency_figures(latencies: list[float], ops_per_pass: int) -> dict[str, float]:
    best = per_op(latencies, ops_per_pass)
    return {
        "op_ms_p50": 1e3 * statistics.median(best),
        "op_ms_tail": 1e3 * tail(best)[0],
        "ops_per_s": ops_per_pass / sum(per_op(latencies, ops_per_pass, statistics.fmean)),
    }


def host_scales(tally: Tally) -> list[float]:
    """For each op, the host probe's reference time over its mean time
    around the op: the host's speed during the op, as a share of the speed
    the reference time stands for. Multiplying an op's latency by it gives
    the latency the op would have had on the reference host.

    The mean is over the probes just before and just after the op and any
    others within the op's own duration of them, so a long op, which sees
    the host's slow and fast spells come and go, is scaled by their average.
    """
    probes, at = tally.probes_s, tally.probe_at_s
    scales = []
    for i, duration in enumerate(tally.latencies_s):
        first, last = i, i + 1
        while first > 0 and at[first - 1] >= at[i] - duration:
            first -= 1
        while last + 1 < len(probes) and at[last + 1] <= at[i + 1] + duration:
            last += 1
        scales.append(REFERENCE_PROBE_S / statistics.fmean(probes[first:last + 1]))
    return scales


def host_corrected(tally: Tally) -> list[float]:
    """Each op's latency, host-corrected."""
    return [t * k for t, k in zip(tally.latencies_s, host_scales(tally))]


def end_to_end(tally: Tally, ops_per_pass: int, setup: list[tuple[float, float]]) -> dict:
    """The end-to-end metrics; every time in them is host-corrected (see README)."""
    import ops

    latencies = latency_figures(host_corrected(tally), ops_per_pass)
    metrics = {
        **{name: (value, UNITS[name]) for name, value in latencies.items()},
        **{f"{key}_total": (tally.counts.get(key, 0), "count") for key in ops.COUNT_KEYS},
        "setup_s": (statistics.median(t * REFERENCE_PROBE_S / probe for t, probe in setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


UNITS = {"op_ms_p50": "ms", "op_ms_tail": "ms", "ops_per_s": "1/s"}
PER_LAYER_UNITS = {"_ms": "ms/op", "ns_per_gate": "ns", "us_per_gate": "us", "mb_per_s": "MB/s",
                   "ratio": "ratio", "bytes": "bytes", "pct": "%"}


def _unit(name: str) -> str:
    for suffix, unit in PER_LAYER_UNITS.items():
        if name.endswith(suffix):
            return unit
    return "ms/op" if name == "encodings.ms" else "count"


def measure_setup(workload: str, seed: int) -> list[tuple[float, float]]:
    """Seconds from spawning a fresh interpreter until it could send its
    first op: interpreter start, `import edick`, input generation.

    Called before and after the timed ops, so the samples span the run and
    the host's slow and fast spells weigh on set-up as on the ops."""
    samples = []
    for _ in range(SETUP_RUNS):
        before = host_probe_s()
        t0 = time.monotonic()  # CLOCK_MONOTONIC, shared with the child
        probe = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--setup-probe"],
            capture_output=True, text=True, timeout=120, check=True,
        )
        ready = float(probe.stdout.split()[-1])
        samples.append((ready - t0, (before + host_probe_s()) / 2))
    return samples


def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(args, ops_list, tally: Tally, setup: list[tuple[float, float]]) -> dict:
    import numpy

    best = per_op(tally.latencies_s, len(ops_list))
    _, percentile = tail(best)
    scales = host_scales(tally)
    return {
        "commit": _commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "ops_per_pass": len(ops_list),
        "ops_attempted": tally.attempted,
        "wall_ops_per_s": tally.attempted / sum(tally.latencies_s),
        "uncorrected": {
            **latency_figures(tally.latencies_s, len(ops_list)),
            "setup_s": statistics.median(t for t, _ in setup),
        },
        "host_probe_ms_fastest": 1e3 * min(tally.probes_s),
        "host_scale_quartiles": statistics.quantiles(scales, n=4) if len(scales) > 1 else scales,
        "op_ms_tail_percentile": percentile,
        "op_ms_tail_samples": len(best),
        "op_ms_tail_samples_beyond": min(TAIL_BEYOND, len(best) - 1),
        "failed_ops_ratio": tally.failed / tally.attempted,
        "max_error": tally.max_error,
        "first_failures": tally.failures,
        "setup_samples_s_and_host_probe_s": setup,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["synth", "verify", "binomial"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=38.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    os.environ.update(SINGLE_THREAD)
    try:
        import ops
    except ImportError as exc:
        print(f"error: cannot load edick: {exc}", file=sys.stderr)
        return 2
    ops_list = ops.generate(args.workload, args.seed)
    if args.setup_probe:
        print(time.monotonic())
        return 0

    setup = measure_setup(args.workload, args.seed)
    if args.trace:
        import spans

        untraced = run_ops(ops_list, 0.0)
        tracer = spans.Tracer()
        with tracer.installed():
            tally = run_ops(ops_list, 0.0, tracer)
        metrics = tracer.metrics(len(ops_list), sum(host_corrected(untraced)), sum(host_corrected(tally)))
        metrics = {name: {"value": value, "unit": _unit(name)} for name, value in metrics.items()}
        tally.failed += untraced.failed
        tally.failures = untraced.failures + tally.failures
        tally.latencies_s = untraced.latencies_s + tally.latencies_s
        tally.probes_s = untraced.probes_s + tally.probes_s[1:]
        tally.probe_at_s = untraced.probe_at_s + tally.probe_at_s[1:]
    else:
        tally = run_ops(ops_list, args.seconds)
        setup += measure_setup(args.workload, args.seed)
        metrics = end_to_end(tally, len(ops_list), setup)

    env = environment(args, ops_list, tally, setup)
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"{stem}.json").write_text(json.dumps({"env": env, **result}, indent=1) + "\n")
    if args.trace:
        tracer.write(OUT_DIR / f"{stem}.spans.jsonl")
    print(json.dumps({"env": env}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
