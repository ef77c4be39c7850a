"""Benchmark entry point.

    python3 perfbench/run.py --workload convert --seed 1 --seconds 20 --trace 0

Run from the root of a streamcalc checkout: it imports the package from
``src/``.  With ``--trace 0`` the last line of standard output is one JSON
object holding the end-to-end metrics; with ``--trace 1`` it holds the
per-layer metrics, and the full trace is written under ``perfbench/out/``.
Earlier lines give the raw wall-clock figures, the kernel's measured speed
and, when tracing, the tracing overhead.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import tracing, workloads  # noqa: E402
from perfbench.timing import Meter  # noqa: E402

SETUP_REPEATS = 3
OUT_DIR = ROOT / "perfbench" / "out"

# (name, unit) of every end-to-end metric, in report order.
END_TO_END = [
    ("jobs_per_s", "1/s"),
    ("q_jobs_per_s", "1/s"),
    ("gf_jobs_per_s", "1/s"),
    ("small_job_ms", "ms"),
    ("large_job_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]


@dataclass
class Tally:
    """Operations attempted, failed (raised) and wrong (failed their check)."""

    attempted: int = 0
    failed: int = 0
    wrong: int = 0

    def run(self, meter: Meter, job: workloads.Job, sp=tracing.NO_TRACE):
        """Run and check one job; (raw, rescaled) seconds, or None if it raised."""
        self.attempted += 1
        try:
            out, raw, scaled = meter.time(job.run, sp)
        except Exception:
            self.failed += 1
            if self.failed == 1:
                print(f"job {job.name} raised:", file=sys.stderr)
                traceback.print_exc()
            return None
        error = job.check(out)
        if error is not None:
            self.wrong += 1
            if self.wrong <= 5:
                print(f"wrong result: {job.name}: {error}", file=sys.stderr)
        return raw, scaled


def load_streamcalc():
    """Import streamcalc afresh, so that each set-up pays for the import."""
    for name in [n for n in sys.modules if n == "streamcalc" or n.startswith("streamcalc.")]:
        del sys.modules[name]
    return importlib.import_module("streamcalc")


def setup(workload: str, seed: int, wants: Dict, meter: Meter, tally: Tally):
    """Import, input generation, job building and one checked warm-up pass.

    Repeated SETUP_REPEATS times; returns the last jobs and the median raw
    and rescaled set-up times.
    """
    raws, scaleds = [], []
    for _ in range(SETUP_REPEATS):
        sc, raw, scaled = meter.time(load_streamcalc)
        specs, r, s = meter.time(workloads.make_specs, workload, seed)
        raw, scaled = raw + r, scaled + s
        jobs, r, s = meter.time(
            lambda: [workloads.build(sc, spec, wants[spec.name]) for spec in specs]
        )
        raw, scaled = raw + r, scaled + s
        for job in jobs:
            timed = tally.run(meter, job)
            if timed is not None:
                raw, scaled = raw + timed[0], scaled + timed[1]
        raws.append(raw)
        scaleds.append(scaled)
    return sc, jobs, statistics.median(raws), statistics.median(scaleds)


def measure(jobs, seconds: float, meter: Meter, tally: Tally, spans=None):
    """Whole passes over the job list, round-robin, until ``seconds`` have passed.

    Returns per-job lists of raw and rescaled times, and the pass count.
    """
    raw: List[List[float]] = [[] for _ in jobs]
    scaled: List[List[float]] = [[] for _ in jobs]
    sp = spans if spans is not None else tracing.NO_TRACE
    deadline = time.perf_counter() + seconds
    passes = 0
    while passes == 0 or time.perf_counter() < deadline:
        for i, job in enumerate(jobs):
            timed = tally.run(meter, job, sp)
            if timed is not None:
                raw[i].append(timed[0])
                scaled[i].append(timed[1])
            if spans is not None:
                spans.settle(timed[1] / timed[0] if timed and timed[0] > 0 else meter.scale())
        passes += 1
    return raw, scaled, passes


def summarize(jobs, samples) -> Dict[str, float]:
    """End-to-end figures from per-job medians over the fixed job set."""
    medians = [statistics.median(s) if s else None for s in samples]

    def pick(keep):
        return [m for job, m in zip(jobs, medians) if m is not None and keep(job)]

    def rate(keep):
        chosen = pick(keep)
        return len(chosen) / sum(chosen)

    return {
        "jobs_per_s": rate(lambda j: True),
        "q_jobs_per_s": rate(lambda j: j.field == "q"),
        "gf_jobs_per_s": rate(lambda j: j.field == "gf"),
        "small_job_ms": 1000 * statistics.fmean(pick(lambda j: j.size == "small")),
        "large_job_ms": 1000 * statistics.fmean(pick(lambda j: j.size == "large")),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


def result_line(tally: Tally, metrics: Dict[str, float], units: Dict[str, str]) -> str:
    return json.dumps(
        {
            "correct": tally.wrong == 0,
            "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        }
    )


def timed_run(args, jobs, meter, tally, setup_raw, setup_scaled) -> Dict[str, float]:
    raw, scaled, passes = measure(jobs, args.seconds, meter, tally)
    metrics = summarize(jobs, scaled)
    raw_metrics = summarize(jobs, raw)
    metrics["setup_s"] = setup_scaled
    raw_metrics["setup_s"] = setup_raw
    metrics["peak_rss_mb"] = raw_metrics["peak_rss_mb"] = peak_rss_mb()
    kernel_ms = 1000 * statistics.median(meter.kernel_samples)
    print(f"workload {args.workload} seed {args.seed}: {len(jobs)} jobs x {passes} passes")
    print(f"kernel median {kernel_ms:.4f} ms, speed factor {meter.scale():.4f} (1 = nominal)")
    print(f"{'metric':<16}{'rescaled':>14}{'raw':>14}")
    for name, unit in END_TO_END:
        print(f"{name:<16}{metrics[name]:>14.5g}{raw_metrics[name]:>14.5g}  {unit}")
    return metrics


def traced_run(args, sc, jobs, meter, tally) -> Dict[str, float]:
    """Untraced, span-traced, profiled and probed passes; per-layer metrics."""
    share = args.seconds * 0.35
    _, plain, _ = measure(jobs, share, meter, tally)
    spans = tracing.Spans()
    with spans.around(sc, "matrix", "resolvent_streams"):
        _, spanned, span_passes = measure(jobs, share, meter, tally, spans)

    profiler = tracing.Profiler()
    profiled_jobs = [replace(job, run=profiler.wrap(job.run)) for job in jobs]
    kernels_before = len(meter.kernel_samples)
    _, profiled, _ = measure(profiled_jobs, 0, meter, tally)
    layers = tracing.profile_layers(sc, profiler.stats(), meter.scale(kernels_before))

    with tracing.Probe(sc) as probe:
        measure(jobs, 0, meter, tally)

    metrics: Dict[str, float] = {}
    for name, parts in tracing.SPAN_METRICS.items():
        metrics[name] = sum(spans.seconds.get(p, 0.0) for p in parts) / span_passes
    for name in tracing.SPAN_COUNTS:
        metrics[name] = spans.counts.get(name, 0) // span_passes
    metrics.update({k: v for k, v in layers.items() if not k.startswith("self_s.")})
    metrics["ratstream.expand_terms"] = probe.expand_terms
    metrics["ratstream.max_coeff_bits"] = probe.max_coeff_bits
    metrics = {name: metrics[name] for name, _ in tracing.PER_LAYER}

    untraced = summarize(jobs, plain)["jobs_per_s"]
    overhead = {
        "untraced_jobs_per_s": untraced,
        "span_jobs_per_s": summarize(jobs, spanned)["jobs_per_s"],
        "profiled_jobs_per_s": summarize(jobs, profiled)["jobs_per_s"],
    }
    print(f"workload {args.workload} seed {args.seed}: traced run, {len(jobs)} jobs")
    for name, value in overhead.items():
        print(f"{name:<22}{value:>12.5g}  overhead {untraced / value - 1:+.1%}")
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    trace = {
        "workload": args.workload,
        "seed": args.seed,
        "span_passes": span_passes,
        "overhead": overhead,
        "spans_s_per_pass": {k: v / span_passes for k, v in sorted(spans.seconds.items())},
        "span_calls_per_pass": {k: v // span_passes for k, v in sorted(spans.calls.items())},
        "self_s_per_layer": {k[7:]: v for k, v in sorted(layers.items()) if k.startswith("self_s.")},
        "per_layer": metrics,
    }
    path = OUT_DIR / f"trace-{args.workload}-{args.seed}.json"
    path.write_text(json.dumps(trace, indent=2) + "\n")
    print(f"trace written to {path}")
    return metrics


def parse_args(argv: Optional[List[str]]):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "streamcalc" / "__init__.py").is_file():
        print(f"perfbench: no streamcalc sources under {src}", file=sys.stderr)
        return 2
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))

    wants = {spec.name: workloads.expect(spec) for spec in workloads.make_specs(args.workload, args.seed)}
    meter, tally = Meter(), Tally()
    sc, jobs, setup_raw, setup_scaled = setup(args.workload, args.seed, wants, meter, tally)
    gc.collect()
    gc.freeze()
    if args.trace:
        metrics = traced_run(args, sc, jobs, meter, tally)
        units = dict(tracing.PER_LAYER)
    else:
        metrics = timed_run(args, jobs, meter, tally, setup_raw, setup_scaled)
        units = dict(END_TO_END)
    print(f"attempted {tally.attempted}, failed {tally.failed}, wrong {tally.wrong}")
    print(result_line(tally, metrics, units))
    return 0


if __name__ == "__main__":
    sys.exit(main())
