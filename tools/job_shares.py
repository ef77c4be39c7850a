"""Where one pass of a benchmark workload spends its time, per job kind and field.

    python3 tools/job_shares.py --workload expand [--seed 1] [--repeat 5]

The jobs come from ``perfbench.workloads`` (``make_specs``, ``expect`` and
``build``), over the streamcalc package in this checkout's ``src/``, and run
with ``perfbench.tracing.NO_TRACE``, the recorder of timed runs.  Every job
runs ``--repeat`` times, pass after pass in one process, and every output
is checked against its reference.  Each job's time is its best run (plain
``time.perf_counter``, not rescaled); the report sums them per (job kind,
field) and gives each sum's share of the whole pass, largest first.  The exit
code is 1 when an output was wrong, else 0; a reader that closes stdout
early (``| head``) ends the report quietly and leaves the exit code as it is.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
for path in (ROOT, ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import streamcalc  # noqa: E402
from perfbench import tracing, workloads  # noqa: E402


class Share(NamedTuple):
    """The summed best times of one (job kind, field) and their share of a pass."""

    kind: str
    field: str
    jobs: int
    ms: float
    share: float


def measure(workload: str, seed: int, repeat: int) -> Tuple[List[Share], List[str]]:
    """The shares of one pass, largest first, and the names of wrong jobs."""
    specs = workloads.make_specs(workload, seed)
    jobs = [workloads.build(streamcalc, spec, workloads.expect(spec)) for spec in specs]
    best = [float("inf")] * len(jobs)
    wrong: List[str] = []
    for _ in range(repeat):
        for i, job in enumerate(jobs):
            t0 = time.perf_counter()
            out = job.run(tracing.NO_TRACE)
            best[i] = min(best[i], time.perf_counter() - t0)
            if job.check(out) is not None and job.name not in wrong:
                wrong.append(job.name)
    sums: Dict[Tuple[str, str], List[float]] = defaultdict(list)
    for spec, seconds in zip(specs, best):
        sums[(spec.kind, spec.field)].append(seconds)
    total = sum(best) or 1.0
    shares = [
        Share(kind, field, len(times), 1000 * sum(times), sum(times) / total)
        for (kind, field), times in sums.items()
    ]
    shares.sort(key=lambda s: -s.ms)
    return shares, wrong


def format_shares(workload: str, seed: int, repeat: int, shares: Sequence[Share]) -> str:
    total = sum(s.ms for s in shares)
    lines = [
        f"workload {workload} seed {seed}: {sum(s.jobs for s in shares)} jobs, "
        f"best of {repeat}, {total:.1f} ms per pass",
        f"{'kind':<20}{'field':<7}{'jobs':>5}{'ms':>10}{'share':>8}",
    ]
    for s in shares:
        lines.append(f"{s.kind:<20}{s.field:<7}{s.jobs:>5}{s.ms:>10.2f}{100 * s.share:>7.1f}%")
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--repeat", type=int, default=5)
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    shares, wrong = measure(args.workload, args.seed, args.repeat)
    try:
        print(format_shares(args.workload, args.seed, args.repeat, shares), flush=True)
    except BrokenPipeError:
        # the reader closed stdout (as `| head` does); the interpreter flushes
        # it again on exit, so point it at devnull to end without a traceback
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    for name in wrong:
        print(f"wrong result: {name}", file=sys.stderr)
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
