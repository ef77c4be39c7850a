"""Where one pass of a benchmark workload spends its time, per job kind and field.

    python3 tools/job_shares.py --workload expand [--seed 1] [--repeat 5]
    python3 tools/job_shares.py --parent <rev> [--workload expand]

The jobs come from ``perfbench.workloads`` (``make_specs``, ``expect`` and
``build``), over the streamcalc package in this checkout's ``src/``, and run
with ``perfbench.tracing.NO_TRACE``, the recorder of timed runs.  Every job
runs ``--repeat`` times, pass after pass in one process, and every output
is checked against its reference.  Each job's time is its best run (plain
``time.perf_counter``, not rescaled); the report sums them per (job kind,
field) and gives each sum's share of the whole pass, largest first.  The exit
code is 1 when an output was wrong, else 0; a reader that closes stdout
early (``| head``) ends the report quietly and leaves the exit code as it is.

With ``--parent`` it compares this checkout with a parent revision, both
exported alike by ``bench_pairs.alternate`` (``git archive`` and a copy of
the checkout's tracked and unignored files), on every workload or on the
one named.  Each of ``ROUNDS`` rounds runs the pass above in a fresh process
in each tree, by that tree's own copy of this tool, in the order
``bench_pairs.alternate`` gives (the parent first in even rounds).  The
report gives each (workload, job kind, field) its best-of-rounds ms in both
trees and their ratio (change / parent), and each workload's sum of those
per field.  Its ratios are noisy: an A/A run on a shared 2-vCPU host, both
trees holding the same code, read 0.984-1.034 per job kind, so a per-kind
ratio inside that spread is noise, not a change.  The exit code is 1 when
an output in either tree was wrong or a pass did not finish, else 0.
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

ROUNDS = 6  # the alternating rounds a --parent comparison is read from


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


def pass_command(tree: Path, workload: str, seed: int, repeat: int) -> List[str]:
    """The command that prints one pass's shares in ``tree``, by its own tool."""
    return [sys.executable, str(tree / "tools" / "job_shares.py"), "--workload", workload,
            "--seed", str(seed), "--repeat", str(repeat)]


def read_shares(stdout: str) -> Dict[Tuple[str, str], float]:
    """{(kind, field): ms} from the table that :func:`format_shares` prints."""
    rows = [line.split() for line in stdout.splitlines()[2:] if line.strip()]
    return {(kind, field): float(ms) for kind, field, _, ms, _ in rows}


Best = Dict[Tuple[str, str, str], Dict[str, float]]  # (workload, kind, field) -> side -> ms


def compare_trees(rev: str, names: Sequence[str], seed: int,
                  repeat: int) -> Tuple[Best, List[str]]:
    """The best-of-rounds ms of each (workload, kind, field) in the parent's
    tree and in this checkout, and one line for each wrong output and for a
    pass that did not finish, which ends the comparison."""
    # imported here, not at the top, so that a timed pass runs in a process
    # that loaded the same modules as the parent's copy of this tool: with
    # bench_pairs's imports in the change's passes only, job kinds whose code
    # did not change (expand/q, prefix/q) read 4-6% slower there
    import subprocess

    if str(ROOT / "tools") not in sys.path:
        sys.path.insert(0, str(ROOT / "tools"))
    import bench_pairs

    best: Best = defaultdict(dict)
    problems: List[str] = []
    for _, order in bench_pairs.alternate(rev, ROUNDS):
        for workload in names:
            for side, tree in order:
                done = subprocess.run(pass_command(tree, workload, seed, repeat),
                                      cwd=tree, capture_output=True, text=True)
                if done.returncode not in (0, 1):
                    tail = done.stderr.strip()[-500:]
                    problems.append(f"{workload} {side}: exit {done.returncode}: {tail}")
                    return best, problems
                # exit 1: the tool named each wrong job on stderr
                for line in done.stderr.splitlines() if done.returncode else ():
                    if f"{line} ({side})" not in problems:
                        problems.append(f"{line} ({side})")
                for (kind, field), ms in read_shares(done.stdout).items():
                    slot = best[(workload, kind, field)]
                    slot[side] = min(slot.get(side, ms), ms)
    return best, problems


def format_pairs(rev: str, repeat: int, best: Best) -> str:
    lines = [
        f"parent {rev} against this checkout: best of {ROUNDS} rounds, "
        f"each pass best of {repeat}; ratio = change / parent",
        f"{'workload':<10}{'kind':<20}{'field':<7}{'parent ms':>11}{'change ms':>11}{'ratio':>8}",
    ]

    def row(workload, kind, field, times):
        parent, change = times.get("parent"), times.get("change")
        cells = [f"{t:>11.2f}" if t is not None else f"{'-':>11}" for t in (parent, change)]
        ratio = f"{change / parent:>8.3f}" if parent and change is not None else f"{'-':>8}"
        return f"{workload:<10}{kind:<20}{field:<7}{''.join(cells)}{ratio}"

    sums: Dict[Tuple[str, str], Dict[str, float]] = defaultdict(lambda: defaultdict(float))
    # by workload, then largest first
    for (workload, kind, field), times in sorted(best.items(),
                                                 key=lambda kv: (kv[0][0], -max(kv[1].values()))):
        lines.append(row(workload, kind, field, times))
        for side, ms in times.items():
            sums[(workload, field)][side] += ms
    for (workload, field), times in sorted(sums.items()):
        lines.append(row(workload, "(sum)", field, times))
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS,
                        help="required without --parent; with it, all workloads by default")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--repeat", type=int, default=5)
    parser.add_argument("--parent", help="git revision to compare this checkout against")
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    if args.parent is not None:
        names = [args.workload] if args.workload else list(workloads.WORKLOADS)
        best, problems = compare_trees(args.parent, names, args.seed, args.repeat)
        report = format_pairs(args.parent, args.repeat, best)
    elif args.workload is None:
        parser.error("--workload is required without --parent")
    else:
        shares, wrong = measure(args.workload, args.seed, args.repeat)
        report = format_shares(args.workload, args.seed, args.repeat, shares)
        problems = [f"wrong result: {name}" for name in wrong]
    try:
        print(report, flush=True)
    except BrokenPipeError:
        # the reader closed stdout (as `| head` does); the interpreter flushes
        # it again on exit, so point it at devnull to end without a traceback
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    for line in problems:
        print(line, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
