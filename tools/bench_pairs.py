"""Compare this checkout with a parent revision on the benchmark, in pairs.

    python3 tools/bench_pairs.py --parent <rev> [--workload all] [--seed 1]

Both sides are exported alike, into two sibling directories of one
temporary directory (no worktree, nothing written under ``.git``): the
parent revision with ``git archive``, and the change as a copy of this
checkout's tracked and unignored files as its working tree has them.  So
the two trees differ in their files only where the code differs, and no
metric reads the checkout's own build products or place.  For each
workload, each of ``PAIRS`` pairs runs ``perfbench/run.py --seed N --trace 0``
(N from ``--seed``, 1 by default) once in each tree, alternating which side goes first; :func:`alternate`
does the export and the alternation, for ``tools/job_shares.py --parent``
too.  Each side runs its own ``perfbench``; ``BENCHMARK.json``
supplies the workloads, the run length (``run_seconds``) and, for every
end-to-end metric, its direction and bound.

For each metric the report gives both medians, the interquartile range of the
parent's runs, how many pairs the change won, and marks a change median worse
than the parent's by more than the metric's bound.  It marks a metric
UNRESOLVED when the parent's runs spread wider than the bound (IQR above
bound x median) and not every change run beats every parent run: such a
comparison cannot tell "unchanged" from "worse by the bound".  The exit code
is 1 when a run was not correct, had failed operations or did not finish, or
when a change median is worse than its bound; else 0.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path
from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
PAIRS = 10  # the fewest alternating pairs a comparison is read from


class Row(NamedTuple):
    """One metric of one workload over all pairs."""

    name: str
    unit: str
    parent: float  # median
    change: float  # median
    parent_iqr: float
    wins: int  # pairs in which the change did better
    pairs: int
    worse: bool  # change median worse than the parent's by more than the bound
    unresolved: bool  # parent spread wider than the bound, and runs overlap


def read_result(stdout: str) -> dict:
    """The JSON result on the last nonblank line of a benchmark run."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        raise ValueError("benchmark printed no result line")
    return json.loads(lines[-1])


def faults(result: dict) -> List[str]:
    """What disqualifies a run: a wrong answer or a failed operation."""
    found = []
    if result.get("correct") is not True:
        found.append("correct is not true")
    if result.get("failed", 1) != 0:
        found.append(f"failed {result.get('failed')}")
    return found


def iqr(values: Sequence[float]) -> float:
    """Distance between the quartiles (inclusive method); 0 below two values."""
    if len(values) < 2:
        return 0.0
    first, _, third = statistics.quantiles(values, n=4, method="inclusive")
    return third - first


def compare(pairs: Sequence[Tuple[dict, dict]], metrics: Sequence[dict]) -> List[Row]:
    """One row per end-to-end metric of ``BENCHMARK.json`` over (parent, change)
    result pairs."""
    rows = []
    for spec in metrics:
        name, higher = spec["name"], spec["better"] == "higher"
        parent = [p["metrics"][name]["value"] for p, _ in pairs]
        change = [c["metrics"][name]["value"] for _, c in pairs]
        wins = sum((c > p) if higher else (c < p) for p, c in zip(parent, change))
        before, after = statistics.median(parent), statistics.median(change)
        limit = before * (1 - spec["bound"] if higher else 1 + spec["bound"])
        worse = after < limit if higher else after > limit
        spread = iqr(parent)
        separated = min(change) > max(parent) if higher else max(change) < min(parent)
        unresolved = spread > spec["bound"] * before and not separated
        rows.append(Row(name, spec["unit"], before, after, spread, wins, len(pairs), worse,
                        unresolved))
    return rows


def format_rows(workload: str, rows: Sequence[Row]) -> str:
    lines = [
        f"workload {workload}: {rows[0].pairs} pairs",
        f"{'metric':<16}{'parent':>12}{'change':>12}{'parent IQR':>12}{'wins':>8}",
    ]
    for row in rows:
        flag = "  WORSE THAN BOUND" if row.worse else ""
        flag += "  UNRESOLVED" if row.unresolved else ""
        lines.append(
            f"{row.name:<16}{row.parent:>12.5g}{row.change:>12.5g}{row.parent_iqr:>12.4g}"
            f"{f'{row.wins}/{row.pairs}':>8}  {row.unit}{flag}"
        )
    return "\n".join(lines)


def git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True).stdout


def export(rev: Optional[str], dest: Path) -> None:
    """The files of ``rev`` under ``dest``, through ``git archive``; for
    ``rev`` None, this checkout's tracked and unignored files, as its working
    tree has them (a deleted file is left out)."""
    dest.mkdir(parents=True, exist_ok=True)
    if rev is not None:
        safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
        with tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar", rev))) as tar:
            tar.extractall(dest, **safe)
        return
    listed = git("ls-files", "-z", "--cached", "--others", "--exclude-standard")
    for name in map(os.fsdecode, filter(None, listed.split(b"\0"))):
        if (ROOT / name).is_file():
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(ROOT / name, dest / name)


def alternate(rev: str, rounds: int) -> Iterator[Tuple[int, List[Tuple[str, Path]]]]:
    """Export ``rev`` and this checkout into two sibling directories of one
    temporary directory, then yield (i, order) for each of ``rounds``
    rounds: ("parent", its tree) and ("change", the checkout's copy), the
    parent first in even rounds.  The directory is removed when the
    caller's loop ends, by a ``return`` or ``break`` too."""
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        order = [("parent", Path(tmp) / "parent"), ("change", Path(tmp) / "change")]
        export(rev, order[0][1])
        export(None, order[1][1])
        for i in range(rounds):
            yield i, order if i % 2 == 0 else order[::-1]


def run_once(tree: Path, workload: str, seconds: float, seed: int) -> dict:
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(command, cwd=tree, capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"{tree}: exit {done.returncode}: {done.stderr.strip()[-500:]}")
    return read_result(done.stdout)


def main(argv: Optional[Sequence[str]] = None) -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in benchmark["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision to compare against")
    parser.add_argument("--workload", default="all", choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=1, help="the benchmark's input seed")
    args = parser.parse_args(argv)
    workloads = names if args.workload == "all" else [args.workload]

    status = 0
    for workload in workloads:
        pairs: List[Tuple[dict, dict]] = []
        for i, order in alternate(args.parent, PAIRS):
            sides: Dict[str, dict] = {}
            for side, tree in order:
                try:
                    sides[side] = result = run_once(tree, workload, benchmark["run_seconds"], args.seed)
                except (RuntimeError, ValueError) as exc:
                    print(f"{workload} pair {i + 1} {side}: {exc}", file=sys.stderr)
                    return 1
                for fault in faults(result):
                    print(f"{workload} pair {i + 1} {side}: {fault}", file=sys.stderr)
                    status = 1
                print(f"{workload} pair {i + 1} {side}: jobs_per_s "
                      f"{result['metrics']['jobs_per_s']['value']:.5g}", file=sys.stderr)
            pairs.append((sides["parent"], sides["change"]))
        rows = compare(pairs, benchmark["end_to_end"])
        print(format_rows(f"{workload} (seed {args.seed})", rows), flush=True)
        if any(row.worse for row in rows):
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
