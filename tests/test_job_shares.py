"""``tools/job_shares.py`` on a tiny job list."""

import importlib.util
import os
import shutil
import sys
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def load(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


job_shares = load("job_shares")
bench_pairs = load("bench_pairs")


def test_shares_of_a_tiny_pass(monkeypatch, capsys):
    workloads = job_shares.workloads
    full = workloads.make_specs("expand", 1)
    tiny = [s for s in full if s.size == "small" and s.kind in ("expand", "simulate")][:3]
    assert {s.kind for s in tiny} == {"expand", "simulate"}
    monkeypatch.setattr(workloads, "make_specs", lambda workload, seed: tiny)

    assert job_shares.main(["--workload", "expand", "--repeat", "2"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("workload expand seed 1: 3 jobs, best of 2,")
    rows = [line.split() for line in out[2:]]
    assert {(kind, field) for kind, field, *_ in rows} == {(s.kind, s.field) for s in tiny}
    assert sum(int(jobs) for _, _, jobs, _, _ in rows) == 3
    assert abs(sum(float(share.rstrip("%")) for *_, share in rows) - 100) < 0.5

    # a wrong reference makes the check fail: exit 1, the job named on stderr
    expect = workloads.expect
    monkeypatch.setattr(workloads, "expect", lambda s: [] if s is tiny[0] else expect(s))
    assert job_shares.main(["--workload", "expand", "--repeat", "1"]) == 1
    assert f"wrong result: {tiny[0].name}" in capsys.readouterr().err


def main_into_closed_pipe(monkeypatch, argv):
    """``main(argv)`` with stdout on a pipe whose reader has gone, so that
    its writes raise ``BrokenPipeError``; the pipe is closed (and flushed)
    after the call, as the interpreter would on exit."""
    read, write = os.pipe()
    os.close(read)
    with open(write, "w") as closed, monkeypatch.context() as patch:
        patch.setattr(sys, "stdout", closed)
        return job_shares.main(argv)


def test_closed_stdout_ends_the_report_quietly(monkeypatch, capsys):
    """``job_shares.py ... | head``: no traceback, and the exit code still
    says whether an output was wrong."""
    workloads = job_shares.workloads
    tiny = [s for s in workloads.make_specs("expand", 1) if s.size == "small"][:1]
    monkeypatch.setattr(workloads, "make_specs", lambda workload, seed: tiny)
    argv = ["--workload", "expand", "--repeat", "1"]
    assert main_into_closed_pipe(monkeypatch, argv) == 0
    assert capsys.readouterr().err == ""

    monkeypatch.setattr(workloads, "expect", lambda s: [])
    assert main_into_closed_pipe(monkeypatch, argv) == 1
    assert f"wrong result: {tiny[0].name}" in capsys.readouterr().err


# One pass of a tiny job list in the tree of argv[1], by that tree's tool:
# the first two small expand or simulate jobs of the workload; with a
# nonempty argv[5] the pass gets no reference, so its outputs are wrong.
TINY_PASS = """
import importlib.util, sys
tree, workload, seed, repeat, wrong = sys.argv[1:]
spec = importlib.util.spec_from_file_location("job_shares", tree + "/tools/job_shares.py")
tool = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tool)
tiny = [s for s in tool.workloads.make_specs(workload, int(seed))
        if s.size == "small" and s.kind in ("expand", "simulate")][:2]
tool.workloads.make_specs = lambda workload, seed: tiny
if wrong:
    tool.workloads.expect = lambda s: []
sys.exit(tool.main(["--workload", workload, "--seed", seed, "--repeat", repeat]))
"""


def tiny_trees(monkeypatch, rounds, wrong_in=""):
    """Patch ``--parent`` to ``rounds`` rounds, its export to copy this
    checkout, and its passes to TINY_PASS, wrong in the side ``wrong_in``
    ("parent" or "change"); returns the list of (side, workload) in the
    order run."""
    order = []

    def copy_tree(rev, dest):
        for part in ("src", "tools", "perfbench"):
            shutil.copytree(job_shares.ROOT / part, dest / part,
                            ignore=shutil.ignore_patterns("__pycache__", "out"))

    def tiny_pass(tree, workload, seed, repeat):
        side = tree.name
        order.append((side, workload))
        wrong = "1" if side == wrong_in else ""
        return [sys.executable, "-c", TINY_PASS, str(tree), workload, str(seed), str(repeat), wrong]

    monkeypatch.setitem(sys.modules, "bench_pairs", bench_pairs)
    monkeypatch.setattr(bench_pairs, "export", copy_tree)
    monkeypatch.setattr(job_shares, "pass_command", tiny_pass)
    monkeypatch.setattr(job_shares, "ROUNDS", rounds)
    return order


def test_parent_mode_pairs_the_trees_round_by_round(monkeypatch, capsys):
    order = tiny_trees(monkeypatch, rounds=2)
    argv = ["--parent", "HEAD", "--workload", "expand", "--repeat", "1"]
    assert job_shares.main(argv) == 0
    # a fresh process per tree, the parent first in odd rounds
    assert order == [("parent", "expand"), ("change", "expand"),
                     ("change", "expand"), ("parent", "expand")]
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("parent HEAD against this checkout: best of 2 rounds")
    rows = [line.split() for line in out[2:]]
    tiny = [s for s in job_shares.workloads.make_specs("expand", 1)
            if s.size == "small" and s.kind in ("expand", "simulate")][:2]
    assert {(kind, field) for _, kind, field, *_ in rows if kind != "(sum)"} == {
        (s.kind, s.field) for s in tiny}
    for workload, kind, field, parent, change, ratio in rows:
        assert workload == "expand" and min(float(parent), float(change), float(ratio)) > 0


def test_pairs_report_gives_ratios_and_sums():
    best = {("expand", "expand", "q"): {"parent": 2.0, "change": 2.5},
            ("expand", "simulate", "q"): {"parent": 4.0, "change": 3.0},
            ("expand", "simulate", "gf"): {"parent": 1.0}}
    rows = [line.split() for line in job_shares.format_pairs("HEAD~1", 5, best).splitlines()[2:]]
    assert rows == [
        ["expand", "simulate", "q", "4.00", "3.00", "0.750"],
        ["expand", "expand", "q", "2.00", "2.50", "1.250"],
        ["expand", "simulate", "gf", "1.00", "-", "-"],
        ["expand", "(sum)", "gf", "1.00", "-", "-"],
        ["expand", "(sum)", "q", "6.00", "5.50", "0.917"],
    ]


@pytest.mark.parametrize("wrong_in", ["parent", "change"])
def test_parent_mode_names_a_wrong_output_and_its_tree(monkeypatch, capsys, wrong_in):
    tiny_trees(monkeypatch, rounds=1, wrong_in=wrong_in)
    argv = ["--parent", "HEAD", "--workload", "expand", "--repeat", "1"]
    assert job_shares.main(argv) == 1
    err = capsys.readouterr().err.splitlines()
    tiny = [s for s in job_shares.workloads.make_specs("expand", 1)
            if s.size == "small" and s.kind in ("expand", "simulate")][:2]
    assert err == [f"wrong result: {s.name} ({wrong_in})" for s in tiny]
