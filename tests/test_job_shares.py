"""``tools/job_shares.py`` on a tiny job list."""

import importlib.util
import os
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "job_shares.py"
spec = importlib.util.spec_from_file_location("job_shares", TOOL)
job_shares = importlib.util.module_from_spec(spec)
spec.loader.exec_module(job_shares)


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
