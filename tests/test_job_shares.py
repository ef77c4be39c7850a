"""``tools/job_shares.py`` on a tiny job list."""

import importlib.util
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
