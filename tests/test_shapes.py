"""``tools/shapes.py`` at its tiny sizes: it runs every case and exits 0,
and a closed stdout ends it quietly."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "shapes.py"
spec = importlib.util.spec_from_file_location("shapes", TOOL)
shapes = importlib.util.module_from_spec(spec)
spec.loader.exec_module(shapes)


def test_every_case_runs_at_tiny_sizes():
    done = subprocess.run(
        [sys.executable, str(TOOL), "--tiny"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert (done.returncode, done.stderr) == (0, "")
    header, *rows = done.stdout.splitlines()
    assert header.split()[:2] == ["case", "ms"]
    names = [row.rsplit(None, 1)[0] for row in rows]
    assert len(names) == 42
    for shape in ("coprime quotient", "planted-factor quotient", "realize", "automaton", "minimize dense", "berlekamp_massey",
                  "from_sequence, 16 terms, L=8 (q)", "from_sequence, 16 terms, L=8 (gf)",
                  "poly product, degree 8 (q)", "poly product, degree 16 (gf)",
                  "poly power f^2, degree 8 (q)", "poly power f^4, degree 16 (gf)",
                  "power (X^3*(1+X+X^2))^", "power (X+X^2)^",
                  "expand 1/(1-X/1000),", "expand 1/(1-X/1000-X^2/999)", "expand 1/(1-X/7-X^2/5)",
                  "expand 1/(1-X^2/4)", "expand 1/(1-X^2/10201)", "expand 1/(1-X/7-X^2/10201)",
                  "expand 1/COPRIME", "prefix a*b", "prefix inverse of a", "prefix (1/primes)^2",
                  "multiplier chain d="):
        assert any(name.startswith(shape) for name in names)
    assert all(float(row.split()[-1]) >= 0 for row in rows)


def test_closed_stdout_ends_the_report_quietly(monkeypatch, capsys):
    """``shapes.py | head``: the writes after the reader has gone raise
    ``BrokenPipeError``, which ends the report with exit 0 and no traceback;
    the pipe is closed (and flushed) after the call, as the interpreter
    would on exit."""
    monkeypatch.setattr(shapes, "cases", lambda tiny: iter([("one", lambda: None), ("two", lambda: None)]))
    read, write = os.pipe()
    os.close(read)
    with open(write, "w") as closed, monkeypatch.context() as patch:
        patch.setattr(sys, "stdout", closed)
        assert shapes.main(["--tiny"]) == 0
    assert capsys.readouterr().err == ""
