"""``tools/shapes.py`` at its tiny sizes: it runs every case and exits 0."""

import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "shapes.py"


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
    assert len(names) == 32
    for shape in ("coprime quotient", "planted-factor quotient", "realize", "automaton", "minimize dense", "berlekamp_massey",
                  "power (X^3*(1+X+X^2))^", "power (X+X^2)^",
                  "expand 1/(1-X/1000),", "expand 1/(1-X/1000-X^2/999)", "expand 1/(1-X/7-X^2/5)",
                  "expand 1/(1-X^2/4)", "expand 1/(1-X^2/10201)", "expand 1/(1-X/7-X^2/10201)",
                  "expand 1/COPRIME", "prefix a*b", "prefix inverse of a", "prefix (1/primes)^2",
                  "multiplier chain d="):
        assert any(name.startswith(shape) for name in names)
    assert all(float(row.split()[-1]) >= 0 for row in rows)
