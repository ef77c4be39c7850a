"""The one line reader of the system, automaton, netlist and circuit files.

Records are ``key value`` lines, or ``key=value`` in canonical circuit files,
which may pack several on a line as ``M=..; N=..``.  Blank and ``#`` lines are
skipped; unknown keys and a second copy of a once-only key are errors.  Each
record keeps its 1-based line number, so an error in its value names the line.
"""

from __future__ import annotations

import re
from typing import Dict, List, Tuple

from .errors import FormatError
from .fields import is_ascii_digits

# Bound on a declared n, m or state count: the parsers allocate that many rows.
MAX_DIMENSION = 1024

_PACKED = re.compile(r";\s*(?=\w+\s*=)")


def content_lines(text: str) -> List[Tuple[int, str]]:
    """(line number, stripped line) for each line that is not blank or a comment."""
    lines = enumerate(map(str.strip, text.splitlines()), 1)
    return [(number, line) for number, line in lines if line and line[0] != "#"]


def read_records(text: str, required, optional=(), repeated=(), separator=" "):
    """{key: (line, value)} of the once-only keys, [(line, key, value)] of the rest."""
    single = (*required, *optional)
    once: Dict[str, Tuple[int, str]] = {}
    many: List[Tuple[int, str, str]] = []
    for number, line in content_lines(text):
        for chunk in [c for c in _PACKED.split(line) if c] if separator == "=" else (line,):
            key, sep, value = chunk.partition(separator)
            key, value = key.strip(), value.strip()
            if not sep and separator == "=":
                raise FormatError(f"expected key=value, got {chunk!r}").at(number)
            if key in single:
                if key in once:
                    raise FormatError(f"repeated key {key!r}").at(number)
                once[key] = (number, value)
            elif key in repeated:
                many.append((number, key, value))
            else:
                known = ", ".join((*single, *repeated))
                raise FormatError(f"unknown key {key!r} (expected {known})").at(number)
    for key in required:
        if key not in once:
            raise FormatError(f"missing key {key!r}")
    return once, many


def read_dimension(key: str, text: str, least: int = 0) -> int:
    """A declared n, m or state count: least..MAX_DIMENSION in ASCII digits."""
    if not is_ascii_digits(text):
        raise FormatError(f"{key} must be a nonnegative integer, got {text!r}")
    value = text.lstrip("0") or "0"  # so the length check bounds int()'s input
    if len(value) > len(str(MAX_DIMENSION)) or not least <= int(value) <= MAX_DIMENSION:
        raise FormatError(f"{key} {value} is outside {least}..{MAX_DIMENSION}")
    return int(value)
