"""README's Library tour runs, and every value its comments give is right;
every line of its Command line block runs and succeeds, and the block shows
every subcommand of the command table."""

import ast
import io
import re
import shlex
import tokenize
from pathlib import Path

from streamcalc.cli import COMMANDS, main

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_block(heading, language):
    """The lines of the first ``language`` code block under ``## heading``."""
    text = README.read_text()
    section = text[text.index(f"## {heading}"):]
    fence = f"```{language}\n"
    block = section[section.index(fence) + len(fence):]
    return block[: block.index("```")].splitlines()


def split_comment(line):
    """(code, comment text) of one line of Python; the comment may be ''."""
    for token in tokenize.generate_tokens(io.StringIO(line).readline):
        if token.type == tokenize.COMMENT:
            return line[: token.start[1]].rstrip(), token.string[1:].strip()
    return line.rstrip(), ""


def rendered(value):
    """A value as the tour writes it: lists bracketed, everything else by str."""
    if isinstance(value, list):
        return "[" + ", ".join(map(str, value)) + "]"
    return str(value)


def test_library_tour_values():
    namespace = {}
    checked = 0
    for line in readme_block("Library tour", "python"):
        code, comment = split_comment(line)
        if not code:
            continue
        statement = ast.parse(code).body[0]
        if not isinstance(statement, ast.Expr):
            assert not comment, f"a comment on a statement gives no checkable value: {line}"
            exec(code, namespace)
            continue
        value = eval(code, namespace)
        if comment:
            # the comment opens with the value, then may say more after it
            assert re.match(re.escape(rendered(value)) + r"(?![\w.])", comment), (
                f"{code} is {rendered(value)}, the README says {comment}"
            )
            checked += 1
    assert checked >= 5


def test_command_line_block_runs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    # the circuit and automaton files the block reads
    for command, name in (("circuit", "c.txt"), ("automaton", "a.txt")):
        assert main([command, "synth", "1/(1-X)^2"]) == 0
        (tmp_path / name).write_text(capsys.readouterr().out)
    lines = [shlex.split(line, comments=True) for line in readme_block("Command line", "sh")]
    assert len(lines) >= 10 and all(argv[0] == "streamcalc" for argv in lines)
    for _, *argv in lines:
        code = main(argv)
        captured = capsys.readouterr()
        assert (code, captured.err) == (0, ""), argv
        assert captured.out, argv


def test_command_line_block_shows_every_subcommand():
    commands = [words for words, _, action, _ in COMMANDS if action is not None]
    shown = set()
    for line in readme_block("Command line", "sh"):
        argv = tuple(shlex.split(line, comments=True)[1:])
        named = [words for words in commands if argv[: len(words)] == words]
        assert len(named) == 1, f"not one subcommand: {line}"
        shown.update(named)
    assert shown == set(commands) and len(commands) == 11
