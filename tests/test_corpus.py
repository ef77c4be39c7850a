"""The committed same-answers corpus: every line of ``tests/corpus/`` is
built again by ``tools/corpus.py`` over this checkout and must be equal."""

import importlib.util
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"
spec = importlib.util.spec_from_file_location("corpus", TOOLS / "corpus.py")
corpus = importlib.util.module_from_spec(spec)
spec.loader.exec_module(corpus)


@pytest.mark.parametrize("name", sorted(corpus.FILES))
def test_every_answer_is_as_committed(name):
    committed = (corpus.CORPUS / name).read_text(encoding="utf-8").splitlines()
    built = list(corpus.FILES[name]())
    assert len(built) == len(committed)
    moved = [(i + 1, old, new) for i, (old, new) in enumerate(zip(committed, built)) if old != new]
    # the first few moved answers, each with its line number in the file
    assert not moved, "\n".join(f"{name}:{i}\n  committed {old}\n  now       {new}" for i, old, new in moved[:5])
