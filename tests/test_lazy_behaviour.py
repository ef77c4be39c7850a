"""``CoordinateStreams`` fits each closed form the first time it is read.

Counted by patching ``RationalStream.from_integers``, the fit on the
orbit's integers: ``behaviour()[0]`` fits one state, however often it is
read, and reading every state fits each once.  The sequence keeps the
meaning of the tuple it replaced: it equals that tuple and the k(X)
resolvent either way round, hashes as the tuple does, and indexes, slices
and iterates as a tuple.
"""

import random
from contextlib import contextmanager
from unittest.mock import patch

import pytest
from hypothesis import given
from hypothesis import strategies as st

from streamcalc import PrimeField, QQ, RationalStream, resolvent_streams
from util import boxed_dot, boxed_orbit, random_automaton, random_system

FIELDS = (QQ, PrimeField(2), PrimeField(101), PrimeField(2**61 - 1))


@contextmanager
def counted_fits():
    """The number of terms of each ``from_integers`` call, in order."""
    calls = []
    original = RationalStream.from_integers.__func__

    def counted(cls, field, ints, scale):
        calls.append(len(ints))
        return original(cls, field, ints, scale)

    with patch.object(RationalStream, "from_integers", classmethod(counted)):
        yield calls


def eager(field, vectors, width):
    """The tuple that each behaviour was before its streams were fitted lazily."""
    return tuple(RationalStream.from_sequence(field, [v[i] for v in vectors]) for i in range(width))


cases = given(st.sampled_from(FIELDS), st.integers(0, 2**32))


@cases
def test_reading_one_state_fits_one(field, seed):
    automaton = random_automaton(random.Random(seed), field, max_states=6)
    with counted_fits() as fits:
        behaviour = automaton.behaviour()
        assert fits == []
        first = behaviour[0]
        assert behaviour[0] is first and behaviour[-automaton.size] is first
    assert fits == [2 * automaton.size]


@cases
def test_reading_every_state_fits_each_once(field, seed):
    automaton = random_automaton(random.Random(seed), field, max_states=6)
    with counted_fits() as fits:
        behaviour = automaton.behaviour()
        streams = list(behaviour)
        assert tuple(behaviour) == tuple(streams)
    assert len(fits) == len(streams) == len(behaviour) == automaton.size


@cases
def test_the_sequence_equals_the_tuple_and_the_resolvent(field, seed):
    automaton = random_automaton(random.Random(seed), field, max_states=6)
    behaviour = automaton.behaviour()
    orbit = boxed_orbit(automaton.weights, automaton.outputs, 2 * automaton.size)
    before = eager(field, orbit, automaton.size)
    resolvent = resolvent_streams(automaton.weights, automaton.outputs)
    assert behaviour == before and before == behaviour
    assert behaviour == resolvent and resolvent == behaviour
    assert automaton.behaviour() == behaviour
    assert not behaviour != before
    assert hash(behaviour) == hash(before)
    assert behaviour[1:] == before[1:] and behaviour[::-1] == before[::-1]
    assert behaviour != list(before)


@cases
def test_system_outputs_are_unchanged(field, seed):
    """Several outputs, and ``step_outputs`` past 2n, which reads every
    output's closed form."""
    rng = random.Random(seed)
    pointed = random_system(rng, field, max_dim=5, outputs=rng.randint(1, 3))
    system, n = pointed.system, pointed.dim
    states = boxed_orbit(system.dynamics, pointed.initial, 2 * n + 7)
    outputs = [tuple(boxed_dot(field, row, v) for row in system.output.entries) for v in states]
    assert pointed.behaviour() == eager(field, outputs[: 2 * n], system.num_outputs)
    assert pointed.step_outputs(2 * n + 7) == outputs


def test_indices_outside_the_sequence_raise_as_a_tuple_does():
    behaviour = random_automaton(random.Random(1), QQ, max_states=3).behaviour()
    with counted_fits() as fits:
        for index in (len(behaviour), -len(behaviour) - 1):
            with pytest.raises(IndexError):
                behaviour[index]
        with pytest.raises(TypeError):
            behaviour["0"]
    assert fits == []
