"""The mutation catalogue of ``tests/mutants.py`` still fits the code: every
mutant's `before` text occurs exactly once in its file, and every test it
names exists, so a catalogue that code has moved under fails here instead of
going stale."""

from pathlib import Path

import pytest

import mutants

ROOT = Path(__file__).resolve().parents[1]
CATALOGUE = [*mutants.MUTANTS, *(m for m, _ in mutants.EQUIVALENT)]


def test_names_are_unique():
    names = [m.name for m in CATALOGUE]
    assert len(names) == len(set(names))


@pytest.mark.parametrize("mutant", CATALOGUE, ids=lambda m: m.name)
def test_before_occurs_exactly_once(mutant):
    assert (ROOT / mutant.file).read_text().count(mutant.before) == 1
    assert mutant.before != mutant.after


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda m: m.name)
def test_named_tests_exist(mutant):
    assert mutant.tests
    for node in mutant.tests:
        path, _, name = node.partition("::")
        source = (ROOT / path).read_text()
        # the first part of the name is a test function or class of that file
        head = name.partition("::")[0]
        assert not head or f"def {head}(" in source or f"class {head}" in source, node
