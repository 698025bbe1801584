"""The mutation kill list stays applicable: each mutant still names real code and real tests."""

import os

from mutants import EQUIVALENT, MUTANTS, ROOT


def _sources():
    sources = {}
    for folder, _, files in os.walk(os.path.join(ROOT, "src")):
        for name in files:
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                with open(path, encoding="utf-8") as fh:
                    sources[os.path.relpath(path, ROOT)] = fh.read()
    return sources


def test_each_mutants_old_text_occurs_exactly_once_in_src():
    sources = _sources()
    for mutant in MUTANTS:
        counts = {path: text.count(mutant.old) for path, text in sources.items() if mutant.old in text}
        assert counts == {mutant.path: 1}, mutant.name
        for test in mutant.tests:
            assert os.path.isfile(os.path.join(ROOT, test)), (mutant.name, test)


def test_each_equivalent_mutants_old_text_occurs_exactly_once_in_src():
    sources = _sources()
    for mutant in EQUIVALENT:
        counts = {path: text.count(mutant.old) for path, text in sources.items() if mutant.old in text}
        assert counts == {mutant.path: 1}, mutant.old
        assert mutant.new != mutant.old and mutant.reason, mutant.old
