"""The mutation kill list: named mutants of ``src/`` that the suite must kill.

Each mutant is one exact text replacement in one source file, a small
realistic mistake in a rule the suite is meant to pin, together with the
test files expected to fail on it. For each mutant this script copies the
repository to a temporary directory, applies the replacement there and runs
those test files at a fixed hypothesis seed. A mutant whose tests all pass
survived: a rule can break without any test noticing. The checkout itself
is never modified. Standard library only; pytest does not collect this
file (``tests/test_mutants.py`` checks that every old text still occurs
exactly once in ``src/``). Run from anywhere:

    python3 tests/mutants.py

It prints one line per mutant and exits 1 if any survived.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from typing import NamedTuple, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HYPOTHESIS_SEED = 1
_NOT_COPIED = shutil.ignore_patterns(
    ".git", "__pycache__", ".hypothesis", ".pytest_cache", ".benchmarks", ".perfbench_work", "*.egg-info"
)


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the repository root
    old: str
    new: str
    tests: Tuple[str, ...]  # test files, relative to the repository root


MUTANTS = (
    Mutant(
        "recommend-serves-n-0",
        "src/folkrec/recommenders.py",
        "is_integer(n) and n >= 1",
        "is_integer(n) and n >= 0",
        ("tests/test_recommenders.py",),
    ),
    Mutant(
        "recommend-rejects-n-1",
        "src/folkrec/recommenders.py",
        "is_integer(n) and n >= 1",
        "is_integer(n) and n > 1",
        ("tests/test_recommenders.py",),
    ),
    Mutant(
        "negative-t0-accepted",
        "src/folkrec/recommenders.py",
        "0.0 < self.t0_seconds <= sys.float_info.max",
        "-sys.float_info.max <= self.t0_seconds <= sys.float_info.max",
        ("tests/test_cli.py",),
    ),
    Mutant(
        "sample-drawn-over-every-parsed-user",
        "src/folkrec/ingest.py",
        "_drawn_users(map(itemgetter(0), kept),",
        "_drawn_users(map(itemgetter(0), parsed.assignments),",
        ("tests/test_ingest.py",),
    ),
    Mutant(
        "empty-delimiter-accepted",
        "src/folkrec/ingest.py",
        "isinstance(self.delimiter, str) and self.delimiter)",
        "isinstance(self.delimiter, str))",
        ("tests/test_ingest.py",),
    ),
    Mutant(
        "epoch-time-truncated",
        "src/folkrec/ingest.py",
        "math.floor(float(raw_ts))",
        "int(float(raw_ts))",
        ("tests/test_ingest.py",),
    ),
    Mutant(
        "iso8601-time-truncated",
        "src/folkrec/ingest.py",
        "math.floor(dt.timestamp())",
        "int(dt.timestamp())",
        ("tests/test_ingest.py",),
    ),
    Mutant(
        "snapshot-drops-malformed-rows",
        "src/folkrec/ingest.py",
        "    if parsed.malformed:\n",
        "    if False:\n",
        ("tests/test_cli.py",),
    ),
    Mutant(
        "softmax-without-max-shift",
        "src/folkrec/bll.py",
        "shift = max(raw.values())",
        "shift = 0.0",
        ("tests/test_bll.py",),
    ),
    Mutant(
        "best-first-ties-by-id-descending",
        "src/folkrec/similarity.py",
        "order = sorted([(-score, ident) for ident, score in pairs])",
        "order = sorted([(-score, ident) for ident, score in pairs], key=lambda e: (e[0], -e[1]))",
        ("tests/test_similarity.py",),
    ),
    Mutant(
        "cirtt-ties-skip-similarity",
        "src/folkrec/recommenders.py",
        "(-(sim * bll_item(profile, tags[item].ids)), -sim, item)",
        "(-(sim * bll_item(profile, tags[item].ids)), 0.0, item)",
        ("tests/test_recommenders.py",),
    ),
)


def apply(root: str, mutant: Mutant) -> None:
    """Replace the mutant's old text, which must occur exactly once, in the tree at ``root``."""
    path = os.path.join(root, mutant.path)
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    if text.count(mutant.old) != 1:
        raise ValueError(f"{mutant.name}: {mutant.old!r} occurs {text.count(mutant.old)} times in {mutant.path}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text.replace(mutant.old, mutant.new))


def killed(mutant: Mutant) -> bool:
    """Whether the mutant's test files fail on a mutated copy of the tree.

    Only pytest's "tests failed" exit code counts as a kill; a collection or
    usage error is a broken run, not a caught mutant.
    """
    with tempfile.TemporaryDirectory() as tmp:
        copy = os.path.join(tmp, "repo")
        shutil.copytree(ROOT, copy, ignore=_NOT_COPIED)
        apply(copy, mutant)
        run = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
             f"--hypothesis-seed={HYPOTHESIS_SEED}", *mutant.tests],
            cwd=copy,
            env={**os.environ, "PYTHONPATH": os.path.join(copy, "src")},
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
    return run.returncode == 1


def main() -> int:
    survivors = []
    start = time.perf_counter()
    for mutant in MUTANTS:
        began = time.perf_counter()
        ok = killed(mutant)
        print(f"{'killed' if ok else 'SURVIVED'}  {mutant.name}  ({time.perf_counter() - began:.1f} s)", flush=True)
        if not ok:
            survivors.append(mutant.name)
    print(f"{len(MUTANTS) - len(survivors)} of {len(MUTANTS)} killed in {time.perf_counter() - start:.1f} s")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
