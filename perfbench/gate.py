"""Correctness gate run on every benchmark run.

Every check is one operation; a check that fails is a failed operation and
makes the run incorrect. The oracle spot-check compares recommenders with
the brute-force references in ``tests/oracles.py``, which is imported
read-only.
"""

from __future__ import annotations

import hashlib
import importlib.util
import random
from pathlib import Path
from types import ModuleType
from typing import List, Optional, Sequence, Tuple

from folkrec.evaluation import K_MAX
from folkrec.recommenders import RecommenderConfig, build_recommender
from folkrec.split import SplitResult

ORACLE_TOLERANCE = 1e-9

Ranking = Sequence[Tuple[int, float]]


class Gate:
    """Counts attempted and failed operations and keeps the failure messages."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []

    def ran(self, operations: int) -> None:
        """Record operations that completed without an exception."""
        self.attempted += operations

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(f"{name}: {detail}" if detail else name)
        return ok

    @property
    def correct(self) -> bool:
        return self.failed == 0


def sha256_file(path: Path) -> str:
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def load_oracles(root: Path) -> ModuleType:
    spec = importlib.util.spec_from_file_location("folkrec_test_oracles", root / "tests" / "oracles.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def oracle_ranking(oracles: ModuleType, config: RecommenderConfig, split: SplitResult, user: int, n: int) -> Ranking:
    train, t_ref, k = split.train, split.t_ref, config.k
    tag = config.algorithm
    if tag == "MP":
        return oracles.o_mp(train, user, n)
    if tag in ("CF_B", "CF_T"):
        return oracles.o_cf(train, user, k, n, binary=tag == "CF_B")
    if tag == "Z":
        return oracles.o_zheng(train, t_ref, user, k, n, config.t0_seconds)
    if tag == "H":
        return oracles.o_huang(train, t_ref, user, k, n, config.floor)
    if tag == "CIRTT":
        return oracles.o_cirtt(train, t_ref, user, k, n, config.bll.d)
    raise ValueError(f"no oracle for {tag!r}")


def compare_ranking(got: Ranking, expected: Ranking, tolerance: float = ORACLE_TOLERANCE) -> Optional[str]:
    """None when items agree in order and every score within tolerance, else why not."""
    got_items = [item for item, _ in got]
    expected_items = [item for item, _ in expected]
    if got_items != expected_items:
        return f"items {got_items[:5]}... != oracle {expected_items[:5]}..."
    for rank, ((_, score), (_, oracle)) in enumerate(zip(got, expected), start=1):
        if abs(score - oracle) > tolerance:
            return f"rank {rank} score {score!r} != oracle {oracle!r}"
    return None


def spot_check(
    gate: Gate,
    oracles: ModuleType,
    split: SplitResult,
    configs: Sequence[RecommenderConfig],
    users_per_algorithm: int,
    seed: int,
) -> None:
    """Check a seeded sample of test users per algorithm against the oracles."""
    rng = random.Random(seed)
    test_users = sorted(split.test)
    for config in configs:
        recommender = build_recommender(split.train, split.t_ref, config)
        for user in rng.sample(test_users, min(users_per_algorithm, len(test_users))):
            got = recommender.recommend(user, K_MAX).entries
            problem = compare_ranking(got, oracle_ranking(oracles, config, split, user, K_MAX))
            gate.check(f"oracle {config.algorithm} user {user}", problem is None, problem or "")


def check_digest(gate: Gate, name: str, actual: str, expected: str) -> bool:
    return gate.check(name, actual == expected, f"{actual} != {expected}")
