"""Offline evaluation: ranking metrics, the experiment runner, report writers.

The protocol is fixed: split chronologically per user, hide the newest fifth
of each profile, recommend up to 20 items from training data only, and read
every per-k metric off prefixes of that one list. Users the algorithm cannot
serve stay in the denominator with all-zero metrics (the coverage column
reports how many were served); `count_unserved=False` switches to averaging
over served users only.

All averages use math.fsum over user ids in sorted order, so reported
numbers are bit-identical across reruns and worker counts.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
from dataclasses import dataclass
from typing import Dict, IO, List, Mapping, Sequence, Set, Tuple

from .errors import ConfigError, EmptyDatasetError, is_integer, is_number
from .model import Folksonomy, open_output
from .recommenders import K_MAX, RecommenderConfig, build_recommender
from .similarity import diversity, item_tag_vectors
from .split import SplitResult, chronological_split


def metric_curves(
    recommended: Sequence[int], relevant: Set[int], k_max: int = K_MAX
) -> List[Tuple[float, float, float]]:
    """(nDCG@k, AP@k, recall@k) for k = 1..k_max, from one walk over the list.

    nDCG is binary: gains are 1 for hits, and the ideal list packs
    min(|relevant|, k) hits at the top. AP accumulates the precision at each
    hit and divides by min(|relevant|, k), the best hit count any length-k
    list can reach. Recall is hits / |relevant|. The gain at position p is
    1 / log2(p + 1), and each prefix sum is a fresh math.fsum of the terms a
    from-scratch computation at that k would add, so every entry equals it
    bit for bit. With no relevant items every value is 0. A k_max that is
    not an integer >= 1 (a bool is not), or a list that repeats an item,
    raises ValueError.
    """
    if not (is_integer(k_max) and k_max >= 1):
        raise ValueError(f"k must be an integer >= 1, got {k_max!r}")
    if len(set(recommended)) != len(recommended):
        raise ValueError("a ranked list must not repeat an item")
    if not relevant:
        return [(0.0, 0.0, 0.0)] * k_max
    n_relevant = len(relevant)
    ideal_gains: List[float] = []
    gains: List[float] = []
    precisions: List[float] = []
    hits = 0
    ideal = gain_sum = precision_sum = 0.0
    curves = []
    for k in range(1, k_max + 1):
        if k <= n_relevant:
            ideal_gains.append(1 / math.log2(k + 1))
            ideal = math.fsum(ideal_gains)
        if k <= len(recommended) and recommended[k - 1] in relevant:
            hits += 1
            gains.append(1 / math.log2(k + 1))
            precisions.append(hits / k)
            gain_sum = math.fsum(gains)
            precision_sum = math.fsum(precisions)
        curves.append((gain_sum / ideal, precision_sum / min(n_relevant, k), hits / n_relevant))
    return curves


# Not exported by the package (metric_curves is): only tests and perfbench/run.py call these.
def ndcg_at_k(recommended: Sequence[int], relevant: Set[int], k: int) -> float:
    """Binary nDCG at k: the last entry of ``metric_curves``."""
    return metric_curves(recommended, relevant, k)[-1][0]


def map_at_k(recommended: Sequence[int], relevant: Set[int], k: int) -> float:
    """Average precision at k for one ranking: the last entry of ``metric_curves``."""
    return metric_curves(recommended, relevant, k)[-1][1]


def recall_at_k(recommended: Sequence[int], relevant: Set[int], k: int) -> float:
    """Recall at k: the last entry of ``metric_curves``."""
    return metric_curves(recommended, relevant, k)[-1][2]


@dataclass(frozen=True)
class UserResult:
    user: int
    served: bool
    recommended: Tuple[int, ...]
    ndcg: Tuple[float, ...]  # index j holds the value at k=j+1
    ap: Tuple[float, ...]
    recall: Tuple[float, ...]
    diversity_at_max: float


@dataclass(frozen=True)
class AlgorithmReport:
    algorithm: str
    users_evaluated: int
    users_served: int
    ndcg: Tuple[float, ...]
    map: Tuple[float, ...]
    recall: Tuple[float, ...]
    diversity: float

    @property
    def coverage(self) -> float:
        return self.users_served / self.users_evaluated if self.users_evaluated else 0.0


@dataclass(frozen=True)
class EvalReport:
    dataset_fingerprint: str
    config_hash: str
    config_echo: Dict[str, object]
    algorithms: Tuple[AlgorithmReport, ...]

    def by_algorithm(self, tag: str) -> AlgorithmReport:
        for report in self.algorithms:
            if report.algorithm == tag:
                return report
        raise KeyError(tag)


def _evaluate_user(recommender, user: int, relevant: Set[int]) -> UserResult:
    """Score one test user's list: the one per-user path of serial and pooled evaluation.

    An unserved user's empty list scores 0.0 at every k and diversity 0.0.
    """
    recommended = recommender.recommend(user, K_MAX).items()
    ndcg, ap, recall = zip(*metric_curves(recommended, relevant))
    return UserResult(
        user=user,
        served=bool(recommended),
        recommended=recommended,
        ndcg=ndcg,
        ap=ap,
        recall=recall,
        diversity_at_max=diversity(recommended, item_tag_vectors(recommender.train)),
    )


_WORKER_STATE: Dict[str, object] = {}
_CHUNKS_PER_WORKER = 16


def _worker_init(train: Folksonomy, t_ref: Dict[int, int], config: RecommenderConfig) -> None:
    _WORKER_STATE["recommender"] = build_recommender(train, t_ref, config)


def _worker_eval(task: Tuple[int, Set[int]]) -> UserResult:
    return _evaluate_user(_WORKER_STATE["recommender"], *task)


def _process_pool(max_workers: int, initializer, initargs):
    """A ProcessPoolExecutor, imported here: serial runs never load multiprocessing and its chain."""
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor(max_workers=max_workers, initializer=initializer, initargs=initargs)


def evaluate_algorithm(
    split: SplitResult,
    config: RecommenderConfig,
    workers: int = 1,
    count_unserved: bool = True,
) -> AlgorithmReport:
    """Run one algorithm over every test user and average the metric curves."""
    _check_run_settings(workers, count_unserved)
    tasks = [(user, split.test[user]) for user in sorted(split.test)]
    if not tasks:
        raise EmptyDatasetError("split has no users with held-out items to evaluate")
    if workers == 1:
        recommender = build_recommender(split.train, split.t_ref, config)
        results = [_evaluate_user(recommender, user, relevant) for user, relevant in tasks]
    else:
        # built before the pool starts, so workers inherit the train set's memo
        # under the fork start method; under spawn or forkserver (Python
        # 3.14's default on Linux) each worker rebuilds it, to the same bytes
        item_tag_vectors(split.train)
        # many small chunks, handed to whichever worker is free: a worker
        # that runs slower (costlier users, a busier CPU) takes fewer of them
        # instead of holding up the others at the end
        chunk = -(-len(tasks) // (workers * _CHUNKS_PER_WORKER))
        # the pool forks all max_workers processes at its first submit, so
        # never ask for more than there are tasks or CPUs to run them
        with _process_pool(
            max_workers=min(workers, len(tasks), os.cpu_count() or 1),
            initializer=_worker_init,
            initargs=(split.train, split.t_ref, config),
        ) as pool:
            # map yields in task order, and the tasks are in user order
            results = list(pool.map(_worker_eval, tasks, chunksize=chunk))
    return _aggregate(config.algorithm, results, count_unserved)


def _check_run_settings(workers: int, count_unserved: bool) -> None:
    """The rules for the two settings both ``ExperimentConfig`` and ``evaluate_algorithm`` take."""
    if not (is_integer(workers) and workers >= 1):
        raise ConfigError(f"workers must be an integer >= 1, got {workers!r}")
    if not isinstance(count_unserved, bool):
        raise ConfigError(f"count_unserved must be true or false, got {count_unserved!r}")


def _aggregate(tag: str, results: List[UserResult], count_unserved: bool) -> AlgorithmReport:
    served = [r for r in results if r.served]
    pool = results if count_unserved else served
    denominator = len(pool)
    # diversity needs at least one pair, so its mean runs over the users
    # with >= 2 recommendations regardless of the accuracy denominator
    div_pool = [r for r in results if len(r.recommended) >= 2]
    div = math.fsum(r.diversity_at_max for r in div_pool) / len(div_pool) if div_pool else 0.0
    if denominator == 0:
        zeros = tuple(0.0 for _ in range(K_MAX))
        return AlgorithmReport(tag, len(results), len(served), zeros, zeros, zeros, div)
    return AlgorithmReport(
        algorithm=tag,
        users_evaluated=len(results),
        users_served=len(served),
        ndcg=tuple(math.fsum(col) / denominator for col in zip(*(r.ndcg for r in pool))),
        map=tuple(math.fsum(col) / denominator for col in zip(*(r.ap for r in pool))),
        recall=tuple(math.fsum(col) / denominator for col in zip(*(r.recall for r in pool))),
        diversity=div,
    )


def _config_echo(
    configs: Sequence[RecommenderConfig],
    split_fraction: float,
    seed: int,
    count_unserved: bool,
) -> Dict[str, object]:
    return {
        "split_fraction": split_fraction,
        "seed": seed,
        "count_unserved": count_unserved,
        "k_max": K_MAX,
        "algorithms": [
            {
                "algorithm": c.algorithm,
                "k": c.k,
                # every list is K_MAX long, so n is not a setting; the key
                # stays so config_hash and the golden and pinned reports
                # keep their bytes
                "n": K_MAX,
                "bll_d": c.bll.d,
                "t0_seconds": c.t0_seconds,
                "floor": c.floor,
            }
            for c in configs
        ],
    }


def config_hash(echo: Mapping[str, object]) -> str:
    """Hash of everything that can change reported numbers.

    Worker counts and file paths are deliberately left out: they must not
    affect output, and the hash encodes that promise.
    """
    return hashlib.sha256(json.dumps(echo, sort_keys=True).encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class ExperimentConfig:
    """The settings of one run; every field is checked when built.

    A list of ``algorithms`` is stored as a tuple. It may be empty, as a
    config for ingest or split only is, but ``run_experiment`` needs one.
    The seed does not drive anything (the split is chronological); it is
    echoed into the report so a run records the sampling seed its input was
    built with. ``workers`` never changes the output, so it is not echoed.
    """

    algorithms: Tuple[RecommenderConfig, ...] = ()
    split_fraction: float = 0.2
    seed: int = 0
    workers: int = 1
    count_unserved: bool = True

    def __post_init__(self) -> None:
        if not (isinstance(self.algorithms, (list, tuple))
                and all(isinstance(c, RecommenderConfig) for c in self.algorithms)):
            raise ConfigError(f"algorithms must be a list of RecommenderConfig, got {self.algorithms!r}")
        tags = [c.algorithm for c in self.algorithms]
        if len(set(tags)) != len(tags):
            raise ConfigError(f"duplicate algorithm tags: {tags}")
        if not (is_number(self.split_fraction) and 0.0 < self.split_fraction < 1.0):
            raise ConfigError(f"split_fraction must be a number in (0, 1), got {self.split_fraction!r}")
        if not is_integer(self.seed):
            raise ConfigError(f"seed must be an integer, got {self.seed!r}")
        _check_run_settings(self.workers, self.count_unserved)
        object.__setattr__(self, "algorithms", tuple(self.algorithms))
        # the report records every setting, and json cannot write an int past Python's digit limit
        try:
            config_hash(_config_echo(self.algorithms, self.split_fraction, self.seed, self.count_unserved))
        except ValueError as error:
            raise ConfigError(f"the report cannot record these settings: {error}") from None


def run_experiment(folksonomy: Folksonomy, experiment: ExperimentConfig) -> EvalReport:
    """Split once, evaluate every configured algorithm on the same split."""
    if not experiment.algorithms:
        raise ConfigError("at least one algorithm config is required")
    split = chronological_split(folksonomy, experiment.split_fraction)
    echo = _config_echo(experiment.algorithms, experiment.split_fraction, experiment.seed, experiment.count_unserved)
    reports = tuple(
        evaluate_algorithm(split, config, workers=experiment.workers, count_unserved=experiment.count_unserved)
        for config in experiment.algorithms
    )
    return EvalReport(
        dataset_fingerprint=folksonomy.fingerprint(),
        config_hash=config_hash(echo),
        config_echo=echo,
        algorithms=reports,
    )


def _fmt(value: float) -> str:
    return f"{value:.6f}"


def write_report_txt(report: EvalReport, stream: IO[str]) -> None:
    """Human-readable summary table at the largest list length."""
    stream.write(f"dataset fingerprint: {report.dataset_fingerprint}\n")
    stream.write(f"config hash:         {report.config_hash}\n")
    stream.write("\n")
    ndcg, map_, recall = (f"{name}@{K_MAX}" for name in ("nDCG", "MAP", "Recall"))
    header = f"{'algorithm':<10} {ndcg:>10} {map_:>10} {recall:>10} {'Diversity':>10} {'Coverage':>9}\n"
    stream.write(header)
    stream.write("-" * (len(header) - 1) + "\n")
    for algo in report.algorithms:
        stream.write(
            f"{algo.algorithm:<10} "
            f"{_fmt(algo.ndcg[K_MAX - 1]):>10} "
            f"{_fmt(algo.map[K_MAX - 1]):>10} "
            f"{_fmt(algo.recall[K_MAX - 1]):>10} "
            f"{_fmt(algo.diversity):>10} "
            f"{100.0 * algo.coverage:>8.2f}%\n"
        )


def write_metrics_csv(report: EvalReport, stream: IO[str]) -> None:
    """Full per-k curves, one row per (algorithm, k)."""
    stream.write(f"# dataset_fingerprint={report.dataset_fingerprint}\n")
    stream.write(f"# config_hash={report.config_hash}\n")
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(["algorithm", "k", "ndcg", "map", "recall"])
    for algo in report.algorithms:
        for k in range(1, K_MAX + 1):
            writer.writerow([algo.algorithm, k, _fmt(algo.ndcg[k - 1]), _fmt(algo.map[k - 1]), _fmt(algo.recall[k - 1])])


def write_summary_json(report: EvalReport, stream: IO[str]) -> None:
    # metric floats are rounded to 12 decimals: comfortably beyond reporting
    # precision, comfortably above the last-bit noise of equivalent
    # summation orders, so equivalent implementations emit identical bytes
    r12 = lambda v: round(v, 12)
    payload = {
        "dataset_fingerprint": report.dataset_fingerprint,
        "config_hash": report.config_hash,
        "config": report.config_echo,
        "algorithms": {
            algo.algorithm: {
                "users_evaluated": algo.users_evaluated,
                "users_served": algo.users_served,
                "coverage": r12(algo.coverage),
                "ndcg": [r12(v) for v in algo.ndcg],
                "map": [r12(v) for v in algo.map],
                "recall": [r12(v) for v in algo.recall],
                "diversity": r12(algo.diversity),
            }
            for algo in report.algorithms
        },
    }
    json.dump(payload, stream, sort_keys=True, indent=2)
    stream.write("\n")


def write_reports(report: EvalReport, out_dir: str) -> None:
    os.makedirs(out_dir, exist_ok=True)
    writers = {"report.txt": write_report_txt, "metrics.csv": write_metrics_csv, "summary.json": write_summary_json}
    for name, write in writers.items():
        with open_output(os.path.join(out_dir, name)) as handle:
            write(report, handle)
