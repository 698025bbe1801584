"""Command-line front door: ingest, split, run, plotdata, recommend.

Experiments are described by one YAML config file (archivable, diffable)
rather than long flag chains; `--seed`, `--workers`, and `--out` override
the corresponding config fields. Relative paths inside a config resolve
against the config file's directory, so a config plus its data moves as a
unit.

Exit codes: 0 success, 2 config problem, 3 data problem, 4 I/O problem.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields
from typing import Dict, List, Optional, Sequence, Set

import yaml

from . import __version__
from .bll import BllParams
from .errors import ConfigError, EmptyDatasetError, FormatError
from .evaluation import K_MAX, run_experiment, write_reports
from .ingest import DatasetSpec, load_snapshot, run_pipeline, write_snapshot
from .model import Folksonomy
from .recommenders import ALGORITHMS, RecommenderConfig, build_recommender
from .split import chronological_split, reference_times, write_split

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_IO = 4

_DATASET_KEYS = {f.name for f in fields(DatasetSpec)}
_ALGORITHM_KEYS = {f.name for f in fields(RecommenderConfig)} - {"bll"} | {"d"}  # d is BllParams.d
_TOP_KEYS = {"dataset", "snapshot", "split_fraction", "algorithms", "out_dir", "seed", "workers", "count_unserved"}


class RunConfig:
    """Validated contents of one YAML config file."""

    def __init__(self, raw: Dict[str, object], base_dir: str) -> None:
        if not isinstance(raw, dict):
            raise ConfigError("config file must hold a mapping at top level")
        _reject_unknown(raw, _TOP_KEYS, "config")
        self.base_dir = base_dir
        self.dataset = self._dataset(raw.get("dataset"))
        self.snapshot = self._path(raw.get("snapshot"))
        if self.dataset is None and self.snapshot is None:
            raise ConfigError("config needs a 'dataset' section or a 'snapshot' path")
        self.split_fraction = _number(raw, "split_fraction", 0.2)
        if not 0.0 < self.split_fraction < 1.0:
            raise ConfigError(f"split_fraction must be in (0, 1), got {self.split_fraction}")
        self.seed = _number(raw, "seed", 0, int)
        self.workers = _number(raw, "workers", 1, int)
        if self.workers < 1:
            raise ConfigError(f"workers must be >= 1, got {self.workers}")
        self.count_unserved = raw.get("count_unserved", True)
        if not isinstance(self.count_unserved, bool):
            raise ConfigError(f"count_unserved must be true or false, got {self.count_unserved!r}")
        self.out_dir = self._path(raw.get("out_dir")) or os.path.join(base_dir, "out")
        self.algorithms = self._algorithms(raw.get("algorithms"))

    def _path(self, value: Optional[object]) -> Optional[str]:
        if value is None:
            return None
        if not isinstance(value, str):
            raise ConfigError(f"expected a path string, got {value!r}")
        return value if os.path.isabs(value) else os.path.join(self.base_dir, value)

    def _dataset(self, raw: Optional[object]) -> Optional[DatasetSpec]:
        if raw is None:
            return None
        if not isinstance(raw, dict):
            raise ConfigError("'dataset' must be a mapping")
        _reject_unknown(raw, _DATASET_KEYS, "dataset")
        if "path" not in raw:
            raise ConfigError("'dataset' needs a 'path'")
        return DatasetSpec(**{**raw, "path": self._path(raw["path"])})

    def _algorithms(self, raw: Optional[object]) -> List[RecommenderConfig]:
        if raw is None:
            return []
        if not isinstance(raw, list):
            raise ConfigError("'algorithms' must be a list")
        configs = []
        for entry in raw:
            if isinstance(entry, str):
                entry = {"algorithm": entry}
            if not isinstance(entry, dict):
                raise ConfigError(f"algorithm entry must be a mapping or tag string, got {entry!r}")
            _reject_unknown(entry, _ALGORITHM_KEYS, "algorithm")
            if "algorithm" not in entry:
                raise ConfigError("algorithm entry needs an 'algorithm' tag")
            kwargs = {**entry, "algorithm": str(entry["algorithm"]).upper()}
            if "d" in kwargs:
                kwargs["bll"] = BllParams(kwargs.pop("d"))
            configs.append(RecommenderConfig(**kwargs))
        tags = [c.algorithm for c in configs]
        if len(set(tags)) != len(tags):
            raise ConfigError(f"duplicate algorithm tags: {tags}")
        return configs


def _reject_unknown(raw: Dict[object, object], known: Set[str], what: str) -> None:
    """Reject keys outside ``known``; one YAML loads as a number, bool or null is named as text."""
    unknown = sorted(str(key) for key in set(raw) - known)
    if unknown:
        raise ConfigError(f"unknown {what} keys: {', '.join(unknown)}")


def _number(raw: Dict[str, object], key: str, default: float, kind: type = float) -> int | float:
    """``raw[key]`` as ``kind``: YAML ints, or floats too when ``kind`` is float; never bools or strings."""
    value = raw.get(key, default)
    if isinstance(value, bool) or not isinstance(value, (int, float) if kind is float else int):
        raise ConfigError(f"{key} must be {'a number' if kind is float else 'an integer'}, got {value!r}")
    try:
        return kind(value)
    except OverflowError:
        raise ConfigError(f"{key} is out of range: {value!r}") from None


def load_config(path: str) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            raw = yaml.safe_load(handle)
    except (yaml.YAMLError, UnicodeDecodeError) as exc:
        raise ConfigError(f"config {path} is not valid YAML: {exc}") from exc
    return RunConfig(raw or {}, os.path.dirname(os.path.abspath(path)))


def _load_folksonomy(config: RunConfig) -> Folksonomy:
    """Snapshot if configured, otherwise the full ingest pipeline."""
    if config.snapshot is not None:
        return load_snapshot(config.snapshot)
    folksonomy, parsed = run_pipeline(config.dataset)
    for line_number, raw in parsed.malformed:
        print(f"malformed line {line_number}: {raw}", file=sys.stderr)
    return folksonomy


def cmd_ingest(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    if config.dataset is None:
        raise ConfigError("ingest needs a 'dataset' section in the config")
    out_dir = args.out or config.out_dir
    folksonomy = _load_folksonomy(config)
    print(folksonomy.stats().line())
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "snapshot.tsv")
    write_snapshot(folksonomy, path)
    print(f"snapshot written to {path}")
    return EXIT_OK


def cmd_split(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    out_dir = args.out or config.out_dir
    folksonomy = _load_folksonomy(config)
    split = chronological_split(folksonomy, config.split_fraction)
    write_split(split, out_dir)
    print(f"split written to {out_dir} ({len(split.test)} test users)")
    return EXIT_OK


def cmd_run(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    if not config.algorithms:
        raise ConfigError("run needs a non-empty 'algorithms' list in the config")
    seed = args.seed if args.seed is not None else config.seed
    workers = args.workers if args.workers is not None else config.workers
    if workers < 1:
        raise ConfigError(f"workers must be >= 1, got {workers}")
    out_dir = args.out or config.out_dir
    folksonomy = _load_folksonomy(config)
    report = run_experiment(
        folksonomy,
        config.algorithms,
        split_fraction=config.split_fraction,
        seed=seed,
        workers=workers,
        count_unserved=config.count_unserved,
    )
    write_reports(report, out_dir)
    print(f"reports written to {out_dir}")
    return EXIT_OK


def cmd_plotdata(args: argparse.Namespace) -> int:
    report_path = args.report
    if os.path.isdir(report_path):
        report_path = os.path.join(report_path, "summary.json")
    try:
        with open(report_path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
        raise FormatError(f"report {report_path} is not JSON: {exc}") from None
    # every file's text is built before the first is written, so a report
    # missing a field leaves no partial output
    try:
        provenance = (
            f"# dataset_fingerprint={payload['dataset_fingerprint']}\n"
            f"# config_hash={payload['config_hash']}\n"
        )
        tables = {
            f"{tag}_{metric}.csv": provenance + "k,value\n" + "".join(
                f"{k},{payload['algorithms'][tag][metric][k - 1]:.6f}\n" for k in range(1, K_MAX + 1)
            )
            for tag in sorted(payload["algorithms"])
            for metric in ("ndcg", "map", "recall")
        }
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise FormatError(f"report {report_path} is not a folkrec summary: {type(exc).__name__} {exc}") from None
    # the tags name the files, so one like "../x" would write outside out_dir
    unknown = sorted(set(payload["algorithms"]) - set(ALGORITHMS))
    if unknown:
        raise FormatError(f"report {report_path} is not a folkrec summary: unknown algorithm tags {unknown}")
    out_dir = args.out or os.path.join(os.path.dirname(os.path.abspath(report_path)), "plotdata")
    os.makedirs(out_dir, exist_ok=True)
    for name, text in tables.items():
        with open(os.path.join(out_dir, name), "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
    print(f"{len(tables)} series files written to {out_dir}")
    return EXIT_OK


def cmd_recommend(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    tag = args.algorithm.upper()
    algo_config = next((c for c in config.algorithms if c.algorithm == tag), None)
    if algo_config is None:
        algo_config = RecommenderConfig(tag)
    if args.n < 1:
        raise ConfigError(f"n must be >= 1, got {args.n}")
    folksonomy = _load_folksonomy(config)
    vocab = folksonomy.vocab
    if args.user not in vocab.users:
        raise ConfigError(f"unknown user label {args.user!r}")
    user = vocab.users.id_of(args.user)
    # production mode trains on everything, so t_ref comes from the whole folksonomy
    recommender = build_recommender(folksonomy, reference_times(folksonomy), algo_config)
    ranked = recommender.recommend(user, args.n)
    for rank, (item, score) in enumerate(ranked.entries, start=1):
        print(f"{args.user}\t{vocab.items.label_of(item)}\t{rank}\t{score:.6f}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="folkrec", description="Time-aware folksonomy recommendation toolkit.")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", required=True, help="YAML config file")
        p.add_argument("--out", help="output directory (overrides config)")

    p_ingest = sub.add_parser("ingest", help="parse, filter, and snapshot a dataset")
    common(p_ingest)
    p_ingest.set_defaults(func=cmd_ingest)

    p_split = sub.add_parser("split", help="write the chronological train/test split")
    common(p_split)
    p_split.set_defaults(func=cmd_split)

    p_run = sub.add_parser("run", help="run the configured algorithms and write reports")
    common(p_run)
    p_run.add_argument("--seed", type=int, help="top-level seed, echoed into the report; sampling uses dataset.seed")
    p_run.add_argument("--workers", type=int, help="worker processes (overrides config)")
    p_run.set_defaults(func=cmd_run)

    p_plot = sub.add_parser("plotdata", help="expand a summary.json into per-series CSV files")
    p_plot.add_argument("report", help="summary.json path, or the directory holding it")
    p_plot.add_argument("--out", help="output directory (default: plotdata/ beside the report)")
    p_plot.set_defaults(func=cmd_plotdata)

    p_rec = sub.add_parser("recommend", help="print top-n items for one user, training on all data")
    common(p_rec)
    p_rec.add_argument("--user", required=True, help="user label")
    p_rec.add_argument("--algorithm", default="CIRTT", help=f"one of {', '.join(ALGORITHMS)}")
    p_rec.add_argument("--n", type=int, default=K_MAX, help=f"list length (default {K_MAX})")
    p_rec.set_defaults(func=cmd_recommend)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (FormatError, EmptyDatasetError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
