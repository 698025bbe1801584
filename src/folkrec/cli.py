"""Command-line front door: ingest, split, run, plotdata, recommend.

Experiments are described by one YAML config file (archivable, diffable)
rather than long flag chains. `load_config` maps its sections onto the
settings types (`DatasetSpec`, `RecommenderConfig` with `BllParams`,
`ExperimentConfig`), which check every value; this module only rejects
unknown keys and resolves paths. Relative paths inside a config resolve
against the config file's directory, so a config plus its data moves as a
unit. `--out`, `--seed` and `--workers` replace the matching config fields,
and the settings types check them again.

Exit codes: 0 success, 2 config problem, 3 data problem, 4 I/O problem.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, fields, replace
from typing import Dict, Optional, Sequence, Set

import yaml

from . import __version__
from .bll import BllParams
from .errors import ConfigError, EmptyDatasetError, FormatError
from .evaluation import K_MAX, ExperimentConfig, run_experiment, write_reports
from .ingest import DatasetSpec, load_snapshot, run_pipeline, write_snapshot
from .model import Folksonomy, open_output
from .recommenders import ALGORITHMS, RecommenderConfig, build_recommender
from .split import chronological_split, reference_times, write_split

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_IO = 4


@dataclass(frozen=True)
class RunConfig:
    """One YAML config file, mapped onto the settings types."""

    dataset: Optional[DatasetSpec]
    snapshot: Optional[str]
    out_dir: str
    experiment: ExperimentConfig


_DATASET_KEYS = {f.name for f in fields(DatasetSpec)}
_ALGORITHM_KEYS = {f.name for f in fields(RecommenderConfig)} - {"bll"} | {"d"}  # d is BllParams.d
_EXPERIMENT_KEYS = {f.name for f in fields(ExperimentConfig)}
_TOP_KEYS = {f.name for f in fields(RunConfig)} - {"experiment"} | _EXPERIMENT_KEYS


def _reject_unknown(raw: Dict[object, object], known: Set[str], what: str) -> None:
    """Reject keys outside ``known``; one YAML loads as a number, bool or null is named as text."""
    unknown = sorted(str(key) for key in set(raw) - known)
    if unknown:
        raise ConfigError(f"unknown {what} keys: {', '.join(unknown)}")


def _algorithm(entry: object) -> RecommenderConfig:
    """One ``algorithms`` entry: a tag string, or a mapping with ``d`` for ``BllParams.d``."""
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
    return RecommenderConfig(**kwargs)


def load_config(path: str) -> RunConfig:
    """Map one YAML config file onto the settings types, which check every value."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            raw = yaml.safe_load(handle) or {}
    # ValueError covers UnicodeDecodeError and an integer past Python's digit limit
    except (yaml.YAMLError, ValueError) as exc:
        raise ConfigError(f"config {path} is not valid YAML: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config file must hold a mapping at top level")
    _reject_unknown(raw, _TOP_KEYS, "config")
    base_dir = os.path.dirname(os.path.abspath(path))

    def resolve(value: object) -> Optional[str]:
        if value is not None and not isinstance(value, str):
            raise ConfigError(f"expected a path string, got {value!r}")
        # join keeps an absolute value as it is
        return None if value is None else os.path.join(base_dir, value)

    dataset = raw.get("dataset")
    if dataset is not None:
        if not isinstance(dataset, dict):
            raise ConfigError("'dataset' must be a mapping")
        _reject_unknown(dataset, _DATASET_KEYS, "dataset")
        dataset = DatasetSpec(**{**dataset, "path": resolve(dataset.get("path"))})
    snapshot = resolve(raw.get("snapshot"))
    if dataset is None and snapshot is None:
        raise ConfigError("config needs a 'dataset' section or a 'snapshot' path")
    algorithms = [] if raw.get("algorithms") is None else raw["algorithms"]
    if not isinstance(algorithms, list):
        raise ConfigError("'algorithms' must be a list")
    experiment = {key: raw[key] for key in _EXPERIMENT_KEYS if key in raw}
    return RunConfig(
        dataset=dataset,
        snapshot=snapshot,
        out_dir=resolve(raw.get("out_dir")) or os.path.join(base_dir, "out"),
        experiment=ExperimentConfig(**{**experiment, "algorithms": [_algorithm(e) for e in algorithms]}),
    )


def _load_args(args: argparse.Namespace) -> RunConfig:
    """The config file with the command line's overrides, which the settings types check."""
    config = load_config(args.config)
    overrides = {key: getattr(args, key, None) for key in ("seed", "workers")}
    experiment = replace(config.experiment, **{k: v for k, v in overrides.items() if v is not None})
    return replace(config, out_dir=args.out or config.out_dir, experiment=experiment)


def _load_folksonomy(config: RunConfig) -> Folksonomy:
    """Snapshot if configured, otherwise the full ingest pipeline."""
    if config.snapshot is not None:
        return load_snapshot(config.snapshot)
    folksonomy, parsed = run_pipeline(config.dataset)
    for line_number, raw in parsed.malformed:
        print(f"malformed line {line_number}: {raw}", file=sys.stderr)
    return folksonomy


def cmd_ingest(args: argparse.Namespace) -> int:
    config = _load_args(args)
    if config.dataset is None:
        raise ConfigError("ingest needs a 'dataset' section in the config")
    # ingest reads the dataset even when a snapshot is configured: it is what writes snapshots
    folksonomy = _load_folksonomy(replace(config, snapshot=None))
    print(folksonomy.stats().line())
    os.makedirs(config.out_dir, exist_ok=True)
    path = os.path.join(config.out_dir, "snapshot.tsv")
    write_snapshot(folksonomy, path)
    print(f"snapshot written to {path}")
    return EXIT_OK


def cmd_split(args: argparse.Namespace) -> int:
    config = _load_args(args)
    folksonomy = _load_folksonomy(config)
    split = chronological_split(folksonomy, config.experiment.split_fraction)
    write_split(split, config.out_dir)
    print(f"split written to {config.out_dir} ({len(split.test)} test users)")
    return EXIT_OK


def cmd_run(args: argparse.Namespace) -> int:
    config = _load_args(args)
    if not config.experiment.algorithms:
        raise ConfigError("run needs a non-empty 'algorithms' list in the config")
    folksonomy = _load_folksonomy(config)
    write_reports(run_experiment(folksonomy, config.experiment), config.out_dir)
    print(f"reports written to {config.out_dir}")
    return EXIT_OK


def cmd_plotdata(args: argparse.Namespace) -> int:
    report_path = args.report
    if os.path.isdir(report_path):
        report_path = os.path.join(report_path, "summary.json")
    try:
        # a report re-saved by an editor may start with a UTF-8 byte-order mark
        with open(report_path, "r", encoding="utf-8-sig") as handle:
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
        with open_output(os.path.join(out_dir, name)) as handle:
            handle.write(text)
    print(f"{len(tables)} series files written to {out_dir}")
    return EXIT_OK


def cmd_recommend(args: argparse.Namespace) -> int:
    config = _load_args(args)
    tag = args.algorithm.upper()
    algo_config = next((c for c in config.experiment.algorithms if c.algorithm == tag), None)
    if algo_config is None:
        algo_config = RecommenderConfig(tag)
    if args.n < 1:
        raise ConfigError(f"n must be >= 1, got {args.n}")
    folksonomy = _load_folksonomy(config)
    vocab = folksonomy.vocab
    user = vocab.users.lookup()(args.user)
    # the vocabulary keeps the labels of users preprocessing dropped; they hold no post
    if user is None or not folksonomy.items_of_user(user):
        raise ConfigError(f"unknown user label {args.user!r}")
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
