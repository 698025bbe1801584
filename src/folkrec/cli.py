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
from typing import Dict, List, Optional, Sequence

import yaml

from . import __version__
from .bll import BllParams
from .errors import ConfigError, EmptyDatasetError, FolkrecError, FormatError
from .evaluation import K_MAX, run_experiment, write_reports
from .ingest import DatasetSpec, load_snapshot, run_pipeline, write_snapshot
from .model import Folksonomy
from .recommenders import ALGORITHMS, RecommenderConfig, build_recommender
from .split import chronological_split, reference_times, write_split

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_IO = 4

_DATASET_KEYS = {"path", "columns", "delimiter", "timestamp_format", "blacklist", "sample_fraction", "seed"}
_ALGORITHM_KEYS = {"algorithm", "k", "d", "t0_seconds", "floor"}
_TOP_KEYS = {"dataset", "snapshot", "split_fraction", "algorithms", "out_dir", "seed", "workers", "count_unserved"}


class RunConfig:
    """Validated contents of one YAML config file."""

    def __init__(self, raw: Dict[str, object], base_dir: str) -> None:
        if not isinstance(raw, dict):
            raise ConfigError("config file must hold a mapping at top level")
        unknown = set(raw) - _TOP_KEYS
        if unknown:
            raise ConfigError(f"unknown config keys: {', '.join(sorted(unknown))}")
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
        unknown = set(raw) - _DATASET_KEYS
        if unknown:
            raise ConfigError(f"unknown dataset keys: {', '.join(sorted(unknown))}")
        if "path" not in raw:
            raise ConfigError("'dataset' needs a 'path'")
        columns = raw.get("columns", [0, 1, 2, 3])
        if not (
            isinstance(columns, list)
            and len(columns) == 4
            and all(isinstance(c, int) and not isinstance(c, bool) for c in columns)
        ):
            raise ConfigError(f"columns must be a list of four integers, got {columns!r}")
        kwargs = {
            "path": self._path(raw["path"]),
            "columns": tuple(columns),
            "delimiter": _string(raw, "delimiter", "\t"),
            "timestamp_format": _string(raw, "timestamp_format", "epoch"),
            "sample_fraction": _number(raw, "sample_fraction", 1.0),
            "seed": _number(raw, "seed", 0, int),
        }
        if "blacklist" in raw:
            blacklist = [] if raw["blacklist"] is None else raw["blacklist"]
            if not (isinstance(blacklist, list) and all(isinstance(p, str) for p in blacklist)):
                raise ConfigError(f"blacklist must be a list of strings or null, got {blacklist!r}")
            kwargs["blacklist"] = tuple(blacklist)
        return DatasetSpec(**kwargs)

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
            unknown = set(entry) - _ALGORITHM_KEYS
            if unknown:
                raise ConfigError(f"unknown algorithm keys: {', '.join(sorted(unknown))}")
            if "algorithm" not in entry:
                raise ConfigError("algorithm entry needs an 'algorithm' tag")
            kwargs = {
                "algorithm": str(entry["algorithm"]).upper(),
                "k": _number(entry, "k", 20, int),
            }
            if "d" in entry:
                kwargs["bll"] = BllParams(d=_number(entry, "d", 0.0))
            if "t0_seconds" in entry:
                kwargs["t0_seconds"] = _number(entry, "t0_seconds", 0.0)
            if "floor" in entry:
                kwargs["floor"] = _number(entry, "floor", 0.0)
            configs.append(RecommenderConfig(**kwargs))
        return configs


def _number(raw: Dict[str, object], key: str, default: float, kind: type = float) -> int | float:
    """``raw[key]`` as ``kind``: YAML ints, or floats too when ``kind`` is float; never bools or strings."""
    value = raw.get(key, default)
    if isinstance(value, bool) or not isinstance(value, (int, float) if kind is float else int):
        raise ConfigError(f"{key} must be {'a number' if kind is float else 'an integer'}, got {value!r}")
    try:
        return kind(value)
    except OverflowError:
        raise ConfigError(f"{key} is out of range: {value!r}") from None


def _string(raw: Dict[str, object], key: str, default: str) -> str:
    """``raw[key]``, which must be a YAML string."""
    value = raw.get(key, default)
    if not isinstance(value, str):
        raise ConfigError(f"{key} must be a string, got {value!r}")
    return value


def load_config(path: str) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            raw = yaml.safe_load(handle)
    except OSError as exc:
        raise _IOProblem(f"cannot read config {path}: {exc}") from exc
    except (yaml.YAMLError, UnicodeDecodeError) as exc:
        raise ConfigError(f"config {path} is not valid YAML: {exc}") from exc
    return RunConfig(raw or {}, os.path.dirname(os.path.abspath(path)))


class _IOProblem(FolkrecError):
    """File-system failure distinct from bad config and bad data."""


def _load_folksonomy(config: RunConfig, print_stats: bool = False) -> Folksonomy:
    """Snapshot if configured, otherwise the full ingest pipeline."""
    if config.snapshot is not None:
        if not os.path.exists(config.snapshot):
            raise _IOProblem(f"snapshot not found: {config.snapshot}")
        return load_snapshot(config.snapshot)
    spec = config.dataset
    if not os.path.exists(spec.path):
        raise _IOProblem(f"dataset not found: {spec.path}")
    folksonomy, parsed = run_pipeline(spec)
    for line_number, raw in parsed.malformed:
        print(f"malformed line {line_number}: {raw}", file=sys.stderr)
    if print_stats:
        print(folksonomy.stats().line())
    return folksonomy


def cmd_ingest(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    if config.dataset is None:
        raise ConfigError("ingest needs a 'dataset' section in the config")
    out_dir = args.out or config.out_dir
    folksonomy = _load_folksonomy(config, print_stats=True)
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
    if not os.path.exists(report_path):
        raise _IOProblem(f"report not found: {report_path}")
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
    p_run.add_argument("--seed", type=int, help="sampling seed (overrides config)")
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
    except _IOProblem as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
