"""Parsing and preprocessing of raw tag-assignment dumps.

Input format: delimited text (TAB by default), one assignment per row as
``user item tag timestamp``, UTF-8, ``#``-prefixed comment lines ignored.
The preprocessing pipeline runs in a fixed order: parse, blacklist filter,
build, user sampling, unique-resource removal. Only the build groups tag
assignments into posts; the two filters after it keep or drop whole posts.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from datetime import datetime, timezone
from fnmatch import fnmatchcase
from pathlib import Path
from typing import List, Sequence, Tuple

from .errors import ConfigError, EmptyDatasetError, FormatError
from .model import Folksonomy, TagAssignment, Vocab, _label_rows, build_folksonomy

# Tags auto-generated by import tooling rather than chosen by a person.
DEFAULT_BLACKLIST = ("bibtex-import",)


@dataclass
class DatasetSpec:
    """Describes one raw dump and how to preprocess it."""

    path: str
    columns: Tuple[int, int, int, int] = (0, 1, 2, 3)  # user, item, tag, timestamp
    delimiter: str = "\t"
    timestamp_format: str = "epoch"  # "epoch" | "iso8601"
    blacklist: Tuple[str, ...] = DEFAULT_BLACKLIST
    sample_fraction: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 < self.sample_fraction <= 1.0:
            raise ConfigError(f"sample_fraction must be in (0, 1], got {self.sample_fraction}")
        if len(set(self.columns)) != 4:
            raise ConfigError(f"column positions must be distinct, got {self.columns}")
        if self.timestamp_format not in ("epoch", "iso8601"):
            raise ConfigError(f"unknown timestamp_format: {self.timestamp_format!r}")


@dataclass
class ParseResult:
    assignments: List[TagAssignment]
    vocab: Vocab
    data_rows: int
    malformed: List[Tuple[int, str]] = field(default_factory=list)


def _parse_timestamp(raw: str, fmt: str) -> int:
    if fmt == "epoch":
        ts = int(float(raw))  # sub-second precision truncated
    else:
        text = raw.strip()
        if text.endswith(("Z", "z")):
            text = text[:-1] + "+00:00"
        dt = datetime.fromisoformat(text)
        if dt.tzinfo is None:
            dt = dt.replace(tzinfo=timezone.utc)
        ts = int(dt.timestamp())
    if ts < 0:
        raise ValueError("timestamp before epoch")
    return ts


def _first_non_utf8_line(path: str) -> int:
    """Number of the first line of a non-UTF-8 file that does not decode.

    The text layer decodes ahead in blocks, so the line it fails on need not
    hold the bad bytes. A newline byte never occurs inside a UTF-8 sequence,
    so some line fails whenever the whole file does.
    """
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                raw.decode("utf-8")
            except UnicodeDecodeError:
                return lineno
    raise ValueError(f"{path} decodes as UTF-8")


def parse(spec: DatasetSpec) -> ParseResult:
    """Read a dump into tag assignments, interning labels as they appear.

    Malformed rows are counted with their line number and reason, never
    silently dropped. If more than half of the data rows are malformed the
    column mapping is almost certainly wrong and a FormatError is raised, as
    it is for a file that is not UTF-8 text.
    """
    vocab = Vocab()
    assignments: List[TagAssignment] = []
    malformed: List[Tuple[int, str]] = []
    data_rows = 0
    needed = max(spec.columns) + 1

    try:
        with open(spec.path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                stripped = line.strip()
                if not stripped or stripped.startswith("#"):
                    continue
                data_rows += 1
                fields = line.rstrip("\n").split(spec.delimiter)
                if len(fields) < needed:
                    malformed.append((lineno, f"expected at least {needed} columns, got {len(fields)}"))
                    continue
                cu, ci, ct, cts = spec.columns
                user = fields[cu].strip()
                item = fields[ci].strip()
                tag = fields[ct].strip().lower()  # tags are case-folded before interning
                if not user or not item or not tag:
                    malformed.append((lineno, "empty user, item or tag field"))
                    continue
                try:
                    ts = _parse_timestamp(fields[cts], spec.timestamp_format)
                except (ValueError, OverflowError) as exc:
                    malformed.append((lineno, f"bad timestamp {fields[cts]!r}: {exc}"))
                    continue
                assignments.append(
                    TagAssignment(vocab.users.intern(user), vocab.items.intern(item), vocab.tags.intern(tag), ts)
                )
    except UnicodeDecodeError:
        raise FormatError(f"{spec.path} line {_first_non_utf8_line(spec.path)} is not UTF-8 text") from None

    if data_rows and len(malformed) * 2 > data_rows:
        raise FormatError(
            f"{len(malformed)} of {data_rows} rows malformed; check the column mapping and delimiter"
        )
    return ParseResult(assignments, vocab, data_rows, malformed)


def filter_blacklisted_tags(
    assignments: Sequence[TagAssignment],
    patterns: Sequence[str],
    vocab: Vocab,
) -> List[TagAssignment]:
    """Drop every assignment whose tag matches any blacklist pattern.

    Patterns are case-insensitive literals or globs (``imported*``). Tag
    labels were already lowercased at parse time.
    """
    if not patterns:
        return list(assignments)
    lowered = [p.lower() for p in patterns]
    banned = {
        tag_id
        for tag_id in range(len(vocab.tags))
        if any(fnmatchcase(vocab.tags.label_of(tag_id), p) for p in lowered)
    }
    return [a for a in assignments if a.tag not in banned]


def sample_users(folksonomy: Folksonomy, fraction: float, seed: int) -> Folksonomy:
    """Keep ceil(fraction * |U|) users drawn uniformly without replacement."""
    if not 0.0 < fraction <= 1.0:
        raise ConfigError(f"sample fraction must be in (0, 1], got {fraction}")
    if fraction == 1.0:
        return folksonomy
    users = folksonomy.users()
    # round() guards against IEEE artifacts like 0.1 * 100 = 10.000000000000002
    keep = math.ceil(round(fraction * len(users), 9))
    rng = random.Random(seed)
    kept = set(rng.sample(users, keep))
    return Folksonomy([p for p in folksonomy.posts if p.user in kept], folksonomy.vocab)


def remove_unique_resources(folksonomy: Folksonomy) -> Folksonomy:
    """Drop every item bookmarked by exactly one user, in a single pass.

    Deliberately not iterated to a fixpoint: users whose post count drops to
    one stay in, and items whose tagger count drops to one because of user
    sampling upstream are judged on the counts seen here, once.
    """
    posts = [p for p in folksonomy.posts if len(folksonomy.posts_of_item(p.item)) > 1]
    if not posts:
        raise EmptyDatasetError("no items with more than one tagger; nothing left after filtering")
    return Folksonomy(posts, folksonomy.vocab)


def run_pipeline(spec: DatasetSpec) -> Tuple[Folksonomy, ParseResult]:
    """parse -> blacklist filter -> build -> user sampling -> unique-resource removal."""
    parsed = parse(spec)
    kept = filter_blacklisted_tags(parsed.assignments, spec.blacklist, parsed.vocab)
    if not kept:
        raise EmptyDatasetError(f"no usable tag assignments in {spec.path}")
    folksonomy = build_folksonomy(kept, parsed.vocab)
    folksonomy = sample_users(folksonomy, spec.sample_fraction, spec.seed)
    folksonomy = remove_unique_resources(folksonomy)
    return folksonomy, parsed


def write_snapshot(folksonomy: Folksonomy, path: str | Path) -> None:
    """Write the canonical snapshot: stats header plus label rows in sorted order.

    The snapshot re-parses with the default DatasetSpec column mapping, so
    downstream stages load it with :func:`load_snapshot`.
    """
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("# folkrec snapshot v1\n")
        fh.write(f"# fingerprint={folksonomy.fingerprint()}\n")
        fh.write(f"# {folksonomy.stats().line()}\n")
        for row in _label_rows(folksonomy):
            fh.write(row + "\n")


def load_snapshot(path: str | Path) -> Folksonomy:
    """Load a snapshot (or any default-format dump) without re-filtering."""
    parsed = parse(DatasetSpec(path=str(path), blacklist=()))
    if not parsed.assignments:
        raise EmptyDatasetError(f"snapshot {path} holds no assignments")
    return build_folksonomy(parsed.assignments, parsed.vocab)
