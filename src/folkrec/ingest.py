"""Parsing and preprocessing of raw tag-assignment dumps.

Input format: delimited text (TAB by default), one assignment per row as
``user item tag timestamp``, UTF-8, ``#``-prefixed comment lines ignored.
The preprocessing pipeline runs in a fixed order: parse, blacklist filter,
user sampling, grouping into posts, unique-resource removal. The blacklist
and the sample select rows, so only the sampled users' rows are grouped;
unique-resource removal keeps or drops whole posts. A ``Folksonomy`` builds
its indexes on first read, so ingest builds none.
"""

from __future__ import annotations

import math
import os
import random
from collections import Counter
from dataclasses import dataclass, field
from fnmatch import fnmatchcase
from itertools import chain
from operator import itemgetter
from pathlib import Path
from typing import Iterable, List, Optional, Sequence, Set, Tuple

from .errors import ConfigError, EmptyDatasetError, FormatError, is_integer, is_number
from .model import MAX_TIMESTAMP, Assignment, Folksonomy, Vocab, build_folksonomy, write_lines

# Tags auto-generated by import tooling rather than chosen by a person.
DEFAULT_BLACKLIST = ("bibtex-import",)

_SNAPSHOT_HEADER = "# folkrec snapshot v1"
_FINGERPRINT_PREFIX = "# fingerprint="


@dataclass(frozen=True)
class DatasetSpec:
    """Describes one raw dump and how to preprocess it; every field is checked when built.

    List ``columns`` and ``blacklist`` are stored as tuples, a ``None`` blacklist as ``()``.
    Frozen, so a checked spec stays checked.
    """

    path: str | os.PathLike
    columns: Tuple[int, int, int, int] = (0, 1, 2, 3)  # user, item, tag, timestamp
    delimiter: str = "\t"
    timestamp_format: str = "epoch"  # "epoch" | "iso8601"
    blacklist: Tuple[str, ...] = DEFAULT_BLACKLIST
    sample_fraction: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        if not isinstance(self.path, (str, os.PathLike)):
            raise ConfigError(f"path must be a string or os.PathLike, got {self.path!r}")
        # a negative position counts from the row's end, so it can name the
        # same field as a distinct non-negative one
        if not (isinstance(self.columns, (list, tuple)) and len(self.columns) == 4
                and all(is_integer(c) and c >= 0 for c in self.columns) and len(set(self.columns)) == 4):
            raise ConfigError(f"columns must be four distinct non-negative integers, got {self.columns!r}")
        if not (isinstance(self.delimiter, str) and self.delimiter):
            raise ConfigError(f"delimiter must be a non-empty string, got {self.delimiter!r}")
        if self.timestamp_format not in ("epoch", "iso8601"):
            raise ConfigError(f"unknown timestamp_format: {self.timestamp_format!r}")
        blacklist = () if self.blacklist is None else self.blacklist
        if not (isinstance(blacklist, (list, tuple)) and all(isinstance(p, str) for p in blacklist)):
            raise ConfigError(f"blacklist must be a list of strings or null, got {blacklist!r}")
        _check_sample(self.sample_fraction, self.seed)
        object.__setattr__(self, "columns", tuple(self.columns))
        object.__setattr__(self, "blacklist", tuple(blacklist))


@dataclass
class ParseResult:
    assignments: List[Assignment]
    vocab: Vocab
    data_rows: int
    malformed: List[Tuple[int, str]] = field(default_factory=list)


def _parse_iso8601(raw: str) -> int:
    """Seconds since the epoch of an ISO-8601 time; a trailing Z or no zone means UTC."""
    # imported here, so a dump with epoch timestamps never loads datetime
    from datetime import datetime, timezone

    text = raw.strip()
    if text.endswith(("Z", "z")):
        text = text[:-1] + "+00:00"
    dt = datetime.fromisoformat(text)
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return math.floor(dt.timestamp())


def _parse_epoch(raw: str) -> int:
    """Seconds since the epoch of a number: integer text exactly, any other number floored.

    Integer text is read as an int, so a value past 2**53 keeps its last
    digits; other text is read through a float and floored to whole seconds,
    so -0.5 is before the epoch.
    """
    try:
        return int(raw)
    except ValueError:
        return math.floor(float(raw))


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
    column mapping is almost certainly wrong and a FormatError naming the
    file and its first malformed line is raised, as it is for a file that is
    not UTF-8 text. A leading UTF-8 byte-order mark is not part of line 1.
    """
    vocab = Vocab()
    assignments: List[Assignment] = []
    malformed: List[Tuple[int, str]] = []
    data_rows = 0
    cu, ci, ct, cts = spec.columns
    needed = max(spec.columns) + 1
    delimiter = spec.delimiter
    epoch = spec.timestamp_format == "epoch"
    # a snapshot is TAB-delimited and starts each row with the user label, so
    # a label holding a TAB, or a user label starting with '#', could not be
    # reloaded; neither can occur in the default layout, which skips the checks
    check_tabs = delimiter != "\t"
    check_user_hash = cu != 0
    user_id, intern_user = vocab.users.lookup(), vocab.users.intern
    item_id, intern_item = vocab.items.lookup(), vocab.items.intern
    tag_id, intern_tag = vocab.tags.lookup(), vocab.tags.intern
    add = assignments.append
    ts, ts_text = 0, None  # ts was parsed from ts_text

    try:
        with open(spec.path, "r", encoding="utf-8-sig") as fh:
            for lineno, line in enumerate(fh, start=1):
                stripped = line.strip()
                if not stripped or stripped.startswith("#"):
                    continue
                data_rows += 1
                fields = line.rstrip("\n").split(delimiter)
                if len(fields) < needed:
                    malformed.append((lineno, f"expected at least {needed} columns, got {len(fields)}"))
                    continue
                user = fields[cu].strip()
                item = fields[ci].strip()
                tag = fields[ct].strip().lower()  # tags are case-folded before interning
                if not user or not item or not tag:
                    malformed.append((lineno, "empty user, item or tag field"))
                    continue
                if check_tabs and ("\t" in user or "\t" in item or "\t" in tag):
                    malformed.append((lineno, "TAB inside a user, item or tag label"))
                    continue
                if check_user_hash and user.startswith("#"):
                    malformed.append((lineno, "user label starts with '#'"))
                    continue
                raw_ts = fields[cts]
                # the rows of one post mostly repeat their timestamp text: reuse the
                # last value parsed without error, so those rows share one int
                if raw_ts != ts_text:
                    try:
                        parsed_ts = _parse_epoch(raw_ts) if epoch else _parse_iso8601(raw_ts)
                        if parsed_ts < 0:
                            raise ValueError("timestamp before epoch")
                        if parsed_ts > MAX_TIMESTAMP:
                            raise ValueError("timestamp past 2**63 - 1 seconds")
                    except (ValueError, OverflowError) as exc:
                        malformed.append((lineno, f"bad timestamp {raw_ts!r}: {exc}"))
                        continue
                    ts, ts_text = parsed_ts, raw_ts
                u = user_id(user)
                if u is None:
                    u = intern_user(user)
                i = item_id(item)
                if i is None:
                    i = intern_item(item)
                t = tag_id(tag)
                if t is None:
                    t = intern_tag(tag)
                add((u, i, t, ts))
    except UnicodeDecodeError:
        raise FormatError(f"{spec.path} line {_first_non_utf8_line(spec.path)} is not UTF-8 text") from None

    if data_rows and len(malformed) * 2 > data_rows:
        line, reason = malformed[0]
        raise FormatError(
            f"{spec.path}: {len(malformed)} of {data_rows} rows malformed, the first at line {line}: {reason}; "
            "check the column mapping and delimiter"
        )
    return ParseResult(assignments, vocab, data_rows, malformed)


def filter_blacklisted_tags(
    assignments: Sequence[Assignment],
    patterns: Sequence[str],
    vocab: Vocab,
) -> List[Assignment]:
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
    return [row for row in assignments if row[2] not in banned]


def _check_sample(fraction: float, seed: int) -> None:
    """The rules for the user sample's settings, in ``DatasetSpec`` and in ``sample_users``."""
    if not (is_number(fraction) and 0.0 < fraction <= 1.0):
        raise ConfigError(f"sample_fraction must be a number in (0, 1], got {fraction!r}")
    if not is_integer(seed):
        raise ConfigError(f"seed must be an integer, got {seed!r}")


def _drawn_users(users: Iterable[int], fraction: float, seed: int) -> Optional[Set[int]]:
    """ceil(fraction * |U|) of the distinct ``users``, at least one, drawn uniformly without replacement.

    The draw runs over the users in ascending id order, so it depends on the
    user set and the seed alone. None at fraction 1.0, where every user is
    kept and ``users`` is not read.
    """
    _check_sample(fraction, seed)
    if fraction == 1.0:
        return None
    ordered = sorted(set(users))
    # round() guards against IEEE artifacts like 0.1 * 100 = 10.000000000000002
    keep = min(len(ordered), max(1, math.ceil(round(fraction * len(ordered), 9))))
    return set(random.Random(seed).sample(ordered, keep))


def sample_users(folksonomy: Folksonomy, fraction: float, seed: int) -> Folksonomy:
    """Keep ceil(fraction * |U|) users, at least one, drawn uniformly without replacement."""
    drawn = _drawn_users(folksonomy.user, fraction, seed)
    if drawn is None:
        return folksonomy
    return folksonomy.select([user in drawn for user in folksonomy.user])


def remove_unique_resources(folksonomy: Folksonomy) -> Folksonomy:
    """Drop every item bookmarked by exactly one user, in a single pass.

    Deliberately not iterated to a fixpoint: users whose post count drops to
    one stay in, and items whose tagger count drops to one because of user
    sampling upstream are judged on the counts seen here, once.
    """
    taggers = Counter(folksonomy.item)  # one post per (user, item)
    keep = [taggers[item] > 1 for item in folksonomy.item]
    if not any(keep):
        raise EmptyDatasetError("no items with more than one tagger; nothing left after filtering")
    return folksonomy.select(keep)


def run_pipeline(spec: DatasetSpec) -> Tuple[Folksonomy, ParseResult]:
    """parse -> blacklist filter -> user sampling -> grouping -> unique-resource removal.

    The sample is drawn over the users with a kept row, who are exactly the
    users with a post once grouped, so only the sampled users' rows are
    grouped; the result equals the one the public steps give. No step builds
    an index.
    """
    parsed = parse(spec)
    kept = filter_blacklisted_tags(parsed.assignments, spec.blacklist, parsed.vocab)
    if not kept:
        raise EmptyDatasetError(f"no usable tag assignments in {spec.path}")
    drawn = _drawn_users(map(itemgetter(0), kept), spec.sample_fraction, spec.seed)
    if drawn is not None:
        kept = [row for row in kept if row[0] in drawn]
    return remove_unique_resources(build_folksonomy(kept, parsed.vocab)), parsed


def write_snapshot(folksonomy: Folksonomy, path: str | Path) -> None:
    """Write the canonical snapshot: stats header plus label rows in sorted order.

    The snapshot re-parses with the default DatasetSpec column mapping, so
    downstream stages load it with :func:`load_snapshot`.
    """
    rows = folksonomy.label_rows()  # caches the fingerprint the header needs
    header = (_SNAPSHOT_HEADER, f"{_FINGERPRINT_PREFIX}{folksonomy.fingerprint()}", f"# {folksonomy.stats().line()}")
    write_lines(path, chain(header, rows))


def _written_fingerprint(path: str | Path) -> Optional[str]:
    """The ``# fingerprint=`` header of a file that starts like a snapshot, else None.

    A snapshot header not followed by a fingerprint line is a FormatError:
    without one, a damaged snapshot would load unchecked.
    """
    with open(path, "r", encoding="utf-8-sig") as fh:
        if fh.readline() != _SNAPSHOT_HEADER + "\n":
            return None
        line = fh.readline()
    if not line.startswith(_FINGERPRINT_PREFIX):
        raise FormatError(f"snapshot {path} has no {_FINGERPRINT_PREFIX!r} line after its header")
    return line[len(_FINGERPRINT_PREFIX) :].rstrip("\n")


def load_snapshot(path: str | Path) -> Folksonomy:
    """Load a snapshot (or any default-format dump) without re-filtering.

    Every data row must parse: a malformed one is a FormatError naming its
    line. A snapshot must hold what its ``# fingerprint=`` header says: a
    truncated or edited one is a FormatError, as is one whose
    ``# folkrec snapshot v1`` line is not followed by a fingerprint line. The
    checked digest stays cached as the folksonomy's fingerprint. A dump
    without the snapshot header skips the fingerprint check.
    """
    parsed = parse(DatasetSpec(path=path, blacklist=()))
    if parsed.malformed:
        line, reason = parsed.malformed[0]
        raise FormatError(f"snapshot {path} line {line} is malformed: {reason}")
    if not parsed.assignments:
        raise EmptyDatasetError(f"snapshot {path} holds no assignments")
    folksonomy = build_folksonomy(parsed.assignments, parsed.vocab)
    del parsed  # free the rows before the fingerprint's label rows are built
    written = _written_fingerprint(path)
    if written is not None and folksonomy.fingerprint() != written:
        raise FormatError(
            f"snapshot {path} does not match its header: fingerprint {folksonomy.fingerprint()} "
            f"!= {written}; the file was truncated or edited"
        )
    return folksonomy
