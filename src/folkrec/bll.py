"""Base-level activation of tags: frequency plus power-law recency decay.

A tag's raw activation for a user is ln(sum over its uses of recency^(-d)),
where recency is the time in seconds between the use and the user's
reference time. Frequent and recently used tags score high; unused time
decays influence along a power law with exponent d. Raw activations are
mapped onto (0, 1] per user and aggregated over an item's tags to estimate
how well the item matches what the user currently cares about.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Dict, Iterable, Mapping, Sequence

from .errors import ConfigError, NoProfileError
from .model import Folksonomy


@dataclass(frozen=True)
class BllParams:
    """decay exponent d > 0; recencies are measured in seconds."""

    d: float = 0.5

    def __post_init__(self) -> None:
        if not self.d > 0.0:
            raise ConfigError(f"decay exponent must be positive, got {self.d}")


def bll_raw(use_timestamps: Sequence[int], t_ref: int, d: float) -> float:
    """ln of the summed power-law recency terms for one tag; may be negative.

    Every use must predate t_ref. Callers never ask about unused tags, so an
    empty list is a contract violation rather than a zero.

    When the summed terms underflow (a large d, old uses), the same quantity
    is computed in the log domain instead, as a log-sum-exp over the
    -d * ln(recency) exponents, so the result stays finite. Sums that do not
    underflow keep the direct computation.
    """
    if not use_timestamps:
        raise ValueError("bll_raw needs at least one use")
    for ts in use_timestamps:
        if ts >= t_ref:
            raise ValueError(f"use at {ts} does not predate t_ref={t_ref}")
    total = math.fsum((t_ref - ts) ** (-d) for ts in use_timestamps)
    if total >= sys.float_info.min:
        return math.log(total)
    exponents = [-d * math.log(t_ref - ts) for ts in use_timestamps]
    top = max(exponents)
    return top + math.log(math.fsum(math.exp(x - top) for x in exponents))


def normalize_profile(raw: Mapping[int, float]) -> Dict[int, float]:
    """Map raw activations onto (0, 1] summing to 1, via a softmax.

    Isolated here so the normalization can be swapped (e.g. for min-max) in
    one place for sensitivity analysis.
    """
    shift = max(raw.values())
    exps = {t: math.exp(v - shift) for t, v in sorted(raw.items())}
    total = math.fsum(exps.values())
    return {t: e / total for t, e in exps.items()}


def build_bll_profile(train: Folksonomy, user: int, t_ref: int, params: BllParams) -> Dict[int, float]:
    """Normalized activation per tag at t_ref, over all the user's training uses."""
    uses = train.tag_use_times(user)
    if not uses:
        raise NoProfileError(f"user {user} has no training tag assignments")
    raw = {tag: bll_raw(times, t_ref, params.d) for tag, times in uses.items()}
    return normalize_profile(raw)


def bll_item(profile: Mapping[int, float], item_tags: Iterable[int]) -> float:
    """Summed profile weight of the item's tags the user has used; 0.0 on no overlap."""
    return math.fsum(profile[t] for t in sorted(item_tags) if t in profile)
