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

from .errors import ConfigError, NoProfileError, is_number
from .model import Folksonomy

# Largest decay exponent. Up to it d * ln(recency) stays finite for any
# recency below e**1e8 seconds; near the float maximum it overflows, and an
# activation below the float range has no finite log.
MAX_D = 1e300


@dataclass(frozen=True)
class BllParams:
    """decay exponent 0 < d <= MAX_D, stored as a float; recencies are measured in seconds."""

    d: float = 0.5

    def __post_init__(self) -> None:
        if not (is_number(self.d) and 0.0 < self.d <= MAX_D):
            raise ConfigError(f"decay exponent must be a number in (0, {MAX_D:g}], got {self.d!r}")
        object.__setattr__(self, "d", float(self.d))


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


def build_bll_profile(train: Folksonomy, user: int, t_ref: int, params: BllParams) -> Dict[int, float]:
    """Activation per tag at t_ref over all the user's training uses, softmaxed to sum to 1.

    The softmax shifts by the largest raw activation, so a profile whose raw
    activations all underflow exp (a large d, old uses) still sums to 1.
    """
    uses = train.tag_use_times(user)
    if not uses:
        raise NoProfileError(f"user {user} has no training tag assignments")
    raw = {tag: bll_raw(times, t_ref, params.d) for tag, times in uses.items()}
    shift = max(raw.values())
    exps = {tag: math.exp(v - shift) for tag, v in raw.items()}
    total = math.fsum(exps.values())
    return {tag: e / total for tag, e in exps.items()}


def bll_item(profile: Mapping[int, float], item_tags: Iterable[int]) -> float:
    """Summed profile weight of the item's tags the user has used; 0.0 on no overlap.

    ``fsum`` rounds the exact sum once, so the order of ``item_tags`` does not matter.
    """
    return math.fsum(profile[t] for t in item_tags if t in profile)
