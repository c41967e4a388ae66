"""Exponentials that saturate instead of overflowing."""

from __future__ import annotations

import math

# exp() overflows just above this; used to saturate instead of raising.
_MAX_EXP_ARG = 709.782712893384


def exp_clipped(t: float) -> float:
    """exp(t) that saturates to inf instead of raising OverflowError."""
    if t > _MAX_EXP_ARG:
        return math.inf
    return math.exp(t)
