"""Small shared numeric helpers."""

from __future__ import annotations

import math
from numbers import Integral

import numpy as np

# Slack added before flooring so that counts like 0.3 * 3000, which lands at
# 899.9999999999999 in floating point, floor to the intended integer.
_FLOOR_GUARD = 1e-9

# Rows per block wherever a pass over the rows of X holds a temporary the width
# of X: the response sum of generate_mlrc, the rows save_dataset formats at a
# time, and pipeline._exact_gram, the one Gram of estimate_subspace's moment
# rows and of default_radius's X B. Each response and written row is computed
# alone, so any size gives it the same bits; the Grams' sums depend on it.
ROW_BLOCK = 4096


def row_blocks(n: int):
    """Slices of ROW_BLOCK consecutive rows that cover range(n) in order."""
    return (slice(first, first + ROW_BLOCK) for first in range(0, n, ROW_BLOCK))


def floor_count(x: float) -> int:
    """Floor a nonnegative float to an integer count, guarding fp dust."""
    return int(math.floor(x + _FLOOR_GUARD))


def ceil_count(x: float) -> int:
    """Ceil a nonnegative float to an integer count, guarding fp dust."""
    return int(math.ceil(x - _FLOOR_GUARD))


def as_readonly(a: np.ndarray) -> np.ndarray:
    """Return a C-contiguous read-only array holding a's values.

    An array that is already C-contiguous, read-only and owns its memory is
    returned as it is, so freezing a fresh array before handing it over holds
    it once. Any other input, including every writable array and every view,
    is copied, so later writes by the caller cannot reach the result.
    """
    if a.flags.c_contiguous and a.flags.owndata and not a.flags.writeable:
        return a
    out = np.array(a, order="C")
    out.setflags(write=False)
    return out


def check_integer(value, name: str, minimum: int) -> None:
    """Reject a value that is not an integer of at least minimum, naming it.
    numpy integers pass; bools and integral floats such as 3.0 do not."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ValueError(f"{name} must be at least {minimum}")


def check_finite(a: np.ndarray, name: str) -> None:
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} contains non-finite entries")
