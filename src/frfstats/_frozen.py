"""How a value record holds an array its caller gave it."""

from __future__ import annotations

import numpy as np


def hold(record, name: str, dtype=float) -> np.ndarray:
    """Replace field `name` of the frozen `record` by a read-only copy.

    The copy is always taken, so the caller's array stays writeable and
    later writes into it never reach the record.  Returns the copy.
    """
    arr = np.array(getattr(record, name), dtype=dtype)
    arr.setflags(write=False)
    object.__setattr__(record, name, arr)
    return arr
