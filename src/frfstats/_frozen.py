"""How a frozen record sets its fields: the one place that writes them."""

from __future__ import annotations

import numpy as np


def fix(record, **values) -> None:
    """Set fields of the frozen `record`, each ndarray made read-only in place.

    No array is copied: use this for values the record computed itself or
    arrays the library allocated for it, never for a caller's array.
    """
    for name, value in values.items():
        if isinstance(value, np.ndarray):
            value.setflags(write=False)
        object.__setattr__(record, name, value)


def hold(record, name: str, dtype=float) -> np.ndarray:
    """Replace field `name` of the frozen `record` by a read-only copy.

    The copy is always taken, so the caller's array stays writeable and
    later writes into it never reach the record.  Returns the copy.
    """
    arr = np.array(getattr(record, name), dtype=dtype)
    fix(record, **{name: arr})
    return arr
