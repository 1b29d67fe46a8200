"""Tests for how the records hold their arrays and compare."""

import re
from pathlib import Path

import numpy as np
import pytest

from frfstats import (
    FRF,
    PIR,
    Band,
    BootstrapConfig,
    FRFSet,
    FrequencyGrid,
    PirStats,
    StatEcdf,
    SyntheticSpec,
)

GRID = FrequencyGrid([0.3, 0.5])

# Each value record: how to build it from writeable arrays, the arrays it
# is built from, and the field that holds each of them.
VALUE_RECORDS = {
    "FrequencyGrid": (FrequencyGrid, [[0.3, 0.5]], ["frequencies"]),
    "FRF": (FRF, [[1 + 1j, 2 - 1j]], ["values"]),
    "FRFSet": (FRFSet, [[[1 + 1j, 2 - 1j], [0.5j, 1.0]]], ["values"]),
    "PIR": (lambda v: PIR(v, GRID), [np.zeros(GRID.n_samples)], ["values"]),
    "PirStats": (PirStats, [[0.0, 1.0], [1.0, 2.0]], ["mean", "std"]),
    "Band": (
        lambda m, s: Band(m, s, scale=2.0, alpha=0.5),
        [[0.0, 1.0], [1.0, 2.0]],
        ["mean", "std"],
    ),
    "StatEcdf": (StatEcdf, [[0.0, 1.0, 2.0], [0.5, 1.0]], ["bin_edges", "cdf"]),
    "SyntheticSpec": (
        lambda m: SyntheticSpec(m, noise_std=0.1, n=3),
        [[1 + 1j, 2 - 1j]],
        ["mean_frf"],
    ),
}


@pytest.mark.parametrize("name", VALUE_RECORDS)
def test_value_records_own_their_arrays(name):
    make, inputs, fields = VALUE_RECORDS[name]
    args = [np.array(a) for a in inputs]
    record = make(*args)
    for arg, field in zip(args, fields):
        held = getattr(record, field)
        before = held.copy()
        assert arg.flags.writeable
        arg += 1
        np.testing.assert_array_equal(getattr(record, field), before)
        assert not held.flags.writeable

    twin = make(*[np.array(a) for a in inputs])
    assert record == record
    assert record != twin
    assert hash(record) == hash(record)
    assert len({record, twin}) == 2


def test_config_keeps_value_equality():
    assert BootstrapConfig() == BootstrapConfig()
    assert hash(BootstrapConfig(seed=3)) == hash(BootstrapConfig(seed=3))


@pytest.mark.parametrize(
    "make",
    [
        lambda: Band(np.zeros(3), np.ones(3), scale=np.nan, alpha=0.5),
        lambda: Band(np.zeros(3), np.array([1.0, np.nan, 1.0]), scale=1.0, alpha=0.5),
        lambda: PirStats(np.zeros(3), np.array([1.0, np.nan, 1.0])),
    ],
    ids=["band-scale", "band-std", "pirstats-std"],
)
def test_nan_spread_is_refused(make):
    with pytest.raises(ValueError, match="must be non-negative"):
        make()


def test_readme_quickstart_finds_a_difference():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("## Library quickstart", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    namespace = {}
    exec(compile(code, "README.md", "exec"), namespace)
    assert namespace["comparison"].reject_null
