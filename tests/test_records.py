"""Tests for how the records hold their arrays, derive fields and compare."""

import importlib
import json
import pkgutil
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

import frfstats
from frfstats import (
    FRF,
    PIR,
    Band,
    BootstrapConfig,
    FRFSet,
    FrequencyGrid,
    StatEcdf,
    SyntheticSpec,
    bootstrap_deviation_stats,
    compare_unpaired,
    estimate_density,
    derive_grid,
    frf_from_pir,
    generate_synthetic,
    lowpass_mean_frf,
    minimal_prediction_band,
)
from frfstats.cli import main

GRID = FrequencyGrid([0.3, 0.5])

# Each value record: how to build it from writeable arrays, the arrays it
# is built from, and the field that holds each of them.
VALUE_RECORDS = {
    "FrequencyGrid": (FrequencyGrid, [[0.3, 0.5]], ["frequencies"]),
    "FRF": (FRF, [[1 + 1j, 2 - 1j]], ["values"]),
    "FRFSet": (FRFSet, [[[1 + 1j, 2 - 1j], [0.5j, 1.0]]], ["values"]),
    "PIR": (lambda v: PIR(v, GRID), [np.zeros(GRID.n_samples)], ["values"]),
    "Band": (
        lambda m, s: Band(m, s, scale=2.0, alpha=0.5),
        [[0.0, 1.0], [1.0, 2.0]],
        ["mean", "std"],
    ),
    "StatEcdf": (StatEcdf, [[0.0, 1.0, 2.0]], ["pool"]),
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
    ],
    ids=["band-scale", "band-std"],
)
def test_nan_spread_is_refused(make):
    with pytest.raises(ValueError, match="must be non-negative"):
        make()


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: Band(np.zeros(3), np.ones(2), scale=1.0, alpha=0.5),
         "mean and std must be 1-D vectors of equal length"),
        (lambda: Band(np.zeros((1, 3)), np.ones((1, 3)), scale=1.0, alpha=0.5),
         "mean and std must be 1-D vectors of equal length"),
        (lambda: Band(np.zeros(3), np.ones(3), scale=1.0, alpha=1.5), "alpha must lie in [0, 1]"),
        (lambda: Band(np.zeros(3), np.ones(3), scale=1.0, alpha=-0.1), "alpha must lie in [0, 1]"),
        (lambda: FRF(np.ones((2, 2))), "FRF values must be a non-empty 1-D vector"),
        (lambda: FRF(np.array([])), "FRF values must be a non-empty 1-D vector"),
        (lambda: FRFSet(np.ones(3)), "FRF set must be a non-empty 2-D array (N, M)"),
        (lambda: FRFSet(np.ones((0, 3))), "FRF set must be a non-empty 2-D array (N, M)"),
        (lambda: PIR(np.full(GRID.n_samples, np.nan), GRID), "PIR values must be finite"),
        (lambda: SyntheticSpec(np.array([1.0, np.inf]), noise_std=0.1, n=2),
         "mean_frf must be finite"),
    ],
    ids=["band-unequal", "band-2d", "band-alpha-high", "band-alpha-low", "frf-2d", "frf-empty",
         "set-1d", "set-empty", "pir-nan", "spec-inf"],
)
def test_records_refuse_malformed_values(make, message):
    with pytest.raises(ValueError) as err:
        make()
    assert str(err.value) == message


CFG = BootstrapConfig(replications=40, nested_replications=6, seed=3)


def _group(seed, shift=0.0, n=20):
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal((n, GRID.m)) + 1j * rng.standard_normal((n, GRID.m))
    return FRFSet(1.0 + shift + 0.5 * noise)


@pytest.fixture(scope="module")
def results():
    group = _group(1)
    test = FRF(group.values.mean(axis=0) + 0.4)
    return {
        "draws": bootstrap_deviation_stats(group, GRID, CFG),
        "minimal": minimal_prediction_band(test, group, GRID, CFG),
        "density": estimate_density(test, group, GRID, CFG),
        "comparison": compare_unpaired(group, _group(2, shift=1.0), GRID, 0.9, CFG),
    }


def test_result_records_are_read_only(results):
    comparison = results["comparison"]
    records = [
        results["draws"],
        results["minimal"].band,
        results["density"],
        comparison,
        comparison.draws,
        comparison.band,
    ]
    for record in records:
        arrays = {k: v for k, v in vars(record).items() if isinstance(v, np.ndarray)}
        assert arrays
        for name, arr in arrays.items():
            assert not arr.flags.writeable, f"{type(record).__name__}.{name}"


def test_result_records_agree_with_their_inputs(results):
    comparison = results["comparison"]
    assert comparison.diff_mean is comparison.band.mean
    assert comparison.sigma is comparison.band.std
    assert comparison.reject_null
    assert comparison.reject_null == bool(np.any(comparison.residuals != 0.0))
    expected = frf_from_pir(PIR(comparison.residuals, GRID)).values
    np.testing.assert_array_equal(comparison.residual_frf.values, expected)

    density = results["density"]
    kept = density.pdf_stats[~np.isnan(density.pdf_stats)]
    assert density.cdf_mean == float(density.cdf_stats.mean())
    assert density.cdf_std == float(density.cdf_stats.std(ddof=1))
    assert density.pdf_mean == float(kept.mean())
    assert density.pdf_std == float(kept.std(ddof=1))

    minimal = results["minimal"]
    assert minimal.alpha == minimal.band.alpha


def test_only_the_frozen_helper_sets_record_fields():
    # Every computed field goes through frfstats._frozen (fix or hold), so
    # no other module writes a frozen field or a writeable flag itself.
    package = Path(__file__).parents[1] / "src" / "frfstats"
    offenders = [
        f"{path.name}:{lineno}"
        for path in sorted(package.glob("*.py"))
        if path.name != "_frozen.py"
        for lineno, line in enumerate(path.read_text().splitlines(), start=1)
        if "setflags(" in line or "object.__setattr__(" in line
    ]
    assert offenders == []


def test_only_bands_memoises():
    # The band bootstrap's one held pool, the module slot `_LAST`, is the
    # library's only memo of results; an unbounded cache elsewhere would
    # hold results past their inputs.
    package = Path(__file__).parents[1] / "src" / "frfstats"
    memo = re.compile(r"weakref|lru_cache|functools\.cache|from functools import .*\bcache\b"
                      r"|^_LAST\b", re.MULTILINE)
    users = sorted(path.name for path in package.glob("*.py") if memo.search(path.read_text()))
    assert users == ["bands.py"]


def test_only_bands_names_the_band_bootstrap():
    # The band bootstrap's loop, record and pool have one home; other
    # modules reach them through `bootstrap_deviation_stats` and the
    # density's ranking call.
    package = Path(__file__).parents[1] / "src" / "frfstats"
    internal = re.compile(r"\b(_LAST|_band_pool|_checked_stats|_squared_ranked|_replicates"
                          r"|_replayed|_blocks|_resample_rows|_Pool|_pool)\b")
    users = sorted(path.name for path in package.glob("*.py") if internal.search(path.read_text()))
    assert users == ["bands.py"]


def test_public_surface_is_pinned():
    # A public name is added or removed on purpose, by editing this list.
    assert sorted(frfstats.__all__) == [
        "Band", "BandContainment", "BootstrapConfig", "ComparisonResult", "Dataset",
        "DegenerateSpread", "DensityEstimate", "DifferenceDraws", "FRF", "FRFSet",
        "FrequencyGrid", "FrfStatsError", "GridError", "GridMismatch", "IndexStreams",
        "MinimalBand", "NonCommensurableFrequencies", "NyquistViolation", "PIR",
        "ParseError", "ReplicateDraws", "StatEcdf", "SyntheticSpec", "ZeroSpread",
        "alpha_at", "bootstrap_deviation_stats", "c_at", "compare_unpaired",
        "derive_grid", "ecdf", "estimate_density", "frf_from_pir", "generate_synthetic",
        "load_dataset", "load_frf", "lowpass_mean_frf", "minimal_prediction_band",
        "pir_from_frf", "pir_matrix", "pir_stats", "prediction_band", "residual_frf",
        "residuals", "save_dataset",
    ]
    assert all(hasattr(frfstats, name) for name in frfstats.__all__)


def test_readme_quickstart_finds_a_difference():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("## Library quickstart", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    namespace = {}
    exec(compile(code, "README.md", "exec"), namespace)
    assert namespace["comparison"].reject_null


def test_readme_names_no_private_identifier():
    # The README states what a user can rely on; a private module, function
    # or constant is explained by its own docstring instead.  File-name
    # suffixes such as `_ecdf.csv` are not identifiers.
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    names = {m.name for m in pkgutil.iter_modules(frfstats.__path__)}
    modules = [frfstats, *(importlib.import_module(f"frfstats.{name}") for name in names)]
    private = {name for name in names if name.startswith("_")} | {
        name for module in modules for name in vars(module)
        if name.startswith("_") and not name.startswith("__")
    }
    named = set(re.findall(r"(?<!\w)_[A-Za-z]\w*(?!\w|\.(?:csv|json))", readme))
    assert not named & private, sorted(named & private)


def test_readme_cli_block_runs(tmp_path, monkeypatch, capsys):
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("## CLI", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.DOTALL).group(1)
    lines = [line for line in block.replace("\\\n", " ").splitlines()
             if line.strip() and not line.lstrip().startswith("#")]
    commands = [shlex.split(line) for line in lines]
    assert all(argv[0] == "frfstats" for argv in commands)
    # The block reads a held-out response it never writes: one more draw
    # of the control group's model, with the next seed.
    spec = SyntheticSpec(mean_frf=lowpass_mean_frf(derive_grid([0.3, 0.5, 1.1])),
                         noise_std=0.1, n=1)
    held_out = generate_synthetic(spec, seed=3).values[0]
    (tmp_path / "held_out.json").write_text(
        json.dumps({"values": [[z.real, z.imag] for z in held_out]}))
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        capsys.readouterr()
        code = main(argv[1:])
        out, err = capsys.readouterr()
        if argv[1] == "density":
            # The density may refuse this response; it must say why.
            assert code == 0 or (code == 3 and "zero-width distance window" in err), err
        else:
            assert code == 0, (argv, err)
        if argv[1] == "compare":
            assert out.startswith("result = reject\n")
    assert [argv[1] for argv in commands] == [
        "synth", "synth", "pir", "band", "minband", "density", "compare"]
