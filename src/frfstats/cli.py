"""Command-line interface.

Subcommands mirror the library: ``pir`` and ``band`` export curves,
``minband`` and ``density`` score a test FRF against a group, ``compare``
runs the two-group test, and ``synth`` writes synthetic datasets.  All
numeric output uses nine significant digits and repeated invocations with
the same inputs and seed produce byte-identical output.

Exit codes: 0 on success, 2 on validation or parse errors or on a request
too large to hold in memory, 3 when the statistics degenerate (zero spread
in resampled data).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .bands import Band, minimal_prediction_band, prediction_band
from .compare import compare_unpaired
from .dataio import Dataset, load_dataset, load_frf, save_dataset
from .density import METRICS, NUMERATOR_MODES, estimate_density
from .errors import DegenerateSpread, FrfStatsError, ZeroSpread
from .grid import derive_grid
from .pir import pir_matrix
from .resampling import BootstrapConfig, StatEcdf
from .synth import SyntheticSpec, generate_synthetic, lowpass_mean_frf


def _fmt(x: float) -> str:
    return f"{float(x):.9g}"


def _write_columns(path: str, header: list[str], columns: list[np.ndarray]) -> None:
    lines = [",".join(header)]
    # Row by row as Python floats, in `_fmt`'s format: no numpy scalar per
    # cell, and never the whole table as Python floats at once.
    for row in np.column_stack(columns):
        lines.append(",".join([f"{x:.9g}" for x in row.tolist()]))
    Path(path).write_text("\n".join(lines) + "\n")


def _write_band(path: str, times: np.ndarray, band: Band) -> None:
    header = ["t", "mean", "lower", "upper"]
    _write_columns(path, header, [times, band.mean, band.lower, band.upper])


def _write_ecdf(path: str, stat_ecdf: StatEcdf, bins: int) -> None:
    """The pool's CDF on bins + 1 even steps from its minimum to its maximum.

    Each row's alpha is the fraction of the pool below c, and the last row
    is 1.0.
    """
    pool = stat_ecdf.pool
    c = np.linspace(pool[0], pool[-1], bins + 1)
    alpha = np.searchsorted(pool, c, side="left") / pool.size
    alpha[-1] = 1.0
    _write_columns(path, ["c", "alpha"], [c, alpha])


#: The library's bootstrap defaults, which the CLI flags share.
_DEFAULTS = BootstrapConfig()


def _config(args: argparse.Namespace) -> BootstrapConfig:
    return BootstrapConfig(
        replications=args.B,
        nested_replications=getattr(args, "Bs", _DEFAULTS.nested_replications),
        seed=args.seed,
        bins=getattr(args, "bins", _DEFAULTS.bins),
    )


def _cmd_pir(args: argparse.Namespace) -> int:
    dataset = load_dataset(args.data)
    frf_set = dataset.group(args.group)
    if args.sample is not None and not 0 <= args.sample < frf_set.n:
        raise ValueError(
            f"--sample {args.sample} out of range for group "
            f"{args.group!r} with {frf_set.n} samples"
        )
    curves = pir_matrix(frf_set, dataset.grid)
    header = ["t"] + [f"pir_{i}" for i in range(frf_set.n)]
    if args.sample is not None:
        curves, header = curves[args.sample : args.sample + 1], ["t", "pir"]
    _write_columns(args.out, header, [dataset.grid.times, *curves])
    return 0


def _cmd_band(args: argparse.Namespace) -> int:
    dataset = load_dataset(args.data)
    band = prediction_band(dataset.group(args.group), dataset.grid, args.alpha, _config(args))
    _write_band(args.out, dataset.grid.times, band)
    return 0


def _cmd_minband(args: argparse.Namespace) -> int:
    dataset = load_dataset(args.data)
    test = load_frf(args.test)
    cfg = _config(args)
    result = minimal_prediction_band(test, dataset.group(args.group), dataset.grid, cfg)
    print(f"alpha = {_fmt(result.alpha)}")
    print(f"C_p = {_fmt(result.band.scale)}")
    _write_band(f"{args.out}_band.csv", dataset.grid.times, result.band)
    _write_ecdf(f"{args.out}_ecdf.csv", result.stat_ecdf, cfg.bins)
    return 0


def _cmd_density(args: argparse.Namespace) -> int:
    dataset = load_dataset(args.data)
    test = load_frf(args.test)
    estimate = estimate_density(
        test,
        dataset.group(args.group),
        dataset.grid,
        _config(args),
        metric=args.metric,
        numerator_mode=args.numerator,
    )
    print(f"F = {_fmt(estimate.cdf_mean)}")
    print(f"sigma_F = {_fmt(estimate.cdf_std)}")
    print(f"f = {_fmt(estimate.pdf_mean)}")
    print(f"sigma_f = {_fmt(estimate.pdf_std)}")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    dataset = load_dataset(args.data)
    result = compare_unpaired(
        dataset.group(args.group1),
        dataset.group(args.group2),
        dataset.grid,
        args.alpha,
        _config(args),
    )
    print("result = reject" if result.reject_null else "result = accept")
    print(f"C_u = {_fmt(result.band.scale)}")
    times = dataset.grid.times
    _write_band(f"{args.out}_band.csv", times, result.band)
    _write_columns(f"{args.out}_residuals.csv", ["t", "residual"], [times, result.residuals])
    _write_columns(
        f"{args.out}_residual_frf.csv",
        ["freq_hz", "magnitude"],
        [dataset.grid.frequencies, np.abs(result.residual_frf.values)],
    )
    return 0


def _cmd_synth(args: argparse.Namespace) -> int:
    grid = derive_grid(args.freqs, args.rate)
    spec = SyntheticSpec(
        mean_frf=lowpass_mean_frf(grid),
        noise_std=args.noise,
        n=args.n,
        gain_factor=args.gain,
    )
    frf_set = generate_synthetic(spec, seed=args.seed)
    groups = {args.name: frf_set}
    metadata: dict[str, str] = {}
    if args.append:
        existing = load_dataset(args.out)
        if not np.array_equal(existing.grid.frequencies, grid.frequencies) or (
            existing.grid.sample_rate != grid.sample_rate
        ):
            raise ValueError(
                f"{args.out}: existing dataset uses a different grid; "
                "cannot append a group"
            )
        if args.name in existing.groups:
            raise ValueError(f"group {args.name!r} already exists in {args.out}")
        groups = {**existing.groups, **groups}
        metadata = existing.metadata
    save_dataset(Dataset(grid=grid, groups=groups, metadata=metadata), args.out)
    return 0


def _add_bootstrap_flags(parser: argparse.ArgumentParser, nested: bool = False) -> None:
    parser.add_argument(
        "--B", type=int, default=_DEFAULTS.replications, help="bootstrap replications"
    )
    if nested:
        parser.add_argument(
            "--Bs", type=int, default=_DEFAULTS.nested_replications, help="nested replications"
        )
    parser.add_argument("--seed", type=int, default=_DEFAULTS.seed, help="random seed")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="frfstats",
        description="Bootstrap statistics for frequency response functions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pir = sub.add_parser("pir", help="export pseudo impulse response curves")
    pir.add_argument("data")
    pir.add_argument("--group", required=True)
    pir.add_argument("--sample", type=int, default=None, help="sample index (default: all)")
    pir.add_argument("--out", required=True)
    pir.set_defaults(run=_cmd_pir)

    band = sub.add_parser("band", help="prediction band for a group")
    band.add_argument("data")
    band.add_argument("--group", required=True)
    band.add_argument("--alpha", type=float, default=0.95)
    _add_bootstrap_flags(band)
    band.add_argument("--out", required=True)
    band.set_defaults(run=_cmd_band)

    minband = sub.add_parser("minband", help="minimal band containing a test FRF")
    minband.add_argument("data")
    minband.add_argument("--group", required=True)
    minband.add_argument("--test", required=True, help="test FRF file (json or csv)")
    _add_bootstrap_flags(minband)
    minband.add_argument(
        "--bins", type=int, default=_DEFAULTS.bins,
        help="rows of the exported ECDF table, minus one",
    )
    minband.add_argument("--out", required=True, help="output file prefix")
    minband.set_defaults(run=_cmd_minband)

    density = sub.add_parser("density", help="membership CDF/PDF for a test FRF")
    density.add_argument("data")
    density.add_argument("--group", required=True)
    density.add_argument("--test", required=True, help="test FRF file (json or csv)")
    density.add_argument("--metric", choices=list(METRICS), default="squared")
    density.add_argument("--numerator", choices=list(NUMERATOR_MODES), default="code-compatible")
    _add_bootstrap_flags(density)
    density.set_defaults(run=_cmd_density)

    compare = sub.add_parser("compare", help="unpaired two-group comparison")
    compare.add_argument("data")
    compare.add_argument("--group1", required=True)
    compare.add_argument("--group2", required=True)
    compare.add_argument("--alpha", type=float, default=0.95)
    _add_bootstrap_flags(compare, nested=True)
    compare.add_argument("--out", required=True, help="output file prefix")
    compare.set_defaults(run=_cmd_compare)

    synth = sub.add_parser("synth", help="write a synthetic dataset")
    synth.add_argument("--freqs", type=float, nargs="+", required=True)
    synth.add_argument("--rate", type=float, default=None, help="sample rate in Hz")
    synth.add_argument("--n", type=int, required=True, help="number of samples")
    synth.add_argument("--noise", type=float, default=0.0, help="complex noise std")
    synth.add_argument("--gain", type=float, default=1.0, help="mean FRF gain factor")
    synth.add_argument("--name", default="synth", help="group name")
    synth.add_argument("--append", action="store_true", help="add the group to --out")
    synth.add_argument("--seed", type=int, default=0)
    synth.add_argument("--out", required=True)
    synth.set_defaults(run=_cmd_synth)

    return parser


# The parser `main` reads: built on its first call, about 1 ms, and kept.
_PARSER: argparse.ArgumentParser | None = None


def main(argv: list[str] | None = None) -> int:
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    args = _PARSER.parse_args(argv)
    try:
        return args.run(args)
    except (DegenerateSpread, ZeroSpread) as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    except (FrfStatsError, ValueError, MemoryError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except KeyError as err:
        print(f"error: {err.args[0]}", file=sys.stderr)
        return 2
    except FileNotFoundError as err:
        print(f"error: {err.filename}: file not found", file=sys.stderr)
        return 2
    except OSError as err:
        print(f"error: {err.filename}: {err.strerror}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
