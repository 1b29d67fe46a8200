"""Bootstrap statistics for frequency response functions."""

from .bands import (
    Band,
    MinimalBand,
    ReplicateDraws,
    bootstrap_deviation_stats,
    minimal_prediction_band,
    prediction_band,
)
from .compare import (
    ComparisonResult,
    DifferenceDraws,
    compare_unpaired,
    residual_frf,
    residuals,
)
from .dataio import Dataset, load_dataset, load_frf, save_dataset
from .density import DensityEstimate, estimate_density
from .errors import (
    BandContainment,
    DegenerateSpread,
    FrfStatsError,
    GridError,
    GridMismatch,
    NonCommensurableFrequencies,
    NyquistViolation,
    ParseError,
    ZeroSpread,
)
from .grid import FrequencyGrid, derive_grid
from .pir import (
    FRF,
    FRFSet,
    PIR,
    frf_from_pir,
    pir_from_frf,
    pir_matrix,
    pir_stats,
)
from .resampling import (
    BootstrapConfig,
    IndexStreams,
    StatEcdf,
    alpha_at,
    c_at,
    ecdf,
)
from .synth import SyntheticSpec, generate_synthetic, lowpass_mean_frf

__all__ = [
    "Band",
    "BandContainment",
    "BootstrapConfig",
    "ComparisonResult",
    "Dataset",
    "DegenerateSpread",
    "DensityEstimate",
    "DifferenceDraws",
    "FRF",
    "FRFSet",
    "FrequencyGrid",
    "FrfStatsError",
    "GridError",
    "GridMismatch",
    "IndexStreams",
    "MinimalBand",
    "NonCommensurableFrequencies",
    "NyquistViolation",
    "PIR",
    "ParseError",
    "ReplicateDraws",
    "StatEcdf",
    "SyntheticSpec",
    "ZeroSpread",
    "alpha_at",
    "bootstrap_deviation_stats",
    "c_at",
    "compare_unpaired",
    "derive_grid",
    "ecdf",
    "estimate_density",
    "frf_from_pir",
    "generate_synthetic",
    "load_dataset",
    "load_frf",
    "lowpass_mean_frf",
    "minimal_prediction_band",
    "pir_from_frf",
    "pir_matrix",
    "pir_stats",
    "prediction_band",
    "residual_frf",
    "residuals",
    "save_dataset",
]
