"""The stream layout's fixed-seed fingerprint.

For seeds 0-4 on the two bench grids (T=440 with N=20, T=90 with N=200),
at B=200 and Bs=20, `tests/layout_fingerprint.json` holds the sha256 of
every record's index arrays and the integer outcomes (the minimal band's
alpha numerator, the density ranks, `reject_null`, the class of any
refusal), and the float results (band scale, C_p, C_u, the density's
`cdf_mean` and `pdf_mean`), compared at rtol 1e-12: those go through BLAS
and SIMD sums that may differ across CPUs, while draws and integer
outcomes do not for a fixed numpy version.

The fixture names the `STREAM_LAYOUT` it was made under.  A change that
moves any draw bumps the layout and regenerates the fixture in the same
diff, by hand only:

    PYTHONPATH=src python tests/test_layout.py
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from frfstats import (
    FRF,
    BootstrapConfig,
    FrfStatsError,
    SyntheticSpec,
    bootstrap_deviation_stats,
    compare_unpaired,
    derive_grid,
    estimate_density,
    generate_synthetic,
    lowpass_mean_frf,
    minimal_prediction_band,
    prediction_band,
)
from frfstats.resampling import STREAM_LAYOUT

from support import EXPERIMENT_FREQS

FIXTURE = Path(__file__).with_name("layout_fingerprint.json")
SETS = {"T440_N20": (22.0, 20), "T90_N200": (4.5, 200)}
SEEDS = range(5)
B, BS = 200, 20
ALPHA = 0.95
NOISE = 0.1
GAIN = 1.3
RTOL = 1e-12
CASES = [(s, seed) for s in SETS for seed in SEEDS]


def _sha256(*arrays) -> str:
    """Digest of the arrays' shapes and values, whatever their index type."""
    h = hashlib.sha256()
    for a in arrays:
        a = np.asarray(a)
        h.update(repr(a.shape).encode())
        h.update(np.ascontiguousarray(a, dtype="<i8").tobytes())
    return h.hexdigest()


def fingerprint(set_name: str, seed: int) -> dict:
    """The exact and float fingerprint of every bootstrap on one set."""
    rate, n = SETS[set_name]
    grid = derive_grid(EXPERIMENT_FREQS, rate)
    mean = lowpass_mean_frf(grid)

    def draw(count, sub, gain=1.0):
        spec = SyntheticSpec(mean_frf=mean, noise_std=NOISE, n=count, gain_factor=gain)
        return generate_synthetic(spec, seed=10 * seed + sub)

    controls, effect = draw(n, 0), draw(n, 1, GAIN)
    test = FRF(draw(1, 2).values[0])
    cfg = BootstrapConfig(replications=B, nested_replications=BS, seed=seed)
    exact, floats = {}, {}

    def band():
        draws = bootstrap_deviation_stats(controls, grid, cfg)
        exact["band_indices"] = _sha256(draws.indices)
        floats["band_scale"] = prediction_band(controls, grid, ALPHA, cfg).scale

    def minband():
        mb = minimal_prediction_band(test, controls, grid, cfg)
        exact["minband_alpha_numerator"] = round(mb.alpha * mb.stat_ecdf.pool.size)
        floats["minband_C_p"] = mb.band.scale

    def density(metric):
        def run():
            d = estimate_density(test, controls, grid, cfg, metric=metric)
            exact[f"density_{metric}_ranks"] = _sha256(np.rint(d.cdf_stats * n))
            floats[f"density_{metric}_cdf_mean"] = d.cdf_mean
            floats[f"density_{metric}_pdf_mean"] = d.pdf_mean
        return run

    def compare():
        r = compare_unpaired(controls, effect, grid, ALPHA, cfg)
        d = r.draws
        exact["compare_indices"] = _sha256(d.sigma_indices1, d.sigma_indices2,
                                           d.outer_indices1, d.outer_indices2)
        exact["compare_reject_null"] = r.reject_null
        floats["compare_C_u"] = r.band.scale

    for name, call in [("band", band), ("minband", minband),
                       ("density_squared", density("squared")),
                       ("density_max", density("max")), ("compare", compare)]:
        try:
            call()
        except FrfStatsError as err:
            exact[name] = f"refused:{type(err).__name__}"
    return {"exact": exact, "floats": floats}


def _case_id(set_name: str, seed: int) -> str:
    return f"{set_name}/seed{seed}"


@pytest.fixture(scope="module")
def recorded():
    return json.loads(FIXTURE.read_text())


def test_fixture_names_the_current_layout(recorded):
    assert recorded["STREAM_LAYOUT"] == STREAM_LAYOUT
    assert sorted(recorded["cases"]) == sorted(_case_id(*c) for c in CASES)


@pytest.mark.parametrize("set_name, seed", CASES)
def test_fixed_seed_results_match_the_fingerprint(recorded, set_name, seed):
    want = recorded["cases"][_case_id(set_name, seed)]
    got = fingerprint(set_name, seed)
    assert got["exact"] == want["exact"]
    assert got["floats"].keys() == want["floats"].keys()
    for name, value in want["floats"].items():
        assert got["floats"][name] == pytest.approx(value, rel=RTOL, abs=0.0), name


def regenerate() -> None:
    """Rewrite the fixture from the current code, under the current layout."""
    cases = {_case_id(*c): fingerprint(*c) for c in CASES}
    doc = {"STREAM_LAYOUT": STREAM_LAYOUT, "numpy": np.__version__,
           "B": B, "Bs": BS, "cases": cases}
    FIXTURE.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    regenerate()
