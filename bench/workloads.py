"""The benchmark's workloads: set-up, one operation, and its output checks.

Every workload is a closed loop with one client: operation k starts when
operation k-1 has returned, uses bootstrap seed ``seed + k`` and, where a
test response is scored, a fresh held-out response drawn from the
controls' population with ``default_rng([seed, k])``.  Set-up writes the
study through the CLI's ``synth`` command and reads it back, so set-up
runs the grid, CLI and file layers on every workload.

The checks use properties that hold for any resample layout, so the
stream layout may change without breaking them.  `check` returns the
names of failed checks and the numbers that go into the results digest.
"""

from __future__ import annotations

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

import frfstats as fs
import frfstats.cli as fs_cli

# The excitation frequencies of the posture-control experiments.
FREQS = [0.05, 0.15, 0.3, 0.4, 0.55, 0.7, 0.9, 1.1, 1.35, 1.75, 2.2]
NOISE = 0.1
ALPHA = 0.95
EFFECT_GAIN = 1.3

# A minimal band may miss its own test response by a few ulp today: the
# scale does not round-trip through mean - scale * std (ROADMAP item 1).
# Such a miss fails the operation but is reported as that known defect;
# a larger miss is a wrong result.
KNOWN_DEFECT = "minband_contains_test:ulp"
ULP_TOLERANCE = 4

# The refusals the library documents for degenerate resamples (CLI exit 3).
REFUSALS = (fs.ZeroSpread, fs.DegenerateSpread)

# Held-out response index of the warm-up operation, beyond any timed one.
WARM_UP = 10**9


def tolerated(failure: str) -> bool:
    """Failures that fail an operation without making the run incorrect."""
    return failure == KNOWN_DEFECT or failure.startswith("refused:")


class SetupError(RuntimeError):
    """The workload's inputs could not be prepared."""


def _synth(out: Path, *, n: int, rate: float, seed: int, name: str,
           gain: float = 1.0, append: bool = False) -> None:
    argv = ["synth", "--freqs", *map(str, FREQS), "--rate", str(rate),
            "--n", str(n), "--noise", str(NOISE), "--gain", str(gain),
            "--seed", str(seed), "--name", name, "--out", str(out)]
    if append:
        argv.append("--append")
    code = fs_cli.main(argv)
    if code != 0:
        raise SetupError(f"frfstats synth exited {code} for group {name!r}")


def _attempt(call, *args, **kwargs):
    """Run one library call; a documented refusal becomes its result."""
    try:
        return call(*args, **kwargs)
    except REFUSALS as err:
        return err


def _close(actual, expected) -> bool:
    expected = np.asarray(expected)
    scale = max(float(np.max(np.abs(expected))), 1.0)
    return bool(np.allclose(actual, expected, rtol=1e-9, atol=1e-12 * scale))


class Workload:
    """A workload: `setup(workdir, tracer)` builds the shared inputs,
    `prepare(k)` makes operation k's own input outside the timed region,
    `run(k, input, tracer)` is the timed operation, and
    `check(k, input, output)` returns (failed checks, digest fields).
    `tracer` is None in untraced runs.  `nominal_op_s` is the wall time of
    one operation, with its share of the reference and set-up work the run
    does between operations, on a 2-core x86-64 host; it sets how many
    operations a run makes."""

    name = ""

    def __init__(self, seed: int) -> None:
        self.seed = seed

    @staticmethod
    def failure(err: Exception) -> str:
        """Failure name of an operation that raised `err`."""
        kind = "refused" if isinstance(err, REFUSALS) else "raised"
        return f"{kind}:{type(err).__name__}"

    def held_out(self, k: int) -> fs.FRF:
        """Fresh test response k from the controls' population."""
        rng = np.random.default_rng([self.seed, k])
        mean = fs.lowpass_mean_frf(self.grid)
        noise = rng.standard_normal(mean.size) + 1j * rng.standard_normal(mean.size)
        return fs.FRF(mean + NOISE * noise)


class Score(Workload):
    """One patient scored against controls: minimal band, density, band."""

    name = "score"
    nominal_op_s = 0.4

    def __init__(self, seed: int, smoke: bool) -> None:
        super().__init__(seed)
        self.params = {"rate_hz": 22.0, "n": 20, "B": 20 if smoke else 1000,
                       "bins": 1000, "alpha": ALPHA, "metric": "squared",
                       "noise": NOISE}

    def setup(self, workdir: Path, tracer) -> None:
        p = self.params
        self.grid = fs.derive_grid(FREQS, p["rate_hz"])
        study = workdir / "study.csv"
        _synth(study, n=p["n"], rate=p["rate_hz"], seed=10 * self.seed, name="control")
        self.controls = fs.load_dataset(study).group("control")
        warm_up = fs.BootstrapConfig(replications=20, seed=self.seed)
        self._score(self.held_out(WARM_UP), warm_up, tracer)

    def prepare(self, k: int) -> fs.FRF:
        return self.held_out(k)

    def run(self, k: int, test: fs.FRF, tracer):
        cfg = fs.BootstrapConfig(replications=self.params["B"], seed=self.seed + k,
                                 bins=self.params["bins"])
        return self._score(test, cfg, tracer)

    def _score(self, test, cfg, tracer):
        # Each call runs even when an earlier one refused, so every
        # operation does the same work.
        streams = tracer.streams(cfg.seed) if tracer else None
        minimal = _attempt(fs.minimal_prediction_band, test, self.controls, self.grid, cfg,
                           streams=streams)
        density = _attempt(fs.estimate_density, test, self.controls, self.grid, cfg,
                           metric="squared", streams=streams)
        band = _attempt(fs.prediction_band, self.controls, self.grid, ALPHA, cfg,
                        streams=streams)
        return minimal, density, band

    def check(self, k: int, test: fs.FRF, out):
        minimal, density, band = out
        fails = [self.failure(r) for r in out if isinstance(r, Exception)]
        fields = {}
        x = fs.pir_from_frf(test, self.grid).values
        if not _close(fs.frf_from_pir(fs.PIR(x, self.grid)).values, test.values):
            fails.append("pir_roundtrip")
        if isinstance(minimal, Exception):
            fields["minband"] = type(minimal).__name__
        else:
            mb = minimal.band
            excess = np.maximum(mb.lower - x, x - mb.upper)
            outside = excess > 0.0
            if np.any(outside):
                magnitude = np.maximum(np.abs(mb.mean), mb.scale * mb.std)[outside]
                if np.all(excess[outside] <= ULP_TOLERANCE * np.spacing(magnitude)):
                    fails.append(KNOWN_DEFECT)
                else:
                    fails.append("minband_contains_test")
            if not 0.0 <= minimal.alpha <= 1.0:
                fails.append("minband_alpha_range")
            fields.update(alpha=minimal.alpha, C_p=mb.scale)
        if isinstance(density, Exception):
            fields["density"] = type(density).__name__
        else:
            if not 0.0 <= density.cdf_mean <= 1.0:
                fails.append("density_cdf_range")
            if not (np.isfinite(density.pdf_mean) and np.isfinite(density.pdf_std)):
                fails.append("density_pdf_finite")
            fields["F"] = density.cdf_mean
        if isinstance(band, Exception):
            fields["band"] = type(band).__name__
        else:
            if not (np.isfinite(band.scale) and band.scale > 0.0):
                fails.append("band_scale")
            fields["C"] = band.scale
        return fails, fields


class Compare(Workload):
    """Unpaired comparison; operations alternate an effect and a null pair."""

    name = "compare"
    nominal_op_s = 5.5

    def __init__(self, seed: int, smoke: bool) -> None:
        super().__init__(seed)
        self.params = {"rate_hz": 22.0, "n": 20, "B": 40 if smoke else 1000,
                       "Bs": 10 if smoke else 50, "alpha": ALPHA,
                       "effect_gain": EFFECT_GAIN, "null_gain": 1.0, "noise": NOISE}

    def setup(self, workdir: Path, tracer) -> None:
        p = self.params
        self.grid = fs.derive_grid(FREQS, p["rate_hz"])
        study = workdir / "study.csv"
        _synth(study, n=p["n"], rate=p["rate_hz"], seed=10 * self.seed, name="control")
        _synth(study, n=p["n"], rate=p["rate_hz"], seed=10 * self.seed + 1,
               name="effect", gain=p["effect_gain"], append=True)
        _synth(study, n=p["n"], rate=p["rate_hz"], seed=10 * self.seed + 2,
               name="null", gain=p["null_gain"], append=True)
        self.groups = fs.load_dataset(study).groups
        self.pirs = {name: fs.pir_matrix(g, self.grid) for name, g in self.groups.items()}
        cfg = fs.BootstrapConfig(replications=20, nested_replications=5, seed=self.seed)
        self._compare("effect", cfg, tracer)

    def prepare(self, k: int) -> str:
        return "effect" if k % 2 == 0 else "null"

    def run(self, k: int, other: str, tracer):
        p = self.params
        cfg = fs.BootstrapConfig(replications=p["B"], nested_replications=p["Bs"],
                                 seed=self.seed + k)
        return self._compare(other, cfg, tracer)

    def _compare(self, other, cfg, tracer):
        streams = tracer.streams(cfg.seed) if tracer else None
        return fs.compare_unpaired(self.groups["control"], self.groups[other],
                                   self.grid, ALPHA, cfg, streams=streams)

    def check(self, k: int, other: str, result):
        fails = []
        direct = self.pirs["control"].mean(axis=0) - self.pirs[other].mean(axis=0)
        if not _close(result.diff_mean, direct):
            fails.append("compare_diff_mean")
        band = result.band
        straddles = (band.lower <= 0.0) & (band.upper >= 0.0)
        if np.any(result.residuals[straddles] != 0.0):
            fails.append("compare_residual_straddle")
        expected = fs.frf_from_pir(fs.PIR(result.residuals, self.grid)).values
        if not _close(result.residual_frf.values, expected):
            fails.append("compare_residual_frf")
        if other == "effect" and not result.reject_null:
            fails.append("compare_effect_rejects")
        if not (np.isfinite(band.scale) and band.scale > 0.0):
            fails.append("compare_scale")
        return fails, {"C_u": band.scale, "reject": result.reject_null}


def _table(path: Path) -> tuple[list[str], int]:
    lines = path.read_text().splitlines()
    return lines[0].split(","), len(lines) - 1


def _stdout_values(text: str) -> dict[str, str]:
    pairs = (line.partition(" = ") for line in text.splitlines())
    return {key: value for key, sep, value in pairs if sep}


class CohortCli(Workload):
    """A large cohort driven through the CLI, in process, from one CSV file."""

    name = "cohort-cli"
    nominal_op_s = 1.8
    BAND = ["t", "mean", "lower", "upper"]

    def __init__(self, seed: int, smoke: bool) -> None:
        super().__init__(seed)
        self.params = {"rate_hz": 4.5, "n": 200, "B": 20 if smoke else 1000,
                       "compare_B": 20 if smoke else 200, "compare_Bs": 10 if smoke else 20,
                       "bins": 1000, "alpha": ALPHA, "metric": "squared",
                       "patient_gain": EFFECT_GAIN, "noise": NOISE}

    def setup(self, workdir: Path, tracer) -> None:
        p = self.params
        self.workdir = workdir
        self.grid = fs.derive_grid(FREQS, p["rate_hz"])
        self.study = workdir / "study.csv"
        _synth(self.study, n=p["n"], rate=p["rate_hz"], seed=10 * self.seed, name="control")
        _synth(self.study, n=p["n"], rate=p["rate_hz"], seed=10 * self.seed + 1,
               name="patient", gain=p["patient_gain"], append=True)
        dataset = fs.load_dataset(self.study)
        self.n_control = dataset.group("control").n
        outs = self._commands(self.prepare(WARM_UP), self.seed, B=20, compare_B=20, compare_Bs=5)
        failed = [name for name, (code, _, _) in outs.items() if code != 0]
        if failed:
            raise SetupError(f"warm-up CLI commands failed: {failed}")

    def prepare(self, k: int) -> Path:
        test = self.workdir / "test.json"
        values = self.held_out(k).values
        test.write_text(json.dumps({"values": [[z.real, z.imag] for z in values.tolist()]}))
        return test

    def run(self, k: int, test: Path, tracer):
        p = self.params
        return self._commands(test, self.seed + k, B=p["B"], compare_B=p["compare_B"],
                              compare_Bs=p["compare_Bs"])

    def _commands(self, test: Path, seed: int, *, B: int, compare_B: int, compare_Bs: int):
        w, data, s = self.workdir, str(self.study), str(seed)
        boot = ["--B", str(B), "--seed", s]
        argvs = {
            "pir": ["pir", data, "--group", "control", "--out", str(w / "pirs.csv")],
            "band": ["band", data, "--group", "control", "--alpha", str(ALPHA), *boot,
                     "--out", str(w / "band.csv")],
            "minband": ["minband", data, "--group", "control", "--test", str(test), *boot,
                        "--out", str(w / "mb")],
            "density": ["density", data, "--group", "control", "--test", str(test),
                        "--metric", "squared", *boot],
            "compare": ["compare", data, "--group1", "control", "--group2", "patient",
                        "--alpha", str(ALPHA), "--B", str(compare_B), "--Bs", str(compare_Bs),
                        "--seed", s, "--out", str(w / "cmp")],
        }
        outs = {}
        for name, argv in argvs.items():
            stdout, stderr = io.StringIO(), io.StringIO()
            with redirect_stdout(stdout), redirect_stderr(stderr):
                try:
                    code = fs_cli.main(argv)
                except SystemExit as exit_:  # argparse rejected the arguments
                    code = exit_.code
            outs[name] = (code, stdout.getvalue(), stderr.getvalue())
        return outs

    def _expect_tables(self, tables) -> bool:
        return all(_table(self.workdir / f) == (header, rows) for f, header, rows in tables)

    def check(self, k: int, test: Path, outs):
        fails = [f"refused:cli_{name}" if code == 3 else f"cli_{name}_exit"
                 for name, (code, _, _) in outs.items() if code != 0]
        if fails:
            return fails, {name: code for name, (code, _, _) in outs.items()}
        t, m = self.grid.n_samples, self.grid.m
        bins = self.params["bins"]
        values = {name: _stdout_values(out) for name, (_, out, _) in outs.items()}
        expected = {
            "pir": [("pirs.csv", ["t"] + [f"pir_{i}" for i in range(self.n_control)], t)],
            "band": [("band.csv", self.BAND, t)],
            "minband": [("mb_band.csv", self.BAND, t), ("mb_ecdf.csv", ["c", "alpha"], bins + 1)],
            "density": [],
            "compare": [("cmp_band.csv", self.BAND, t),
                        ("cmp_residuals.csv", ["t", "residual"], t),
                        ("cmp_residual_frf.csv", ["freq_hz", "magnitude"], m)],
        }
        printed = {"pir": set(), "band": set(), "minband": {"alpha", "C_p"},
                   "density": {"F", "sigma_F", "f", "sigma_f"}, "compare": {"result", "C_u"}}
        for name, tables in expected.items():
            if set(values[name]) != printed[name] or not self._expect_tables(tables):
                fails.append(f"cli_{name}_output")
        if fails:
            return fails, {}
        if not 0.0 <= float(values["minband"]["alpha"]) <= 1.0:
            fails.append("cli_minband_alpha_range")
        if not 0.0 <= float(values["density"]["F"]) <= 1.0:
            fails.append("cli_density_cdf_range")
        if not np.isfinite(float(values["density"]["f"])):
            fails.append("cli_density_pdf_finite")
        if values["compare"]["result"] != "reject":
            fails.append("cli_compare_effect_rejects")
        fields = {"alpha": values["minband"]["alpha"], "C_p": values["minband"]["C_p"],
                  "F": values["density"]["F"], "C_u": values["compare"]["C_u"],
                  "result": values["compare"]["result"]}
        return fails, fields


WORKLOADS = {w.name: w for w in (Score, Compare, CohortCli)}
