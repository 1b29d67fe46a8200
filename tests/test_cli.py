import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from frfstats import (
    BootstrapConfig,
    Dataset,
    FRFSet,
    derive_grid,
    ecdf,
    estimate_density,
    load_dataset,
    load_frf,
    lowpass_mean_frf,
    pir_matrix,
    prediction_band,
    save_dataset,
)
from frfstats import cli
from frfstats.cli import main
from frfstats.density import METRICS, NUMERATOR_MODES

from support import EXPERIMENT_FREQS


def read_columns(path):
    header, *rows = path.read_text().splitlines()
    data = np.array([[float(cell) for cell in row.split(",")] for row in rows])
    return header.split(","), data


def make_dataset(tmp_path, n=6, noise=0.3, seed=4, name="synth", gain=1.0, out=None, append=False):
    out = out or tmp_path / "data.csv"
    argv = [
        "synth", "--freqs", "0.3", "0.5", "--n", str(n), "--noise", str(noise),
        "--gain", str(gain), "--seed", str(seed), "--name", name, "--out", str(out),
    ]
    if append:
        argv.append("--append")
    assert main(argv) == 0
    return out


def write_test_frf(tmp_path):
    mean = lowpass_mean_frf(derive_grid([0.3, 0.5]))
    path = tmp_path / "test.json"
    path.write_text(json.dumps({"values": [[z.real, z.imag] for z in mean]}))
    return path


def test_synth_writes_loadable_dataset(tmp_path):
    out = make_dataset(tmp_path, n=3, noise=0.0, gain=1.5)
    dataset = load_dataset(out)
    assert dataset.grid.m == 2
    frf_set = dataset.groups["synth"]
    assert frf_set.n == 3
    mean = lowpass_mean_frf(dataset.grid)
    assert np.allclose(frf_set.values, 1.5 * mean, rtol=1e-8)


def test_synth_append_and_grid_guard(tmp_path, capsys):
    out = make_dataset(tmp_path, name="a", seed=1)
    make_dataset(tmp_path, name="b", seed=2, out=out, append=True)
    dataset = load_dataset(out)
    assert set(dataset.groups) == {"a", "b"}

    code = main([
        "synth", "--freqs", "0.3", "0.5", "0.7", "--n", "2", "--name", "c",
        "--out", str(out), "--append",
    ])
    assert code == 2
    assert "different grid" in capsys.readouterr().err

    code = main([
        "synth", "--freqs", "0.3", "0.5", "--n", "2", "--name", "a",
        "--out", str(out), "--append",
    ])
    assert code == 2


def test_synth_refuses_csv_unsafe_group_name(tmp_path, capsys):
    out = tmp_path / "x.csv"
    code = main(["synth", "--freqs", "0.3", "0.5", "--n", "2", "--name", " a", "--out", str(out)])
    assert code == 2
    assert "' a'" in capsys.readouterr().err
    assert not out.exists()


def test_pir_exports_all_and_single_curves(tmp_path):
    data = make_dataset(tmp_path, n=3, seed=9)
    out_all = tmp_path / "all.csv"
    out_one = tmp_path / "one.csv"
    assert main(["pir", str(data), "--group", "synth", "--out", str(out_all)]) == 0
    assert main(["pir", str(data), "--group", "synth", "--sample", "1", "--out", str(out_one)]) == 0

    dataset = load_dataset(data)
    curves = pir_matrix(dataset.groups["synth"], dataset.grid)
    header, table = read_columns(out_all)
    assert header == ["t", "pir_0", "pir_1", "pir_2"]
    assert np.allclose(table[:, 0], dataset.grid.times, rtol=1e-8)
    assert np.allclose(table[:, 1:].T, curves, rtol=1e-6, atol=1e-12)

    header, table = read_columns(out_one)
    assert header == ["t", "pir"]
    assert np.allclose(table[:, 1], curves[1], rtol=1e-6, atol=1e-12)


def test_pir_sample_out_of_range(tmp_path, capsys):
    data = make_dataset(tmp_path, n=3)
    code = main(["pir", str(data), "--group", "synth", "--sample", "7", "--out", str(tmp_path / "x.csv")])
    assert code == 2
    assert "out of range" in capsys.readouterr().err


def test_band_matches_library(tmp_path):
    data = make_dataset(tmp_path, n=6, seed=13)
    out = tmp_path / "band.csv"
    code = main([
        "band", str(data), "--group", "synth", "--alpha", "0.9",
        "--B", "60", "--seed", "3", "--out", str(out),
    ])
    assert code == 0
    dataset = load_dataset(data)
    band = prediction_band(
        dataset.groups["synth"], dataset.grid, 0.9,
        BootstrapConfig(replications=60, seed=3),
    )
    header, table = read_columns(out)
    assert header == ["t", "mean", "lower", "upper"]
    assert np.allclose(table[:, 1], band.mean, rtol=1e-6, atol=1e-12)
    assert np.allclose(table[:, 2], band.lower, rtol=1e-6, atol=1e-12)
    assert np.allclose(table[:, 3], band.upper, rtol=1e-6, atol=1e-12)


def test_minband_prints_and_exports(tmp_path, capsys):
    data = make_dataset(tmp_path, n=8, seed=21)
    test = write_test_frf(tmp_path)
    prefix = tmp_path / "mb"
    code = main([
        "minband", str(data), "--group", "synth", "--test", str(test),
        "--B", "50", "--bins", "40", "--seed", "2", "--out", str(prefix),
    ])
    assert code == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("alpha = ") and out[1].startswith("C_p = ")
    alpha = float(out[0].split("=")[1])
    assert 0.0 <= alpha <= 1.0

    header, band_table = read_columns(tmp_path / "mb_band.csv")
    assert header == ["t", "mean", "lower", "upper"]
    assert np.all(band_table[:, 2] <= band_table[:, 3])
    header, ecdf_table = read_columns(tmp_path / "mb_ecdf.csv")
    assert header == ["c", "alpha"]
    assert ecdf_table.shape == (41, 2)
    assert ecdf_table[0, 1] == 0.0
    assert ecdf_table[-1, 1] == 1.0


def test_minband_numbers_do_not_depend_on_bins(tmp_path, capsys):
    data = make_dataset(tmp_path, n=8, seed=21)
    test = write_test_frf(tmp_path)
    printed = []
    for bins in ("40", "1000"):
        assert main([
            "minband", str(data), "--group", "synth", "--test", str(test),
            "--B", "200", "--bins", bins, "--seed", "2", "--out", str(tmp_path / f"mb{bins}"),
        ]) == 0
        printed.append(capsys.readouterr().out)
    assert printed[0] == printed[1]
    header, table = read_columns(tmp_path / "mb40_ecdf.csv")
    assert table.shape == (41, 2)


@pytest.mark.parametrize(
    "argv",
    [
        ["band", "--group", "g", "--out", "x.csv"],
        ["compare", "--group1", "a", "--group2", "b", "--out", "x"],
        ["density", "--group", "g", "--test", "t.json"],
    ],
    ids=lambda argv: argv[0],
)
def test_bins_is_a_minband_flag_only(argv):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "data.csv", "--bins", "40"])
    assert exc.value.code == 2


def test_exported_ecdf_is_the_histogram_table(monkeypatch):
    # Reference: the table of cumulative np.histogram counts on bins + 1
    # even edges over the pool's range, which minband exported before the
    # lookups became exact.  Integer pools put statistics on the edges.
    written = {}
    monkeypatch.setattr(
        cli, "_write_columns",
        lambda path, header, columns: written.update(header=header, columns=columns),
    )
    rng = np.random.default_rng(12)
    pools = [
        np.array([1.0, 2.0]),
        rng.integers(0, 5, size=300).astype(float),
        rng.standard_normal(500),
        3.0 * rng.exponential(size=20000),
    ]
    for pool in pools:
        for bins in (2, 4, 7, 40, 1000):
            cli._write_ecdf("ecdf.csv", ecdf(pool), bins)
            edges = np.linspace(pool.min(), pool.max(), bins + 1)
            counts, _ = np.histogram(pool, bins=edges)
            cdf = np.cumsum(counts) / pool.size
            cdf[-1] = 1.0
            assert written["header"] == ["c", "alpha"]
            np.testing.assert_array_equal(written["columns"][0], edges)
            np.testing.assert_array_equal(written["columns"][1], np.concatenate([[0.0], cdf]))


def test_density_prints_four_statistics(tmp_path, capsys):
    data = make_dataset(tmp_path, n=40, noise=0.4, seed=5)
    test = write_test_frf(tmp_path)
    code = main([
        "density", str(data), "--group", "synth", "--test", str(test),
        "--B", "40", "--seed", "6",
    ])
    assert code == 0
    out = capsys.readouterr().out.splitlines()
    keys = [line.split(" = ")[0] for line in out]
    assert keys == ["F", "sigma_F", "f", "sigma_f"]
    values = {line.split(" = ")[0]: float(line.split(" = ")[1]) for line in out}
    assert 0.0 <= values["F"] <= 1.0
    assert values["sigma_F"] >= 0.0
    assert values["f"] >= 0.0


def test_density_flags_reach_the_library(tmp_path, capsys):
    # Each --metric x --numerator pair prints exactly the library's
    # estimate for that pair, and the four pairs print four different
    # results, so a dropped flag shows.
    data = make_dataset(tmp_path, n=40, noise=0.4, seed=5)
    test = write_test_frf(tmp_path)
    dataset = load_dataset(data)
    cfg = BootstrapConfig(replications=40, seed=6)
    printed = set()
    for metric in METRICS:
        for numerator in NUMERATOR_MODES:
            code = main([
                "density", str(data), "--group", "synth", "--test", str(test),
                "--B", "40", "--seed", "6", "--metric", metric, "--numerator", numerator,
            ])
            assert code == 0
            out = capsys.readouterr().out
            estimate = estimate_density(
                load_frf(test), dataset.groups["synth"], dataset.grid, cfg,
                metric=metric, numerator_mode=numerator,
            )
            values = (estimate.cdf_mean, estimate.cdf_std, estimate.pdf_mean, estimate.pdf_std)
            assert out == "".join(
                f"{key} = {value:.9g}\n"
                for key, value in zip(("F", "sigma_F", "f", "sigma_f"), values)
            )
            printed.add(out)
    assert len(printed) == 4


def test_compare_rejects_separated_groups(tmp_path, capsys):
    data = make_dataset(tmp_path, n=8, noise=0.05, seed=1, name="a", gain=1.0)
    make_dataset(tmp_path, n=8, noise=0.05, seed=2, name="b", gain=3.0, out=data, append=True)
    prefix = tmp_path / "cmp"
    code = main([
        "compare", str(data), "--group1", "a", "--group2", "b", "--alpha", "0.95",
        "--B", "50", "--Bs", "8", "--seed", "3", "--out", str(prefix),
    ])
    assert code == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "result = reject"
    assert out[1].startswith("C_u = ")

    header, band_table = read_columns(tmp_path / "cmp_band.csv")
    assert header == ["t", "mean", "lower", "upper"]
    header, res_table = read_columns(tmp_path / "cmp_residuals.csv")
    assert header == ["t", "residual"]
    assert np.any(res_table[:, 1] != 0.0)
    header, frf_table = read_columns(tmp_path / "cmp_residual_frf.csv")
    assert header == ["freq_hz", "magnitude"]
    assert frf_table.shape == (2, 2)
    assert np.all(frf_table[:, 1] >= 0.0)


def test_cli_output_is_byte_identical(tmp_path, capsys):
    data = make_dataset(tmp_path, n=8, seed=21)
    test = write_test_frf(tmp_path)
    outputs = []
    files = []
    for run in ("first", "second"):
        prefix = tmp_path / run
        assert main([
            "minband", str(data), "--group", "synth", "--test", str(test),
            "--B", "40", "--bins", "30", "--seed", "9", "--out", str(prefix),
        ]) == 0
        outputs.append(capsys.readouterr().out)
        files.append((
            (tmp_path / f"{run}_band.csv").read_bytes(),
            (tmp_path / f"{run}_ecdf.csv").read_bytes(),
        ))
    assert outputs[0] == outputs[1]
    assert files[0] == files[1]


def test_missing_group_exits_2(tmp_path, capsys):
    data = make_dataset(tmp_path)
    code = main(["pir", str(data), "--group", "nope", "--out", str(tmp_path / "x.csv")])
    assert code == 2
    assert "no group 'nope'" in capsys.readouterr().err


def test_missing_file_exits_2(tmp_path, capsys):
    code = main(["pir", str(tmp_path / "absent.csv"), "--group", "g", "--out", str(tmp_path / "x.csv")])
    assert code == 2
    assert "file not found" in capsys.readouterr().err


def test_directory_paths_exit_2(tmp_path, capsys):
    folder = tmp_path / "d.csv"
    folder.mkdir()
    code = main(["pir", str(folder), "--group", "g", "--out", str(tmp_path / "x.csv")])
    err = capsys.readouterr().err
    assert code == 2
    assert f"error: {folder}: " in err and "Traceback" not in err

    code = main(["synth", "--freqs", "0.3", "0.5", "--n", "5", "--out", str(folder)])
    err = capsys.readouterr().err
    assert code == 2
    assert f"error: {folder}: " in err and "Traceback" not in err


def test_malformed_json_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"frequencies": [0.3, 0.5], "groups": {"a": 5}}))
    code = main(["pir", str(bad), "--group", "a", "--out", str(tmp_path / "x.csv")])
    assert code == 2
    assert "group 'a'" in capsys.readouterr().err

    data = make_dataset(tmp_path)
    test = tmp_path / "test.json"
    test.write_text('{"values": [[1, 0], 5]}')
    code = main(["minband", str(data), "--group", "synth", "--test", str(test),
                 "--B", "20", "--out", str(tmp_path / "mb")])
    assert code == 2
    assert "test.json: values" in capsys.readouterr().err

    test.write_text('{"values": [[1, 0], [0, 1]], "values": [[2, 0], [0, 2]]}')
    code = main(["minband", str(data), "--group", "synth", "--test", str(test),
                 "--B", "20", "--out", str(tmp_path / "mb")])
    assert code == 2
    assert "test.json: key 'values' given twice" in capsys.readouterr().err

    test.write_text('{"values": [[1, 0], [0.5, 0.1]], "valuse": 3}')
    code = main(["minband", str(data), "--group", "synth", "--test", str(test),
                 "--B", "20", "--out", str(tmp_path / "mb")])
    assert code == 2
    assert "test.json: unknown key 'valuse'" in capsys.readouterr().err


def test_test_file_with_unknown_suffix_exits_2(tmp_path, capsys):
    data = make_dataset(tmp_path)
    test = tmp_path / "held.txt"
    test.write_text('{"values": [[1, 0], [0, 1]]}')
    code = main(["minband", str(data), "--group", "synth", "--test", str(test),
                 "--B", "20", "--out", str(tmp_path / "mb")])
    assert code == 2
    assert "cannot infer format from 'held.txt'" in capsys.readouterr().err
    assert not list(tmp_path.glob("mb*"))


def test_frequency_row_with_im_value_exits_2(tmp_path, capsys):
    data = tmp_path / "data.csv"
    data.write_text("freq_hz,re_0,im_0\n10,1,junk\ng,2.0,1.0\ng,1.0,0.5\ng,0.5,2.0\n")
    out = tmp_path / "band.csv"
    code = main(["band", str(data), "--group", "g", "--B", "20", "--out", str(out)])
    assert code == 2
    assert "data.csv line 2: frequency row im cells must be blank" in capsys.readouterr().err
    assert not out.exists()


def test_misnamed_header_cell_exits_2(tmp_path, capsys):
    data = tmp_path / "data.csv"
    data.write_text("freq_hz,foo,bar\n10,1,\ng,2.0,1.0\ng,1.0,0.5\ng,0.5,2.0\n")
    out = tmp_path / "band.csv"
    code = main(["band", str(data), "--group", "g", "--B", "20", "--out", str(out)])
    assert code == 2
    assert "data.csv line 1: header cell 'foo' should be 're_0'" in capsys.readouterr().err
    assert not out.exists()


def test_oversized_grid_exits_2(tmp_path, capsys):
    code = main(["synth", "--freqs", "0.0001", "1.0", "--rate", "1000", "--n", "3",
                 "--out", str(tmp_path / "big.csv")])
    assert code == 2
    assert "10000000 samples per period" in capsys.readouterr().err
    assert not (tmp_path / "big.csv").exists()

    data = tmp_path / "big.json"
    data.write_text(json.dumps({"frequencies": [0.0001, 1.0], "sample_rate": 1000,
                                "groups": {"g": [[[1, 0], [0, 1]]]}}))
    code = main(["pir", str(data), "--group", "g", "--out", str(tmp_path / "x.csv")])
    assert code == 2
    assert "big.json: grid would have 10000000 samples per period" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["band", "density", "compare"])
def test_request_too_large_for_memory_exits_2(tmp_path, capsys, command):
    # 10**15 resamples of 6 members need 42.6 PiB, beyond a 47-bit address
    # space: the allocation is refused at the request and touches no memory.
    data = make_dataset(tmp_path, name="a")
    make_dataset(tmp_path, name="b", seed=5, out=data, append=True)
    huge = "1000000000000000"
    argv = {
        "band": ["--group", "a", "--B", huge, "--out", str(tmp_path / "x.csv")],
        "density": ["--group", "a", "--test", str(write_test_frf(tmp_path)), "--B", huge],
        "compare": ["--group1", "a", "--group2", "b", "--Bs", huge,
                    "--out", str(tmp_path / "cmp")],
    }[command]
    code = main([command, str(data), *argv])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and "Traceback" not in err


def test_bad_alpha_exits_2(tmp_path, capsys):
    data = make_dataset(tmp_path)
    code = main([
        "band", str(data), "--group", "synth", "--alpha", "1.5",
        "--B", "20", "--out", str(tmp_path / "x.csv"),
    ])
    assert code == 2
    assert "alpha" in capsys.readouterr().err


def run_on_huge_groups(tmp_path, command, value):
    """Run `command` on two 4-member groups of +-`value`; return the exit
    code and the names of the files in `tmp_path` afterwards."""
    big = [[value, value], [value, value]]
    neg = [[-value, -value], [-value, -value]]
    data = tmp_path / "huge.json"
    data.write_text(json.dumps({
        "frequencies": [0.3, 0.5], "groups": {"a": [big, neg, big, neg], "b": [neg, big, neg, big]},
    }))
    test = write_test_frf(tmp_path)
    out = tmp_path / "out"
    argv = {
        "pir": ["--group", "a", "--out", str(out)],
        "band": ["--group", "a", "--B", "20", "--out", str(out)],
        "minband": ["--group", "a", "--test", str(test), "--B", "20", "--out", str(out)],
        "density": ["--group", "a", "--test", str(test), "--B", "20"],
        "compare": ["--group1", "a", "--group2", "b", "--B", "20", "--Bs", "5", "--out", str(out)],
    }[command]
    code = main([command, str(data), *argv])
    return code, sorted(p.name for p in tmp_path.iterdir())


@pytest.mark.parametrize("command", ["pir", "band", "minband", "density", "compare"])
def test_overflowing_pir_exits_2(tmp_path, capsys, command):
    # Finite values near the float limit whose PIRs overflow: refused with
    # exit 2 and no output file, not inf in a CSV or a zero-spread exit 3.
    code, written = run_on_huge_groups(tmp_path, command, 1e308)
    assert code == 2
    assert "PIR overflows" in capsys.readouterr().err
    assert written == ["huge.json", "test.json"]


@pytest.mark.parametrize("command", ["pir", "band", "minband", "density", "compare"])
def test_overflowing_statistics_exit_2(tmp_path, capsys, command):
    # Finite PIRs whose squared deviations overflow: `pir` still exports
    # them, every statistic is refused with exit 2, no file and no numpy
    # warning (the warnings filter turns one into an error).
    code, written = run_on_huge_groups(tmp_path, command, 1e200)
    if command == "pir":
        assert (code, written) == (0, ["huge.json", "out", "test.json"])
        return
    assert code == 2
    assert "statistics of their PIRs overflow" in capsys.readouterr().err
    assert written == ["huge.json", "test.json"]


def test_minband_overflowing_deviation_exits_2_without_warning(tmp_path):
    # A finite test response whose standardized deviation overflows: the
    # minimal band is refused with exit 2 and numpy prints no warning.
    data = make_dataset(tmp_path, n=8, seed=21)
    test = tmp_path / "huge_test.json"
    test.write_text(json.dumps({"values": [[1.7e308, 0.0], [0.0, 0.0]]}))
    argv = ["minband", str(data), "--group", "synth", "--test", str(test),
            "--B", "20", "--out", str(tmp_path / "mb")]
    src = str(Path(__file__).parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run(
        [sys.executable, "-c", "import sys; from frfstats.cli import main; sys.exit(main())",
         *argv], capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 2
    assert "no band scale" in done.stderr
    assert "RuntimeWarning" not in done.stderr


def test_degenerate_statistics_exit_3(tmp_path, capsys):
    flat = tmp_path / "flat.json"
    sample = [[1.0, 0.0], [0.0, 1.0]]
    flat.write_text(json.dumps({
        "frequencies": [0.3, 0.5],
        "groups": {"flat": [sample, sample, sample]},
    }))
    code = main([
        "band", str(flat), "--group", "flat", "--B", "20",
        "--out", str(tmp_path / "x.csv"),
    ])
    assert code == 3

    test = write_test_frf(tmp_path)
    capsys.readouterr()
    code = main(["density", str(flat), "--group", "flat", "--test", str(test), "--B", "20"])
    assert code == 3
    err = capsys.readouterr().err
    assert "the sample set has zero spread at some time point" in err


def test_mismatched_test_exits_2_before_the_set_is_checked(tmp_path, capsys):
    # A zero-spread 11-frequency set would exit 3; the 3-component test is
    # refused first, by density and minband alike.
    grid = derive_grid(EXPERIMENT_FREQS)
    flat = tmp_path / "flat.json"
    save_dataset(Dataset(grid, {"flat": FRFSet(np.tile(lowpass_mean_frf(grid), (10, 1)))}), flat)
    test = tmp_path / "test.json"
    test.write_text(json.dumps({"values": [[1.0, 0.0]] * 3}))
    for command in (["density"], ["minband", "--out", str(tmp_path / "mb")]):
        code = main([*command, str(flat), "--group", "flat", "--test", str(test), "--B", "20"])
        assert code == 2
        assert "FRF has 3 components but the grid has 11" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["flat.json", "test.json"]


def test_compare_with_zero_sigma_exits_3(tmp_path, capsys):
    # Three members a group and Bs = 2: this seed's two sigma resamples
    # give equal mean differences, so sigma is zero at every time point.
    rng = np.random.default_rng(24)
    values = rng.standard_normal((6, 2)) + 1j * rng.standard_normal((6, 2))
    grid = derive_grid([0.3, 0.5], 2.0)
    data = tmp_path / "data.json"
    save_dataset(Dataset(grid, {"a": FRFSet(values[:3]), "b": FRFSet(values[3:])}), data)
    out = tmp_path / "cmp"
    code = main(["compare", str(data), "--group1", "a", "--group2", "b",
                 "--B", "50", "--Bs", "2", "--seed", "24", "--out", str(out)])
    assert code == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "the comparison's sigma has zero spread at some time point" in captured.err
    assert list(tmp_path.iterdir()) == [data]


def test_unknown_flag_exits_2(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["band", "data.csv", "--group", "g", "--frobnicate"])
    assert exc.value.code == 2
