import codecs
import json
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from frfstats import (
    FRF,
    Dataset,
    FRFSet,
    ParseError,
    SyntheticSpec,
    derive_grid,
    generate_synthetic,
    load_dataset,
    load_frf,
    lowpass_mean_frf,
    save_dataset,
)
from frfstats import cli

from support import EXPERIMENT_FREQS


def example_dataset():
    grid = derive_grid(EXPERIMENT_FREQS)
    rng = np.random.default_rng(7)
    shape1, shape2 = (4, grid.m), (3, grid.m)
    groups = {
        "control": FRFSet(rng.standard_normal(shape1) + 1j * rng.standard_normal(shape1)),
        "patient": FRFSet(rng.standard_normal(shape2) + 1j * rng.standard_normal(shape2)),
    }
    return Dataset(grid=grid, groups=groups, metadata={"site": "lab-3", "task": "sway"})


def test_readme_csv_example_loads(tmp_path):
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("## File formats", 1)[1]
    block = re.search(r"```\n(.*?)```", section, re.DOTALL).group(1)
    path = tmp_path / "study.csv"
    path.write_text(block)
    dataset = load_dataset(path)
    assert dataset.grid.sample_rate == 22.0
    assert dataset.grid.frequencies.tolist() == [0.05, 0.15]
    assert dataset.metadata == {"condition": "eyes-closed"}
    assert list(dataset.groups) == ["control"]
    assert dataset.groups["control"].values.tolist() == [[1 + 0.5j, 0.3 - 0.2j],
                                                         [0.9 + 0.6j, 0.2 - 0.1j]]


@pytest.mark.parametrize("format", ["csv", "json"])
def test_roundtrip_is_exact(tmp_path, format):
    dataset = example_dataset()
    path = tmp_path / f"data.{format}"
    save_dataset(dataset, path)
    loaded = load_dataset(path)
    assert np.array_equal(loaded.grid.frequencies, dataset.grid.frequencies)
    assert loaded.grid.sample_rate == dataset.grid.sample_rate
    assert loaded.grid.n_samples == dataset.grid.n_samples
    assert set(loaded.groups) == set(dataset.groups)
    for name in dataset.groups:
        assert np.array_equal(loaded.groups[name].values, dataset.groups[name].values)
    assert loaded.metadata == dataset.metadata


@pytest.mark.parametrize(
    "group, metadata, offending",
    [
        ("g", {"k": "x\ny"}, "x\ny"),
        ("g", {"k=1": "v"}, "k=1"),
        ("g", {"k": " v "}, " v "),
        ("a\rb", {}, "a\rb"),
        ("a\x85b", {}, "a\x85b"),
        (" a", {}, " a"),
    ],
)
def test_csv_save_refuses_what_would_read_back_changed(tmp_path, group, metadata, offending):
    base = example_dataset()
    dataset = Dataset(
        grid=base.grid, groups={group: base.groups["control"]}, metadata=metadata
    )
    with pytest.raises(ValueError, match=re.escape(repr(offending))):
        save_dataset(dataset, tmp_path / "data.csv")
    assert not (tmp_path / "data.csv").exists()
    save_dataset(dataset, tmp_path / "data.json")
    loaded = load_dataset(tmp_path / "data.json")
    assert list(loaded.groups) == [group]
    assert np.array_equal(loaded.groups[group].values, dataset.groups[group].values)
    assert loaded.metadata == metadata


@pytest.mark.parametrize("metadata", [{"k": 1}, {1: "v"}, {"k": None}, {"k": b"v"}])
def test_metadata_must_be_text(metadata):
    # Neither format could read a number or bytes back as they were given.
    base = example_dataset()
    with pytest.raises(ValueError, match="is not text"):
        Dataset(grid=base.grid, groups=base.groups, metadata=metadata)


@pytest.mark.parametrize(
    "make_groups, message",
    [
        (lambda group: {}, "dataset needs at least one group"),
        (lambda group: {1: group}, "group name 1 is not text"),
        (lambda group: {"a": group.values}, "group 'a' is not an FRFSet"),
    ],
    ids=["no-group", "name-not-text", "group-not-frfset"],
)
def test_dataset_refuses_malformed_groups(make_groups, message):
    # A name that is not text could not be saved to CSV, and JSON would
    # read it back as text; a bare array has no FRF set's checks.
    base = example_dataset()
    with pytest.raises(ValueError) as err:
        Dataset(grid=base.grid, groups=make_groups(base.groups["control"]))
    assert str(err.value) == message


def test_minimal_json_dataset(tmp_path):
    path = tmp_path / "tiny.json"
    path.write_text('{"frequencies": [1.0], "groups": {"g": [[[1, 0]]]}}')
    dataset = load_dataset(path)
    assert dataset.grid.m == 1
    assert dataset.grid.sample_rate == pytest.approx(10.0)
    assert dataset.groups["g"].n == 1
    assert dataset.groups["g"].values[0, 0] == 1.0 + 0.0j
    assert dataset.metadata == {}


def test_csv_default_rate_and_metadata(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text(
        "# note=hello world\n"
        "freq_hz,re_0,im_0\n"
        ",1.0,\n"
        "g,2.0,-3.0\n"
        "g,0.5,0.25\n"
    )
    dataset = load_dataset(path)
    assert dataset.grid.sample_rate == pytest.approx(10.0)
    assert dataset.metadata == {"note": "hello world"}
    assert np.array_equal(dataset.groups["g"].values[:, 0], [2.0 - 3.0j, 0.5 + 0.25j])


def test_csv_skips_blank_lines(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("freq_hz,re_0,im_0\n\n,1.0,\ng,2.0,-3.0\n \t\ng,0.5,0.25\n\n")
    np.testing.assert_array_equal(load_dataset(path).groups["g"].values[:, 0],
                                  [2.0 - 3.0j, 0.5 + 0.25j])


def test_csv_bad_cell_names_line(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("freq_hz,re_0,im_0\n,1.0,\ng,2.0,oops\n")
    with pytest.raises(ParseError, match="line 3"):
        load_dataset(path)


def test_csv_frequency_row_im_cells_must_be_blank(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("freq_hz,re_0,im_0\n10,1,junk\ng,2.0,1.0\n")
    with pytest.raises(ParseError, match="data.csv line 2: frequency row im cells must be blank"):
        load_dataset(path)
    path.write_text("freq_hz,re_0,im_0\n10,1, \ng,2.0,1.0\n")
    assert load_dataset(path).grid.sample_rate == 10.0


@pytest.mark.parametrize(
    "header, cell, want",
    [
        ("freq_hz,foo,bar", "foo", "re_0"),
        ("freq_hz,im_0,re_0", "im_0", "re_0"),
        ("freq_hz,RE_0,im_0", "RE_0", "re_0"),
        ("freq_hz,re_0,im_0,re_0,im_0", "re_0", "re_1"),
        ("freq_hz,re_0,im_0,re_1,im_2", "im_2", "im_1"),
    ],
)
def test_csv_header_names_every_cell(tmp_path, header, cell, want):
    m = header.count(",") // 2
    path = tmp_path / "data.csv"
    path.write_text(f"# site=lab\n{header}\n{',1.0,' * m}\ng{',1.0' * 2 * m}\n")
    with pytest.raises(ParseError) as err:
        load_dataset(path)
    assert str(err.value) == f"data.csv line 2: header cell {cell!r} should be {want!r}"


@pytest.mark.parametrize(
    "name, content, message",
    [
        ("data.csv", "freq_hz,re_0,im_0,re_1,im_1\n,0.3,,0.5,\ng,1.0,2.0,3.0, oops \n",
         "data.csv line 3: 'oops' is not a number"),
        ("data.csv", "freq_hz,re_0,im_0,re_1,im_1\n,0.3,,0.5,\ng,1.0, \t,x,1\n",
         "data.csv line 3: '' is not a number"),
        ("data.csv", "# k=v\nfreq_hz,re_0,im_0,re_1,im_1\n,0.3,,0.5,\ng,1,2,3,4\ng,1.0,2.0\n",
         "data.csv line 5: sample row has 3 cells, expected 5"),
        ("test.csv", "1.0,2.0\n 3.0 , y\n", "test.csv line 2: 'y' is not a number"),
        ("test.csv", "1.0,  \n", "test.csv line 1: '' is not a number"),
        ("test.csv", "1.0,2.0,3.0\n", "test.csv line 1: expected re,im but got 3 cells"),
        ("data.csv", "freq_hz,re_0,im_0\n,1.0\ng,1.0,2.0\n",
         "data.csv line 2: frequency row has 2 cells, expected 3"),
        ("data.csv", "freq_hz,re_0,im_0\n,1.0,\n ,1.0,2.0\n",
         "data.csv line 3: sample row has an empty group name"),
        ("data.csv", "# k=1\n# k = 2\nfreq_hz,re_0,im_0\n,0.3,\ng,1.0,0.0\n",
         "data.csv line 2: metadata key 'k' given twice"),
    ],
    ids=["bad-cell", "blank-cell", "short-row", "frf-bad-cell", "frf-blank-cell", "frf-long-row",
         "short-frequency-row", "empty-group-name", "metadata-key-twice"],
)
def test_csv_cell_errors_keep_their_text(tmp_path, name, content, message):
    # Rows are read with one float call per cell and re-read stripped only
    # on failure; the reported cell is the stripped one, as it always was.
    path = tmp_path / name
    path.write_text(content)
    load = load_dataset if name.startswith("data") else load_frf
    with pytest.raises(ParseError) as err:
        load(path)
    assert str(err.value) == message


def test_csv_number_cells_read_as_if_stripped(tmp_path):
    # float() skips surrounding whitespace but not the \x1f separator,
    # which str.strip() drops: such a row takes the stripped re-read.
    data, test = tmp_path / "data.csv", tmp_path / "test.csv"
    data.write_text("freq_hz,re_0,im_0\n,1.0,\ng,\x1f2.5\x1f, 0.5 \n g ,\t-1e-3 ,7\n")
    test.write_text(" 1.5 ,\x1f-2\n")
    np.testing.assert_array_equal(load_dataset(data).groups["g"].values[:, 0],
                                  [2.5 + 0.5j, -1e-3 + 7j])
    np.testing.assert_array_equal(load_frf(test).values, [1.5 - 2j])


def signs(values):
    """The signs of every real and imaginary part, zeros included."""
    return np.signbit(np.stack([values.real, values.imag]))


def test_csv_keeps_signed_zeros(tmp_path):
    grid = derive_grid([0.3, 0.5])
    values = np.array([[complex(-0.0, 0.0), complex(0.0, -0.0)],
                       [complex(-0.0, -0.0), complex(-1.0, -0.0)]])
    dataset = Dataset(grid=grid, groups={"g": FRFSet(values)})
    save_dataset(dataset, tmp_path / "data.csv")
    loaded = load_dataset(tmp_path / "data.csv").groups["g"].values
    np.testing.assert_array_equal(signs(loaded), signs(values))
    test = tmp_path / "test.csv"
    test.write_text("-0.0,0.0\n0.0,-0.0\n-0.0,-0.0\n")
    np.testing.assert_array_equal(signs(load_frf(test).values),
                                  [[True, False, True], [False, True, True]])


def per_cell_csv(dataset):
    """The CSV text `save_dataset` writes, built one numpy scalar at a time."""
    lines = [f"# {key}={value}" for key, value in dataset.metadata.items()]
    lines.append("freq_hz," + ",".join(f"re_{k},im_{k}" for k in range(dataset.grid.m)))
    cells = [repr(float(dataset.grid.sample_rate))]
    for f in dataset.grid.frequencies:
        cells += [repr(float(f)), ""]
    lines.append(",".join(cells))
    for name, frf_set in dataset.groups.items():
        for row in frf_set.values:
            cells = [name]
            for z in row:
                cells += [repr(float(z.real)), repr(float(z.imag))]
            lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def per_cell_columns(header, columns):
    """The table `cli._write_columns` writes, built one numpy scalar at a time."""
    rows = [",".join(f"{float(x):.9g}" for x in row) for row in zip(*columns)]
    return "\n".join([",".join(header), *rows]) + "\n"


EDGE_FLOATS = [0.0, -0.0, 5e-324, -2.5e-310, 2.2250738585072014e-308, 1e16, -1e16,
               1e-5, 1e300, -1e300, 0.1, 1 / 3, 123456789.5, 1e21]
cell_floats = st.one_of(st.sampled_from(EDGE_FLOATS),
                        st.floats(allow_nan=False, allow_infinity=False))


@settings(max_examples=100, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_row_writers_match_per_cell_writers(tmp_path, data):
    m = data.draw(st.integers(1, 3))
    grid = derive_grid([0.3, 0.5, 0.7][:m])
    groups = {}
    for name in data.draw(st.sampled_from([["g"], ["control", "patient"]])):
        n = data.draw(st.integers(1, 3))
        parts = data.draw(st.lists(cell_floats, min_size=2 * n * m, max_size=2 * n * m))
        pairs = [complex(re, im) for re, im in zip(parts[::2], parts[1::2])]
        groups[name] = FRFSet(np.array(pairs).reshape(n, m))
    dataset = Dataset(grid=grid, groups=groups, metadata={"site": "lab-3"})
    path = tmp_path / "prop.csv"
    save_dataset(dataset, path)
    assert path.read_text() == per_cell_csv(dataset)
    loaded = load_dataset(path)
    for name, frf_set in groups.items():
        assert loaded.groups[name].values.tobytes() == frf_set.values.tobytes()

    rows = data.draw(st.integers(1, 4))
    columns = [np.array(data.draw(st.lists(cell_floats, min_size=rows, max_size=rows)))
               for _ in range(data.draw(st.integers(1, 4)))]
    header = [f"c{i}" for i in range(len(columns))]
    cli._write_columns(str(path), header, columns)
    assert path.read_text() == per_cell_columns(header, columns)


def test_csv_short_row_names_line(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("freq_hz,re_0,im_0,re_1,im_1\n,0.3,,0.5,\ng,1.0,2.0\n")
    with pytest.raises(ParseError, match="line 3"):
        load_dataset(path)


def test_json_ragged_sample_rejected(tmp_path):
    path = tmp_path / "data.json"
    path.write_text('{"frequencies": [0.3, 0.5], "groups": {"g": [[[1, 0]]]}}')
    with pytest.raises(ParseError, match="'g' sample 0"):
        load_dataset(path)


@pytest.mark.parametrize(
    "doc, where",
    [
        ({"groups": {"a": 5}}, "group 'a'"),
        ({"groups": {"a": [[["1", 0], [0, 0]]]}}, "group 'a' sample 0: '1' is not a number"),
        ({"groups": [1]}, "groups"),
        ({"groups": {"a": [[[1, 0], [0, 1]]]}, "metadata": ["x"]}, "metadata"),
        ({"frequencies": "0.3 0.5", "groups": {}}, "frequencies"),
        ({"sample_rate": 10**400, "groups": {}}, "sample_rate"),
        ({"sample_rte": 2.0, "groups": {"a": [[[1, 0], [0, 1]]]}},
         "unknown key 'sample_rte'; use frequencies, sample_rate, groups, metadata"),
        ({"groups": {"a": [[[1, 0], [0, 1]]]}, "metdata": {"k": "v"}}, "unknown key 'metdata'"),
        # A metadata value that is not text is refused, not turned into text.
        ({"groups": {"a": [[[1, 0], [0, 1]]]}, "metadata": {"k": "v", "a": None}},
         "metadata entry 'a': .* is not text"),
        ({"groups": {"a": [[[1, 0], [0, 1]]]}, "metadata": {"b": {"x": 1}}},
         "metadata entry 'b': .* is not text"),
        ({"groups": {"a": [[[1, 0], [0, 1]]]}, "metadata": {"c": 1.0}},
         "metadata entry 'c': .* is not text"),
    ],
    ids=[
        "group-not-list", "pair-not-number", "groups-not-object",
        "metadata-not-object", "frequencies-not-list", "rate-out-of-range",
        "misspelled-rate", "misspelled-metadata", "metadata-null", "metadata-object",
        "metadata-number",
    ],
)
def test_json_malformed_dataset_raises_parse_error(tmp_path, doc, where):
    path = tmp_path / "data.json"
    path.write_text(json.dumps({"frequencies": [0.3, 0.5], **doc}))
    with pytest.raises(ParseError, match=f"data.json: {where}"):
        load_dataset(path)


def test_load_frf_json_malformed_pair(tmp_path):
    path = tmp_path / "test.json"
    path.write_text('{"values": [[1, 0], 5]}')
    with pytest.raises(ParseError, match=r"test.json: values is not a list of \[re, im\] pairs"):
        load_frf(path)


@pytest.mark.parametrize(
    "name, content, where",
    [
        ("data.csv", b"freq_hz,re_0,im_0\n\xff,1.0,\ng,1.0,0.0\n", ""),
        ("data.json", b"[" * 100_000, "recursion"),
        ("data.csv", b"freq_hz,re_0,im_0\n,1.0,\ng,nan,0.0\n", "finite"),
        ("data.json", b'{"frequencies": [0.3], "groups": {"": [[[1, 0]]]}}', "non-empty"),
        ("data.csv", b"freq_hz,re_0,im_0,re_1,im_1\n1000,0.0001,,1.0,\ng,1,0,1,0\n", "samples"),
        ("test.csv", b"1.0,inf\n", "finite"),
        ("test.json", b'{"values": [[1.0, 1e999]]}', "finite"),
        # A key given twice, at any depth: no copy of it silently wins.
        ("data.json", b'{"frequencies": [0.3], "sample_rate": 2.0, "sample_rate": 5.0,'
                      b' "groups": {"g": [[[1, 0]]]}}', "key 'sample_rate' given twice"),
        ("data.json", b'{"frequencies": [0.3], "groups": {"g": [[[1, 0]], [[2, 0]]],'
                      b' "g": [[[3, 0]]]}}', "key 'g' given twice"),
        ("data.json", b'{"frequencies": [0.3], "groups": {"g": [[[1, 0]]]},'
                      b' "metadata": {"k": "1", "k": "2"}}', "key 'k' given twice"),
        ("test.json", b'{"values": [[1, 0]], "values": [[2, 0]]}', "key 'values' given twice"),
        # Any key beside values, so a misspelled one is not ignored.
        ("test.json", b'{"values": [[1, 0], [0.5, 0.1]], "valuse": 3}',
         "unknown key 'valuse'; use values"),
    ],
    ids=["not-utf8", "deep-json", "nan-value", "empty-group-name", "grid-too-large",
         "frf-inf", "frf-json-overflow", "rate-twice", "group-twice", "metadata-key-twice",
         "frf-values-twice", "frf-unknown-key"],
)
def test_content_errors_raise_parse_error(tmp_path, name, content, where):
    path = tmp_path / name
    path.write_bytes(content)
    load = load_dataset if name.startswith("data") else load_frf
    with pytest.raises(ParseError, match=f"{name}: .*{where}"):
        load(path)


VALID_FILES = {
    (load_dataset, "csv"): (
        b"# condition=eyes-closed\nfreq_hz,re_0,im_0,re_1,im_1\n"
        b"10.0,0.3,,0.5,\ng,1.0,0.5,0.3,-0.2\ng,0.9,0.6,0.2,-0.1\n"
    ),
    (load_dataset, "json"): json.dumps(
        {"frequencies": [0.3, 0.5], "sample_rate": 10.0,
         "groups": {"g": [[[1.0, 0.5], [0.3, -0.2]]]}, "metadata": {"k": "v"}}
    ).encode(),
    (load_frf, "csv"): b"# test\n1.0,-2.0\n0.5,0.0\n",
    (load_frf, "json"): b'{"values": [[1.0, -2.0], [0.5, 0.0]]}',
}


def near(valid: bytes):
    """Byte strings close to a valid file: one slice replaced by random bytes."""
    cut = st.integers(0, len(valid))
    return st.tuples(cut, cut, st.binary(max_size=8)).map(
        lambda t: valid[: min(t[:2])] + t[2] + valid[max(t[:2]):]
    )


@pytest.mark.parametrize("loader, fmt", list(VALID_FILES), ids=lambda v: getattr(v, "__name__", v))
@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_loaders_return_valid_object_or_parse_error(tmp_path, loader, fmt, data):
    content = data.draw(st.one_of(st.binary(max_size=120), near(VALID_FILES[loader, fmt])))
    path = tmp_path / f"fuzz.{fmt}"
    path.write_bytes(content)
    try:
        result = loader(path)
    except ParseError:
        return
    assert isinstance(result, Dataset if loader is load_dataset else FRF)


@pytest.mark.parametrize("loader, fmt", list(VALID_FILES), ids=lambda v: getattr(v, "__name__", v))
def test_loaders_read_past_a_utf8_bom(tmp_path, loader, fmt):
    # Spreadsheet exports often start with a UTF-8 byte order mark.
    plain, marked = tmp_path / f"plain.{fmt}", tmp_path / f"marked.{fmt}"
    plain.write_bytes(VALID_FILES[loader, fmt])
    marked.write_bytes(codecs.BOM_UTF8 + VALID_FILES[loader, fmt])
    expected, loaded = loader(plain), loader(marked)
    if loader is load_frf:
        np.testing.assert_array_equal(loaded.values, expected.values)
        return
    np.testing.assert_array_equal(loaded.grid.frequencies, expected.grid.frequencies)
    assert loaded.grid.sample_rate == expected.grid.sample_rate
    assert loaded.metadata == expected.metadata
    assert list(loaded.groups) == list(expected.groups)
    for name, group in expected.groups.items():
        np.testing.assert_array_equal(loaded.groups[name].values, group.values)


def test_unknown_suffix_needs_format(tmp_path):
    # JSON in a .txt file and CSV in a .dat file: neither is read by content.
    files = {"held.txt": '{"values": [[1.0, -2.0], [0.5, 0.0]]}', "held.dat": "1.0,-2.0\n"}
    for name, content in files.items():
        path = tmp_path / name
        path.write_text(content)
        for loader in (load_dataset, load_frf):
            with pytest.raises(ValueError, match=f"cannot infer format from '{name}'"):
                loader(path)


def test_dataset_rejects_width_mismatch():
    grid = derive_grid([0.3, 0.5])
    with pytest.raises(ValueError, match="grid has 2"):
        Dataset(grid=grid, groups={"g": FRFSet(np.ones((2, 3), dtype=complex))})


def test_load_frf_json_and_csv(tmp_path):
    json_path = tmp_path / "test.json"
    json_path.write_text('{"values": [[1.0, -2.0], [0.5, 0.0]]}')
    csv_path = tmp_path / "test.csv"
    csv_path.write_text("# test FRF\n1.0,-2.0\n0.5,0.0\n")
    expected = np.array([1.0 - 2.0j, 0.5 + 0.0j])
    assert np.array_equal(load_frf(json_path).values, expected)
    assert np.array_equal(load_frf(csv_path).values, expected)


def test_load_frf_bad_row(tmp_path):
    path = tmp_path / "test.csv"
    path.write_text("1.0,-2.0\n0.5\n")
    with pytest.raises(ParseError, match="line 2"):
        load_frf(path)


def test_synthetic_without_noise_is_scaled_mean():
    mean = np.array([1.0 + 1.0j, -0.5 + 2.0j])
    frf_set = generate_synthetic(SyntheticSpec(mean_frf=mean, noise_std=0.0, n=3, gain_factor=1.6))
    assert frf_set.n == 3
    assert np.allclose(frf_set.values, 1.6 * mean, rtol=0, atol=0)


def test_synthetic_noise_statistics():
    mean = np.array([2.0 - 1.0j])
    n = 10_000
    frf_set = generate_synthetic(SyntheticSpec(mean_frf=mean, noise_std=0.5, n=n), seed=3)
    sample_mean = frf_set.values.mean(axis=0)[0]
    bound = 5 * 0.5 / np.sqrt(n)
    assert abs(sample_mean.real - 2.0) < bound
    assert abs(sample_mean.imag + 1.0) < bound
    assert np.std(frf_set.values.real) == pytest.approx(0.5, rel=0.05)


def test_synthetic_is_deterministic_per_seed():
    spec = SyntheticSpec(mean_frf=np.array([1.0 + 0.0j]), noise_std=1.0, n=5)
    a = generate_synthetic(spec, seed=11).values
    b = generate_synthetic(spec, seed=11).values
    c = generate_synthetic(spec, seed=12).values
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_synthetic_spec_validation():
    mean = np.array([1.0 + 0.0j])
    with pytest.raises(ValueError, match="noise_std"):
        SyntheticSpec(mean_frf=mean, noise_std=-0.1, n=2)
    with pytest.raises(ValueError, match="n must"):
        SyntheticSpec(mean_frf=mean, noise_std=0.1, n=0)
    with pytest.raises(ValueError, match="gain_factor"):
        SyntheticSpec(mean_frf=mean, noise_std=0.1, n=2, gain_factor=0.0)
    with pytest.raises(ValueError, match="vector"):
        SyntheticSpec(mean_frf=np.ones((2, 2)), noise_std=0.1, n=2)


def test_lowpass_mean_frf_shape():
    grid = derive_grid([0.5, 1.0, 2.0])
    mean = lowpass_mean_frf(grid)
    assert mean.shape == (3,)
    assert mean[1] == pytest.approx(1.0 / (1.0 + 1.0j))
    assert abs(mean[0]) > abs(mean[2])
