"""Dataset containers and file formats.

A dataset is a frequency grid plus named groups of FRF samples and
free-form string metadata.  Two on-disk formats are supported:

CSV (one table, text)::

    # condition=eyes-closed          <- optional metadata lines
    freq_hz,re_0,im_0,re_1,im_1
    22.0,0.05,,0.15,                 <- sample rate, frequencies, blank im cells
    control,1.0,0.5,0.3,-0.2         <- group name, then re/im pairs
    control,0.9,0.6,0.2,-0.1

The header must name the cells exactly so: ``re_k,im_k`` for component
k = 0..m-1.  An empty sample-rate cell means "use the default of ten
times the highest frequency".

JSON::

    {"frequencies": [...], "sample_rate": 22.0,
     "groups": {"control": [[[re, im], ...], ...]},
     "metadata": {...}}

Any other top-level key is refused, so a misspelled one is not ignored.

Numbers are written with full repr precision so a save/load roundtrip
reproduces the dataset bit for bit, the sign of a zero included.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import GridError, ParseError
from .grid import FrequencyGrid, derive_grid
from .pir import FRF, FRFSet

FORMATS = ("csv", "json")
_JSON_KEYS = ("frequencies", "sample_rate", "groups", "metadata")


@dataclass(frozen=True, eq=False)
class Dataset:
    grid: FrequencyGrid
    groups: dict[str, FRFSet]
    metadata: dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.groups:
            raise ValueError("dataset needs at least one group")
        for key, value in self.metadata.items():
            if not isinstance(key, str) or not isinstance(value, str):
                raise ValueError(f"metadata entry {key!r}: {value!r} is not text")
        for name, frf_set in self.groups.items():
            if not isinstance(name, str):
                raise ValueError(f"group name {name!r} is not text")
            if not name:
                raise ValueError("group names must be non-empty")
            if not isinstance(frf_set, FRFSet):
                raise ValueError(f"group {name!r} is not an FRFSet")
            if frf_set.m != self.grid.m:
                raise ValueError(
                    f"group {name!r} has {frf_set.m} components but the grid "
                    f"has {self.grid.m} frequencies"
                )

    def group(self, name: str) -> FRFSet:
        try:
            return self.groups[name]
        except KeyError:
            known = ", ".join(sorted(self.groups))
            raise KeyError(f"no group {name!r} in dataset (have: {known})") from None


def _is_csv(path: Path) -> bool:
    """True for a .csv path, False for .json; any other suffix is refused."""
    suffix = path.suffix.lower().lstrip(".")
    if suffix not in FORMATS:
        raise ValueError(f"cannot infer format from {path.name!r}; use .csv or .json")
    return suffix == "csv"


def _load(path, parse_csv, parse_json):
    """Parse the file at `path` with the parser its suffix picks.

    The file is read once as UTF-8, past a leading byte order mark, and
    the parser gets its text and its name.  Any content error it meets is
    reported as a ParseError naming the file: text that does not decode
    or is not JSON, JSON nested deeper than the parser's recursion limit,
    and values that make no valid grid, FRF or dataset (a frequency row no
    grid fits, a non-finite value, an empty group name).
    """
    path = Path(path)
    parse = parse_csv if _is_csv(path) else parse_json
    try:
        return parse(path.read_text(encoding="utf-8-sig"), path.name)
    except (ValueError, GridError, RecursionError) as err:
        raise ParseError(f"{path.name}: {err}") from err


def _parse_float(cell: str, where: str) -> float:
    try:
        return float(cell)
    except ValueError:
        raise ParseError(f"{where}: {cell!r} is not a number") from None


def _parse_floats(cells: list[str], where: str) -> list[float]:
    """The unstripped `cells` as floats, read as if each were stripped first.

    `float` skips surrounding whitespace itself, so one call per cell
    reads the common row.  A row it refuses is stripped and read again
    cell by cell: that reads a cell `float` alone does not strip (one
    wrapped in the \\x1f separator, say) and reports a bad one as
    `_parse_float` does.
    """
    try:
        return list(map(float, cells))
    except ValueError:
        return [_parse_float(cell.strip(), where) for cell in cells]


def _complex(floats: list[float]) -> np.ndarray:
    """Complex vector from re/im pairs laid out flat, signed zeros kept."""
    return np.array(floats, dtype=float).view(complex)


def _load_csv(text: str, source: str) -> Dataset:
    metadata: dict[str, str] = {}
    table: list[tuple[int, list[str]]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            key, sep, value = line.lstrip("#").partition("=")
            if not sep:
                raise ParseError(f"{source} line {lineno}: metadata needs key=value")
            metadata[key.strip()] = value.strip()
            continue
        # Only the header, the frequency row and group names are stripped
        # here; `_parse_floats` reads the number cells as they stand.
        table.append((lineno, raw.split(",")))

    if len(table) < 3:
        raise ParseError(f"{source}: need a header, a frequency row, and samples")
    (header_line, header), (freq_line, freq_row), *samples = table
    header = [cell.strip() for cell in header]
    freq_row = [cell.strip() for cell in freq_row]
    if header[0] != "freq_hz" or len(header) < 3 or len(header) % 2 == 0:
        raise ParseError(f"{source}: header must be freq_hz,re_0,im_0,...")
    m = (len(header) - 1) // 2
    names = ["freq_hz"] + [f"{part}_{k}" for k in range(m) for part in ("re", "im")]
    for got, want in zip(header, names):
        if got != want:
            raise ParseError(
                f"{source} line {header_line}: header cell {got!r} should be {want!r}"
            )
    if len(freq_row) != len(header):
        raise ParseError(
            f"{source} line {freq_line}: frequency row has {len(freq_row)} "
            f"cells, expected {len(header)}"
        )
    where = f"{source} line {freq_line}"
    if any(freq_row[2::2]):
        raise ParseError(f"{where}: frequency row im cells must be blank")
    rate = _parse_float(freq_row[0], where) if freq_row[0] else None
    freqs = [_parse_float(cell, where) for cell in freq_row[1::2]]

    grouped: dict[str, list[np.ndarray]] = {}
    for lineno, row in samples:
        where = f"{source} line {lineno}"
        if len(row) != len(header):
            raise ParseError(
                f"{where}: sample row has {len(row)} cells, expected {len(header)}"
            )
        name = row[0].strip()
        if not name:
            raise ParseError(f"{where}: sample row has an empty group name")
        grouped.setdefault(name, []).append(_complex(_parse_floats(row[1:], where)))

    grid = derive_grid(freqs, rate)
    groups = {name: FRFSet(np.stack(rows)) for name, rows in grouped.items()}
    return Dataset(grid=grid, groups=groups, metadata=metadata)


def _number(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ParseError(f"{where}: {value!r} is not a number")
    try:
        return float(value)
    except OverflowError:
        raise ParseError(f"{where}: {value!r} is out of range") from None


def _json_pairs(value, where: str, m: int | None = None) -> np.ndarray:
    """Complex vector from a JSON list of [re, im] pairs (exactly m if given)."""
    if (
        not isinstance(value, list)
        or not value
        or (m is not None and len(value) != m)
        or not all(isinstance(pair, list) and len(pair) == 2 for pair in value)
    ):
        count = "" if m is None else f"{m} "
        raise ParseError(f"{where} is not a list of {count}[re, im] pairs")
    return np.array(
        [complex(_number(re, where), _number(im, where)) for re, im in value]
    )


def _load_json(text: str, source: str) -> Dataset:
    doc = json.loads(text)
    if not isinstance(doc, dict) or "frequencies" not in doc or "groups" not in doc:
        raise ParseError(f"{source}: need an object with frequencies and groups")
    for key in doc:
        if key not in _JSON_KEYS:
            raise ParseError(f"{source}: unknown key {key!r}; use {', '.join(_JSON_KEYS)}")
    if not isinstance(doc["frequencies"], list):
        raise ParseError(f"{source}: frequencies must be a list of numbers")
    freqs = [_number(f, f"{source}: frequencies") for f in doc["frequencies"]]
    rate = doc.get("sample_rate")
    rate = None if rate is None else _number(rate, f"{source}: sample_rate")
    if not isinstance(doc["groups"], dict):
        raise ParseError(f"{source}: groups must map names to sample lists")
    metadata = doc.get("metadata", {})
    if not isinstance(metadata, dict):
        raise ParseError(f"{source}: metadata must be an object")
    grid = derive_grid(freqs, rate)
    groups = {}
    for name, samples in doc["groups"].items():
        if not isinstance(samples, list) or not samples:
            raise ParseError(f"{source}: group {name!r} has no list of samples")
        rows = [
            _json_pairs(sample, f"{source}: group {name!r} sample {i}", grid.m)
            for i, sample in enumerate(samples)
        ]
        groups[name] = FRFSet(np.array(rows))
    metadata = {str(k): str(v) for k, v in metadata.items()}
    return Dataset(grid=grid, groups=groups, metadata=metadata)


def load_dataset(path) -> Dataset:
    """Read a dataset from a CSV or JSON file (format inferred by suffix).

    Any malformed content raises `ParseError` naming the file.
    """
    return _load(path, _load_csv, _load_json)


def _reads_back(text: str) -> bool:
    """True if `text` survives `_load_csv`'s line split and cell strip."""
    return text == text.strip() and len(text.splitlines()) <= 1


def _save_csv(dataset: Dataset) -> str:
    for name in dataset.groups:
        if not _reads_back(name) or "," in name or name.startswith("#"):
            raise ValueError(f"group name {name!r} cannot be stored in CSV")
    for key, value in dataset.metadata.items():
        if not _reads_back(key) or "=" in key:
            raise ValueError(f"metadata key {key!r} cannot be stored in CSV")
        if not _reads_back(value):
            raise ValueError(f"metadata value {value!r} cannot be stored in CSV")
    m = dataset.grid.m
    lines = [f"# {key}={value}" for key, value in dataset.metadata.items()]
    lines.append("freq_hz," + ",".join(f"re_{k},im_{k}" for k in range(m)))
    freq_cells = [repr(float(dataset.grid.sample_rate))]
    for f in dataset.grid.frequencies:
        freq_cells += [repr(float(f)), ""]
    lines.append(",".join(freq_cells))
    for name, frf_set in dataset.groups.items():
        # Each row's re/im parts, laid out flat, as Python floats.
        for row in frf_set.values.view(float):
            lines.append(",".join([name, *map(repr, row.tolist())]))
    return "\n".join(lines) + "\n"


def _save_json(dataset: Dataset) -> str:
    doc = {
        "frequencies": [float(f) for f in dataset.grid.frequencies],
        "sample_rate": float(dataset.grid.sample_rate),
        "groups": {
            name: [[[float(z.real), float(z.imag)] for z in row] for row in frf_set.values]
            for name, frf_set in dataset.groups.items()
        },
        "metadata": dataset.metadata,
    }
    return json.dumps(doc, indent=1) + "\n"


def save_dataset(dataset: Dataset, path) -> None:
    """Write a dataset to a CSV or JSON file (format inferred by suffix)."""
    path = Path(path)
    text = _save_csv(dataset) if _is_csv(path) else _save_json(dataset)
    path.write_text(text, encoding="utf-8")


def load_frf(path) -> FRF:
    """Read a single test FRF from a CSV or JSON file (format inferred by suffix).

    JSON files hold ``{"values": [[re, im], ...]}``; CSV files hold one
    ``re,im`` pair per line (blank lines and # comments ignored).  Any
    malformed content raises `ParseError` naming the file.
    """
    return _load(path, _load_frf_csv, _load_frf_json)


def _load_frf_json(text: str, source: str) -> FRF:
    doc = json.loads(text)
    if not isinstance(doc, dict) or "values" not in doc:
        raise ParseError(f"{source}: need {{\"values\": [[re, im], ...]}}")
    return FRF(_json_pairs(doc["values"], f"{source}: values"))


def _load_frf_csv(text: str, source: str) -> FRF:
    values = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        cells = line.split(",")
        if len(cells) != 2:
            raise ParseError(
                f"{source} line {lineno}: expected re,im but got {len(cells)} cells"
            )
        values += _parse_floats(cells, f"{source} line {lineno}")
    if not values:
        raise ParseError(f"{source}: no FRF values found")
    return FRF(_complex(values))
