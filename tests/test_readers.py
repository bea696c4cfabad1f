"""The curve and peaks readers against the readers they replaced, written out here as
references: bit-equal arrays and equal peak sets on every fixture and on the benchmark's
12 curve-sweep curves, and the same exception type and message on mutated files.  Also the
assignment-token cache that ``read_peaks_csv`` parses through."""

from __future__ import annotations

import csv
import itertools
import os

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from pfikit import (Assignment, ConfigError, DomainError, Environment, FieldGrid, KinghamCurve,
                    Peak, RangedPeakSet, generate_curve, read_curve_csv, read_peaks_csv,
                    write_curve_csv)
from pfikit.curves import (CSV_CSR_TOLERANCE, CSV_HEADER, CSV_SUM_TOLERANCE, _bad_row,
                           csr_from_fractions)
from pfikit.species import read_text
from pfikit.spectrum import ASSIGNMENT_RE, PEAKS_CSV_HEADER

FIXTURES = os.path.join(os.path.dirname(__file__), os.pardir, "fixtures")
CURVE_FILES = ("as_curve.csv", "as2_curve.csv", "as3_curve.csv", "as4_curve.csv", "in_curve.csv")
PEAK_FILES = ("as_peaks.csv", "consistent_peaks.csv", "si2_overlap_peaks.csv")
# derandomized: the suite replays the same cases on every run
CORPUS = settings(max_examples=150, deadline=None, derandomize=True,
                  suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])


def _reference_curve(species_name, grid, fractions, csr):
    """``KinghamCurve``'s copies and checks as they were before the cheaper checks, with the
    N >= 1 rule added since, as their reference: the name and the three arrays it keeps, or
    the DomainError it raises."""
    g, fr, csr = (np.array(value, dtype=float) for value in (grid, fractions, csr))
    if g.ndim != 1 or fr.shape != (g.size, 3) or csr.shape != g.shape:
        raise DomainError(f"grid, fractions and csr have shapes {g.shape}, {fr.shape} "
                          f"and {csr.shape}, not (N,), (N, 3) and (N,)")
    if g.size == 0:
        raise DomainError("a curve needs at least one field point (N >= 1)")
    if not (np.isfinite(g).all() and (np.diff(g) > 0.0).all()):
        raise DomainError("field grid must be finite and strictly ascending")
    if not (((fr >= 0.0) & (fr <= 1.0)).all() and ((csr >= 0.0) & (csr <= 1.0)).all()):
        raise DomainError("fractions and csr values must lie in [0, 1]")
    off = np.abs(fr.sum(axis=1) - 1.0) > 1e-12
    if off.any():
        i = off.argmax()
        raise DomainError(f"fractions at {g[i]} V/nm sum to {fr[i].sum().item()!r}, not 1")
    return species_name, g, fr, csr


def _reference_read_curve_csv(path):
    """``read_curve_csv`` as it was before each row was checked once, as its reference."""
    lines = read_text(path, "curve file").splitlines()
    head = int(bool(lines) and lines[0].startswith("# species:"))
    species_name = (lines[0].split(":", 1)[1].strip() if head
                    else os.path.splitext(os.path.basename(path))[0])
    if len(lines) <= head or tuple(h.strip() for h in lines[head].split(",")) != CSV_HEADER:
        raise DomainError(f"{path}: expected header {','.join(CSV_HEADER)}")
    body = lines[head + 1:]
    if not any(body):
        raise DomainError(f"{path}: no data rows")
    try:
        table = np.loadtxt(body, delimiter=",", comments=None, ndmin=2)
        if table.shape[1] != len(CSV_HEADER):
            raise ValueError(f"{table.shape[1]} columns, not {len(CSV_HEADER)}")
    except ValueError as exc:
        raise _bad_row(path, body, head + 2, exc) from exc
    fractions = table[:, 1:4]
    with np.errstate(over="ignore", invalid="ignore"):
        total = fractions[:, 0] + fractions[:, 1] + fractions[:, 2]
        csr = csr_from_fractions(fractions.T)
        off = ~((np.abs(total - 1.0) <= CSV_SUM_TOLERANCE)
                & (np.abs(table[:, 4] - csr) <= CSV_CSR_TOLERANCE))
    if off.any():
        i = off.argmax()
        raise DomainError(f"{path}: row at {table[i, 0]:g} V/nm: fractions sum to "
                          f"{total[i]:.10g} and csr is {table[i, 4]:.10g} where "
                          f"f2/(f1 + f2) is {csr[i]:.10g}; more than rounding can explain")
    fractions[np.arange(len(table)), fractions.argmax(axis=1)] += 1.0 - total
    try:
        return _reference_curve(species_name, table[:, 0], fractions, table[:, 4])
    except DomainError as exc:
        raise DomainError(f"{path}: {exc}") from exc


def _reference_parse(text):
    """``Assignment.parse`` before its cache: one regex match per call."""
    m = ASSIGNMENT_RE.match(text.strip())
    if m is None:
        raise ConfigError(f"bad assignment {text!r}; expected Species:charge:massnumber")
    return Assignment(m["species"], int(m["charge"]), int(m["mass"]))


def _reference_read_peaks_csv(path):
    """``read_peaks_csv`` before the token cache, as its reference."""
    peaks = []
    reader = csv.reader(read_text(path, "peaks file").split("\n"))
    try:
        if tuple(h.strip() for h in next(reader)) != PEAKS_CSV_HEADER:
            raise ConfigError(f"{path}: expected header {','.join(PEAKS_CSV_HEADER)}")
        for line in reader:
            if not line:
                continue
            if len(line) != 3:
                raise ConfigError(f"{path}:{reader.line_num}: bad row {line!r}")
            mz, counts, assignments = line
            try:
                mz_da, n = float(mz), float(counts)
                parsed = tuple(_reference_parse(token)
                               for token in assignments.split(";") if token.strip())
            except (ValueError, ConfigError) as exc:
                raise ConfigError(f"{path}:{reader.line_num}: {exc}") from exc
            peaks.append(Peak(mz_da, n, parsed))
    except csv.Error as exc:
        raise ConfigError(f"cannot read peaks file {path}: {exc}") from exc
    if not peaks:
        raise ConfigError(f"{path}: no data rows")
    return RangedPeakSet(tuple(peaks))


def _curve_bits(curve):
    if isinstance(curve, KinghamCurve):
        curve = (curve.species_name, curve.field_grid_vnm, curve.fractions, curve.csr)
    name, *arrays = curve
    return name, [(a.dtype.str, a.shape, a.tobytes()) for a in arrays]


def _peak_bits(peak_set):
    # float.hex tells -0.0 from 0.0, which == does not
    return [(p.mz_da.hex(), p.counts.hex(), p.assignments) for p in peak_set.peaks]


def _outcome(read, path, bits):
    """What ``read(path)`` gives: its result as ``bits`` sees it, or its error's type and
    message."""
    try:
        return bits(read(path))
    except Exception as exc:  # any refusal counts, so long as both readers give the same
        return type(exc).__name__, str(exc)


@pytest.fixture(scope="module")
def sweep_curves(tmp_path_factory, species_table, named_zmodels):
    """The benchmark's curve-sweep curves: si, si2, si3 and rh under every named Z model on
    5-38 V/nm at 0.1 V/nm (phi 4.9 eV, rh 4.8 eV), written as CSV."""
    out = tmp_path_factory.mktemp("sweep")
    paths = []
    for name, zname in itertools.product(("si", "si2", "si3", "rh"), sorted(named_zmodels)):
        env = Environment(work_function_ev=4.8 if name == "rh" else 4.9)
        curve = generate_curve(species_table[name], env, named_zmodels[zname],
                               FieldGrid(5.0, 38.0, 0.1))
        paths.append(out / f"{name}-{zname}.csv")
        write_curve_csv(curve, paths[-1])
    return paths


def test_curve_reader_matches_its_reference_on_every_curve_file(sweep_curves):
    paths = [os.path.join(FIXTURES, name) for name in CURVE_FILES] + sweep_curves
    assert len(paths) == 17
    for path in paths:
        assert _outcome(read_curve_csv, path, _curve_bits) == \
            _outcome(_reference_read_curve_csv, path, _curve_bits)


def test_peaks_reader_matches_its_reference_on_every_fixture():
    for name in PEAK_FILES:
        path = os.path.join(FIXTURES, name)
        assert read_peaks_csv(path) == _reference_read_peaks_csv(path)
        assert _peak_bits(read_peaks_csv(path)) == _peak_bits(_reference_read_peaks_csv(path))


def _fixture(name: str) -> str:
    with open(os.path.join(FIXTURES, name), newline="") as fh:
        return fh.read()


CELLS = ("nan", "-nan", "inf", "-inf", "1e308", "-1e308", "1e999", "1e-320", "-0", "0", "1",
         "2", "-1", "0.5", " 0.5 ", "", " ", "abc", "0x1p-1", "1_0", "+1", "1e", ".", "é",
         "\x00", "1,2")
TOKENS = ("", " ", "  Si:1:28", "Si:1:28  ", "\tIn:2:113 ", "Si:0:28", "Si:1:0", "Si-1-28",
          "Si:1:28:1", ":1:28", "Si::28", "Si:1:" + "9" * 5000, "As:2:75", "Si2:2:57",
          "In:2:115", "Ga:1:69", "Si:1:28;Si:1:28", "Si:1:28;;Si2:2:56", ";")


@st.composite
def mutated(draw, text: str, peaks: bool) -> str:
    """``text`` after one to three edits: a row dropped, repeated or swapped, a cell
    replaced or nudged, for a peaks file an assignment token replaced, padded or doubled
    on its ``;``, or the text cut short; then its line ends made CR, LF or CRLF.  Edits
    other than a cut fall on data rows: below the header line, and the curve files' comment."""
    edits = ("drop", "repeat", "swap", "cell", "cell", "nudge", "nudge", "cut")
    edits += ("token",) * 4 if peaks else ()
    for _ in range(draw(st.integers(1, 3))):
        lines = text.splitlines()
        if len(lines) < 3:
            break
        i = draw(st.integers(1 if peaks else 2, len(lines) - 1))
        edit = draw(st.sampled_from(edits))
        cells = lines[i].split(",")
        k = draw(st.integers(0, len(cells) - 1))
        if edit == "drop":
            del lines[i]
        elif edit == "repeat":
            lines.insert(i, lines[i])
        elif edit == "swap":
            j = draw(st.integers(1 if peaks else 2, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        elif edit == "cell":
            cells[k] = draw(st.sampled_from(CELLS))
        elif edit == "nudge":
            # a cell moved by about the reader's tolerances, or made negative
            try:
                value = float(cells[k])
            except ValueError:
                value = 0.5
            cells[k] = repr(draw(st.sampled_from((-value, value + 1e-9, value - 2e-9,
                                                  value + 5e-12, value * (1 + 1e-15)))))
        elif edit == "token" and len(cells) == 3:
            tokens = cells[2].split(";")
            j = draw(st.integers(0, len(tokens) - 1))
            tokens[j] = draw(st.sampled_from(TOKENS + (f" {tokens[j]} ", f"{tokens[j]};")))
            cells[2] = ";".join(tokens)
        elif edit == "cut":
            text = text[:draw(st.integers(0, len(text)))]
            continue
        if edit in ("cell", "nudge", "token"):
            lines[i] = ",".join(cells)
        text = "\n".join(lines) + draw(st.sampled_from(("", "\n")))
    return draw(st.sampled_from(("\n", "\r", "\r\n"))).join(text.split("\n"))


def _write(directory, name: str, text: str):
    path = directory / name
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(text)
    return path


@CORPUS
@given(st.data())
def test_curve_reader_matches_its_reference_on_mutated_files(tmp_path_factory, data):
    name = data.draw(st.sampled_from(CURVE_FILES))
    path = _write(tmp_path_factory.mktemp("curve"), name,
                  data.draw(mutated(_fixture(name), peaks=False)))
    assert _outcome(read_curve_csv, path, _curve_bits) == \
        _outcome(_reference_read_curve_csv, path, _curve_bits)


@CORPUS
@given(st.data())
def test_peaks_reader_matches_its_reference_on_mutated_files(tmp_path_factory, data):
    name = data.draw(st.sampled_from(PEAK_FILES))
    path = _write(tmp_path_factory.mktemp("peaks"), name,
                  data.draw(mutated(_fixture(name), peaks=True)))
    assert _outcome(read_peaks_csv, path, _peak_bits) == \
        _outcome(_reference_read_peaks_csv, path, _peak_bits)


# rows that pass, that miss a sum of 1 by about the 1e-12 bound, that leave [0, 1], and
# that hold a NaN or an infinity; csr values likewise
ROWS = ((1.0, 0.0, 0.0), (0.5, 0.5, 0.0), (0.1, 0.7, 0.2), (-0.0, 1.0, 0.0),
        (0.5, 0.5, 5e-13), (0.5, 0.5, 5e-12), (0.5, 0.5 - 2e-12, 0.0), (1.0 + 1e-12, 0.0, 0.0),
        (1.5, -0.5, 0.0), (-1e-300, 1.0, 0.0), (np.nan, 0.5, 0.5), (np.inf, -np.inf, 1.0))
CSRS = (0.0, -0.0, 0.5, 1.0, 1.0 + 1e-12, -1e-300, np.nan, np.inf)


@CORPUS
@given(st.integers(0, 4), st.data())
def test_curve_checks_match_their_reference(n, data):
    # mostly valid curves, so that every check is reached; each draw may spoil one part
    grid = [5.0 + 0.5 * i for i in range(n)]
    if n and data.draw(st.booleans()):
        grid[data.draw(st.integers(0, n - 1))] = data.draw(
            st.sampled_from((np.nan, np.inf, -np.inf, 5.0, 5.0 + 0.5 * n)))
    rows = data.draw(st.lists(st.sampled_from(ROWS[:4]), min_size=n, max_size=n))
    if n and data.draw(st.booleans()):
        rows[data.draw(st.integers(0, n - 1))] = data.draw(st.sampled_from(ROWS))
    rows += data.draw(st.sampled_from(([],) * 5 + ([ROWS[0]],)))  # a row too many
    csr = data.draw(st.lists(st.sampled_from(CSRS[:4]), min_size=n, max_size=n))
    if n and data.draw(st.booleans()):
        csr[data.draw(st.integers(0, n - 1))] = data.draw(st.sampled_from(CSRS))
    args = ("x", grid, np.array(rows, dtype=float).reshape(-1, 3), csr)
    assert _outcome(lambda a: KinghamCurve(*a), args, _curve_bits) == \
        _outcome(lambda a: _reference_curve(*a), args, _curve_bits)


def test_the_token_cache_is_bounded():
    info = Assignment.parse.cache_info()
    assert info.maxsize == 1024
    assert info.currsize <= info.maxsize


def test_equal_tokens_share_one_assignment(tmp_path):
    rows = "mz_Da,counts,assignments\n28,10,Si:1:28;Si2:2:56\n56,5,Si:2:112; Si2:1:56\n"
    first = read_peaks_csv(_write(tmp_path, "a.csv", rows))
    again = read_peaks_csv(_write(tmp_path, "b.csv", rows.replace("28,10", "28,11")))
    si, si2 = first.peaks[0].assignments
    assert again.peaks[0].assignments[0] is si
    assert again.peaks[0].assignments[1] is si2 is Assignment.parse("Si2:2:56")
    assert first.peaks[1].assignments[1] == Assignment("Si2", 1, 56)


def test_padded_tokens_parse_as_before(tmp_path):
    for token in ("Si:1:28", " Si:1:28", "Si:1:28 ", "\t Si:1:28\t "):
        path = _write(tmp_path, "p.csv", f"mz_Da,counts,assignments\n28,10,{token};; ;\t\n")
        assert read_peaks_csv(path).peaks[0].assignments == (Assignment("Si", 1, 28),)
        assert read_peaks_csv(path) == _reference_read_peaks_csv(path)
    assert Assignment.parse(" Si:1:28 ") == Assignment.parse("Si:1:28")


def test_a_bad_token_raises_with_its_line_on_every_call(tmp_path):
    good = "28,10,Si:1:28\n"
    head = "mz_Da,counts,assignments\n"
    first = _write(tmp_path, "first.csv", f"{head}{good}28,3,Si:1:28;Si-1-28\n")
    second = _write(tmp_path, "second.csv", f"{head}28,3, Si-1-28\n{good}")
    for _ in range(2):
        for path, line, token in ((first, 3, "Si-1-28"), (second, 2, " Si-1-28")):
            with pytest.raises(ConfigError) as info:
                read_peaks_csv(path)
            assert str(info.value) == \
                f"{path}:{line}: bad assignment {token!r}; expected Species:charge:massnumber"
