"""Trace ingestion, floor subtraction, fitting, and prediction tests."""

import contextlib
import copy
import gzip
import io
import math
import os
import re
import threading
import tracemalloc
import warnings
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from twinbeam import fock, tracefit
from twinbeam.errors import FitConvergenceError, TraceParseError, ValidationError
from twinbeam.spectra import OpoParams, SpectrumCurve

PARAMS_A = OpoParams.from_correlation(0.72, 2.98e6, -79.0)
PARAMS_B = OpoParams.from_correlation(0.5, 4.3e6, -79.5)
COARSE_GRID = tracefit.grid_hz(0.5e6, 10.0e6, 30e3)
FINE_GRID = tracefit.grid_hz(0.5e6, 10.0e6, 1e3)
COARSE_GRID.setflags(write=False)  # shared by every test
FINE_GRID.setflags(write=False)

GOOD_CSV = """# rbw_hz=30000
# label=bench trace
frequency_hz,power_dbm
1000000,-80.1
1030000,-80.3
1060000,-79.9
1090000,-80.0
1120000,-80.2
1150000,-79.8
1180000,-80.1
1210000,-80.05
"""


def flat_trace(level_dbm, start=0.4e6, stop=10.5e6, step=50e3, label="flat"):
    nu = tracefit.grid_hz(start, stop, step)
    return tracefit.SpectrumTrace(nu, np.full(nu.size, float(level_dbm)), 30e3, label)


class TestLoadTrace:
    def test_wellformed_csv(self):
        trace = tracefit.load_trace(io.StringIO(GOOD_CSV))
        assert len(trace) == 8
        assert trace.rbw_hz == 30000
        assert trace.label == "bench trace"
        assert trace.powers_dbm[0] == -80.1

    def test_bytes_input(self):
        trace = tracefit.load_trace(io.BytesIO(GOOD_CSV.encode("utf-8")))
        assert len(trace) == 8

    @pytest.mark.parametrize("stream", [io.StringIO, lambda text: io.BytesIO(text.encode())],
                             ids=["text", "bytes"])
    def test_stream_reads_as_its_text(self, stream):
        expected = tracefit.load_trace(io.StringIO(GOOD_CSV))
        trace = tracefit.load_trace(stream(GOOD_CSV))
        np.testing.assert_array_equal(trace.frequencies_hz, expected.frequencies_hz)
        np.testing.assert_array_equal(trace.powers_dbm, expected.powers_dbm)
        assert (trace.rbw_hz, trace.label) == (expected.rbw_hz, expected.label)
        bad = GOOD_CSV.replace("1060000,-79.9", "1060000,oops")
        with pytest.raises(TraceParseError) as err:
            tracefit.load_trace(stream(bad))
        assert err.value.line == 6

    def test_duplicate_frequency_names_line(self):
        bad = GOOD_CSV + "1210000,-80.0\n"
        with pytest.raises(TraceParseError) as err:
            tracefit.load_trace(io.StringIO(bad))
        assert err.value.line == 12
        assert "1.21e+06" in str(err.value)

    def test_non_numeric_field_names_line(self):
        bad = GOOD_CSV.replace("1060000,-79.9", "1060000,oops")
        with pytest.raises(TraceParseError) as err:
            tracefit.load_trace(io.StringIO(bad))
        assert err.value.line == 6

    def test_wrong_column_count(self):
        bad = GOOD_CSV.replace("1060000,-79.9", "1060000,-79.9,1")
        with pytest.raises(TraceParseError):
            tracefit.load_trace(io.StringIO(bad))

    def test_missing_header(self):
        with pytest.raises(TraceParseError):
            tracefit.load_trace(io.StringIO("1000000,-80.0\n1030000,-80.2\n"))

    @pytest.mark.parametrize("text,message", [
        ("frequency_hz,power_dbm", "no data rows"),
        ("# rbw_hz=30000", "missing"),
        ("frequency_hz,power_dbm\n1000000,-80.0", None),
    ])
    def test_stream_of_a_header_a_comment_or_one_row(self, text, message):
        if message is None:
            assert len(tracefit.load_trace(io.StringIO(text))) == 1
        else:
            with pytest.raises(TraceParseError, match=message):
                tracefit.load_trace(io.StringIO(text))

    def test_path_is_always_a_file(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "frequency_hz,power_dbm").write_text(GOOD_CSV)
        assert len(tracefit.load_trace(Path("frequency_hz,power_dbm"))) == 8
        assert len(tracefit.load_trace(str(tmp_path / "frequency_hz,power_dbm"))) == 8

    @pytest.mark.parametrize("name", ["#run1.csv", "frequency_hz,power_dbm.csv",
                                      "frequency_hz,power_dbm"])
    def test_str_is_always_a_file_name(self, tmp_path, monkeypatch, name):
        # a str that starts with '#' or with the header was once taken for CSV text
        monkeypatch.chdir(tmp_path)
        (tmp_path / name).write_text(GOOD_CSV)
        assert len(tracefit.load_trace(name)) == 8

    def test_bytes_are_neither_a_stream_nor_a_path(self):
        with pytest.raises(TypeError):
            tracefit.load_trace(GOOD_CSV.encode("utf-8"))

    def test_grid_point_count(self):
        nu = tracefit.grid_hz(0.5e6, 10.0e6, 30e3)
        assert nu.size == 317  # (10 - 0.5) MHz at 30 kHz spacing, start inclusive

    @pytest.mark.parametrize("grid", [
        (math.nan, 2e6, 1e5), (-math.inf, 2e6, 1e5), (1e6, math.nan, 1e5), (1e6, math.inf, 1e5),
        (1e6, 2e6, math.nan), (1e6, 2e6, math.inf), (2e6, 1e6, 1e5), (1e6, 2e6, 0.0),
    ])
    def test_grid_needs_finite_ordered_ends_and_a_finite_positive_step(self, grid):
        with pytest.raises(ValidationError, match="grid requires"):
            tracefit.grid_hz(*grid)

    @pytest.mark.parametrize("grid", [
        (1e6, 2e6, 1e-300), (1e6, 2e6, 5e-324), (0.0, 1e7, 1.0), (-1e308, 1e308, 1.0),
    ])
    def test_grid_above_the_point_cap_is_refused_before_any_allocation(self, grid):
        # 1e-300 made np.arange raise "Maximum allowed size exceeded", 5e-324
        # an OverflowError; (0, 1e7, 1) asks for one point past the cap
        tracemalloc.start()
        try:
            with pytest.raises(ValidationError, match="exceeds 10000000"):
                tracefit.grid_hz(*grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100_000

    def test_grid_at_the_point_cap_is_kept(self, monkeypatch):
        monkeypatch.setattr(tracefit, "MAX_GRID_POINTS", 11)
        assert tracefit.grid_hz(0.0, 10.0, 1.0).size == 11
        with pytest.raises(ValidationError, match="exceeds 11"):
            tracefit.grid_hz(0.0, 11.0, 1.0)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-5", "-1e-300"])
    def test_rbw_must_be_finite_and_non_negative(self, value):
        with pytest.raises(ValidationError, match="rbw_hz"):
            tracefit.SpectrumTrace([1e6, 2e6], [-80.0, -80.0], float(value))
        text = GOOD_CSV.replace("# rbw_hz=30000", f"# rbw_hz={value}")
        with pytest.raises(TraceParseError, match="bad rbw_hz value") as err:
            tracefit.load_trace(io.StringIO(text))
        assert err.value.line == 1

    @pytest.mark.parametrize("write", [
        tracefit.trace_to_csv,
        lambda trace: SpectrumCurve(trace.frequencies_hz, trace.powers_dbm, "dbm").to_csv(),
    ], ids=["trace_to_csv", "to_csv"])
    def test_writing_a_full_size_trace_allocates_under_four_times_its_text(self, write):
        nu = tracefit.grid_hz(0.5e6, 10e6, 100.0)
        trace = tracefit.synth_trace(PARAMS_A, "intensity", nu, 0.05, seed=4)
        assert len(trace) == 95_001
        tracemalloc.start()
        try:
            text = write(trace)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * len(text)

    def test_csv_roundtrip(self):
        trace = tracefit.synth_trace(PARAMS_A, "intensity", COARSE_GRID, 0.3, seed=5)
        back = tracefit.load_trace(io.StringIO(tracefit.trace_to_csv(trace)))
        np.testing.assert_allclose(back.frequencies_hz, trace.frequencies_hz, rtol=1e-9)
        np.testing.assert_allclose(back.powers_dbm, trace.powers_dbm, atol=1e-9)
        assert back.rbw_hz == trace.rbw_hz
        assert back.label == trace.label

    def test_file_roundtrip(self, tmp_path):
        trace = tracefit.synth_trace(PARAMS_B, "intensity", COARSE_GRID, 0.1, seed=2)
        path = tmp_path / "trace.csv"
        path.write_text(tracefit.trace_to_csv(trace), encoding="utf-8")
        back = tracefit.load_trace(path)
        np.testing.assert_allclose(back.powers_dbm, trace.powers_dbm, atol=1e-9)


def outcome(parse, text):
    """What a parser makes of ``text``, comparable bit for bit."""
    try:
        freqs, powers, rbw_hz, label = parse(text)
    except TraceParseError as exc:
        return "error", str(exc), exc.line
    return "trace", freqs.tobytes(), powers.tobytes(), repr(rbw_hz), label


def loaded(text):
    trace = tracefit.load_trace(io.BytesIO(text.encode("utf-8")))
    return trace.frequencies_hz, trace.powers_dbm, trace.rbw_hz, trace.label


def walked(text):
    """``loaded(text)`` with the per-line walk forced for the whole body."""
    with mock.patch.object(np, "loadtxt", side_effect=ValueError):
        return loaded(text)


def walks_the_body(text):
    """Whether ``load_trace`` walks the body of ``text`` line by line rather
    than take the arrays of its one ``np.loadtxt`` call."""
    with mock.patch.object(tracefit, "_walk", wraps=tracefit._walk) as walk:
        with contextlib.suppress(TraceParseError):
            tracefit.load_trace(io.StringIO(text))
    return walk.called


def assert_parsers_agree(text):
    """``load_trace`` gives what the per-line walk gives: the same arrays
    and metadata, or its error text and line number."""
    assert outcome(loaded, text) == outcome(walked, text)


#: Characters that ``str.splitlines`` treats as line breaks beyond \n and \r.
OTHER_LINE_BREAKS = "\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
ALPHABET = "0123456789,.eE+-_# \t\n\r" + OTHER_LINE_BREAKS + "\x1f\uff15"
FIELDS = st.one_of(
    st.floats(allow_nan=False).map(repr),
    st.floats(min_value=-1e12, max_value=1e12).map("{:.6g}".format),
    st.sampled_from(["nan", "inf", "-0", "+5", "1_000", "\uff15", "\u0665", ".5", "5.", "",
                     " 7 ", "\t8", "0x10", "1e999"]),
    st.text(alphabet=ALPHABET, max_size=6),
)
PREAMBLE = st.lists(st.sampled_from([
    "", "   ", "# rbw_hz=30000", "# rbw_hz=1e4", "# label=run 3, xi=0.72", "#label=x",
    "# rbw_hz=oops", "# note", "## rbw_hz=7", "# rbw_hz=nan",
]), max_size=3)
HEADERS = st.sampled_from(["frequency_hz,power_dbm"] * 12 + [
    " FREQUENCY_HZ , Power_dBm ", "frequency_hz,power_dbm,x", "frequency,power", "",
])
LINE_ENDS = st.sampled_from(["\n"] * 6 + ["\r\n"] * 2 + ["\r", "\n\n", " \n"]
                            + list(OTHER_LINE_BREAKS))


@st.composite
def trace_texts(draw):
    """CSV text near a well-formed trace: increasing rows, some of them with
    fields, characters, line ends or ``#`` lines from the edge cases of
    both parsers."""
    lines = draw(PREAMBLE) + [draw(HEADERS)]
    count = draw(st.integers(0, 6))
    freqs = np.cumsum(draw(st.lists(st.floats(1e-3, 1e6), min_size=count, max_size=count)))
    for f in freqs.tolist():
        row = f"{f!r},{draw(st.floats(-200.0, 50.0))!r}"
        kind = draw(st.integers(0, 9))
        if kind == 0:
            row = f"{draw(FIELDS)},{draw(FIELDS)}"
        elif kind in (1, 2):  # a character inside or beside a field
            comma = row.index(",")
            at = draw(st.sampled_from([0, comma, comma + 1, len(row)]) if kind == 1
                      else st.integers(0, len(row)))
            row = row[:at] + draw(st.sampled_from(ALPHABET)) + row[at:]
        lines.append(row)
    if count and draw(st.integers(0, 4)) == 0:
        lines.insert(draw(st.integers(0, len(lines))), draw(PREAMBLE.map("\n".join)))
    if draw(st.booleans()):
        ends = [draw(st.sampled_from(["\n", "\r\n"]))] * len(lines)
    else:
        ends = draw(st.lists(LINE_ENDS, min_size=len(lines), max_size=len(lines)))
    if not draw(st.booleans()):
        ends[-1] = ""
    return "".join(line + end for line, end in zip(lines, ends))


class TestParseParity:
    @settings(max_examples=600, deadline=None, derandomize=True, database=None)
    @given(text=trace_texts())
    def test_fast_path_agrees_with_loop(self, text):
        assert_parsers_agree(text)

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(text=st.text(alphabet=ALPHABET, max_size=60))
    def test_agree_on_arbitrary_text(self, text):
        assert_parsers_agree("frequency_hz,power_dbm\n" + text)
        assert_parsers_agree(text)

    @pytest.mark.parametrize("char", list(OTHER_LINE_BREAKS + "\x1f"))
    def test_characters_loadtxt_reads_otherwise_go_to_the_loop(self, char):
        text = f"frequency_hz,power_dbm\n1e6,{char}-80\n2e6,-81\n"
        assert walks_the_body(text)
        assert_parsers_agree(text)

    def test_form_feed_inside_a_row_names_its_line(self):
        with pytest.raises(TraceParseError, match=r"^line 2: non-numeric field in '1e6,'$"):
            tracefit.load_trace(io.StringIO("frequency_hz,power_dbm\n1e6,\x0c-80\n2e6,-81\n"))

    def test_metadata_after_the_header(self):
        text = "frequency_hz,power_dbm\n1e6,-80\n# rbw_hz=1000\n2e6,-81\n"
        assert walks_the_body(text)
        assert tracefit.load_trace(io.StringIO(text)).rbw_hz == 1000.0
        assert_parsers_agree(text)

    @pytest.mark.parametrize("end", ["\n", "\r\n", "\r"] + list(OTHER_LINE_BREAKS))
    def test_wellformed_text_takes_the_vectorised_parse(self, end):
        text = GOOD_CSV.replace("\n", end)
        assert not walks_the_body(text)
        assert_parsers_agree(text)

    @pytest.mark.parametrize("text", ["frequency_hz,power_dbm\n", "frequency_hz,power_dbm\n\r\n\n"])
    def test_header_only_warns_nothing(self, text):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(TraceParseError, match="^line 1: no data rows$"):
                tracefit.load_trace(io.StringIO(text))

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(
        freqs=st.lists(st.floats(-1e308, 1e308), min_size=1, max_size=40),
        powers=st.lists(st.floats(-1e308, 1e308), min_size=40, max_size=40),
        rbw_hz=st.sampled_from([0.0, 30e3, 12345.6789012, 5e-324]),
        label=st.sampled_from(["", "synthetic intensity", "run 3, \u03be=0.72", "a=b"]),
    )
    def test_written_traces_read_back_bit_for_bit(self, freqs, powers, rbw_hz, label):
        freqs = np.unique([float(f"{f:.10g}") for f in freqs])
        powers = np.array([float(f"{p:.12g}") for p in powers[: freqs.size]])
        text = tracefit.trace_to_csv(tracefit.SpectrumTrace(freqs, powers, rbw_hz, label))
        assert not walks_the_body(text)
        back = tracefit.load_trace(io.StringIO(text))
        assert back.frequencies_hz.tobytes() == freqs.tobytes()
        assert back.powers_dbm.tobytes() == powers.tobytes()
        assert back.rbw_hz == float(f"{rbw_hz:.10g}")
        assert back.label == label


def read_back(source):
    """What ``load_trace`` makes of ``source``, comparable bit for bit; any
    warning fails."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            trace = tracefit.load_trace(source)
        except Exception as exc:
            return type(exc), str(exc), getattr(exc, "line", None)
    return ("trace", trace.frequencies_hz.tobytes(), trace.powers_dbm.tobytes(),
            repr(trace.rbw_hz), trace.label)


def assert_file_reads_as_its_text(path, text):
    """``load_trace`` of the file ``path`` holding ``text`` gives what it
    gives for the text itself, read from a byte stream."""
    path.write_bytes(text.encode("utf-8"))
    assert read_back(path) == read_back(io.BytesIO(text.encode("utf-8")))


def loadtxt_sources(path):
    """The first argument of every ``np.loadtxt`` call that reading ``path`` makes."""
    with mock.patch.object(np, "loadtxt", wraps=np.loadtxt) as loadtxt:
        with contextlib.suppress(TraceParseError):
            tracefit.load_trace(path)
    return [call.args[0] for call in loadtxt.call_args_list]


class TestFileParity:
    """A file reads as its text, whether numpy reads its body from the file or
    from the list of its lines."""

    @pytest.fixture(scope="class")
    def path(self, tmp_path_factory):
        return tmp_path_factory.mktemp("parity") / "trace.csv"

    @settings(max_examples=600, deadline=None, derandomize=True, database=None)
    @given(text=trace_texts())
    def test_file_agrees_with_its_text(self, path, text):
        assert_file_reads_as_its_text(path, text)

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(text=st.text(alphabet=ALPHABET, max_size=60))
    def test_agree_on_arbitrary_text(self, path, text):
        assert_file_reads_as_its_text(path, "frequency_hz,power_dbm\n" + text)
        assert_file_reads_as_its_text(path, text)

    @pytest.mark.parametrize("end", ["\r\n", "\r"] + list(OTHER_LINE_BREAKS))
    def test_line_ends(self, path, end):
        assert_file_reads_as_its_text(path, GOOD_CSV.replace("\n", end))
        assert_file_reads_as_its_text(path, GOOD_CSV.replace("1060000,", f"1060000,{end}"))

    @pytest.mark.parametrize("text", [
        "\ufeff" + GOOD_CSV,
        GOOD_CSV.replace("bench trace", "run 3, \u03be=0.72"),
        "frequency_hz,power_dbm\n",
        "frequency_hz,power_dbm\n\r\n\n",
        "frequency_hz,power_dbm\n1e6,-80\n# rbw_hz=1000\n# label=late\n2e6,-81\n",
        GOOD_CSV.replace("\n", "\n\n  \n"),
        GOOD_CSV.replace("1060000,-79.9", "1060000,oops"),
        GOOD_CSV.replace("1060000,-79.9", "1060000,-79.9\x00"),
    ], ids=["bom", "non-ascii-label", "header-only", "header-and-blank-lines",
            "metadata-after-header", "blank-lines", "bad-row", "nul"])
    def test_edge_cases(self, path, text):
        assert_file_reads_as_its_text(path, text)

    def test_crlf_label_loses_its_line_end(self, path):
        path.write_bytes(GOOD_CSV.replace("\n", "\r\n").encode())
        assert tracefit.load_trace(path).label == "bench trace"

    @pytest.mark.parametrize("suffix", [".gz", ".bz2", ".xz", ".lzma"])
    def test_compressed_suffix_reads_as_plain_text(self, tmp_path, suffix):
        path = tmp_path / f"trace.csv{suffix}"
        assert_file_reads_as_its_text(path, GOOD_CSV)
        assert loadtxt_sources(path) != [path]

    def test_gzip_file_is_refused_as_not_utf8(self, tmp_path):
        path = tmp_path / "trace.csv.gz"
        path.write_bytes(gzip.compress(GOOD_CSV.encode()))
        with pytest.raises(UnicodeDecodeError):
            tracefit.load_trace(path)

    def test_wellformed_ascii_file_goes_to_loadtxt_as_its_path(self, path):
        path.write_bytes(GOOD_CSV.replace("\n", "\r\n").encode())
        with mock.patch.object(tracefit, "_walk", wraps=tracefit._walk) as walk:
            assert loadtxt_sources(path) == [path]
        assert not walk.called

    @pytest.mark.parametrize("text", [
        GOOD_CSV.replace("bench trace", "\u03be"), GOOD_CSV.replace("\n", "\x0b"),
    ], ids=["non-ascii", "vertical-tab"])
    def test_other_files_go_to_loadtxt_as_lines(self, path, text):
        path.write_bytes(text.encode())
        [source] = loadtxt_sources(path)
        assert isinstance(source, list)

    def test_a_file_that_is_not_regular_is_read_once(self, tmp_path):
        fifo = tmp_path / "trace.csv"
        os.mkfifo(fifo)
        writer = threading.Thread(target=fifo.write_text, args=(GOOD_CSV,), daemon=True)
        writer.start()
        loadtxt = np.loadtxt

        def lines_only(source, *args, **kwargs):
            assert isinstance(source, list), "a second read of the FIFO would block"
            return loadtxt(source, *args, **kwargs)

        with mock.patch.object(np, "loadtxt", side_effect=lines_only):
            trace = tracefit.load_trace(fifo)
        writer.join(timeout=10)
        assert not writer.is_alive()
        assert (len(trace), trace.rbw_hz, trace.label) == (8, 30000.0, "bench trace")

    def test_full_size_file_read_peaks_under_ten_megabytes(self, tmp_path):
        path = tmp_path / "trace.csv"
        nu = tracefit.grid_hz(0.5e6, 10e6, 100.0)
        trace = tracefit.synth_trace(PARAMS_A, "intensity", nu, 0.05, seed=4)
        path.write_text(tracefit.trace_to_csv(trace), encoding="utf-8")
        tracemalloc.start()
        try:
            trace = tracefit.load_trace(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(trace) == 95_001
        assert peak < 10_000_000


LABEL_BREAKS = "\n\r" + OTHER_LINE_BREAKS


class TestTraceShape:
    @pytest.mark.parametrize("freqs, powers", [
        ([1e6, 2e6], [-80.0]), ([[1e6, 2e6]], [[-80.0, -81.0]]),
    ], ids=["lengths", "two-dimensional"])
    def test_arrays_of_other_shapes_are_refused(self, freqs, powers):
        with pytest.raises(ValidationError, match="must be 1-d and equal length"):
            tracefit.SpectrumTrace(freqs, powers)

    @pytest.mark.parametrize("freqs, after", [([2e6, 1e6], 0), ([1e6, 2e6, 2e6], 1)])
    def test_frequencies_that_do_not_increase_are_refused(self, freqs, after):
        with pytest.raises(ValidationError, match=re.escape(
                f"frequencies must be strictly increasing (violated after sample {after})")):
            tracefit.SpectrumTrace(freqs, np.full(len(freqs), -80.0))


@pytest.mark.parametrize("make", [
    lambda: fock.make_fock([1, 1], cutoff=2),
    lambda: tracefit.SpectrumTrace([1e6, 2e6], [-80.0, -81.0]),
    lambda: SpectrumCurve([1e6, 2e6], [1.0, 0.5], "relative"),
    lambda: tracefit.FitResult(-80.0, 0.5, 3e6, np.eye(3), 0.1, 40, 5),
], ids=["MultimodeState", "SpectrumTrace", "SpectrumCurve", "FitResult"])
def test_records_holding_arrays_compare_and_hash_by_identity(make):
    # generated value equality compared arrays, and raised on ==, in and hash
    record = make()
    assert record == record
    assert record != copy.copy(record)
    assert record in [record]
    assert {record, record} == {record}


class TestTraceLabel:
    @pytest.mark.parametrize("char", list(LABEL_BREAKS))
    def test_line_break_in_label_rejected(self, char):
        with pytest.raises(ValidationError, match="label must be one line"):
            tracefit.SpectrumTrace([1e6, 2e6], [-80.0, -81.0], 30e3, f"run{char}B")

    def test_label_that_is_not_utf8_rejected(self):
        with pytest.raises(ValidationError, match="label is not UTF-8 text"):
            tracefit.SpectrumTrace([1e6, 2e6], [-80.0, -81.0], 30e3, "run\udcffB")

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(label=st.text(st.one_of(st.sampled_from(LABEL_BREAKS + " \t\x1f#=,\udcff"),
                                   st.characters()), max_size=12))
    def test_every_accepted_label_reads_back(self, label):
        try:
            trace = tracefit.synth_trace(PARAMS_A, "intensity", tracefit.grid_hz(1e6, 2e6, 5e5),
                                         label=label)
        except ValidationError:
            assert label.splitlines() != [label] or "\udcff" in label
            return
        text = tracefit.trace_to_csv(trace)
        assert tracefit.load_trace(io.BytesIO(text.encode("utf-8"))).label == trace.label


class TestNoiseFloor:
    def test_pointwise_linear_subtraction(self):
        signal = flat_trace(-84.5, start=1e6, stop=9e6)
        floor = flat_trace(-94.5)
        corrected, dropped = tracefit.subtract_noise_floor(signal, floor)
        # 10 dB below: correction is 10 log10(1 - 0.1) = -0.458 dB
        expected = -84.5 + 10.0 * np.log10(1.0 - 10.0**-1)
        np.testing.assert_allclose(corrected.powers_dbm, expected, atol=1e-10)
        assert dropped.size == 0

    def test_subtract_then_add_back_is_identity(self):
        signal = tracefit.synth_trace(PARAMS_A, "intensity", tracefit.grid_hz(1e6, 9e6, 100e3),
                                      0.2, seed=3)
        floor = flat_trace(-93.0)
        corrected, _ = tracefit.subtract_noise_floor(signal, floor)
        floor_mw = np.interp(corrected.frequencies_hz, floor.frequencies_hz, floor.powers_mw())
        restored = 10.0 * np.log10(corrected.powers_mw() + floor_mw)
        np.testing.assert_allclose(restored, signal.powers_dbm, atol=1e-10)

    def test_floor_above_signal_everywhere(self):
        signal = flat_trace(-95.0, start=1e6, stop=9e6)
        with pytest.raises(ValidationError):
            tracefit.subtract_noise_floor(signal, flat_trace(-90.0))

    def test_partially_swamped_points_dropped_and_reported(self):
        nu = tracefit.grid_hz(1e6, 5e6, 1e6)
        powers = np.array([-80.0, -95.0, -80.0, -96.0, -80.0])
        signal = tracefit.SpectrumTrace(nu, powers)
        corrected, dropped = tracefit.subtract_noise_floor(signal, flat_trace(-90.0))
        assert len(corrected) == 3
        np.testing.assert_allclose(dropped, [2e6, 4e6])

    def test_floor_must_cover_span(self):
        signal = flat_trace(-80.0, start=0.1e6, stop=9e6)
        with pytest.raises(ValidationError):
            tracefit.subtract_noise_floor(signal, flat_trace(-90.0, start=0.5e6))


class TestFit:
    def test_noiseless_roundtrip_recovers_parameters(self):
        for params in (PARAMS_A, PARAMS_B):
            trace = tracefit.synth_trace(params, "intensity", COARSE_GRID, 0.0)
            fit = tracefit.fit_intensity_spectrum(trace, tracefit.FitConfig.standard())
            assert fit.s0_dbm == pytest.approx(params.s0_dbm, abs=1e-6)
            assert fit.xi == pytest.approx(params.xi, rel=1e-6)
            assert fit.delta_hz == pytest.approx(params.delta_hz, rel=1e-6)
            assert fit.rms_residual_db < 1e-10

    def test_noisy_roundtrip_within_two_percent(self):
        trace = tracefit.synth_trace(PARAMS_A, "intensity", FINE_GRID, 0.2, seed=7)
        fit = tracefit.fit_intensity_spectrum(trace, tracefit.FitConfig.standard())
        assert fit.s0_dbm == pytest.approx(PARAMS_A.s0_dbm, abs=0.1)
        assert fit.xi == pytest.approx(PARAMS_A.xi, rel=0.02)
        assert fit.delta_hz == pytest.approx(PARAMS_A.delta_hz, rel=0.02)

    def test_deterministic_given_config(self):
        trace = tracefit.synth_trace(PARAMS_B, "intensity", COARSE_GRID, 0.2, seed=11)
        config = tracefit.FitConfig.standard()
        first = tracefit.fit_intensity_spectrum(trace, config)
        second = tracefit.fit_intensity_spectrum(trace, config)
        assert first.to_dict() == second.to_dict()
        assert first.iterations == second.iterations

    def test_estimator_consistency_as_noise_shrinks(self):
        errors = []
        for noise in (0.5, 0.1, 0.02):
            trace = tracefit.synth_trace(PARAMS_A, "intensity", FINE_GRID, noise, seed=21)
            fit = tracefit.fit_intensity_spectrum(trace, tracefit.FitConfig.standard())
            errors.append(
                abs(fit.xi - PARAMS_A.xi) / PARAMS_A.xi
                + abs(fit.delta_hz - PARAMS_A.delta_hz) / PARAMS_A.delta_hz
                + abs(fit.s0_dbm - PARAMS_A.s0_dbm)
            )
        assert errors[0] > errors[1] > errors[2]
        assert errors[2] < 5e-3

    def test_empty_exclusion_band_changes_nothing(self):
        trace = tracefit.synth_trace(PARAMS_A, "intensity", COARSE_GRID, 0.2, seed=13)
        base = tracefit.FitConfig.standard()
        # a band between grid points: (10 MHz span, 30 kHz step) misses 2.5105..2.5125
        padded = tracefit.FitConfig.standard(
            exclusions_hz=base.exclusions_hz + ((2.5105e6, 2.5125e6),)
        )
        first = tracefit.fit_intensity_spectrum(trace, base)
        second = tracefit.fit_intensity_spectrum(trace, padded)
        assert first.to_dict() == second.to_dict()

    def test_spur_exclusion_protects_fit(self):
        clean = tracefit.synth_trace(PARAMS_A, "intensity", COARSE_GRID, 0.2, seed=17)
        spur_band = (3.85e6, 3.95e6)
        in_band = (clean.frequencies_hz >= spur_band[0]) & (clean.frequencies_hz <= spur_band[1])
        powers = clean.powers_dbm.copy()
        powers[in_band] += 15.0  # narrowband modulation spur
        spurred = tracefit.SpectrumTrace(clean.frequencies_hz, powers, clean.rbw_hz, "spur")
        fit_clean = tracefit.fit_intensity_spectrum(
            clean, tracefit.FitConfig(fit_window_hz=(2e6, np.inf))
        )
        fit_spurred = tracefit.fit_intensity_spectrum(
            spurred, tracefit.FitConfig.standard()  # excludes the spur band
        )
        assert fit_spurred.xi == pytest.approx(fit_clean.xi, rel=5e-3)
        assert fit_spurred.delta_hz == pytest.approx(fit_clean.delta_hz, rel=5e-3)
        assert fit_spurred.s0_dbm == pytest.approx(fit_clean.s0_dbm, abs=0.05)

    def test_fewer_than_eight_points_refused_before_windowing(self):
        nu = np.arange(1, 8) * 1e6
        with pytest.raises(ValidationError, match="^need at least 8 trace points, got 7$"):
            tracefit.fit_intensity_spectrum(tracefit.SpectrumTrace(nu, np.full(7, -80.0)))

    def test_a_step_with_no_descent_ends_the_fit_by_name(self):
        # a 60 dB step in the middle: lambda climbs past 1e15 with no step
        # lowering the SSE, while delta runs off along the flat top
        nu = np.linspace(2.1e6, 9e6, 40)
        trace = tracefit.SpectrumTrace(nu, np.r_[np.full(20, -80.0), np.full(20, -20.0)])
        message = "no damped step lowers the SSE after 25 iterations (sse "
        with pytest.raises(FitConvergenceError, match=re.escape(message)) as err:
            tracefit.fit_intensity_spectrum(trace, tracefit.FitConfig())
        assert "last params [" in str(err.value) and err.value.iterations == 25
        assert err.value.last_params[1] == 1.0

    def test_too_few_points_rejected(self):
        trace = tracefit.load_trace(io.StringIO(GOOD_CSV))
        config = tracefit.FitConfig(fit_window_hz=(1.0e6, 1.1e6))
        with pytest.raises(ValidationError):
            tracefit.fit_intensity_spectrum(trace, config)

    def test_nonconvergence_carries_last_iterate(self):
        # a flat trace on which xi -> 1 and delta -> inf creep until the iterations run out
        params = OpoParams.from_correlation(0.72, 3e6, -80.0)
        trace = tracefit.synth_trace(params, "flat", COARSE_GRID, noise_db=0.1, seed=7)
        with pytest.raises(FitConvergenceError) as err:
            tracefit.fit_intensity_spectrum(trace, tracefit.FitConfig.standard())
        assert err.value.last_params is not None
        assert err.value.iterations == tracefit.MAX_ITERATIONS == 200

    def test_linear_weighting_also_recovers(self):
        trace = tracefit.synth_trace(PARAMS_A, "intensity", COARSE_GRID, 0.0)
        config = tracefit.FitConfig.standard(weight_space="linear")
        fit = tracefit.fit_intensity_spectrum(trace, config)
        assert fit.xi == pytest.approx(PARAMS_A.xi, rel=1e-6)
        assert fit.delta_hz == pytest.approx(PARAMS_A.delta_hz, rel=1e-6)

    def test_floor_in_config_is_applied(self):
        trace = tracefit.synth_trace(PARAMS_A, "intensity", tracefit.grid_hz(2.2e6, 9.8e6, 30e3),
                                     0.0)
        mixed_mw = trace.powers_mw() + 10.0 ** (-94.5 / 10.0)
        contaminated = tracefit.SpectrumTrace(
            trace.frequencies_hz, 10.0 * np.log10(mixed_mw), trace.rbw_hz
        )
        config = tracefit.FitConfig(noise_floor=flat_trace(-94.5))
        fit = tracefit.fit_intensity_spectrum(contaminated, config)
        assert fit.xi == pytest.approx(PARAMS_A.xi, rel=1e-6)

    def test_bad_weight_space_rejected(self):
        with pytest.raises(ValidationError):
            tracefit.FitConfig(weight_space="log")

    def test_bad_xi_guess_rejected(self):
        with pytest.raises(ValidationError):
            tracefit.FitConfig(initial_guess=(-79.0, 1.5, 3e6))

    @pytest.mark.parametrize("guess", [
        (-80.0, 0.5, math.nan), (-80.0, 0.5, math.inf), (math.nan, 0.5, 3e6),
        (-math.inf, 0.5, 3e6), (-80.0, math.nan, 3e6),
    ])
    def test_non_finite_guess_rejected(self, guess):
        with pytest.raises(ValidationError, match="initial guess must be finite"):
            tracefit.FitConfig(initial_guess=guess)


def windowed(trace, config):
    mask = tracefit.usable_mask(trace, config)
    return trace.frequencies_hz[mask], trace.powers_dbm[mask]


def model_at(nu2, params, y, linear):
    """:func:`tracefit._model` moved from its closed-form S0 to params[0]."""
    f, s0, *_ = tracefit._model(nu2, params, y, float(np.sum(y)), linear)
    return f * 10.0 ** ((params[0] - s0) / 10.0) if linear else f - s0 + params[0]


class TestBoundedFit:
    @pytest.mark.parametrize("linear", [False, True])
    def test_jacobian_matches_central_differences(self, linear):
        nu = tracefit.grid_hz(2e6, 10e6, 50e3)
        rng = np.random.default_rng(5)
        for params in ([-80.0, 0.72, 2.98e6], [-79.0, 0.999, 1.9e6], [-81.0, 1.0, 2.5e6],
                       *([rng.uniform(-85, -75), rng.uniform(0.05, 1.0), rng.uniform(1e6, 5e6)]
                         for _ in range(8))):
            params = np.array(params)
            y_db = oracles.intensity_db(nu, *params)
            y = 10.0 ** (y_db / 10.0) if linear else y_db
            f = model_at(nu * nu, params, y, linear)
            _, _, *factors = tracefit._model(nu * nu, params, y, float(np.sum(y)), linear)
            jac = np.empty((3, nu.size))
            tracefit._jacobian(params, f, *factors, linear, jac)
            for k, h in enumerate((1e-4, 1e-7, 1e-6 * params[2])):
                up, down = params.copy(), params.copy()
                up[k] += h
                down[k] -= h
                numeric = (model_at(nu * nu, up, y, linear)
                           - model_at(nu * nu, down, y, linear)) / (2.0 * h)
                np.testing.assert_allclose(jac[k], numeric, rtol=1e-6,
                                           atol=1e-6 * np.abs(numeric).max())

    def test_model_does_not_cancel_near_xi_one(self):
        # exact binary values: r^2 = 2^-34 and 1 - xi = 2^-40
        xi, delta = 1.0 - 2.0**-40, 2.0**17
        exact = (Fraction(2) ** -40 + Fraction(2) ** -34) / (1 + Fraction(2) ** -34)
        f = model_at(np.array([1.0]), (0.0, xi, delta), np.zeros(1), False)
        assert f[0] == pytest.approx(10.0 * math.log10(exact), abs=1e-12)

    @pytest.mark.parametrize("space", ["db", "linear"])
    def test_interior_fits_match_the_reference_loop(self, space):
        rng = np.random.default_rng(20261018)
        config = tracefit.FitConfig.standard(weight_space=space)
        for _ in range(200):
            params = OpoParams.from_correlation(
                rng.uniform(0.3, 0.9), rng.uniform(2.5e6, 4e6), rng.uniform(-82.0, -78.0))
            trace = tracefit.synth_trace(params, "intensity", COARSE_GRID,
                                         rng.uniform(0.02, 0.2), seed=int(rng.integers(2**31)))
            nu, y_db = windowed(trace, config)
            ref_params, ref_sse, _ = oracles.fit_reference_lm(nu, y_db, space)
            fit = tracefit.fit_intensity_spectrum(trace, config)
            got = np.array([fit.s0_dbm, fit.xi, fit.delta_hz])
            np.testing.assert_allclose(got, ref_params, rtol=1e-6, atol=0.0)
            model = oracles.intensity_db(nu, *got)
            res = y_db - model if space == "db" else 10.0 ** (y_db / 10) - 10.0 ** (model / 10)
            assert float(res @ res) <= ref_sse * (1.0 + 1e-9)

    @pytest.mark.parametrize("space", ["db", "linear"])
    def test_noise_free_sweep_recovers_parameters(self, space):
        # powers near -80 dBm are 1e-11 mW, so in linear power an SSE test
        # that is not relative to the data would stop these fits early
        rng = np.random.default_rng(300)
        config = tracefit.FitConfig.standard(weight_space=space)
        iterations = []
        for _ in range(300):
            truth = np.array([rng.uniform(-85.0, -75.0), rng.uniform(0.3, 0.95),
                              rng.uniform(1.5e6, 4e6)])
            params = OpoParams.from_correlation(*truth[1:], truth[0])
            trace = tracefit.synth_trace(params, "intensity", COARSE_GRID)
            fit = tracefit.fit_intensity_spectrum(trace, config)
            np.testing.assert_allclose([fit.s0_dbm, fit.xi, fit.delta_hz], truth, rtol=1e-9)
            iterations.append(fit.iterations)
        # stopping only on a small achieved improvement, these fits took up to
        # 41 (dB) and 31 (linear) iterations, 18.6 and 11.7 on average, many
        # of them retrying steps at rounding level; the longest fits left
        # spend theirs far from the optimum
        assert max(iterations) <= 24
        assert np.mean(iterations) < 10.0

    def test_near_bound_sweep_converges(self):
        # the loop that clamped xi after an unconstrained step ran out of
        # iterations on 19 of these 200 traces
        rng = np.random.default_rng(9026)
        config = tracefit.FitConfig.standard()
        on_bound = []
        for seed in range(200):
            params = OpoParams.from_correlation(
                rng.uniform(0.9, 0.995), rng.uniform(1.5e6, 2.5e6), -80.0)
            trace = tracefit.synth_trace(params, "intensity", COARSE_GRID,
                                         noise_db=rng.uniform(0.1, 0.2), seed=seed)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                fit = tracefit.fit_intensity_spectrum(trace, config)
            assert fit.xi_at_boundary == bool(caught)
            if fit.xi_at_boundary:
                assert fit.xi == 1.0
                on_bound.append((trace, fit))
        assert len(on_bound) >= 20
        for trace, fit in on_bound[:4]:
            nu, y_db = windowed(trace, config)
            grid_sse, _ = oracles.bounded_grid_sse(
                nu, y_db, 0.9, 101, np.linspace(0.8, 1.2, 161) * fit.delta_hz)
            model = oracles.intensity_db(nu, fit.s0_dbm, fit.xi, fit.delta_hz)
            assert float(np.sum((y_db - model) ** 2)) <= grid_sse * (1.0 + 1e-9)

    @pytest.mark.parametrize("seed", [1, 11, 15])
    def test_flat_trace_on_the_lower_bound_fits_its_mean_level(self, seed):
        # at xi = 1e-9 the model depends on delta only at the 1e-9 level, so
        # where J^T r points below the bound the fit ends: S0 is already at
        # its closed form. A step that moved delta sent it off to ~1e85 and
        # the fit raised; with S0 damped as a third parameter, seeds 11 and
        # 15 still did
        params = OpoParams.from_correlation(0.7, 3e6, -80.0)
        trace = tracefit.synth_trace(params, "flat", COARSE_GRID, noise_db=0.1, seed=seed)
        config = tracefit.FitConfig.standard()
        with pytest.warns(UserWarning, match="pinned at its boundary"):
            fit = tracefit.fit_intensity_spectrum(trace, config)
        assert fit.xi == 1e-9
        assert fit.iterations <= 3
        assert fit.s0_dbm == pytest.approx(windowed(trace, config)[1].mean(), abs=1e-6)

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(st.floats(0.05, 0.995), st.floats(1e6, 5e6), st.floats(-90.0, -70.0),
           st.sampled_from([0.0, 0.02, 0.1, 0.3]), st.sampled_from(["intensity", "flat"]),
           st.sampled_from(["db", "linear"]), st.integers(0, 2**31 - 1))
    def test_every_fit_has_s0_at_its_closed_form(self, xi, delta, s0, noise_db, which,
                                                 space, seed):
        # in dB the residual sums to zero at the optimal offset; in linear
        # power it is orthogonal to the model at the optimal scale, up to the
        # rounding of that scale in dB, eps |S0| ln(10)/10 relative
        params = OpoParams.from_correlation(xi, delta, s0)
        trace = tracefit.synth_trace(params, which, COARSE_GRID, noise_db=noise_db, seed=seed)
        config = tracefit.FitConfig.standard(weight_space=space)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)
                fit = tracefit.fit_intensity_spectrum(trace, config)
        except FitConvergenceError:
            return
        nu, y_db = windowed(trace, config)
        f_db = oracles.intensity_db(nu, fit.s0_dbm, fit.xi, fit.delta_hz)
        eps = np.finfo(float).eps
        if space == "db":
            assert abs(np.sum(y_db - f_db)) <= 8.0 * nu.size * eps * np.abs(y_db).max()
        else:
            y, f = 10.0 ** (y_db / 10.0), 10.0 ** (f_db / 10.0)
            scale_rounding = 1.0 + np.abs(y_db).max() * math.log(10.0) / 10.0
            assert abs((y - f) @ f) <= 8.0 * nu.size * eps * y.max() * f.max() * scale_rounding

    def test_flat_trace_with_a_vanishing_delta_column_raises(self):
        # this used to escape as numpy's LinAlgError once delta had run off
        # to ~1e67 and the normal equations were singular; now xi -> 1 and
        # delta -> inf creep along a valley until the iterations run out
        params = OpoParams.from_correlation(0.7, 3e6, -80.0)
        trace = tracefit.synth_trace(params, "flat", COARSE_GRID, noise_db=0.1, seed=7)
        with pytest.raises(FitConvergenceError, match="no convergence after 200 iterations"):
            tracefit.fit_intensity_spectrum(trace, tracefit.FitConfig.standard())


class TestStopRule:
    @pytest.mark.parametrize("space", ["db", "linear"])
    @pytest.mark.parametrize("noise_db", [0.0, 0.1])
    def test_zero_tolerance_converges_at_the_rounding_floor(self, space, noise_db, monkeypatch):
        # with no relative tolerance only the SSE's rounding floor ends the
        # fit; it must not run out its iterations retrying rounding-level steps
        trace = tracefit.synth_trace(PARAMS_A, "intensity", COARSE_GRID, noise_db, seed=3)
        config = tracefit.FitConfig.standard(weight_space=space)
        with monkeypatch.context() as patch:
            patch.setattr(tracefit, "CONVERGENCE_TOL", 0.0)
            fit = tracefit.fit_intensity_spectrum(trace, config)
        assert fit.iterations <= 30
        default = tracefit.fit_intensity_spectrum(trace, config)
        np.testing.assert_allclose([fit.s0_dbm, fit.xi, fit.delta_hz],
                                   [default.s0_dbm, default.xi, default.delta_hz], rtol=1e-9)

    @pytest.mark.parametrize("space", ["db", "linear"])
    def test_covariance_is_numpys_on_either_exit(self, space, monkeypatch):
        # the loop ends after a kept step (J rebuilt at the result) or after a
        # rejected one (the Gram product in hand is already at the result)
        events = []
        jacobian, model = tracefit._jacobian, tracefit._model
        monkeypatch.setattr(tracefit, "_jacobian",
                            lambda *args: (events.append("J"), jacobian(*args))[1])
        monkeypatch.setattr(tracefit, "_model", lambda nu2, params, y, y_sum, linear: (
            events.append(linear), model(nu2, params, y, y_sum, linear))[1])
        linear = space == "linear"
        config = tracefit.FitConfig.standard(weight_space=space)
        rng = np.random.default_rng(1013)
        exits = set()
        for _ in range(40):
            params = OpoParams.from_correlation(
                rng.uniform(0.3, 0.9), rng.uniform(2.5e6, 4e6), rng.uniform(-82.0, -78.0))
            trace = tracefit.synth_trace(params, "intensity", COARSE_GRID,
                                         rng.uniform(0.02, 0.2), seed=int(rng.integers(2**31)))
            events.clear()
            fit = tracefit.fit_intensity_spectrum(trace, config)
            # the last candidate model in the weight space, or a Jacobian after it
            exits.add([e for e in events if e in ("J", linear)][-1] == "J")
            nu, y_db = windowed(trace, config)
            res, jac = oracles.residual_and_jacobian_at(
                nu, y_db, (fit.s0_dbm, fit.xi, fit.delta_hz), space)
            want = np.linalg.inv(jac.T @ jac) * (res @ res) / (nu.size - 3)
            np.testing.assert_allclose(fit.covariance, want, rtol=1e-8, atol=0.0)
        assert exits == {True, False}

    def test_singular_normal_equations_give_a_nan_covariance(self):
        # at delta = 1e200 every r^2 underflows to 0 and the delta column of J
        # is exactly 0; xi is held on its lower bound and only S0 moves
        nu = tracefit.grid_hz(0.4e6, 10.5e6, 50e3)
        trace = tracefit.SpectrumTrace(
            nu, -80.0 + 0.1 * np.random.default_rng(4).normal(size=nu.size))
        config = tracefit.FitConfig.standard(initial_guess=(-81.0, 1e-9, 1e200))
        with pytest.warns(UserWarning, match="pinned at its boundary"):
            fit = tracefit.fit_intensity_spectrum(trace, config)
        assert fit.s0_dbm == pytest.approx(windowed(trace, config)[1].mean(), abs=1e-6)
        assert np.isnan(fit.covariance).all()


FREE_SETS = [(1, 2), (2,)]


def gram_rows(rng, log_cond):
    """Rows (J; r) of 20 points whose J^T J has condition number 10^log_cond,
    with r not orthogonal to the S0 row, as it is off the closed form."""
    u, _ = np.linalg.qr(rng.normal(size=(20, 4)))
    v, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    spread = np.array([0.0, rng.uniform(0.0, log_cond / 2), log_cond / 2])
    jac = (u[:, :3] * 10.0 ** (rng.uniform(-3.0, 3.0) + spread)) @ v.T
    res = u[:, 3] * 10.0 ** rng.uniform(-3.0, 3.0) + jac @ rng.normal(size=3)
    return jac, res, np.vstack([jac.T, res])


class TestScalarArithmetic:
    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(st.sampled_from(FREE_SETS), st.floats(-15.0, 3.0), st.floats(0.0, 8.0),
           st.integers(0, 2**32 - 1))
    def test_damped_step_matches_numpy_solve(self, free, log_lam, log_cond, seed):
        jac, res, rows = gram_rows(np.random.default_rng(seed), log_cond)
        lam = 10.0**log_lam
        want, _ = oracles.projected_damped_step(jac, res, free, lam)
        *step, _ = tracefit._damped_step((rows @ rows.T).tolist(), free, lam)
        assert [step[p - 1] for p in (1, 2) if p not in free] == [0.0] * (2 - len(free))
        # the Schur complement of the Gram matrix carries the Gram's rounding,
        # eps times cond^2 for cond that of the free rows with S0's; numpy's
        # projection of J does not (15 cond^2 eps apart at most over 20 000 draws)
        bound = max(1e-9, 32.0 * np.linalg.cond(jac[:, [0, *free]]) ** 2 * np.finfo(float).eps)
        assert np.linalg.norm(np.subtract(step, want)) <= bound * np.linalg.norm(want)

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(st.sampled_from(FREE_SETS), st.floats(-15.0, 3.0), st.integers(0, 2**32 - 1))
    def test_predicted_reduction_is_the_linear_model_one(self, free, log_lam, seed):
        # ||r||^2 - ||r - J_p x||^2 = 2 x^T J_p^T r - x^T J_p^T J_p x for the damped step x
        rng = np.random.default_rng(seed)
        jac = rng.normal(size=(20, 3)) * 10.0 ** rng.uniform(-3.0, 3.0, size=3)
        res = rng.normal(size=20) * 10.0 ** rng.uniform(-3.0, 3.0)
        rows = np.vstack([jac.T, res])
        lam = 10.0**log_lam
        _, want = oracles.projected_damped_step(jac, res, free, lam)
        *_, got = tracefit._damped_step((rows @ rows.T).tolist(), free, lam)
        assert got == pytest.approx(want, rel=1e-9, abs=1e-12 * (res @ res))

    @pytest.mark.parametrize("lam", [1e-15, 1e-3, 1e3])
    @pytest.mark.parametrize("free", FREE_SETS)
    def test_a_jacobian_row_of_zeros_is_singular(self, free, lam):
        rows = np.random.default_rng(3).normal(size=(4, 20))
        for p in (0, *free):
            zeroed = rows.copy()
            zeroed[p] = 0.0
            assert tracefit._damped_step((zeroed @ zeroed.T).tolist(), free, lam) is None

    def test_initial_guess_is_the_numpy_formula_bit_for_bit(self):
        rng = np.random.default_rng(2026)
        top_parities = set()
        for _ in range(3000):
            nu = np.sort(rng.choice(np.arange(1, 20_000), size=rng.integers(1, 400),
                                    replace=False)) * 1e3
            params = OpoParams.from_correlation(rng.uniform(0.05, 1.0), rng.uniform(0.5e6, 6e6),
                                                rng.uniform(-90.0, -70.0))
            y_db = tracefit.synth_trace(params, "intensity", nu, rng.uniform(0.0, 0.3),
                                        seed=int(rng.integers(2**31))).powers_dbm
            if rng.random() < 0.3:
                y_db = np.round(y_db, 1)  # ties in the top quarter
            got = tracefit._initial_guess(nu, y_db)
            want = oracles.initial_guess(nu, y_db)
            assert np.array(got).tobytes() == np.array(want).tobytes()
            top_parities.add(max(1, nu.size // 4) % 2)
        assert top_parities == {0, 1}


class TestNonFiniteSamples:
    # a NaN frequency passed the increasing check, a NaN or inf power ran the
    # fit into "no damped step lowers the SSE", and a NaN floor power gave a
    # NaN corrected squeezing level
    @pytest.mark.parametrize("column, value", [
        ("frequencies", np.nan), ("frequencies", np.inf),
        ("powers", np.nan), ("powers", np.inf), ("powers", -np.inf),
    ])
    def test_rejected(self, column, value):
        nu = COARSE_GRID.copy()
        powers = np.full(nu.size, -80.0)
        (nu if column == "frequencies" else powers)[100] = value
        with pytest.raises(ValidationError, match="must be finite"):
            tracefit.SpectrumTrace(nu, powers)


class TestPrediction:
    def fit_a(self):
        trace = tracefit.synth_trace(PARAMS_A, "intensity", COARSE_GRID, 0.0)
        return tracefit.fit_intensity_spectrum(trace, tracefit.FitConfig.standard())

    def test_high_frequency_approaches_shot_noise(self):
        curve = tracefit.predict_phase_spectrum(self.fit_a(), [500e6])
        assert curve.values[0] == pytest.approx(-79.0, abs=1e-3)

    def test_linewidth_point_value(self):
        trace = tracefit.synth_trace(PARAMS_B, "intensity", COARSE_GRID, 0.0)
        fit = tracefit.fit_intensity_spectrum(trace, tracefit.FitConfig.standard())
        curve = tracefit.predict_phase_spectrum(fit, [fit.delta_hz])
        assert curve.values[0] == pytest.approx(-79.5 + 10 * np.log10(1.5), abs=1e-5)

    def test_no_extra_free_parameters(self):
        # the predicted curve is a pure function of the fitted triple
        fit = self.fit_a()
        nu = np.linspace(0.6e6, 9e6, 101)
        expected = fit.s0_dbm + 10.0 * np.log10(1.0 + fit.xi / (nu / fit.delta_hz) ** 2)
        np.testing.assert_allclose(
            tracefit.predict_phase_spectrum(fit, nu).values, expected, atol=1e-12
        )

    @pytest.mark.parametrize("field, value", [
        ("delta_hz", math.nan), ("delta_hz", math.inf),
        ("s0_dbm", math.nan), ("s0_dbm", math.inf), ("s0_dbm", -math.inf),
    ])
    def test_non_finite_fit_is_refused(self, field, value):
        # these used to pass the guard and give a curve of NaN or inf
        fit = tracefit.FitResult(xi=0.72, covariance=np.zeros((3, 3)), rms_residual_db=0.0,
                                 points_used=100, iterations=1,
                                 **{"s0_dbm": -79.0, "delta_hz": 2.98e6, field: value})
        with pytest.raises(ValidationError, match="does not hold valid"):
            tracefit.predict_phase_spectrum(fit, [1e6, 2e6])


class TestSqueezingReport:
    def result(self, xi, s0=-79.0, delta=2.98e6):
        return tracefit.FitResult(
            s0_dbm=s0, xi=xi, delta_hz=delta, covariance=np.zeros((3, 3)),
            rms_residual_db=0.0, points_used=100, iterations=1,
        )

    def test_deep_squeezing_value(self):
        report = tracefit.report_squeezing(flat_trace(-80.0), self.result(0.72))
        assert report.raw_db == pytest.approx(-5.53, abs=0.005)

    def test_half_correlation_value(self):
        report = tracefit.report_squeezing(flat_trace(-80.0), self.result(0.5))
        assert report.raw_db == pytest.approx(-3.01, abs=0.005)

    def test_no_correlation_gives_zero(self):
        report = tracefit.report_squeezing(flat_trace(-80.0), self.result(0.0))
        assert report.raw_db == 0.0

    def test_complete_correlation_flagged(self):
        report = tracefit.report_squeezing(flat_trace(-80.0), self.result(1.0))
        assert report.raw_db is None and report.corrected_db is None

    def test_detection_correction_deepens_squeezing(self):
        # floor at -94.5 dBm against S0 = -79 dBm: about 0.46 dB more squeezing
        trace = flat_trace(-84.5, start=1e6, stop=9e6)
        report = tracefit.report_squeezing(trace, self.result(0.72), flat_trace(-94.5))
        floor_rel = 10.0 ** ((-94.5 + 79.0) / 10.0)
        expected = 10.0 * np.log10(0.28 - floor_rel)
        assert report.corrected_db == pytest.approx(expected, abs=1e-9)
        assert report.corrected_db - report.raw_db == pytest.approx(-0.461, abs=2e-3)

    def test_floor_without_a_sample_in_the_trace_span_rejected(self):
        floor = flat_trace(-94.5, start=20e6, stop=30e6)
        with pytest.raises(ValidationError, match="no sample in the trace span"):
            tracefit.report_squeezing(flat_trace(-84.5, 1e6, 10e6), self.result(0.72), floor)

    def test_correction_reaching_minus_six_db(self):
        # raw -5.5 dB with the floor 9.635 dB below the squeezed level -> -6.0 dB
        xi = 1.0 - 10.0 ** (-0.55)
        dip_dbm = -79.0 + 10.0 * np.log10(1.0 - xi)
        gap_db = -10.0 * np.log10(1.0 - 10.0 ** (-0.05))
        assert gap_db == pytest.approx(9.635, abs=1e-3)
        floor = flat_trace(dip_dbm - gap_db)
        report = tracefit.report_squeezing(
            flat_trace(dip_dbm, 1e6, 9e6), self.result(xi), floor
        )
        assert report.raw_db == pytest.approx(-5.5, abs=1e-9)
        assert report.corrected_db == pytest.approx(-6.0, abs=1e-9)


class TestSynth:
    @pytest.mark.parametrize("nu", [(1e6, 2e6, 3e6), [1e6, 2e6, 3e6], np.array([1e6, 2e6, 3e6])],
                             ids=["tuple", "list", "array"])
    def test_three_frequencies_give_three_points(self, nu):
        # a 3-tuple was once read as (start, stop, step): a 1-point trace
        trace = tracefit.synth_trace(PARAMS_A, "intensity", nu)
        np.testing.assert_array_equal(trace.frequencies_hz, [1e6, 2e6, 3e6])

    def test_noiseless_matches_model_exactly(self):
        trace = tracefit.synth_trace(PARAMS_A, "intensity", tracefit.grid_hz(1e6, 5e6, 500e3))
        u = trace.frequencies_hz / PARAMS_A.delta_hz
        expected = PARAMS_A.s0_dbm + 10 * np.log10(1 - PARAMS_A.xi / (1 + u**2))
        np.testing.assert_allclose(trace.powers_dbm, expected, atol=1e-12)

    def test_fixed_seed_reproducible(self):
        first = tracefit.synth_trace(PARAMS_A, "intensity", COARSE_GRID, 0.3, seed=9)
        second = tracefit.synth_trace(PARAMS_A, "intensity", COARSE_GRID, 0.3, seed=9)
        np.testing.assert_array_equal(first.powers_dbm, second.powers_dbm)

    def test_phase_trace_value_at_twice_linewidth(self):
        trace = tracefit.synth_trace(PARAMS_B, "phase", np.array([2 * PARAMS_B.delta_hz]))
        assert trace.powers_dbm[0] == pytest.approx(-79.5 + 10 * np.log10(1.125), abs=1e-10)

    def test_flat_trace_sits_at_shot_noise(self):
        trace = tracefit.synth_trace(PARAMS_A, "flat", tracefit.grid_hz(1e6, 3e6, 1e6))
        np.testing.assert_allclose(trace.powers_dbm, -79.0, atol=1e-12)

    def test_phase_model_rejects_zero_frequency(self):
        from twinbeam.errors import DomainError

        with pytest.raises(DomainError):
            tracefit.synth_trace(PARAMS_A, "phase", np.array([0.0, 1e6]))

    @pytest.mark.parametrize("noise_db", [-1.0, float("nan"), math.inf, -math.inf])
    def test_negative_noise_rejected(self, noise_db):
        with pytest.raises(ValidationError, match="noise_db"):
            tracefit.synth_trace(PARAMS_A, "intensity", COARSE_GRID, noise_db)

    @pytest.mark.parametrize("noise_db", [0.0, 0.1])
    def test_negative_seed_rejected_with_or_without_noise(self, noise_db):
        with pytest.raises(ValidationError, match="seed must be non-negative"):
            tracefit.synth_trace(PARAMS_A, "intensity", COARSE_GRID, noise_db, seed=-1)
