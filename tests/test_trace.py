import io
import itertools
import re
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from restime import trace
from restime.core import DomainError, ParseError, ResidenceSample
from restime.trace import (
    ExtractionPolicy,
    FilterConfig,
    OccupancyTrace,
    _checked_steps,
    collect_sample,
    extract_residences,
    filter_transient_escapes,
    parse_traces,
    per_trace_residences,
    read_steps_csv,
    write_steps_csv,
)

from .oracles import filter_by_convolution, gap_fill_reference, parse_reference, runs_reference

DROP = ExtractionPolicy(boundary="drop")
INCLUDE = ExtractionPolicy(boundary="include")


class TestParse:
    def test_one_trace_per_line(self):
        traces = parse_traces(io.StringIO("1 1 0\n0 1"))
        assert [tuple(t.bits) for t in traces] == [(1, 1, 0), (0, 1)]

    def test_empty_input(self):
        assert parse_traces(io.StringIO("")) == []

    def test_blank_lines_skipped(self):
        traces = parse_traces(io.StringIO("1 0\n\n0 1\n"))
        assert len(traces) == 2

    def test_bad_token_names_line_and_column(self):
        with pytest.raises(ParseError, match="line 1.*column 2"):
            parse_traces(io.StringIO("1 2 0"))

    def test_bad_token_on_later_line(self):
        with pytest.raises(ParseError, match="line 3"):
            parse_traces(io.StringIO("1\n0\n1 x"))

    @pytest.mark.parametrize("byte", ["\x00", "\x01", "\x02", "\x7f"])
    def test_raw_control_byte_is_named(self, byte):
        # a raw 0x00 or 0x01 byte must not pass for a translated digit, nor any other byte
        with pytest.raises(ParseError, match=re.escape(f"line 1, column 2: expected 0 or 1, got {byte!r}")):
            parse_traces([f"0 {byte} 1"])

    @pytest.mark.parametrize("token", ["\uff11", "\u0663", "\ud800", "0\u0301"])
    def test_non_ascii_token_is_named(self, token):
        with pytest.raises(ParseError, match=re.escape(f"line 1, column 2: expected 0 or 1, got {token!r}")):
            parse_traces([f"1 {token} 0\n"])


# digits followed by a separator, ASCII or not, so that most lines parse
_TRACE_PIECE = st.sampled_from(
    ["0 ", "1 ", "0\t", "1\t", "0\x0b", "1\x0c", "0\x1c", "1\x1d", "0\x1e", "1\x1f",
     "1\xa0", "0\u3000", " ", "\t", "\r\n", "\n", "\n\n"]
)
# a bare digit can touch its neighbour and make a token such as "01"
_TRACE_ODD = st.sampled_from(["0", "1", "01", "2", "?", "\x00", "\xa0", "\uff11"])


@st.composite
def _trace_lines(draw):
    """Trace text of two lines or more, with odd tokens mixed in, as a text stream yields it."""
    pieces = draw(st.lists(_TRACE_PIECE, max_size=30))
    for odd in ["\n", *draw(st.lists(_TRACE_ODD, max_size=3))]:
        pieces.insert(draw(st.integers(0, len(pieces))), odd)
    return list(io.StringIO("".join(pieces)))


# canonical lines ("0 "/"1 " pairs, the last digit followed by "\n") and
# edits of them in one place, most of which send the line to the translate path
_CANONICAL_EDITS = ["0", "1", " ", "  ", "\t", "\n", "\r", "", "\x00", "\x01", "2", "?", "\xa0"]


@st.composite
def _canonical_lines(draw):
    """Trace text of canonical lines, some changed in one place, as a text stream yields it."""
    lines = []
    for _ in range(draw(st.integers(1, 4))):
        # up to 80 bits, so that an edit may fall past the 32 pairs looked at first
        bits = draw(st.lists(st.sampled_from("01"), min_size=1, max_size=80))
        line = " ".join(bits) + "\n"
        if draw(st.booleans()):
            # replace, insert or delete one character, anywhere in the line
            at = draw(st.integers(0, len(line)))
            width = draw(st.integers(0, 1))
            line = line[:at] + draw(st.sampled_from(_CANONICAL_EDITS)) + line[at + width :]
        lines.append(line)
    return list(io.StringIO("".join(lines)))


@given(lines=_trace_lines() | _canonical_lines())
@example(lines=["1 0\n", "\n", "0\x1c1\x1f0\r\n"])
@example(lines=["1\xa00\n", "0 1"])
@example(lines=["1\n", "\n", "0 01\n"])
@example(lines=["0\t1\n", "1 ? 0\n"])
@example(lines=["0 1 1\n", "1 0 "])
@example(lines=["1\n", "0 1\r\n"])
@settings(max_examples=600)
def test_parse_matches_token_walk(lines):
    """parse_traces gives the bits of the token walk, or raises its message,
    and holds each trace as read-only (uint8, int64) runs."""
    try:
        want = parse_reference(lines)
    except ValueError as exc:
        with pytest.raises(ParseError) as info:
            parse_traces(lines)
        assert str(info.value) == str(exc)
    else:
        traces = parse_traces(lines)
        assert [t.bits for t in traces] == want
        # the unchecked traces are what the checked constructor makes of their bytes
        assert all(type(t.bits) is bytes and t == OccupancyTrace(bits=t.bits) for t in traces)
        for t in traces:
            assert [(a.dtype, a.flags.writeable) for a in t.runs] == [(np.uint8, False), (np.int64, False)]
            assert hash(t) == hash(OccupancyTrace(bits=t.bits))


@pytest.mark.parametrize(
    "line, canonical",
    [("1\n", True), ("0 1 1 0\n", True), ("", False), ("0 1", False), ("0 1 \n", False),
     ("0  1\n", False), ("0\t1\n", False), ("\x00 1\n", False), ("0 2\n", False),
     ("1\xa00\n", False), ("0 1\r\n", False), ("01\n", False), ("\x01 1\n", False),
     ("1 " * 40 + "0\n", True), ("1 " * 40 + "0\t1\n", False), ("0 " * 40 + "2 1\n", False)],
)
def test_canonical_check_takes_only_the_canonical_spelling(line, canonical):
    """The pair check accepts exactly the canonical lines, and either path
    reads a line as the token walk does."""
    raw = (line if line.isascii() else " ".join(line.split())).encode("ascii", "replace")
    assert (trace._pair_bits(raw) is not None) == canonical
    try:
        want = parse_reference(["1 0\n", line])
    except ValueError as exc:
        with pytest.raises(ParseError, match=f"^{re.escape(str(exc))}$"):
            parse_traces(["1 0\n", line])
    else:
        assert [t.bits for t in parse_traces(["1 0\n", line])] == want


def test_canonical_and_tab_spellings_give_equal_traces():
    """A line read as pairs and the same bits spelled with tabs, read through
    translate, hold the same read-only (uint8, int64) runs."""
    bits = [1, 1, 0, 1, 0, 0, 0, 1]
    pairs, = parse_traces([" ".join(map(str, bits)) + "\n"])
    tabbed, = parse_traces(["\t".join(map(str, bits)) + "\n"])
    for t in (pairs, tabbed):
        assert [(a.dtype, a.flags.writeable) for a in t.runs] == [(np.uint8, False), (np.int64, False)]
    assert pairs == tabbed == OccupancyTrace(bits=bits)
    assert hash(pairs) == hash(tabbed) == hash(OccupancyTrace(bits=bits))
    assert pairs.bits == tabbed.bits == bytes(bits)


def test_producers_skip_the_bit_check(monkeypatch):
    """parse_traces and filter_transient_escapes build runs known to be 0/1,
    so neither runs the public constructor's check; that check still rejects."""

    def refuse(self, *args, **kwargs):
        raise AssertionError("checked constructor called")

    with monkeypatch.context() as mp:
        mp.setattr(OccupancyTrace, "__init__", refuse)
        traces = parse_traces(["1 0 0 1 0 1\n", "1\xa00 1\n"])
        filtered = [filter_transient_escapes(t, FilterConfig(k=3)) for t in traces]
    assert [t.bits for t in traces] == [b"\x01\x00\x00\x01\x00\x01", b"\x01\x00\x01"]
    assert [t.bits for t in filtered] == [b"\x01" * 6, b"\x01" * 3]
    with pytest.raises(DomainError):
        OccupancyTrace(bits=b"\x01\x02")


class TestFilterConfig:
    def test_from_times(self):
        assert FilterConfig.from_times(2.0, 0.1).k == 20

    def test_from_times_rounds(self):
        assert FilterConfig.from_times(0.26, 0.1).k == 3
        assert FilterConfig.from_times(0.24, 0.1).k == 2

    def test_rejects_bad_k(self):
        with pytest.raises(DomainError):
            FilterConfig(k=0)

    def test_rejects_bad_times(self):
        with pytest.raises(DomainError):
            FilterConfig.from_times(2.0, 0.0)
        with pytest.raises(DomainError):
            FilterConfig.from_times(0.01, 1.0)

    def test_policy_domain(self):
        with pytest.raises(DomainError):
            ExtractionPolicy(boundary="keep")


class TestFilter:
    def test_fills_short_gap(self):
        t = OccupancyTrace(bits=(1, 0, 0, 1))
        assert tuple(filter_transient_escapes(t, FilterConfig(k=3)).bits) == (1, 1, 1, 1)

    def test_keeps_gap_at_threshold(self):
        t = OccupancyTrace(bits=(1, 0, 0, 1))
        assert tuple(filter_transient_escapes(t, FilterConfig(k=2)).bits) == (1, 0, 0, 1)

    def test_boundary_zeros_never_filled(self):
        t = OccupancyTrace(bits=(0, 0, 1, 1, 0))
        for k in range(1, 7):
            assert filter_transient_escapes(t, FilterConfig(k=k)).bits == t.bits

    def test_k1_is_identity(self):
        t = OccupancyTrace(bits=(1, 0, 1, 0, 0, 1))
        assert filter_transient_escapes(t, FilterConfig(k=1)) is t


class TestExtract:
    def test_interior_runs(self):
        t = OccupancyTrace(bits=(0, 1, 1, 0, 1, 1, 1, 0))
        assert extract_residences(t, DROP).tolist() == [2, 3]
        assert extract_residences(t, INCLUDE).tolist() == [2, 3]

    def test_censored_runs(self):
        t = OccupancyTrace(bits=(1, 1, 0, 1))
        assert extract_residences(t, DROP).tolist() == []
        assert extract_residences(t, INCLUDE).tolist() == [2, 1]

    def test_no_runs(self):
        assert extract_residences(OccupancyTrace(bits=(0, 0, 0)), DROP).tolist() == []


class TestCollect:
    def test_gap_fill_changes_pooling(self):
        traces = [OccupancyTrace(bits=(1, 0, 1)), OccupancyTrace(bits=(0, 1, 1, 0))]
        assert collect_sample(traces, FilterConfig(k=1), INCLUDE).steps == (1, 1, 2)
        assert collect_sample(traces, FilterConfig(k=2), INCLUDE).steps == (3, 2)

    def test_per_trace_residences_keeps_traces_apart(self):
        traces = [
            OccupancyTrace(bits=(1, 0, 1)),
            OccupancyTrace(bits=()),
            OccupancyTrace(bits=(0, 1, 1, 0)),
        ]
        per_trace = per_trace_residences(traces, FilterConfig(k=2), INCLUDE)
        assert [r.tolist() for r in per_trace] == [[3], [], [2]]
        per_trace = per_trace_residences(traces, FilterConfig(k=1), DROP)
        assert [r.tolist() for r in per_trace] == [[], [], [2]]

    def test_interior_run_survives_both_policies(self):
        # bounded by 0s on both sides, so nothing about it is censored
        traces = [OccupancyTrace(bits=(0, 1, 0))]
        assert collect_sample(traces, FilterConfig(k=1), INCLUDE).steps == (1,)
        assert collect_sample(traces, FilterConfig(k=1), DROP).steps == (1,)

    def test_censored_only_trace_empties_under_drop(self):
        traces = [OccupancyTrace(bits=(1, 1, 0))]
        assert collect_sample(traces, FilterConfig(k=1), INCLUDE).steps == (2,)
        with pytest.raises(DomainError):
            collect_sample(traces, FilterConfig(k=1), DROP)

    def test_no_traces(self):
        with pytest.raises(DomainError):
            collect_sample([], FilterConfig(k=1), INCLUDE)

    @pytest.mark.parametrize(
        "traces, policy",
        [
            ([], INCLUDE),
            ([OccupancyTrace(bits=()), OccupancyTrace(bits=())], INCLUDE),
            ([OccupancyTrace(bits=(1, 1, 0)), OccupancyTrace(bits=(1, 0, 1))], DROP),
        ],
        ids=["no-traces", "only-empty-traces", "only-censored-runs"],
    )
    def test_every_empty_pool_gets_one_refusal(self, traces, policy):
        with pytest.raises(DomainError, match="^no residences found in the given traces$"):
            collect_sample(traces, FilterConfig(k=1), policy)

    def test_sample_holds_one_int64_array(self):
        traces = [OccupancyTrace(bits=(1, 0, 1)), OccupancyTrace(bits=(0, 1, 1, 0))]
        s = collect_sample(traces, FilterConfig(k=1), INCLUDE)
        assert s.array.dtype == np.int64 and s.array.tolist() == [1, 1, 2]
        assert "steps" not in vars(s)


bit_traces = st.lists(st.integers(min_value=0, max_value=1), max_size=64).map(tuple)

# empty, 1-bit, all ones, all zeros, and 0-runs at both ends around interior gaps
EDGE_TRACES = [(), (0,), (1,), (1,) * 5, (0,) * 5, (0, 0, 1, 0, 1, 1, 0, 0, 0, 1, 0)]


@pytest.mark.parametrize("bits", EDGE_TRACES)
def test_edge_traces_match_references(bits):
    t = OccupancyTrace(bits=bits)
    for k in (1, 2, 3, 4, len(bits) + 1, 10**30):
        assert tuple(filter_transient_escapes(t, FilterConfig(k=k)).bits) == gap_fill_reference(bits, k)
    for policy in (DROP, INCLUDE):
        assert extract_residences(t, policy).tolist() == runs_reference(bits, policy.boundary)


@given(bits=bit_traces, k=st.integers(min_value=1, max_value=8))
@example(bits=(), k=2)
@example(bits=(1,), k=2)
@example(bits=(0, 0, 1, 0, 1, 1, 0, 0, 0, 1, 0), k=4)
def test_filter_matches_reference_and_convolution(bits, k):
    t = OccupancyTrace(bits=bits)
    cfg = FilterConfig(k=k)
    out = filter_transient_escapes(t, cfg)
    assert type(out.bits) is bytes and out == OccupancyTrace(bits=out.bits)
    assert tuple(out.bits) == gap_fill_reference(bits, k)
    assert tuple(out.bits) == filter_by_convolution(bits, k)


@given(bits=bit_traces, k=st.integers(min_value=1, max_value=8))
def test_filter_idempotent_and_monotone(bits, k):
    cfg = FilterConfig(k=k)
    once = filter_transient_escapes(OccupancyTrace(bits=bits), cfg)
    assert filter_transient_escapes(once, cfg).bits == once.bits
    assert all(a <= b for a, b in zip(bits, once.bits))


@given(
    bits=st.lists(st.integers(min_value=0, max_value=1), max_size=200).map(tuple),
    k=st.integers(min_value=1, max_value=6),
)
@example(bits=(), k=2)
@example(bits=(1, 0, 1), k=2)
@example(bits=(0, 1, 0, 0, 1, 0, 1, 1, 0), k=3)
@settings(max_examples=200)
def test_run_form_matches_the_bit_references(bits, k):
    """Traces built from bits and parsed from text, filtered and extracted on
    their runs, agree with the plain scans over the bits."""
    parsed = parse_traces([" ".join(map(str, bits)) + "\n"])
    assert len(parsed) == (1 if bits else 0)
    cfg = FilterConfig(k=k)
    want_bits = gap_fill_reference(bits, k)
    want = OccupancyTrace(bits=want_bits)
    for t in (OccupancyTrace(bits=bits), *parsed):
        out = filter_transient_escapes(t, cfg)
        for policy in (DROP, INCLUDE):
            assert extract_residences(out, policy).tolist() == runs_reference(want_bits, policy.boundary)
        assert len(out) == len(want) == len(bits)
        assert out.bits == want.bits and out == want and hash(out) == hash(want)
        assert repr(out) == repr(want)
        assert filter_transient_escapes(out, cfg) == out
        assert not any(a.flags.writeable for a in (*t.runs, *out.runs))


def test_run_built_traces_compare_by_their_bits():
    a, b = parse_traces(["1 0\n", "0 1\n"])
    assert a != b and a == OccupancyTrace(bits=(1, 0)) and b == OccupancyTrace(bits=(0, 1))
    assert b != (0, 1)  # a non-trace is never equal
    assert len({a, b, OccupancyTrace(bits=(1, 0))}) == 2


def test_parse_filter_extract_never_build_bits():
    """Every trace holds only its runs, however it was built, and ==, hash
    and len answer from them; bits are built only when read."""
    traces = parse_traces(["0 1 0 0 1 1 0 1 0\n", "1\xa00 1 1\n"])
    filtered = [filter_transient_escapes(t, FilterConfig(k=3)) for t in traces]
    per_trace = [extract_residences(t, DROP).tolist() for t in filtered]
    built = OccupancyTrace(bits=(0, 1, 1, 1, 1, 1, 1, 1, 0))
    everything = [*traces, *filtered, built]
    assert [len(t) for t in everything] == [9, 4, 9, 4, 9]
    assert [t == built for t in everything] == [False, False, True, False, True]
    assert len({hash(t) for t in everything}) == 4 and hash(filtered[0]) == hash(built)
    assert all(set(vars(t)) == {"runs"} for t in everything)
    assert per_trace == [[7], []]
    assert built.bits == b"\x00" + b"\x01" * 7 + b"\x00" and set(vars(built)) == {"runs", "bits"}


@given(bits=bit_traces)
@example(bits=(1, 0, 0, 0, 1))
def test_filter_k_past_int64_bridges_every_interior_gap(bits):
    t = OccupancyTrace(bits=bits)
    huge = filter_transient_escapes(t, FilterConfig(k=10**30))
    assert huge.bits == filter_transient_escapes(t, FilterConfig(k=len(bits) + 1)).bits
    assert tuple(huge.bits) == gap_fill_reference(bits, len(bits) + 1)


@pytest.mark.parametrize("n", range(13))
def test_extract_matches_reference_exhaustively(n):
    for bits in itertools.product((0, 1), repeat=n):
        t = OccupancyTrace(bits=bits)
        for policy in (DROP, INCLUDE):
            assert extract_residences(t, policy).tolist() == runs_reference(bits, policy.boundary)


@given(bits=bit_traces)
@example(bits=())
@example(bits=(1,) * 5)
@example(bits=(0, 0, 1, 0, 1, 1, 0, 0, 0, 1, 0))
def test_extract_matches_reference(bits):
    t = OccupancyTrace(bits=bits)
    for policy in (DROP, INCLUDE):
        out = extract_residences(t, policy)
        assert out.dtype == np.int64 and out.ndim == 1
        assert out.tolist() == runs_reference(bits, policy.boundary)


@given(bits=bit_traces)
def test_include_policy_accounts_for_every_one(bits):
    runs = extract_residences(OccupancyTrace(bits=bits), INCLUDE)
    assert sum(runs) == sum(bits)


@given(
    traces=st.lists(bit_traces, min_size=1, max_size=6),
    k=st.integers(min_value=1, max_value=4),
    seed=st.randoms(),
)
@settings(max_examples=50)
def test_collect_order_invariant_up_to_multiset(traces, k, seed):
    occ = [OccupancyTrace(bits=b) for b in traces]
    shuffled = list(occ)
    seed.shuffle(shuffled)
    cfg = FilterConfig(k=k)
    try:
        base = collect_sample(occ, cfg, INCLUDE)
    except DomainError:
        with pytest.raises(DomainError):
            collect_sample(shuffled, cfg, INCLUDE)
        return
    other = collect_sample(shuffled, cfg, INCLUDE)
    assert sorted(base.steps) == sorted(other.steps)


class TestCsv:
    def test_round_trip(self):
        buf = io.StringIO()
        write_steps_csv([3, 1, 4], buf)
        assert buf.getvalue() == "steps\n3\n1\n4\n"
        assert read_steps_csv(io.StringIO(buf.getvalue())).tolist() == [3, 1, 4]

    def test_missing_header(self):
        with pytest.raises(ParseError):
            read_steps_csv(io.StringIO("3\n1\n"))

    def test_bad_value(self):
        with pytest.raises(ParseError, match="line 3"):
            read_steps_csv(io.StringIO("steps\n3\nx\n"))

    def test_empty_file(self):
        with pytest.raises(ParseError):
            read_steps_csv(io.StringIO(""))

    def test_line_numbers_count_blank_lines(self):
        with pytest.raises(ParseError, match="line 5: expected an integer"):
            read_steps_csv(io.StringIO("\nsteps\n3\n\nx\n"))

    def test_first_bad_line_is_named(self):
        with pytest.raises(ParseError, match="line 3: residence steps must be >= 1, got '0'"):
            read_steps_csv(io.StringIO("steps\n3\n0\nx\n"))

    @pytest.mark.parametrize("token", ["1_000", "+5", "\u0663"])
    def test_only_ascii_decimal_digits(self, token):
        with pytest.raises(ParseError, match=re.escape(f"line 3: expected an integer, got {token!r}")):
            read_steps_csv(io.StringIO(f"steps\n3\n{token}\n"))

    def test_header_only_is_empty(self):
        assert read_steps_csv(io.StringIO("steps\n")).tolist() == []

    @pytest.mark.parametrize("text", ["steps\n3\n1\n4\n", "steps\n", "steps\n\n\n", "steps\n3\r\n"])
    def test_reader_raises_no_warning(self, text):
        # fails here, not on a user's stderr, if numpy deprecates fromstring's text mode
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            read_steps_csv(io.StringIO(text))

    def test_plain_file_takes_one_pass(self, monkeypatch):
        # blank lines, leading zeros and no final newline need no line-by-line pass
        monkeypatch.setattr(trace, "_checked_steps", None)
        assert read_steps_csv(io.StringIO("steps\n3\n\n007\n12")).tolist() == [3, 7, 12]

    @pytest.mark.parametrize("text", [
        "steps \n 3\n4 \n\t12\t\n", "steps\r\n3\r\n4\r\n12\r\n", "steps\r\n 3 \n\n4\r\n\x0b12",
        "  steps\n3\n4\n12",
    ], ids=["padded", "crlf", "mixed", "padded-header"])
    def test_padded_and_crlf_files_parse(self, text):
        got = read_steps_csv(io.StringIO(text))
        assert got.dtype == np.int64 and got.tolist() == [3, 4, 12]

    @pytest.mark.parametrize("text, message", [
        ("steps \n3 \n x\n", "line 3: expected an integer, got 'x'"),
        ("steps\r\n3\r\n0\r\n", "line 3: residence steps must be >= 1, got '0'"),
        ("steps\r\n3 4\r\n", "line 2: expected an integer, got '3 4'"),
        ("\r\nsteps\r\n3\r\n\u0663\r\n", "line 4: expected an integer, got '\u0663'"),
        (" Steps \n3\n", "expected a 'steps' header on the first line"),
    ], ids=["padded-token", "crlf-zero", "crlf-two-tokens", "crlf-non-ascii", "padded-header"])
    def test_padded_and_crlf_errors_name_the_line(self, text, message):
        with pytest.raises(ParseError) as info:
            read_steps_csv(io.StringIO(text))
        assert str(info.value) == message


def _per_line_csv(steps) -> str:
    buf = io.StringIO()
    buf.write("steps\n")
    for x in steps:
        buf.write(f"{int(x)}\n")
    return buf.getvalue()


_STEP_INPUTS = {
    "empty": lambda: [],
    "generator": lambda: (x for x in (3, 1, 4)),
    "int64": lambda: np.array([7, 1, 2**62], dtype=np.int64),
    "bool": lambda: [True, 2],
    "4301-digit": lambda: [5, 10**4300],
    "int64-nonpositive": lambda: np.array([3, 0, -12], dtype=np.int64),
    "fraction": lambda: [1.5, 2],
    "zero": lambda: [0],
}
# steps that ResidenceSample refuses, so that a file the reader would refuse is never written
_REFUSED_STEPS = {"int64-nonpositive", "fraction", "zero"}


@pytest.mark.parametrize("name", _STEP_INPUTS)
@pytest.mark.parametrize("max_digits", [None, 0])
def test_write_matches_per_line_writes(name, max_digits):
    """One write gives the bytes of per-line writes, or the same error past int's
    digit limit; a step that ResidenceSample refuses gets its DomainError, and
    nothing is written."""
    old_limit = sys.get_int_max_str_digits()
    if max_digits is not None:
        sys.set_int_max_str_digits(max_digits)
    try:
        if name in _REFUSED_STEPS:
            with pytest.raises(DomainError) as refused:
                ResidenceSample(_STEP_INPUTS[name]())
            buf = io.StringIO()
            with pytest.raises(DomainError, match=f"^{re.escape(str(refused.value))}$"):
                write_steps_csv(_STEP_INPUTS[name](), buf)
            assert buf.getvalue() == ""
            return
        try:
            want = _per_line_csv(_STEP_INPUTS[name]())
        except ValueError as exc:
            with pytest.raises(ValueError, match=re.escape(str(exc))):
                write_steps_csv(_STEP_INPUTS[name](), io.StringIO())
        else:
            buf = io.StringIO()
            write_steps_csv(_STEP_INPUTS[name](), buf)
            assert buf.getvalue() == want
    finally:
        sys.set_int_max_str_digits(old_limit)


# 1, 2**63 - 1 and each power of ten in between with its neighbours: the digit-count edges
_INT64_EDGES = sorted({1, 2**63 - 1} | {10**e + d for e in range(1, 19) for d in (-1, 0, 1)})


@given(st.lists(st.integers(1, 2**63 - 1) | st.sampled_from(_INT64_EDGES), min_size=1, max_size=40))
@example(steps=_INT64_EDGES)
@example(steps=[1])
@example(steps=[2**63 - 1])
@settings(max_examples=300, deadline=None)
def test_int64_array_writes_the_bytes_of_the_join(steps):
    buf = io.StringIO()
    write_steps_csv(np.array(steps, dtype=np.int64), buf)
    assert buf.getvalue() == "\n".join(["steps", *map(str, steps), ""])


_CSV_STEP = st.integers(1, 10**6).map(str) | st.builds(
    lambda zeros, v: "0" * zeros + str(v), st.integers(1, 3), st.integers(1, 999)
)
_CSV_ODD_LINE = st.sampled_from(
    ["", "  ", "0", "00", "-3", "+5", "1_000", "\u0663", "1\x1c2", "7\x1c", " 4 ", "\t9", "x",
     "1" * 4301]
)


@st.composite
def _steps_csv_text(draw):
    """Steps CSV text: mostly plain steps, with odd lines, headers and line ends mixed in."""
    lines = draw(st.lists(_CSV_STEP, max_size=12))
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))), draw(_CSV_ODD_LINE))
    head = draw(st.sampled_from(["steps", "steps", " steps ", "\nsteps", "steps\r", "Steps", "3"]))
    sep = draw(st.sampled_from(["\n", "\n", "\r\n"]))
    return sep.join([head, *lines]) + draw(st.sampled_from(["", sep]))


@given(text=_steps_csv_text())
@example(text="steps\n")
@example(text="steps\n3\r\n4\r\n")
@example(text="steps\n" + "1" * 4301 + "\n")
@example(text="steps\n\n\n")
@example(text="steps\n" + "9" * 18)
@example(text="steps\n1" + "0" * 18)
@example(text="steps\n3\n" + "9" * 19 + "\n")
@example(text="steps\n" + "1" * 25 + "\n4\n")
@example(text="steps\n0007\n00\n")
@example(text="steps\n0012\n3")
@settings(max_examples=300, deadline=None)
def test_reader_matches_line_by_line_pass(text):
    """The one-pass reader returns what the line-by-line pass returns, or its error.

    The steps come as int64 while they fit, else as exact Python ints.
    """
    try:
        want = _checked_steps(list(io.StringIO(text)))
    except ParseError as exc:
        with pytest.raises(ParseError) as info:
            read_steps_csv(io.StringIO(text))
        assert str(info.value) == str(exc)
    else:
        got = read_steps_csv(io.StringIO(text))
        assert got.ndim == 1 and got.tolist() == want
        assert got.dtype == (np.int64 if max(want, default=0) < 2**63 else object)
        assert all(type(x) is int for x in got.tolist())
