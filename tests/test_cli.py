import contextlib
import io
import json
import math
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from restime import taylor, trace
from restime.cli import build_parser, main
from restime.taylor import generate_expression

from .oracles import first_overflow, report_mismatches, report_reference

TRACES = "0 1 1 0 1 1 1 0 0 1 1 0\n0 1 0 1 1 1 1 0\n"


@pytest.fixture
def trace_file(tmp_path):
    path = tmp_path / "traces.txt"
    path.write_text(TRACES)
    return str(path)


@pytest.fixture
def rts_file(tmp_path):
    path = tmp_path / "rts.csv"
    path.write_text("steps\n2\n3\n2\n1\n4\n")
    return str(path)


class TestExtract:
    def test_pipeline(self, trace_file, capsys):
        assert main(["extract", "--input", trace_file, "--k", "1"]) == 0
        out = capsys.readouterr().out
        assert out == "steps\n2\n3\n2\n1\n4\n"

    def test_k_from_times(self, trace_file, capsys):
        # k = round(0.2/0.1) = 2 bridges the single-step escapes
        assert main(["extract", "--input", trace_file, "--tstar", "0.2", "--dt", "0.1"]) == 0
        out = capsys.readouterr().out
        assert out == "steps\n6\n2\n6\n"

    def test_tstar_without_dt(self, trace_file, capsys):
        assert main(["extract", "--input", trace_file, "--tstar", "0.2"]) == 2

    def test_out_flag_writes_file(self, trace_file, tmp_path, capsys):
        dest = tmp_path / "steps.csv"
        assert main(["extract", "--input", trace_file, "--out", str(dest)]) == 0
        assert capsys.readouterr().out == ""
        assert dest.read_text().startswith("steps\n")

    def test_missing_file(self, capsys):
        assert main(["extract", "--input", "/nonexistent/t.txt"]) == 2

    def test_malformed_trace(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("1 0 zebra\n")
        assert main(["extract", "--input", str(path)]) == 2
        assert "zebra" in capsys.readouterr().err

    def test_empty_sample_is_domain_error(self, tmp_path, capsys):
        path = tmp_path / "zeros.txt"
        path.write_text("0 0 0 0\n")
        assert main(["extract", "--input", str(path)]) == 1

    def test_sample_keeps_no_tuple_of_ints(self, trace_file, capsys, monkeypatch):
        samples = []
        collect_sample = trace.collect_sample

        def collect(*args):
            samples.append(collect_sample(*args))
            return samples[-1]

        monkeypatch.setattr(trace, "collect_sample", collect)
        assert main(["extract", "--input", trace_file, "--k", "1"]) == 0
        assert capsys.readouterr().out == "steps\n2\n3\n2\n1\n4\n"
        (s,) = samples
        assert s.array.dtype == np.int64 and "steps" not in vars(s)


class TestEstimate:
    def test_report_composition(self, rts_file, capsys):
        assert main(["estimate", "--rts", rts_file, "--dt", "0.1", "--method", "both"]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["n"] == 5
        assert set(rep["mrt_var_steps"]) == {"ratio", "taylor8"}
        assert rep["mrt_steps"] == pytest.approx(0.5 + 34 / 24)
        assert rep["mrt_time"] == pytest.approx(rep["mrt_steps"] * 0.1)

    def test_single_method_and_order(self, rts_file, capsys):
        assert main(["estimate", "--rts", rts_file, "--method", "taylor", "--order", "2"]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert list(rep["mrt_var_steps"]) == ["taylor2"]
        assert rep["mrt_time"] is None

    def test_malformed_csv(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("steps\nfour\n")
        assert main(["estimate", "--rts", str(path)]) == 2

    @pytest.mark.parametrize("content, message", [
        (b"steps \n 2\n3 \n\t2\n1\n4\n", None),
        (b"steps\r\n2\r\n3\r\n2\r\n1\r\n4\r\n", None),
        (b"steps\r\n 2 \n\n3\r\n2\n1 \r\n4", None),
        (b"steps \r\n2\r\n 3x\r\n", "error: line 3: expected an integer, got '3x'"),
        (b"steps\r\n2 \r\n0 \r\n", "error: line 3: residence steps must be >= 1, got '0'"),
    ], ids=["padded", "crlf", "mixed", "bad-token", "zero"])
    def test_padded_and_crlf_files(self, rts_file, tmp_path, capsys, content, message):
        path = tmp_path / "odd.csv"
        path.write_bytes(content)
        code = main(["estimate", "--rts", str(path)])
        got = capsys.readouterr()
        if message is None:
            assert code == 0 and got.err == ""
            assert main(["estimate", "--rts", rts_file]) == 0
            assert got.out == capsys.readouterr().out
        else:
            assert code == 2 and got.out == "" and got.err.splitlines() == [message]

    def test_dt_overflow_is_one_domain_error(self, tmp_path, capsys):
        # json.dumps would print the overflowed variance as Infinity, which is not JSON
        path = tmp_path / "s.csv"
        path.write_text("steps\n3\n5\n9\n")
        assert main(["estimate", "--rts", str(path), "--dt", "1e200"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "error: mrt_var_time['ratio'] = inf is not finite at dt=1e+200"
        ]
        assert main(["estimate", "--rts", str(path), "--dt", "1e100", "--method", "taylor"]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert all(math.isfinite(v) for v in rep["mrt_var_time"].values())

    @pytest.mark.parametrize("method", ["ratio", "both"])
    @pytest.mark.parametrize("big", [10**10, 10**20, 10**80, 10**150, 10**154, 10**160],
                             ids=["1e10", "1e20", "1e80", "1e150", "1e154", "1e160"])
    def test_outlier_prints_exact_values_or_one_error_line(self, tmp_path, capsys, big, method):
        # float kernels once printed a ratio of 36537549.43327258 on 3, 5, 10^20 (exact 24.5)
        steps = [3, 5, big]
        path = tmp_path / "outlier.csv"
        path.write_text("steps\n" + "".join(f"{x}\n" for x in steps))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["estimate", "--rts", str(path), "--method", method])
        assert caught == []
        captured = capsys.readouterr()
        series = {"ratio": None, **({"taylor8": generate_expression(8)} if method == "both" else {})}
        want = report_reference(steps, series)
        overflow = first_overflow(want)
        if overflow is None:
            assert code == 0 and captured.err == ""
            assert report_mismatches(json.loads(captured.out), want) == []
        else:
            assert code == 1 and captured.out == ""
            assert captured.err.splitlines() == [f"error: {overflow} = inf is not finite"]

    @pytest.mark.parametrize("step", ["0", "-3"])
    def test_nonpositive_step_is_parse_error(self, tmp_path, capsys, step):
        path = tmp_path / "bad.csv"
        path.write_text(f"steps\n2\n\n{step}\n5\n")
        assert main(["estimate", "--rts", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"error: line 4: residence steps must be >= 1, got '{step}'"
        ]


class TestGenExpr:
    def test_text_output(self, capsys):
        assert main(["gen-expr", "--order", "1"]) == 0
        assert capsys.readouterr().out == "1/4 * N^-1 * mu2\n"

    def test_json_output(self, capsys):
        assert main(["gen-expr", "--order", "2", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["order"] == 2
        assert len(payload["terms"]) == 9

    @pytest.mark.parametrize("threads", ["0", "-1"])
    def test_threads_below_one_is_usage_error(self, capsys, threads):
        # gen-expr has no --threads flag, so argparse rejects it outright
        assert main(["gen-expr", "--order", "1", "--threads", threads]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"error: unrecognized arguments: --threads {threads}"]


class TestExact:
    def test_reference_column(self, capsys):
        assert main(["exact", "--dist", "uniform:a=93,b=100", "--n", "10",
                     "--orders", "1..3"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "estimator,value"
        table = dict(line.split(",") for line in lines[1:])
        assert table["ratio"] == "0.1311584285189072"
        assert table["taylor1"] == "0.1312500000000000"
        assert table["taylor2"] == "0.1313089848049612"
        assert table["taylor3"] == "0.1311923130039270"
        assert "exact" in table

    def test_order_one_keeps_the_ratio_row(self, capsys):
        # the series needs central orders up to 2, the ratio row up to 4
        assert main(["exact", "--dist", "uniform:a=1,b=40", "--n", "5", "--orders", "1"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert [line.split(",")[0] for line in lines] == ["estimator", "ratio", "taylor1", "exact"]
        full = main(["exact", "--dist", "uniform:a=1,b=40", "--n", "5"])
        assert full == 0
        assert capsys.readouterr().out.splitlines()[1] == lines[1]

    def test_geometric_has_no_exact_row(self, capsys):
        assert main(["exact", "--dist", "geom:p=1/2", "--n", "5", "--orders", "1,2"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert all(not line.startswith("exact") for line in lines)

    def test_guard_trip_notes_missing_row(self, capsys):
        # 1000 support points over 6 draws predict 1.5e7 units of work: refused up front
        assert main(["exact", "--dist", "uniform:a=1,b=1000", "--n", "6",
                     "--orders", "1,2"]) == 0
        captured = capsys.readouterr()
        assert captured.out == (
            "estimator,value\n"
            "ratio,2470.365434565435\n"
            "taylor1,3472.218750000000\n"
            "taylor2,4434.794949841825\n"
        )
        assert captured.err.splitlines() == [
            "note: exact row omitted: enumeration work exceeded the tractability guard"
        ]

    def test_digits_flag(self, capsys):
        assert main(["exact", "--dist", "geom:p=1/20", "--n", "30",
                     "--orders", "1..1", "--digits", "3"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert dict(line.split(",") for line in lines[1:])["taylor1"] == "3.17"

    def test_digits_up_to_the_int_string_limit_print(self, capsys):
        assert main(["exact", "--dist", "uniform:a=1,b=3", "--n", "2", "--orders", "1",
                     "--digits", "4300"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        # significant digits: leading zeros and the point do not count
        assert [len(line.split(",")[1].replace(".", "").lstrip("0")) for line in lines[1:]] == [4300] * 3

    @pytest.mark.parametrize("digits", ["4301", "100000", "10000000"])
    def test_huge_digits_is_a_quick_usage_error(self, capsys, digits):
        start = time.perf_counter()
        assert main(["exact", "--dist", "uniform:a=1,b=3", "--n", "2", "--orders", "1",
                     "--digits", digits]) == 2
        assert time.perf_counter() - start < 1.0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"error: --digits must be <= 4300, got {digits}"]

    def test_bad_dist(self, capsys):
        assert main(["exact", "--dist", "beta:a=1,b=2", "--n", "5"]) == 2

    @pytest.mark.parametrize(
        "spec, why",
        [
            ("uniform:a=1,b=1_000", "bad value '1_000' for field 'b'"),
            ("uniform:a=+1,b= 3", "bad value '+1' for field 'a'"),
            ("uniform:a=1,b=\u0663", "bad value '\u0663' for field 'b'"),
            ("geom:,p=1/2,", "empty field at position 1"),
            ("uniform:a=01,b=3", "bad value '01' for field 'a'"),
        ],
    )
    def test_spec_that_int_or_fraction_would_take_is_refused(self, spec, why, capsys):
        assert main(["exact", "--dist", spec, "--n", "2", "--orders", "1"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines() == [f"error: bad distribution spec {spec!r}: {why}"]

    def test_bad_orders(self, capsys):
        assert main(["exact", "--dist", "geom:p=1/2", "--n", "5", "--orders", "0..9"]) == 2
        assert main(["exact", "--dist", "geom:p=1/2", "--n", "5", "--orders", "x"]) == 2

    @pytest.mark.parametrize("orders", ["3..1", "8..7", "9..0"])
    def test_empty_orders_range_is_named(self, orders, capsys):
        # both ends may lie within 1..8; the range between them is what is empty
        assert main(["exact", "--dist", "geom:p=1/2", "--n", "5", "--orders", orders]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines() == [f"error: orders range {orders!r} is empty"]


# each strategy draws (flag value, whether the value is outside the flag's domain)
def _flag(good, bad):
    return st.tuples(good, st.just(False)) | st.tuples(bad, st.just(True))


_DIST = _flag(
    st.builds(lambda a, w: f"uniform:a={a},b={a + w}", st.integers(1, 5), st.integers(0, 3))
    | st.builds(lambda k: f"geom:p=1/{k}", st.integers(2, 9)),
    st.one_of(
        st.from_regex(r"[a-z]{1,8}", fullmatch=True)
        .filter(lambda k: k not in ("geom", "uniform"))
        .map(lambda k: f"{k}:a=1,b=2"),
        st.builds(lambda b, d: f"uniform:a={b + d},b={b}", st.integers(-3, 5), st.integers(1, 5)),
        st.builds(lambda a: f"uniform:a={a},b=4", st.integers(-3, 0)),
        st.sampled_from(["1.5", "x", "", "2e0", "1/2"]).map(lambda a: f"uniform:a={a},b=4"),
        st.sampled_from(["0", "1", "-1/3", "3/2", "7", "1/0", "p", ""]).map(lambda p: f"geom:p={p}"),
        st.sampled_from(["uniform:a=1", "geom", "geom:q=1/2", "", ":"]),
        # a repeated field, an unknown field, or a field without '='
        st.sampled_from(["geom:p=1/2,p=1/3", "uniform:a=1,b=4,b=5", "uniform:a=1,b=40,c=3",
                         "geom:p=1/2,a=3", "geom:p", "uniform:a=1,b"]),
    ),
)
_N = _flag(st.integers(1, 6).map(str), st.integers(-5, 0).map(str) | st.sampled_from(["x", "1.5", ""]))
_DIGITS = _flag(
    st.integers(1, 20).map(str),
    st.integers(-3, 0).map(str) | st.sampled_from(["x", "2.0"])
    # past what format_rational can print: refused before any work
    | st.integers(4301, 10**30).map(str) | st.sampled_from(["100000", "10000000"]),
)
_ORDERS = _flag(
    st.sampled_from(["1", "1..2", "2,3"]),
    st.sampled_from(["0", "-1", "0..3", "-2..1", "3..1", "x", "1,,2", "1..2..3", ""]),
)


@given(dist=_DIST, n=_N, digits=_DIGITS, orders=_ORDERS)
@settings(max_examples=150, deadline=None)
def test_exact_rejects_bad_input_in_one_line(dist, n, digits, orders):
    if not (dist[1] or n[1] or digits[1] or orders[1]):
        n = ("0", True)
    _assert_one_line_failure(
        ["exact", "--dist", dist[0], "--n", n[0], "--digits", digits[0], "--orders", orders[0]]
    )


def _assert_one_line_failure(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (1, 2)
    assert out.getvalue() == ""
    assert len(err.getvalue().splitlines()) == 1
    assert "Traceback" not in err.getvalue()


def _splice(text, tok, at, sep):
    lines = text.split("\n")
    lines[at % len(lines)] += sep + tok
    return "\n".join(lines)


def _bad_text(good, bad_tokens, sep):
    """Good input text with one bad token joined by sep to a random line."""
    return st.builds(_splice, good, bad_tokens, st.integers(0, 10), st.just(sep))


def _file(good_text, bad_text):
    """(file bytes, is_bad); None stands for a path that does not exist."""
    return _flag(
        good_text.map(str.encode),
        bad_text.map(str.encode)
        | st.builds(lambda t, junk: t.encode() + junk, good_text,
                    st.sampled_from([b"\xff", b"\xfe 1\n", b"\xc3", b"1 \x80\n"]))
        | st.none(),
    )


_TRACES = st.lists(
    st.lists(st.sampled_from("01"), max_size=30).map(" ".join), min_size=1, max_size=4
).map(lambda lines: "\n".join(lines) + "\n")
_TRACE_FILE = _file(
    _TRACES,
    _bad_text(_TRACES, st.sampled_from(["2", "x", "01", "-1", "1.0", "\uff11", "o", "0,1"]), " "),
)
_STEPS = st.lists(st.integers(1, 1000).map(str), min_size=1, max_size=8).map(
    lambda rows: "steps\n" + "\n".join(rows) + "\n"
)
_STEPS_FILE = _file(
    _STEPS,
    _bad_text(_STEPS, st.sampled_from(["0", "-3", "1.5", "x", "1e3", "--", "2 3", "nan",
                                      "1_000", "+5", "\u0663"]), "\n")
    | st.builds(lambda head, t: head + t.partition("\n")[2],
                st.sampled_from(["", "step\n", "Steps\n", "x,y\n", "5\n", "steps,dt\n"]), _STEPS)
    | st.sampled_from(["", "steps\n", "\n\n"]),
)
_FILTER = _flag(
    st.sampled_from([[], ["--k", "3"], ["--tstar", "0.3", "--dt", "0.1"],
                     ["--boundary", "include"], ["--k", "2", "--dt", "0.5"]]),
    st.one_of(
        (st.integers(-5, 0).map(str) | st.sampled_from(["x", "1.5", ""])).map(lambda k: ["--k", k]),
        st.sampled_from(["0", "-1", "nan", "inf", "x"]).map(lambda dt: ["--dt", dt]),
        st.sampled_from(["0", "-0.5", "inf", "nan"]).map(lambda t: ["--tstar", t, "--dt", "0.1"]),
        st.sampled_from([["--tstar", "0.3"], ["--tstar", "0.01", "--dt", "0.1"],
                         ["--tstar", "1e308", "--dt", "1e-10"], ["--boundary", "middle"]]),
    ),
)
_ORDER = _flag(st.integers(1, 8).map(str), st.sampled_from(["0", "-1", "9", "12", "x", "1.5", ""]))


def _write_input(directory, content):
    if content is None:
        return str(directory / "missing")
    path = directory / "input"
    path.write_bytes(content)
    return str(path)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@given(command=st.sampled_from(["extract", "autocorr"]), trace=_TRACE_FILE, filt=_FILTER,
       lag=_flag(st.integers(0, 3).map(str), st.sampled_from(["-1", "-4", "x", "0.5"])))
@settings(max_examples=150, deadline=None)
def test_trace_commands_reject_bad_input_in_one_line(fuzz_dir, command, trace, filt, lag):
    lag_bad = lag[1] and command == "autocorr"
    if not (trace[1] or filt[1] or lag_bad):
        trace = (b"0 1 2 0\n", True)
    argv = [command, "--input", _write_input(fuzz_dir, trace[0])] + filt[0]
    if command == "autocorr":
        argv += ["--max-lag", lag[0]]
    _assert_one_line_failure(argv)


@given(steps=_STEPS_FILE, order=_ORDER, method=st.sampled_from(["ratio", "taylor", "both"]),
       dt=_flag(st.sampled_from(["0.5", "2"]), st.sampled_from(["0", "-1", "inf", "nan", "x"])))
@settings(max_examples=150, deadline=None)
def test_estimate_rejects_bad_input_in_one_line(fuzz_dir, steps, order, method, dt):
    # --method ratio reads no series order, so only an unparsable one fails
    order_bad = order[1] and (method != "ratio" or not order[0].lstrip("-").isdigit())
    if not (steps[1] or order_bad or dt[1]):
        steps = (b"steps\n0\n", True)
    _assert_one_line_failure(
        ["estimate", "--rts", _write_input(fuzz_dir, steps[0]), "--order", order[0],
         "--method", method, "--dt", dt[0]]
    )


@given(order=_ORDER, fmt=_flag(st.sampled_from(["text", "json"]), st.sampled_from(["xml", ""])),
       extra=_flag(st.just([]), st.sampled_from([["--threads", "1"], ["--seed", "0"], ["1"]])))
@settings(max_examples=100, deadline=None)
def test_gen_expr_rejects_bad_input_in_one_line(order, fmt, extra):
    if not (order[1] or fmt[1] or extra[1]):
        order = ("0", True)
    _assert_one_line_failure(["gen-expr", "--order", order[0], "--format", fmt[0]] + extra[0])


@given(
    dist=_DIST,
    # huge sizes and replicate counts are refused by the memory prediction
    n=_flag(st.sampled_from(["2", "12", "3,5"]),
            st.sampled_from(["0", "-2", "x", "", "1,,2", "4,0", "1000000000000", "3,10000000000"])),
    reps=_flag(st.integers(2, 50).map(str),
               st.sampled_from(["1", "0", "-3", "x", "1.5", "10000000000000", "3000000000"])),
    seed=_flag(st.integers(0, 2**32).map(str),
               st.sampled_from(["-1", str(2**128), str(2**130), "x", "1.5"])),
    order=_ORDER,
    threads=_flag(st.sampled_from(["1", "2"]), st.sampled_from(["0", "-1", "x"])),
)
@settings(max_examples=150, deadline=None)
def test_mc_rejects_bad_input_in_one_line(dist, n, reps, seed, order, threads):
    if not (dist[1] or n[1] or reps[1] or seed[1] or order[1] or threads[1]):
        reps = ("1", True)
    # every case is refused, so none may allocate a result array
    with mock.patch.object(np, "empty", side_effect=AssertionError("allocated")):
        _assert_one_line_failure(
            ["mc", "--dist", dist[0], "--n", n[0], "--reps", reps[0], "--seed", seed[0],
             "--order", order[0], "--threads", threads[0]]
        )


class TestMc:
    def test_csv_shape_and_determinism(self, capsys):
        argv = ["mc", "--dist", "geom:p=1/2", "--n", "12,25", "--reps", "300", "--seed", "7"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        header = first.splitlines()[0].split(",")
        assert header == [
            "N", "reference_var", "reference_var_se",
            "est_ratio_mean", "est_ratio_se",
            "est_taylor8_mean", "est_taylor8_se",
        ]
        assert len(first.strip().splitlines()) == 3
        assert main(argv + ["--threads", "3"]) == 0
        assert capsys.readouterr().out == first

    def test_order_changes_column_names(self, capsys):
        assert main(["mc", "--dist", "uniform:a=1,b=4", "--n", "6", "--reps", "50",
                     "--order", "2"]) == 0
        assert "est_taylor2_mean" in capsys.readouterr().out.splitlines()[0]

    def test_bad_sizes(self, capsys):
        assert main(["mc", "--dist", "geom:p=1/2", "--n", "ten"]) == 2

    @pytest.mark.parametrize("b", [2**53 + 1, 2**60 - 1, 2**63, 2**64])
    def test_uniform_past_2_53_is_refused(self, capsys, b):
        assert main(["mc", "--dist", f"uniform:a={b - 2},b={b}", "--n", "3", "--reps", "4"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"error: uniform draws are held as float64, exact only up to 2**53, got b={b}"
        ]

    @pytest.mark.parametrize("p, what", [
        ("1/1" + "0" * 20, "estimator taylor8"),
        ("1/1" + "0" * 300, "the residual-time statistic"),
    ], ids=["p=1e-20", "p=1e-300"])
    def test_overflowing_draws_are_one_error_line(self, capsys, p, what):
        assert main(["mc", "--dist", f"geom:p={p}", "--n", "3", "--reps", "4"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"error: N=3: {what} overflows float64"]

    def test_p_rounding_to_one_draws_ones(self, capsys):
        # float(p) is 1.0 here, and log1p(-1.0) has no value
        p = "9999999999999999999999/10000000000000000000000"
        assert main(["mc", "--dist", f"geom:p={p}", "--n", "3", "--reps", "4"]) == 0
        captured = capsys.readouterr()
        assert captured.out.splitlines()[1] == "3,0.0,0.0,0.0,0.0,0.0,0.0"
        assert captured.err == ""

    @pytest.mark.parametrize("n, reps, gib", [
        ("5", "10000000000000", "372,529.0"),
        ("1000000000000", "10", "223,517.4"),
        ("5", "3000000000", "111.8"),
        ("5,12,100000000", "100", "35.8"),
    ])
    def test_huge_run_is_refused_before_allocating(self, capsys, n, reps, gib):
        start = time.perf_counter()
        with mock.patch.object(np, "empty", side_effect=AssertionError("allocated")):
            assert main(["mc", "--dist", "geom:p=1/2", "--n", n, "--reps", reps]) == 1
        assert time.perf_counter() - start < 1.0
        captured = capsys.readouterr()
        assert captured.out == ""
        size = n.split(",")[-1]
        assert captured.err.splitlines() == [
            f"error: N={size} with {reps} replicates needs about {gib} GiB, past the 2 GiB memory limit"
        ]

    @pytest.mark.parametrize("threads", ["0", "-1"])
    def test_threads_below_one_is_usage_error(self, capsys, threads):
        argv = ["mc", "--dist", "geom:p=1/2", "--n", "12", "--reps", "50", "--threads", threads]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"error: --threads must be >= 1, got {threads}"]


class TestAutocorr:
    def test_csv_output(self, tmp_path, capsys):
        path = tmp_path / "t.txt"
        path.write_text("0 " + "1 0 1 1 0 1 1 1 0 1 0 1 1 0 1 " * 2 + "0\n")
        assert main(["autocorr", "--input", str(path), "--max-lag", "2"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "lag,mean_r,sd_r"
        assert len(lines) == 4
        assert float(lines[1].split(",")[1]) == 1.0

    def test_too_short_for_lags(self, trace_file, capsys):
        assert main(["autocorr", "--input", trace_file, "--max-lag", "8"]) == 1

    def test_short_traces_are_one_note_line(self, tmp_path, capsys):
        long = "0 " + "1 0 1 1 0 1 1 1 0 " * 2 + "0\n"
        path = tmp_path / "t.txt"
        path.write_text("0 1 0 1 1 0\n" + long + "0 1 0\n" + long)
        assert main(["autocorr", "--input", str(path), "--max-lag", "1"]) == 0
        captured = capsys.readouterr()
        assert captured.out.splitlines()[0] == "lag,mean_r,sd_r"
        assert captured.err.splitlines() == [
            "note: 2 trace(s) with fewer than max_lag+2 residences excluded from autocorrelation"
        ]

    def test_output_does_not_depend_on_the_blas_thread_count(self, tmp_path):
        # above about 10^4 elements a BLAS dot product splits its sum across threads
        rng = np.random.default_rng(5)
        lines = []
        for _ in range(2):  # about 20k residences each, runs of mean 3
            runs = rng.geometric(1 / 3, size=2 * 20_000 + 1)
            lines.append(" ".join(map(str, np.repeat(np.arange(len(runs)) % 2, runs).tolist())))
        path = tmp_path / "long.txt"
        path.write_text("\n".join(lines) + "\n")
        src = str(Path(__file__).resolve().parents[1] / "src")
        outputs = []
        for threads in ("1", "2"):
            env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads}
            proc = subprocess.run(
                [sys.executable, "-m", "restime.cli", "autocorr", "--input", str(path), "--k", "1",
                 "--max-lag", "3"], env=env, capture_output=True, timeout=120)
            assert proc.returncode == 0 and proc.stderr == b""
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1]

    def test_constant_trace_is_one_note_line(self, tmp_path, capsys):
        path = tmp_path / "t.txt"
        path.write_text("0 1 0 1 0 1 0 1 0 1 0\n")
        assert main(["autocorr", "--input", str(path), "--max-lag", "1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "note: trace 0 is constant, excluded from autocorrelation",
            "error: no usable trace for the requested lags",
        ]


MC = ["mc", "--dist", "geom:p=1/2", "--n", "12", "--reps", "50"]
EXACT = ["exact", "--dist", "geom:p=1/2", "--n", "3", "--orders", "1"]
NO_WINDOW = "--tstar and --dt: tstar shorter than half a time step leaves no window"
RATIO_OVERFLOW = "--tstar and --dt: tstar and dt must be positive and tstar/dt finite"
K_WITH_TSTAR = "--k and --tstar both set the absence tolerance; give one of them"


class TestOutOfRangeFlags:
    @pytest.mark.parametrize(
        "argv, message",
        [
            (["gen-expr", "--order", "0"], "--order must be within 1..8, got 0"),
            (["estimate", "--method", "taylor", "--order", "0"], "--order must be within 1..8, got 0"),
            (["estimate", "--method", "both", "--order", "0"], "--order must be within 1..8, got 0"),
            (["estimate", "--method", "taylor", "--order", "12"], "--order must be within 1..8, got 12"),
            (["estimate", "--method", "both", "--order", "12"], "--order must be within 1..8, got 12"),
            (MC + ["--order", "0"], "--order must be within 1..8, got 0"),
            (MC + ["--order", "9"], "--order must be within 1..8, got 9"),
            (MC + ["--order", "12"], "--order must be within 1..8, got 12"),
            (MC + ["--n", "0"], "--n must be >= 1, got 0"),
            (MC + ["--reps", "1"], "--reps must be >= 2, got 1"),
            (["gen-expr", "--order", "9"], "--order must be within 1..8, got 9"),
            (["extract", "--k", "0"], "--k must be >= 1, got 0"),
            (["autocorr", "--k", "0"], "--k must be >= 1, got 0"),
            (["extract", "--tstar", "0", "--dt", "0.1"], "--tstar must be finite and > 0, got 0.0"),
            (["autocorr", "--tstar", "-1", "--dt", "0.1"], "--tstar must be finite and > 0, got -1.0"),
            (["extract", "--tstar", "inf", "--dt", "0.1"], "--tstar must be finite and > 0, got inf"),
            (["extract", "--tstar", "0.2", "--dt", "0"], "--dt must be finite and > 0, got 0.0"),
            (["autocorr", "--tstar", "0.2", "--dt", "nan"], "--dt must be finite and > 0, got nan"),
            (["extract", "--k", "2", "--dt", "-0.5"], "--dt must be finite and > 0, got -0.5"),
            (["extract", "--tstar", "0.01", "--dt", "0.1"], NO_WINDOW),
            (["autocorr", "--tstar", "0.04", "--dt", "0.1"], NO_WINDOW),
            (["extract", "--tstar", "1e308", "--dt", "1e-10"], RATIO_OVERFLOW),
            (["estimate", "--dt", "0"], "--dt must be finite and > 0, got 0.0"),
            (["estimate", "--dt", "-0.1"], "--dt must be finite and > 0, got -0.1"),
            (["estimate", "--dt", "inf"], "--dt must be finite and > 0, got inf"),
            (EXACT + ["--digits", "0"], "--digits must be >= 1, got 0"),
            (["autocorr", "--max-lag", "-1"], "--max-lag must be >= 0, got -1"),
            (MC + ["--seed", "-1"], f"--seed must be within 0..{2**128 - 1}, got -1"),
            (MC + ["--seed", str(2**128)], f"--seed must be within 0..{2**128 - 1}, got {2**128}"),
            (["extract", "--k", "1", "--tstar", "5", "--dt", "1"], K_WITH_TSTAR),
            (["autocorr", "--k", "2", "--tstar", "0.3", "--dt", "0.1"], K_WITH_TSTAR),
        ],
    )
    def test_usage_error(self, rts_file, trace_file, capsys, argv, message):
        if argv[0] == "estimate":
            argv = argv + ["--rts", rts_file]
        if argv[0] in ("extract", "autocorr"):
            argv = argv + ["--input", trace_file]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"error: {message}"]

    def test_ratio_ignores_order(self, rts_file, capsys):
        assert main(["estimate", "--rts", rts_file, "--method", "ratio", "--order", "12"]) == 0


class TestInputFailures:
    @pytest.mark.parametrize(
        "argv, content",
        [
            (["extract", "--input"], b"0 1 1 0\n\xfe 1\n"),
            (["estimate", "--rts"], b"steps\n2\n\xff\n3\n"),
            (["autocorr", "--input"], b"0 1 1 0 1 0\n1 \xc3\n"),
        ],
    )
    def test_invalid_utf8_is_usage_error(self, tmp_path, capsys, argv, content):
        path = tmp_path / "input.txt"
        path.write_bytes(content)
        assert main(argv + [str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert line.startswith("error: 'utf-8' codec can't decode byte")

    @pytest.mark.parametrize("method", ["ratio", "taylor", "both"])
    def test_step_beyond_float_range_is_domain_error(self, tmp_path, capsys, method):
        path = tmp_path / "huge.csv"
        path.write_text("steps\n3\n" + "9" * 401 + "\n5\n")
        assert main(["estimate", "--rts", str(path), "--method", method]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == ["error: mrt_steps = inf is not finite"]


class TestOutput:
    @pytest.mark.parametrize("argv", [
        ["extract", "--input", "{traces}", "--k", "1"],
        ["estimate", "--rts", "{steps}", "--order", "2"],
        ["gen-expr", "--order", "2"],
        ["exact", "--dist", "uniform:a=1,b=4", "--n", "3", "--orders", "1..2"],
        ["mc", "--dist", "geom:p=1/2", "--n", "4", "--reps", "20"],
        ["autocorr", "--input", "{traces}", "--max-lag", "0"],
    ], ids=lambda argv: argv[0])
    def test_command_returns_what_main_writes(self, trace_file, rts_file, capsys, argv):
        argv = [a.format(traces=trace_file, steps=rts_file) for a in argv]
        args = build_parser().parse_args(argv)
        text = args.func(args)
        assert capsys.readouterr() == ("", "")
        assert main(argv) == 0
        assert capsys.readouterr().out == (text if text.endswith("\n") else text + "\n")

    def test_unwritable_out_is_one_usage_error(self, tmp_path, capsys):
        assert main(["gen-expr", "--order", "1", "--out", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert line.startswith("error: [Errno 21] Is a directory")

    def test_notes_repeat_and_leave_warnings_as_they_were(self, capsys):
        argv = ["exact", "--dist", "geom:p=1/2", "--n", "3", "--orders", "1"]
        filters, show = list(warnings.filters), warnings.showwarning
        for _ in range(2):
            assert main(argv) == 0
            assert capsys.readouterr().err == (
                "note: exact row omitted: exact enumeration needs a finite support (uniform only)\n"
            )
        assert (warnings.filters, warnings.showwarning) == (filters, show)

    def test_other_warnings_are_not_notes(self, capsys, monkeypatch):
        def warn(order):
            warnings.warn("not a note", RuntimeWarning)
            return generate_expression(order)

        monkeypatch.setattr(taylor, "generate_expression", warn)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["gen-expr", "--order", "1"]) == 0
        assert [(w.category, str(w.message)) for w in caught] == [(RuntimeWarning, "not a note")]
        assert capsys.readouterr().err == ""


class TestUsage:
    def test_unknown_subcommand(self, capsys):
        assert main(["bogus"]) == 2

    def test_unknown_flag(self, capsys):
        assert main(["gen-expr", "--order", "1", "--wat"]) == 2

    def test_no_arguments(self, capsys):
        assert main([]) == 2

    @pytest.mark.parametrize(
        "argv, message",
        [
            (EXACT[:-2] + ["--orders", "-2..1"], "orders must lie within 1..8"),
            (MC + ["--seed", "-x"], "argument --seed: invalid int value: '-x'"),
        ],
    )
    def test_value_starting_with_dash(self, capsys, argv, message):
        # `--flag -v` fails as `--flag=-v` does, not as a missing value
        joined = argv[:-2] + [f"{argv[-2]}={argv[-1]}"]
        for args in (argv, joined):
            assert main(args) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.splitlines() == [f"error: {message}"]

    def test_flag_is_not_taken_as_a_value(self, capsys):
        assert main(MC + ["--seed", "--reps", "5"]) == 2
        assert capsys.readouterr().err.splitlines() == ["error: argument --seed: expected one argument"]

    def test_data_on_stdout_errors_on_stderr(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("2\n")
        assert main(["extract", "--input", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err != ""

    def test_calls_in_one_process_print_what_fresh_processes_print(self, rts_file, capsys):
        # main() reuses one parser per process; a usage error must leave nothing
        # behind for the calls after it
        calls = [
            ["exact", "--dist", "uniform:a=1,b=40", "--n"],
            ["exact", "--dist", "uniform:a=1,b=40", "--n", "5", "--orders", "1..8"],
            ["estimate", "--rts", rts_file, "--order", "3", "--dt", "0.5"],
            ["estimate", "--rts", rts_file, "--method", "nope"],
            ["exact", "--dist", "uniform:a=93,b=100", "--n", "10", "--digits", "6"],
        ]
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
        for argv in calls:
            code = main(argv)
            captured = capsys.readouterr()
            fresh = subprocess.run([sys.executable, "-m", "restime.cli", *argv], env=env,
                                   capture_output=True, text=True, timeout=60)
            assert code == fresh.returncode
            assert (captured.out, captured.err) == (fresh.stdout, fresh.stderr)
        assert build_parser() is build_parser()
