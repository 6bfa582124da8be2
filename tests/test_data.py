import json
import math
import os
import re
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from lqpoison import data, linalg
from lqpoison.data import (
    BatchDataset,
    ExcitationPolicy,
    dataset_read,
    dataset_write,
    simulate_zoh,
)
from lqpoison.errors import DatasetFormatError, DimensionError
from lqpoison.lq import LQSystem


def simulate_zoh_stepwise(sys, policy, N):
    """Reference: the per-sample loop, one draw of m inputs per step."""
    F, G = linalg.zoh_pair(sys.A, sys.B, sys.dt)
    rng = np.random.Generator(np.random.PCG64(policy.seed))
    a = policy.amplitude
    xs, us = np.empty((N, sys.n)), np.empty((N, sys.m))
    x = sys.x0.copy()
    for k in range(N):
        if policy.kind == "iid-uniform":
            u = rng.uniform(-a, a, size=sys.m)
        elif policy.kind == "prbs":
            u = a * (2.0 * rng.integers(0, 2, size=sys.m) - 1.0)
        else:
            u = policy.gain @ x + rng.uniform(-a, a, size=sys.m)
        xs[k], us[k] = x, u
        x = F @ x + G @ u
    cs = np.array([x @ sys.Q @ x + u @ sys.R @ u for x, u in zip(xs, us)])
    return xs, us, cs


def integrator_system(n=2, dt=0.1):
    return LQSystem(
        A=np.zeros((n, n)), B=np.eye(n), Q=np.eye(n), R=np.eye(n),
        x0=np.zeros(n), dt=dt,
    )


class TestSimulateZoh:
    def test_pure_integrator_step(self):
        sys = integrator_system()
        d = simulate_zoh(sys, ExcitationPolicy(seed=1), 5)
        # A = 0 means F = I and G = dt*I: each step adds dt * u exactly
        for k in range(4):
            np.testing.assert_array_equal(d.xs[k + 1], d.xs[k] + 0.1 * d.us[k])

    def test_scalar_closed_form_recursion(self):
        sys = LQSystem(A=[[1.0]], B=[[1.0]], Q=[[1.0]], R=[[1.0]], x0=[0.0], dt=0.05)
        d = simulate_zoh(sys, ExcitationPolicy(seed=2), 20)
        f = math.exp(0.05)
        g = math.expm1(0.05)  # (e^{a dt} - 1) b / a with a = b = 1
        x = 0.0
        for k in range(20):
            assert d.xs[k, 0] == pytest.approx(x, abs=1e-13)
            x = f * x + g * d.us[k, 0]

    def test_case1_initial_state_exact(self, case1, case1_data):
        np.testing.assert_array_equal(case1_data.xs[0], case1.system.x0)

    def test_self_consistent_with_zoh_pair(self, case1, case1_data):
        F, G = linalg.zoh_pair(case1.system.A, case1.system.B, case1.system.dt)
        pred = case1_data.xs[:-1] @ F.T + case1_data.us[:-1] @ G.T
        assert np.max(np.abs(pred - case1_data.xs[1:])) <= 1e-12

    def test_costs_exact(self, case1, case1_data):
        Q, R = case1.system.Q, case1.system.R
        for k in (0, 17, 499):
            c = case1_data.xs[k] @ Q @ case1_data.xs[k] + case1_data.us[k] @ R @ case1_data.us[k]
            assert abs(c - case1_data.cs[k]) <= 1e-12 * (1.0 + abs(c))

    def test_seed_reproducibility(self, case1):
        a = simulate_zoh(case1.system, case1.excitation, 50)
        b = simulate_zoh(case1.system, case1.excitation, 50)
        assert np.array_equal(a.xs, b.xs) and np.array_equal(a.us, b.us)
        c = simulate_zoh(case1.system, ExcitationPolicy(seed=case1.excitation.seed + 1), 50)
        assert not np.array_equal(a.us, c.us)

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            simulate_zoh(integrator_system(), ExcitationPolicy(seed=0), 1)

    def test_prbs_levels(self):
        sys = integrator_system()
        d = simulate_zoh(sys, ExcitationPolicy(kind="prbs", amplitude=0.7, seed=3), 40)
        assert set(np.unique(np.abs(d.us))) == {0.7}

    def test_gain_plus_dither(self):
        sys = LQSystem(
            A=-np.eye(2), B=np.eye(2), Q=np.eye(2), R=np.eye(2),
            x0=np.array([1.0, -1.0]), dt=0.1,
        )
        gain = -0.5 * np.eye(2)
        d = simulate_zoh(
            sys, ExcitationPolicy(kind="gain-plus-dither", amplitude=0.2, gain=gain, seed=4), 30
        )
        dither = d.us - d.xs @ gain.T
        assert np.max(np.abs(dither)) <= 0.2

    @pytest.mark.parametrize("m", [1, 3])
    @pytest.mark.parametrize("kind", ["iid-uniform", "prbs", "gain-plus-dither"])
    def test_matches_per_step_loop(self, kind, m):
        rng = np.random.default_rng(m)
        n = 4
        sys = LQSystem(
            A=rng.normal(size=(n, n)), B=rng.normal(size=(n, m)), Q=np.eye(n),
            R=np.eye(m), x0=rng.normal(size=n), dt=0.05,
        )
        gain = -0.2 * rng.normal(size=(m, n)) if kind == "gain-plus-dither" else None
        # a seed past 2**32 takes SeedSequence's multi-word path, and prbs's
        # 701 * m bits, an odd count, end on half a 64-bit output
        policy = ExcitationPolicy(kind=kind, amplitude=0.7, gain=gain, seed=2**32 + 11)
        xs, us, cs = simulate_zoh_stepwise(sys, policy, 701)
        d = simulate_zoh(sys, policy, 701)
        scale = np.maximum.accumulate(np.linalg.norm(xs, axis=1))
        assert np.all(np.linalg.norm(d.xs - xs, axis=1) <= 1e-12 * scale)
        np.testing.assert_allclose(d.us, us, rtol=1e-12, atol=1e-12 * np.abs(us).max())
        np.testing.assert_allclose(d.cs, cs, rtol=1e-12)
        if kind != "gain-plus-dither":
            assert np.array_equal(d.us, us)  # the draws themselves, bit for bit

    @pytest.mark.parametrize("m", [1, 3])
    def test_batch_draws_follow_per_step_order(self, m):
        def gen():
            return np.random.Generator(np.random.PCG64(5))
        for draw in (
            lambda g, size: g.uniform(-0.3, 0.3, size=size),
            lambda g, size: g.integers(0, 2, size=size),
        ):
            g = gen()
            steps = np.array([draw(g, m) for _ in range(257)])
            assert np.array_equal(draw(gen(), (257, m)), steps)

    def test_dither_gain_checked(self):
        sys = integrator_system()
        for gain, err in (([[1.0, 2.0]], DimensionError), ([[np.nan]], ValueError)):
            policy = ExcitationPolicy(kind="gain-plus-dither", gain=np.array(gain))
            with pytest.raises(err, match="excitation gain"):
                simulate_zoh(sys, policy, 10)


class TestExcitationPolicy:
    def test_bad_amplitude(self):
        for amplitude in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="amplitude must be positive and finite"):
                ExcitationPolicy(amplitude=amplitude)

    def test_amplitude_bound_is_a_finite_draw_width(self):
        # rng.uniform(-a, a) needs 2a finite: the largest such a is max/2
        largest = np.finfo(float).max / 2
        assert ExcitationPolicy(amplitude=largest).amplitude == largest
        with pytest.raises(ValueError, match="and so must 2\\*amplitude, got"):
            ExcitationPolicy(amplitude=math.nextafter(largest, math.inf))

    def test_bad_kind(self):
        with pytest.raises(ValueError):
            ExcitationPolicy(kind="chirp")

    def test_dither_needs_gain(self):
        with pytest.raises(ValueError):
            ExcitationPolicy(kind="gain-plus-dither")

    @pytest.mark.parametrize("seed", [None, True, 2.0, -1, [1, 2]], ids=repr)
    def test_seed_must_be_a_non_negative_integer(self, seed):
        with pytest.raises(ValueError, match="^seed must be a non-negative integer, got "):
            ExcitationPolicy(seed=seed)

    def test_numpy_integer_seed_is_its_int(self):
        policy = ExcitationPolicy(seed=np.int64(3))
        assert policy.seed == 3 and type(policy.seed) is int

    @pytest.mark.parametrize("kind", ["iid-uniform", "prbs"])
    def test_gain_only_with_dither(self, kind):
        message = f"^gain is taken only by gain-plus-dither, not by {kind}$"
        with pytest.raises(ValueError, match=message):
            ExcitationPolicy(kind=kind, gain=np.ones((1, 2)))


class TestDatasetIO:
    def test_round_trip_exact(self, tmp_path, case1_data):
        path = str(tmp_path / "d.csv")
        dataset_write(case1_data, path)
        back = dataset_read(path)
        assert np.array_equal(back.xs, case1_data.xs)
        assert np.array_equal(back.us, case1_data.us)
        assert np.array_equal(back.cs, case1_data.cs)
        assert back.dt == case1_data.dt

    def test_write_bytes_and_round_trip(self, tmp_path):
        rng = np.random.default_rng(4)
        N, n, m = 300, 10, 3
        scale = np.logspace(-300, 300, N)[:, None]
        xs = rng.normal(size=(N, n)) * scale
        xs[5, :2] = [0.0, -0.0]
        d = BatchDataset(
            xs=xs, us=rng.normal(size=(N, m)), cs=rng.normal(size=N) * scale[:, 0],
            dt=0.005,
        )
        path = str(tmp_path / "d.csv")
        dataset_write(d, path)
        # reference: one repr(float(v)) per value, as the format is defined
        lines = [",".join(
            ["k", "t"] + [f"x{i}" for i in range(n)] + [f"u{i}" for i in range(m)] + ["c"]
        )]
        for k in range(N):
            vals = [str(k), repr(k * d.dt)] + [repr(float(v)) for v in d.xs[k]]
            vals += [repr(float(v)) for v in d.us[k]] + [repr(float(d.cs[k]))]
            lines.append(",".join(vals))
        with open(path, encoding="utf-8", newline="") as fh:
            assert fh.read() == "\n".join(lines) + "\n"
        assert os.listdir(tmp_path) == ["d.csv"]  # a dataset is this one file
        back = dataset_read(path)
        assert np.array_equal(back.xs, d.xs) and np.array_equal(back.us, d.us)
        assert np.array_equal(back.cs, d.cs)
        assert np.array_equal(np.signbit(back.xs), np.signbit(d.xs))

    def test_header_mismatch(self, tmp_path, case1_data):
        path = str(tmp_path / "d.csv")
        dataset_write(case1_data, path)
        lines = Path(path).read_text().splitlines()
        lines[0] = "k,t,x0,x1,u0,c"  # a valid n=2, m=1 header over n=4, m=2 rows
        Path(path).write_text("\n".join(lines))
        with pytest.raises(DatasetFormatError, match="expected 6 columns, got 9") as ei:
            dataset_read(path)
        assert ei.value.line == 2
        lines[0] = "k,t,x0,x1,x2,x3,u1,u0,c"  # the right count, out of order
        Path(path).write_text("\n".join(lines))
        with pytest.raises(DatasetFormatError, match="^line 1: header") as ei:
            dataset_read(path)
        assert ei.value.line == 1

    @pytest.mark.parametrize("header", [
        "k,t,u0,c", "k,t,x0,c", "k,t,x1,x0,x2,x3,u0,u1,c",
        "k,t," + ",".join(f"x{i}" for i in range(10**5)) + ",c",  # echoed in 40 characters
    ], ids=["n=0", "m=0", "x-order", "long"])
    def test_header_refused_at_line_1(self, tmp_path, header):
        path = tmp_path / "d.csv"
        path.write_text(header + "\n0,0.0" + ",1.0" * (header.count(",") - 1) + "\n")
        with pytest.raises(DatasetFormatError, match="^line 1: header") as ei:
            dataset_read(str(path))
        assert ei.value.line == 1
        assert len(str(ei.value)) < 200

    def test_shape_comes_from_the_header(self, tmp_path, case1_data):
        # an older writer's sidecar carries n, m and dt; the reader ignores it
        path = str(tmp_path / "d.csv")
        dataset_write(case1_data, path)
        (tmp_path / "d.meta.json").write_text(json.dumps({"dt": 0.5, "n": 10**12, "m": 0}))
        back = dataset_read(path)
        assert (back.n, back.m, back.dt) == (4, 2, case1_data.dt)
        assert np.array_equal(back.xs, case1_data.xs)

    def test_bad_row_reports_line(self, tmp_path, case1_data):
        path = str(tmp_path / "d.csv")
        dataset_write(case1_data, path)
        lines = Path(path).read_text().splitlines()
        lines[3] = lines[3].rsplit(",", 1)[0]  # drop a column from row k=2
        Path(path).write_text("\n".join(lines))
        with pytest.raises(DatasetFormatError) as ei:
            dataset_read(path)
        assert ei.value.line == 4

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_value_reports_line(self, tmp_path, case1_data, value):
        path = str(tmp_path / "d.csv")
        dataset_write(case1_data, path)
        lines = Path(path).read_text().splitlines()
        parts = lines[3].split(",")
        parts[3] = value  # x1 of row k=2
        lines[3] = ",".join(parts)
        Path(path).write_text("\n".join(lines))
        with pytest.raises(DatasetFormatError, match=f'"{value}" in column x1') as ei:
            dataset_read(path)
        assert ei.value.line == 4

    def test_empty_file(self, tmp_path):
        path = tmp_path / "e.csv"
        path.write_text("")
        with pytest.raises(DatasetFormatError):
            dataset_read(str(path))

    def test_fast_and_line_parse_bit_identical(self, tmp_path):
        # both paths parse the lines of the file read in text mode, where \r\n
        # and \r end a line; \x0c, \x85 and \u2028, which str.splitlines also
        # splits on, end no line and are whitespace to loadtxt, int and float
        rng = np.random.default_rng(6)
        N, n, m = 200, 3, 2
        scale = np.logspace(-300, 300, N)[:, None]
        xs = rng.normal(size=(N, n)) * scale
        xs[3, :2] = [0.0, -0.0]
        d = BatchDataset(
            xs=xs, us=rng.normal(size=(N, m)), cs=rng.normal(size=N), dt=0.01
        )
        path = str(tmp_path / "d.csv")
        dataset_write(d, path)
        header, *rows = Path(path).read_text().splitlines()
        for first, end in [("\n", "\n"), ("\r\n", "\r\n"), ("\r", "\r"),
                           ("\n", "\x0c\n"), ("\n", "\x85\n"), ("\n", "\u2028\n")]:
            with open(path, "w", encoding="utf-8", newline="") as fh:
                fh.write(header + first + "".join(row + end for row in rows))
            with open(path, encoding="utf-8") as fh:
                fh.readline()
                body = fh.tell()
                fast = data._fast_values(fh, n + m + 2)
                fh.seek(body)
                slow = data._checked_values(fh, header.split(","))
            assert fast is not None, repr(end)
            assert fast.shape == slow.shape == (N, n + m + 2)
            assert np.array_equal(fast, slow)
            assert np.array_equal(np.signbit(fast), np.signbit(slow))
            back = dataset_read(path)
            assert np.array_equal(back.xs, d.xs) and np.array_equal(back.cs, d.cs), repr(end)

    def test_read_footprint_is_the_arrays(self, tmp_path):
        # the body is parsed from the open file, never held as text: with the
        # file's text and its list of lines, this read peaked at 5.8 times the
        # bytes of the arrays it returns
        n, m, N = 10, 3, 20000
        rng = np.random.default_rng(7)
        d = BatchDataset(xs=rng.normal(size=(N, n)), us=rng.normal(size=(N, m)),
                         cs=rng.random(N), dt=0.005)
        path = str(tmp_path / "d.csv")
        dataset_write(d, path)
        tracemalloc.start()
        try:
            back = dataset_read(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(back.xs, d.xs)
        assert peak < 2.5 * (back.xs.nbytes + back.us.nbytes + back.cs.nbytes)

    def _edited(self, tmp_path, case1_data, edit):
        """A case1 dataset file with ``edit`` applied to its list of lines."""
        path = str(tmp_path / "d.csv")
        dataset_write(case1_data, path)
        lines = Path(path).read_text().splitlines()
        edit(lines)
        Path(path).write_text("\n".join(lines) + "\n")
        return path, lines

    def test_index_written_as_float_is_rejected(self, tmp_path, case1_data):
        def edit(lines):
            lines[2] = "1.0" + lines[2][1:]
        path, lines = self._edited(tmp_path, case1_data, edit)
        assert data._fast_values(iter(lines[1:]), 8) is None
        with pytest.raises(DatasetFormatError, match="bad number") as ei:
            dataset_read(path)
        assert ei.value.line == 3

    def test_index_out_of_order_reports_line(self, tmp_path, case1_data):
        def edit(lines):
            lines[3], lines[4] = lines[4], lines[3]  # samples 2 and 3 swapped
        path, lines = self._edited(tmp_path, case1_data, edit)
        assert data._fast_values(iter(lines[1:]), 8) is None
        message = r"sample index 3 out of order \(expected 2\)"
        with pytest.raises(DatasetFormatError, match=message) as ei:
            dataset_read(path)
        assert ei.value.line == 4

    def test_whitespace_line_is_skipped(self, tmp_path, case1_data):
        path, lines = self._edited(tmp_path, case1_data, lambda lines: lines.insert(5, "  \t"))
        assert data._fast_values(iter(lines[1:]), 8) is None
        back = dataset_read(path)
        assert np.array_equal(back.xs, case1_data.xs)
        assert np.array_equal(back.cs, case1_data.cs)

    def test_underscore_token_takes_line_parse(self, tmp_path, case1_data):
        def edit(lines):
            parts = lines[11].split(",")
            parts[0], parts[2] = "1_0", "1_5.25"  # k = 10, x0 = 15.25, as int()/float() read them
            lines[11] = ",".join(parts)
        path, lines = self._edited(tmp_path, case1_data, edit)
        assert data._fast_values(iter(lines[1:]), 8) is None
        back = dataset_read(path)
        assert back.xs[10, 0] == 15.25
        assert np.array_equal(np.delete(back.xs, 10, 0), np.delete(case1_data.xs, 10, 0))

    def test_nan_takes_line_parse_and_reports_line(self, tmp_path, case1_data):
        def edit(lines):
            parts = lines[7].split(",")
            parts[4] = "NaN"
            lines[7] = ",".join(parts)
        path, lines = self._edited(tmp_path, case1_data, edit)
        assert data._fast_values(iter(lines[1:]), 8) is None
        with pytest.raises(DatasetFormatError, match='"NaN" in column x2') as ei:
            dataset_read(path)
        assert ei.value.line == 8

    @pytest.mark.parametrize("corruption", ["every-t-123", "one-ulp-at-250"])
    def test_time_column_must_be_k_dt(self, tmp_path, case1_data, corruption):
        # t is written as float64(k) * dt, with dt the second row's t
        def edit(lines):
            for i in range(1, len(lines)) if corruption == "every-t-123" else [251]:
                parts = lines[i].split(",")
                parts[1] = ("123.0" if corruption == "every-t-123"
                            else repr(math.nextafter(float(parts[1]), math.inf)))
                lines[i] = ",".join(parts)
        path, lines = self._edited(tmp_path, case1_data, edit)
        k, t = (0, 0.0) if corruption == "every-t-123" else (250, 250 * case1_data.dt)
        time = lines[k + 1].split(",")[1]
        message = rf"^sample {k}: time {time} in column t is not k\*dt = {re.escape(repr(t))}$"
        with pytest.raises(DatasetFormatError, match=message) as ei:
            dataset_read(path)
        assert ei.value.line is None
        # the line loop (taken here for a blank line) names the same sample
        Path(path).write_text("\n".join(lines[:5] + [""] + lines[5:]) + "\n")
        with pytest.raises(DatasetFormatError, match=message):
            dataset_read(path)

    @pytest.mark.parametrize("dt", [1.0 / 3.0, 0.005, 2.5e-7, 1e3, 5e-324])
    def test_written_times_read_back(self, tmp_path, dt):
        rng = np.random.default_rng(9)
        d = BatchDataset(xs=rng.normal(size=(3000, 2)), us=rng.normal(size=(3000, 1)),
                         cs=rng.random(3000), dt=dt)
        path = str(tmp_path / "d.csv")
        dataset_write(d, path)
        lines = Path(path).read_text().splitlines()
        assert data._fast_values(iter(lines[1:]), 5) is not None
        assert np.array_equal(data._checked_values(lines[1:], lines[0].split(","))[:, 1:3],
                              d.xs)
        back = dataset_read(path)
        assert back.dt == dt and np.array_equal(back.xs, d.xs)

    @pytest.mark.parametrize("token,message", [
        ("a" * 10**6, "bad number \"aaa"),
        ("1" + "0" * 10**6, "non-finite value \"100"),
    ], ids=["bad-number", "non-finite"])
    def test_long_token_echoed_bounded(self, tmp_path, case1_data, token, message):
        def edit(lines):
            parts = lines[7].split(",")
            parts[4] = token
            lines[7] = ",".join(parts)
        path, _ = self._edited(tmp_path, case1_data, edit)
        with pytest.raises(DatasetFormatError, match=f"^line 8: {message}") as ei:
            dataset_read(path)
        assert str(ei.value).endswith("characters) in column x2")
        assert len(str(ei.value)) < 200

    def test_not_utf8_names_the_file(self, tmp_path, case1_data):
        path = tmp_path / "d.csv"
        dataset_write(case1_data, str(path))
        text = path.read_bytes()
        path.write_bytes(text[:18] + b"\xff" + text[19:])
        with pytest.raises(DatasetFormatError, match=f"^{re.escape(str(path))}: .*decode") as ei:
            dataset_read(str(path))
        assert len(str(ei.value)) - len(str(path)) < 200

    @pytest.mark.parametrize("body", ["", "\n\n"])
    def test_empty_body_no_warning(self, tmp_path, body):
        path = tmp_path / "e.csv"
        path.write_text("k,t,x0,u0,c\n" + body)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DatasetFormatError, match="needs 2 sample rows to give dt, got 0"):
                dataset_read(str(path))

    def test_one_row_gives_no_dt(self, tmp_path):
        # BatchDataset holds one sample, but a file of one row has no second time
        path = tmp_path / "d.csv"
        path.write_text("k,t,x0,u0,c\n0,0.0,1.0,2.0,3.0\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DatasetFormatError,
                               match="^dataset needs 2 sample rows to give dt, got 1$"):
                dataset_read(str(path))


class TestWriteAtomic:
    @staticmethod
    def _failing_lines():
        yield "first\n"
        raise RuntimeError("generator failed")

    def test_failed_write_leaves_no_tmp(self, tmp_path):
        path = tmp_path / "out.txt"
        with pytest.raises(RuntimeError, match="generator failed"):
            data.write_atomic(str(path), self._failing_lines())
        assert os.listdir(tmp_path) == []

    def test_failed_write_keeps_the_old_file(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_bytes(b"old\n")
        with pytest.raises(RuntimeError, match="generator failed"):
            data.write_atomic(str(path), self._failing_lines())
        assert os.listdir(tmp_path) == ["out.txt"]
        assert path.read_bytes() == b"old\n"


class TestBatchDataset:
    def test_sample_access(self, case1_data):
        assert case1_data.N == 500

    @pytest.mark.parametrize("name", ["xs", "us", "cs"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_samples_rejected(self, name, bad):
        arrays = {"xs": np.zeros((3, 2)), "us": np.zeros((3, 1)), "cs": np.zeros(3)}
        arrays[name][-1] = bad
        with pytest.raises(ValueError, match=f"^{name} has non-finite entries"):
            BatchDataset(**arrays, dt=0.1)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            BatchDataset(xs=np.zeros((3, 2)), us=np.zeros((2, 1)), cs=np.zeros(3), dt=0.1)

    @pytest.mark.parametrize("dt", [math.nan, math.inf])
    def test_non_finite_dt_rejected(self, dt):
        with pytest.raises(ValueError, match="dt must be positive and finite"):
            BatchDataset(xs=np.zeros((3, 2)), us=np.zeros((3, 1)), cs=np.zeros(3), dt=dt)

    def test_last_time_must_be_finite(self):
        # t = float64(k)*dt is written for every sample, so (N - 1)*dt must be finite
        arrays = lambda N: {"xs": np.zeros((N, 2)), "us": np.zeros((N, 1)), "cs": np.zeros(N)}
        with pytest.raises(ValueError, match=r"^the last sample time \(N - 1\)\*dt is not "
                                             r"finite \(N = 3, dt = 1e\+308\)$"):
            BatchDataset(**arrays(3), dt=1e308)
        assert BatchDataset(**arrays(2), dt=1e308).N == 2
        assert BatchDataset(**arrays(1), dt=1.7e308).N == 1
