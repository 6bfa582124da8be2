import json
import math
import os
from pathlib import Path

import numpy as np
import pytest

from lqpoison import linalg
from lqpoison.data import (
    BatchDataset,
    ExcitationPolicy,
    dataset_read,
    dataset_write,
    simulate_zoh,
)
from lqpoison.errors import DatasetFormatError
from lqpoison.lq import LQSystem


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


class TestExcitationPolicy:
    def test_bad_amplitude(self):
        with pytest.raises(ValueError):
            ExcitationPolicy(amplitude=0.0)

    def test_bad_kind(self):
        with pytest.raises(ValueError):
            ExcitationPolicy(kind="chirp")

    def test_dither_needs_gain(self):
        with pytest.raises(ValueError):
            ExcitationPolicy(kind="gain-plus-dither")


class TestDatasetIO:
    def test_round_trip_exact(self, tmp_path, case1_data):
        path = str(tmp_path / "d.csv")
        dataset_write(case1_data, path)
        back = dataset_read(path)
        assert np.array_equal(back.xs, case1_data.xs)
        assert np.array_equal(back.us, case1_data.us)
        assert np.array_equal(back.cs, case1_data.cs)
        assert back.dt == case1_data.dt
        assert back.seed == case1_data.seed

    def test_write_bytes_and_round_trip(self, tmp_path):
        rng = np.random.default_rng(4)
        N, n, m = 300, 10, 3
        scale = np.logspace(-300, 300, N)[:, None]
        xs = rng.normal(size=(N, n)) * scale
        xs[5, :2] = [0.0, -0.0]
        d = BatchDataset(
            xs=xs, us=rng.normal(size=(N, m)), cs=rng.normal(size=N) * scale[:, 0],
            dt=0.005, seed=7,
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
        with open(str(tmp_path / "d.meta.json"), encoding="utf-8") as fh:
            assert json.load(fh) == {"dt": 0.005, "m": m, "n": n, "seed": 7}
        assert sorted(os.listdir(tmp_path)) == ["d.csv", "d.meta.json"]
        back = dataset_read(path)
        assert np.array_equal(back.xs, d.xs) and np.array_equal(back.us, d.us)
        assert np.array_equal(back.cs, d.cs)
        assert np.array_equal(np.signbit(back.xs), np.signbit(d.xs))

    def test_header_mismatch(self, tmp_path, case1_data):
        path = str(tmp_path / "d.csv")
        dataset_write(case1_data, path)
        lines = Path(path).read_text().splitlines()
        lines[0] = "k,t,x0,x1,u0,c"  # wrong column count for n=4, m=2
        Path(path).write_text("\n".join(lines))
        with pytest.raises(DatasetFormatError) as ei:
            dataset_read(path)
        assert ei.value.line == 1

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
        with pytest.raises(DatasetFormatError, match=f"'{value}' in column x1") as ei:
            dataset_read(path)
        assert ei.value.line == 4

    def test_empty_file(self, tmp_path):
        path = tmp_path / "e.csv"
        path.write_text("")
        (tmp_path / "e.meta.json").write_text('{"dt": 0.1, "n": 1, "m": 1, "seed": 0}')
        with pytest.raises(DatasetFormatError):
            dataset_read(str(path))

    def test_missing_sidecar(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("k,t,x0,u0,c\n")
        with pytest.raises(DatasetFormatError):
            dataset_read(str(path))


class TestBatchDataset:
    def test_sample_access(self, case1_data):
        assert len(case1_data) == case1_data.N == 500

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            BatchDataset(xs=np.zeros((3, 2)), us=np.zeros((2, 1)), cs=np.zeros(3), dt=0.1)

    @pytest.mark.parametrize("dt", [math.nan, math.inf])
    def test_non_finite_dt_rejected(self, dt):
        with pytest.raises(ValueError, match="dt must be positive and finite"):
            BatchDataset(xs=np.zeros((3, 2)), us=np.zeros((3, 1)), cs=np.zeros(3), dt=dt)
