"""The vectorised CSV formatter against ``repr``, the oracle that defines the format."""

from __future__ import annotations

from decimal import Decimal
import functools
import tracemalloc
import warnings

import numpy as np
import pytest

from lqpoison import floattext
from lqpoison.data import BatchDataset, dataset_write
from lqpoison.floattext import csv_rows
from lqpoison.pipeline import trajectory_write

WIDTH, ROWS = 8, 4096  # block shape the adversarial values are written in


def oracle(start, dt, values) -> str:
    """One ``repr`` per float, as the CSV format is defined."""
    lines = []
    for k, row in enumerate(values.tolist(), start):
        fields = [str(k)] + ([repr(k * dt)] if dt is not None else []) + [repr(v) for v in row]
        lines.append(",".join(fields) + "\n")
    return "".join(lines)


def neighbours(x, steps):
    """``x`` and its ``steps`` nearest doubles on each side."""
    out = [np.asarray(x, dtype=float)]
    up = down = out[0]
    for _ in range(steps):
        up, down = np.nextafter(up, np.inf), np.nextafter(down, -np.inf)
        out += [up, down]
    return np.concatenate(out)


@functools.lru_cache(maxsize=None)
def adversarial() -> dict[str, np.ndarray]:
    """About 1.3 million doubles on which a shortest-digit formatter can go wrong."""
    rng = np.random.default_rng(19)
    bits = rng.integers(0, 2**64, size=320_000, dtype=np.uint64).view(np.float64)
    low, high = np.array([1e-10, 1e16]).view(np.int64)
    fast = rng.integers(low, high, size=500_000).view(np.float64) * rng.choice([-1.0, 1.0], 500_000)
    normal = rng.normal(size=100_000) * 10.0 ** rng.uniform(-8, 12, size=100_000)
    pow10 = 10.0 ** np.arange(-12, 19)
    j = rng.integers(1, 10**6, size=50_000)
    # decimals of p + 1 significant digits ending in 5: ties between p-digit neighbours
    ties = [float(f"{rng.integers(10**p, 10**(p + 1))}5e{e}")
            for p in range(17) for e in rng.integers(-28, 1, size=600)]
    return {
        "random bit patterns": bits[np.isfinite(bits)],
        "random fast-range patterns": fast,
        "normal samples over 20 decades": normal,
        "10**k and neighbours": neighbours(np.concatenate([pow10, -pow10]), 3),
        "2- and 3-decimal numbers and neighbours": neighbours(
            np.concatenate([j / 100, -j / 1000, np.arange(1, 5000) * 0.01]), 1),
        "decimal ties and neighbours": neighbours(ties, 2),
        "powers of two": np.ldexp(np.array([[1.0], [-1.0]]), np.arange(-1074, 1024)),
        "1.5 times powers of two": np.ldexp(1.5, np.arange(-1074, 1024)),
        "fast-path edges": neighbours([1e-10, 1e16, -1e-10, -1e16, 1e-4, 1.0], 40),
        "specials": np.array([0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308,
                              -1.7976931348623157e308, np.inf, -np.inf, np.nan]),
    }


def test_adversarial_set_is_large_and_reaches_repr():
    values = adversarial()
    assert sum(v.size for v in values.values()) >= 10**6
    slow = {name: floattext._shortest(v.ravel())[3] for name, v in values.items()}
    assert slow["specials"].all() and slow["powers of two"].all()
    # inside the fast range repr is reached at ties, which are common only
    # among large values with few fraction bits
    assert 0 < slow["decimal ties and neighbours"].mean() < 0.5
    assert slow["random fast-range patterns"].mean() < 0.02
    assert slow["normal samples over 20 decades"].mean() < 1e-3


@pytest.mark.parametrize("name", list(adversarial()))
def test_matches_repr(name):
    values = adversarial()[name].ravel()
    rows = np.concatenate([values, np.full(-len(values) % WIDTH, 1 / 3)]).reshape(-1, WIDTH)
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        for start in range(0, len(rows), ROWS):
            dt = (None, 5e-5)[start // ROWS % 2]
            block = rows[start : start + ROWS]
            got = csv_rows(start, dt, block)
            assert "\0" not in got
            same = got == oracle(start, dt, block)
            assert same  # a bare bool: pytest's diff of two long texts takes minutes


@pytest.mark.parametrize("start", [0, 9, 999_998, 10**6 - 3, 10**15])
def test_step_column(start):
    values = np.array([[0.1], [2.5], [-7.0], [1e-7]])
    assert csv_rows(start, 0.01, values) == oracle(start, 0.01, values)
    assert csv_rows(start, None, values) == oracle(start, None, values)


def test_empty_block():
    assert csv_rows(0, 0.1, np.zeros((0, 3))) == ""


def decimal_shape(v: float) -> tuple[int, int]:
    """(decpt, nd) of ``repr(v)``: its point after digit decpt of nd significant digits."""
    digits, exponent = Decimal(repr(v)).normalize().as_tuple()[1:]
    return len(digits) + exponent, len(digits)


def test_negative_values_in_every_section():
    # one negative value of each (decpt, nd) the record table has a signed section for
    rng = np.random.default_rng(23)
    shapes = {}
    while len(shapes) < 27 * 17:
        decpt, nd = int(rng.integers(-9, 18)), int(rng.integers(1, 18))
        if (decpt, nd) in shapes:
            continue
        digits = "".join(map(str, [rng.integers(1, 10), *rng.integers(0, 10, max(nd - 2, 0)),
                                   rng.integers(1, 10)][:nd]))  # no leading or trailing 0
        v = -float(f"0.{digits}e{decpt}")
        # a fast-path value of this shape; decpt 17 (|v| >= 1e16) is repr's
        if decimal_shape(v) == (decpt, nd) and (decpt == 17 or not floattext._shortest(
                np.array([v]))[3][0]):
            shapes[decpt, nd] = v
    fallback = [-0.0, -5e-324, -1.7976931348623157e308, -np.inf, -2.0**-3, -1e-11, -1e16]
    values = np.array(list(shapes.values()) + fallback)
    rows = np.concatenate([values, np.full(-len(values) % WIDTH, -1 / 3)]).reshape(-1, WIDTH)
    assert csv_rows(0, -0.5, rows) == oracle(0, -0.5, rows)
    assert csv_rows(7, None, rows) == oracle(7, None, rows)


def test_trajectory_write_memory_bound(tmp_path):
    # the one-repr-per-float writer this replaced peaked at 0.81 MB on this input
    states = np.random.default_rng(3).normal(size=(40_001, 4))
    path = str(tmp_path / "traj.csv")
    tracemalloc.start()
    try:
        trajectory_write(path, states, 5e-5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.75e6


def test_small_trajectory_write_memory_bound(tmp_path):
    # case1's 1,001-row files keep CSV_PIECE_VALUES pieces: their writer sets
    # case1's peak, which was 0.279 MB traced before pieces grew with the block
    states = np.random.default_rng(3).normal(size=(1001, 4))
    path = str(tmp_path / "traj.csv")
    tracemalloc.start()
    try:
        trajectory_write(path, states, 5e-5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.279e6


def test_dataset_write_memory_bound(tmp_path):
    # chain-n10's dataset: 16 columns (k, t, 10 states, 3 inputs, c); the
    # dataset is held before tracing starts, so the peak is the writer's own
    rng = np.random.default_rng(4)
    d = BatchDataset(rng.normal(size=(5000, 10)), rng.normal(size=(5000, 3)), rng.random(5000),
                     dt=0.01)
    path = str(tmp_path / "data.csv")
    tracemalloc.start()
    try:
        dataset_write(d, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.75e6
