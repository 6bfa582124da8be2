"""Batch datasets sampled from an LQ plant under zero-order hold.

A dataset is the ordered collection {(x_k, u_k, c_k)} with x_k the state at
time k*dt, u_k the input held constant on [k*dt, (k+1)*dt), and c_k the
instantaneous quadratic cost. Generation uses the exact ZOH discretization
x_{k+1} = F x_k + G u_k, so the data is exactly consistent with the model
class the identification stage fits (no integrator error, no noise). The
excitation is drawn in one batch and the states come from
``linalg.rollout``; no step runs in a per-sample Python loop.

A dataset is one CSV file: its header gives n and m, and its ``t`` column
gives dt, the second row's time; every t must be float64(k)*dt exactly.
Floats are written as shortest round-trip decimals so read(write(d)) == d
bit for bit. A read takes the header with ``readline`` and parses the body
with one ``np.loadtxt`` pass over the open file, so the file's text is
never held whole; only a body that pass does not take cleanly is parsed
again, line by line from the same file, so both paths see the same lines.
That loop names the first bad line in its ``DatasetFormatError``, and it
also accepts what ``int``/``float`` accept and ``np.loadtxt`` does not, such
as whitespace-only lines (skipped) and underscored tokens like ``1_0``. Every
file the package writes goes through ``write_atomic`` (JSON documents via
``write_json``), and every CSV, datasets, closed-loop trajectories and the
attack's ``step,cumulative_cost`` series alike, through
``indexed_csv_lines``, whose rows ``floattext.csv_rows`` formats.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import math
import os
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from . import floattext, linalg
from .errors import DatasetFormatError
from .lq import LQSystem, require_plant_kept

EXCITATION_KINDS = ("iid-uniform", "prbs", "gain-plus-dither")
# values per formatted piece, step column included (~0.27 MB traced); a
# block of more than 16 pieces takes larger ones (``indexed_csv_lines``)
CSV_PIECE_VALUES = 4096
_JSON_TYPES = {list: "an array", dict: "an object"}  # named in messages: their text may be huge
SHOWN_CHARS = 40  # most characters of an offending value's JSON text a message echoes


@dataclass(frozen=True)
class ExcitationPolicy:
    """How inputs are chosen while collecting the batch.

    ``iid-uniform`` draws each input uniformly from [-amplitude, amplitude],
    ``prbs`` draws random +/-amplitude levels, and ``gain-plus-dither``
    applies u = gain @ x plus a uniform dither (closed-loop collection);
    only that kind takes a ``gain``.
    All randomness comes from a PCG64 generator seeded with ``seed``, which
    makes datasets reproducible across runs and platforms.
    """

    kind: str = "iid-uniform"
    amplitude: float = 1.0
    gain: np.ndarray | None = None
    seed: int = 0

    def __post_init__(self):
        if self.kind not in EXCITATION_KINDS:
            raise ValueError(f"unknown excitation kind {self.kind!r}")
        # the uniform draw on [-amplitude, amplitude] needs its width finite
        if not (0 < self.amplitude and math.isfinite(2.0 * self.amplitude)):
            raise ValueError(f"amplitude must be positive and finite, and so must "
                             f"2*amplitude, got {self.amplitude}")
        if self.kind == "gain-plus-dither" and self.gain is None:
            raise ValueError("gain-plus-dither requires a gain matrix")
        if self.kind != "gain-plus-dither" and self.gain is not None:
            raise ValueError(f"gain is taken only by gain-plus-dither, not by {self.kind}")


@dataclass(frozen=True)
class BatchDataset:
    """N finite samples of (state, held input, instantaneous cost) at spacing dt."""

    xs: np.ndarray  # (N, n)
    us: np.ndarray  # (N, m)
    cs: np.ndarray  # (N,)
    dt: float

    def __post_init__(self):
        xs = linalg.as_matrix(self.xs, "xs")
        us = linalg.as_matrix(self.us, "us")
        cs = np.asarray(self.cs, dtype=float).reshape(-1)
        if not np.isfinite(cs).all():
            raise ValueError("cs has non-finite entries")
        if not (len(xs) == len(us) == len(cs)):
            raise ValueError("xs, us, cs must have the same length")
        linalg.require_dt(self.dt)
        # the t column holds float64(k)*dt, so the last time must be finite too
        if not math.isfinite((len(xs) - 1) * float(self.dt)):
            raise ValueError(f"the last sample time (N - 1)*dt is not finite "
                             f"(N = {len(xs)}, dt = {self.dt!r})")
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "us", us)
        object.__setattr__(self, "cs", cs)

    @property
    def N(self) -> int:
        return self.xs.shape[0]

    @property
    def n(self) -> int:
        return self.xs.shape[1]

    @property
    def m(self) -> int:
        return self.us.shape[1]


def simulate_zoh(sys: LQSystem, policy: ExcitationPolicy, N: int) -> BatchDataset:
    """Collect N samples from the plant under the excitation policy.

    States propagate exactly by (F, G) = zoh_pair(A, B, dt); costs are the
    exact quadratic x^T Q x + u^T R u at each sample instant. Deterministic
    given the policy seed: the N x m excitation is drawn in one call, which
    yields the same numbers as N draws of m in sample order.
    """
    if N < 2:
        raise ValueError(f"need at least 2 samples, got N={N}")
    F, G = linalg.zoh_pair(sys.A, sys.B, sys.dt)
    rng = np.random.Generator(np.random.PCG64(policy.seed))
    n, m = sys.n, sys.m
    a = policy.amplitude
    # A run that overflows is refused by BatchDataset, not warned about.
    with np.errstate(over="ignore", invalid="ignore"):
        M = F
        if policy.kind == "gain-plus-dither":
            gain = linalg.as_matrix(policy.gain, "excitation gain", (m, n))
            # u_k = gain x_k + dither_k, so x_{k+1} = (F + G gain) x_k + G dither_k
            GK = G @ gain
            M = F + GK
        with linalg.sized_by("N"):
            if policy.kind == "prbs":
                us = a * (2.0 * rng.integers(0, 2, size=(N, m)) - 1.0)
            else:
                us = rng.uniform(-a, a, size=(N, m))
            xs = linalg.rollout(M, sys.x0, N - 1, us[:-1] @ G.T)
        if policy.kind == "gain-plus-dither":
            require_plant_kept(F, GK, xs[:-1], "excitation gain")
            us = xs @ gain.T + us
        cs = sys.stage_costs(xs, us)
    return BatchDataset(xs=xs, us=us, cs=cs, dt=sys.dt)


def _shown(value) -> str:
    """``value`` as a message echoes it, in a bounded form.

    An array or object is named by its JSON type; anything else is its JSON
    text, cut after ``SHOWN_CHARS`` characters with the full length appended.
    """
    text = _JSON_TYPES.get(type(value)) or json.dumps(value)
    if len(text) <= SHOWN_CHARS:
        return text
    return f"{text[:SHOWN_CHARS]}... ({len(text)} characters)"


def json_int(value, minimum: int | None = None) -> int:
    """``value`` if it is a JSON integer, and at least ``minimum`` if one is given.

    Bools and floats raise ``ValueError`` instead of being truncated as
    ``int()`` would (``int(2.9) == 2``); the caller names the field.
    """
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"must be an integer, got {_shown(value)}")
    if minimum is not None and value < minimum:
        raise ValueError(f"must be at least {minimum}, got {_shown(value)}")
    return value


def json_number(value) -> float:
    """``value`` as a float if it is a JSON number.

    Bools and strings raise ``ValueError`` instead of being converted as
    ``float()`` would (``float(True) == 1.0``); the caller names the field.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"must be a number, got {_shown(value)}")
    try:
        return float(value)
    except OverflowError:  # an integer beyond the float range
        raise ValueError(f"must be a number in the float range, got {_shown(value)}") from None


def json_array(value) -> np.ndarray:
    """``value`` as a float array if it is a JSON number, a vector or a matrix.

    Every array field is a vector or a matrix, so the walk stops at a third
    level of arrays with a ``ValueError`` that does not echo the value: no
    input, however deep, makes it recurse further.
    """

    def numbers(v, depth):
        if not isinstance(v, list):
            return json_number(v)
        if depth == 2:
            raise ValueError("must be a vector or a matrix, got arrays nested deeper")
        return [numbers(x, depth + 1) for x in v]

    return np.array(numbers(value, 0), dtype=float)


def read_json_object(path: str, error: type[ValueError], what: str) -> dict:
    """The JSON object in the file ``path``, read as ``what``.

    A file that cannot be read or parsed, nested past the parser's depth, or
    whose root is not an object, raises ``error`` (an exception class taking
    one message) naming the file.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError, RecursionError) as e:  # bad JSON or UTF-8, deep nesting
        why = "; the document is nested too deeply" if isinstance(e, RecursionError) else ""
        raise error(f"{path}: cannot read {what}: {e}{why}") from e
    if not isinstance(doc, dict):
        raise error(f"{path}: {what} root must be a JSON object")
    return doc


def write_atomic(path: str, lines: Iterable[str]) -> None:
    """Stream ``lines`` (text pieces, each ending in a newline) to ``path`` atomically.

    The pieces go to ``path + ".tmp"``, which then replaces ``path``, so a
    reader sees the old file or the complete new one, never a partial write.
    Pieces are written as they are produced; the whole text is never held.
    If producing, writing or renaming fails, the ``.tmp`` is removed and
    ``path`` keeps what it held. A ``.tmp`` that cannot be created (say, in
    a missing directory) raises the ``OSError`` against ``path``.
    """
    tmp = path + ".tmp"
    try:
        fh = open(tmp, "w", encoding="utf-8")
    except OSError as e:
        raise OSError(e.errno, e.strerror, path) from e
    try:
        with fh:
            fh.writelines(lines)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def write_json(path: str, doc) -> None:
    """Write ``doc`` as indented, key-sorted JSON, atomically."""
    write_atomic(path, [json.dumps(doc, indent=2, sort_keys=True) + "\n"])


def indexed_csv_lines(
    header: list[str], dt: float | None, *blocks: np.ndarray
) -> Iterator[str]:
    """CSV text: ``header``, then ``k,k*dt,row...`` for each row of ``blocks`` side by side.

    With ``dt=None`` the rows are ``k,row...``. Floats are written as
    ``repr`` writes them, the shortest decimal that reads back to the same
    double, so parsing the file recovers the blocks exactly. Each piece
    after the header is formatted by one ``floattext.csv_rows`` call, so a
    long rollout is never held as text. A piece is ``CSV_PIECE_VALUES``
    values, step column included, or for a block of more than 16 such
    pieces a 16th of its values, at most twice ``CSV_PIECE_VALUES``; in
    whole rows either way.
    """
    yield ",".join(header) + "\n"
    # Each piece costs fixed work, so a large block takes larger pieces. A
    # 16th of its values keeps a piece's 66-72 B per value of working memory
    # within about half the 8 B per value the block holds, and twice
    # CSV_PIECE_VALUES bounds that memory for any block.
    values = len(blocks[0]) * len(header)
    piece = min(2 * CSV_PIECE_VALUES, max(CSV_PIECE_VALUES, values // 16))
    rows = max(1, piece // len(header))
    for start in range(0, len(blocks[0]), rows):
        yield floattext.csv_rows(start, dt, *(b[start : start + rows] for b in blocks))


def _dataset_header(n: int, m: int) -> list[str]:
    """Dataset CSV columns: k, t, x0..x{n-1}, u0..u{m-1}, c."""
    return ["k", "t"] + [f"x{i}" for i in range(n)] + [f"u{i}" for i in range(m)] + ["c"]


def dataset_write(d: BatchDataset, path: str) -> None:
    """Write the CSV (header k,t,x*,u*,c; t = k*dt), atomically."""
    write_atomic(path, indexed_csv_lines(_dataset_header(d.n, d.m), d.dt, d.xs, d.us, d.cs[:, None]))


def _fast_values(lines: Iterator[str], width: int) -> np.ndarray | None:
    """The (N, width) t,x*,u*,c values of a well-formed body, else None.

    One ``np.loadtxt`` pass over ``lines``, the body's lines, such as an open
    file positioned at the body: the text is never held whole. It converts
    floats with the same C routine as ``float`` and rejects an int written
    ``1.0`` as ``int`` does, and what it accepts is a subset of what they
    accept, so a body it takes parses to the same bits as the line loop over
    the same lines. The result is used only when every row is a finite sample
    with k = 0, 1, 2, ... in order.
    """
    first = next(lines, "")
    if not first.strip():  # loadtxt warns on a body with no rows
        return None
    dtype = np.dtype([("k", np.int64), ("v", np.float64, (width,))])
    try:
        rec = np.loadtxt(itertools.chain([first], lines), dtype=dtype, delimiter=",",
                         comments=None, ndmin=1)
    except ValueError:
        return None
    k = np.arange(len(rec), dtype=np.float64)
    if not (np.array_equal(rec["k"], k) and np.isfinite(rec["v"]).all()):
        return None
    return rec["v"]


def _checked_values(lines: Iterable[str], header: list[str]) -> np.ndarray:
    """The body parsed line by line; raises DatasetFormatError at the first bad line.

    ``lines`` are the body's lines, each with or without its newline, such
    as an open file positioned at the body.
    """
    rows = []
    for lineno, line in enumerate(lines, start=2):
        line = line.rstrip("\n")
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != len(header):
            raise DatasetFormatError(
                f"expected {len(header)} columns, got {len(parts)}", line=lineno
            )
        values = []
        for name, p in zip(header, parts):
            try:
                values.append(int(p) if name == "k" else float(p))
            except ValueError:
                raise DatasetFormatError(
                    f"bad number {_shown(p)} in column {name}", line=lineno
                ) from None
        k, *row = values
        if not all(map(math.isfinite, row)):
            col = next(i for i, v in enumerate(row, start=1) if not math.isfinite(v))
            raise DatasetFormatError(
                f"non-finite value {_shown(parts[col])} in column {header[col]}", line=lineno
            )
        if k != len(rows):
            raise DatasetFormatError(
                f"sample index {_shown(k)} out of order (expected {len(rows)})", line=lineno
            )
        rows.append(row)
    return np.array(rows)


def dataset_read(path: str) -> BatchDataset:
    """Read a dataset written by ``dataset_write``; n and m come from the header, dt from t."""
    try:
        with open(path, encoding="utf-8") as fh:
            first = fh.readline()
            if not first:
                raise DatasetFormatError("empty dataset file", line=1)
            first = first.rstrip("\n")
            header = first.split(",")
            n = sum(name.startswith("x") for name in header)
            m = len(header) - n - 3
            if min(n, m) < 1 or header != _dataset_header(n, m):
                raise DatasetFormatError(f"header {_shown(first)} is not "
                                         "k,t,x0..x{n-1},u0..u{m-1},c with n, m >= 1", line=1)
            body = fh.tell()
            values = _fast_values(fh, n + m + 2)
            if values is None:
                fh.seek(body)
                values = _checked_values(fh, header)
    except UnicodeDecodeError as e:
        raise DatasetFormatError(f"{path}: cannot read dataset: {e}") from e
    # t = float64(k)*dt as csv_rows writes it; an error names the sample, not
    # the line, as the line loop skips blank lines
    if len(values) < 2:
        raise DatasetFormatError(f"dataset needs 2 sample rows to give dt, got {len(values)}")
    t = values[:, 0]
    dt = float(t[1])
    if not 0.0 < dt < math.inf:
        raise DatasetFormatError(f"sample 1: time {dt!r} in column t gives dt, "
                                 "which must be positive and finite")
    k = np.arange(len(t), dtype=np.float64)
    with np.errstate(over="ignore"):  # an inf k*dt is a mismatch
        if not np.array_equal(t, np.multiply(k, dt, out=k)):
            bad = int(np.argmin(t == k))
            raise DatasetFormatError(f"sample {bad}: time {float(t[bad])!r} in column t "
                                     f"is not k*dt = {float(k[bad])!r}")
    return BatchDataset(
        xs=values[:, 1 : 1 + n].copy(), us=values[:, 1 + n : 1 + n + m].copy(),
        cs=values[:, -1].copy(), dt=dt,
    )
