"""Batch datasets sampled from an LQ plant under zero-order hold.

A dataset is the ordered collection {(x_k, u_k, c_k)} with x_k the state at
time k*dt, u_k the input held constant on [k*dt, (k+1)*dt), and c_k the
instantaneous quadratic cost. Generation uses the exact ZOH discretization
x_{k+1} = F x_k + G u_k, so the data is exactly consistent with the model
class the identification stage fits (no integrator error, no noise). The
excitation is drawn in one batch and the states come from
``linalg.rollout``; no step runs in a per-sample Python loop.

Datasets serialize to CSV with a JSON metadata sidecar. Floats are written
as shortest round-trip decimals so read(write(d)) == d bit for bit. A read
parses the body with one ``np.loadtxt`` call; only a body that call does
not take cleanly is parsed again line by line. That loop names the first
bad line in its ``DatasetFormatError``, and it also accepts what
``int``/``float`` accept and ``np.loadtxt`` does not, such as whitespace-only
lines (skipped) and underscored tokens like ``1_0``. Every file the
package writes goes through ``write_atomic`` (JSON documents via
``write_json``), and every CSV, datasets, closed-loop trajectories and the
attack's ``step,cumulative_cost`` series alike, through
``indexed_csv_lines``, whose rows ``floattext.csv_rows`` formats.
"""

from __future__ import annotations

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
CSV_CHUNK_ROWS = 512  # rows formatted into one string at a time when writing
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
    seed: int | None = None

    def __post_init__(self):
        xs = linalg.as_matrix(self.xs, "xs")
        us = linalg.as_matrix(self.us, "us")
        cs = np.asarray(self.cs, dtype=float).reshape(-1)
        if not np.isfinite(cs).all():
            raise ValueError("cs has non-finite entries")
        if not (len(xs) == len(us) == len(cs)):
            raise ValueError("xs, us, cs must have the same length")
        linalg.require_dt(self.dt)
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

    def __len__(self) -> int:
        return self.N


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
    return BatchDataset(xs=xs, us=us, cs=cs, dt=sys.dt, seed=policy.seed)


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


def _meta_path(path: str) -> str:
    base, _ = os.path.splitext(path)
    return base + ".meta.json"


def write_atomic(path: str, lines: Iterable[str]) -> None:
    """Stream ``lines`` (text pieces, each ending in a newline) to ``path`` atomically.

    The pieces go to ``path + ".tmp"``, which then replaces ``path``, so a
    reader sees the old file or the complete new one, never a partial write.
    Pieces are written as they are produced; the whole text is never held.
    """
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.writelines(lines)
    os.replace(tmp, path)


def write_json(path: str, doc) -> None:
    """Write ``doc`` as indented, key-sorted JSON, atomically."""
    write_atomic(path, [json.dumps(doc, indent=2, sort_keys=True) + "\n"])


def indexed_csv_lines(
    header: list[str], dt: float | None, rows: np.ndarray
) -> Iterator[str]:
    """CSV text: ``header``, then ``k,k*dt,row...`` for each row of ``rows``.

    With ``dt=None`` the rows are ``k,row...``. Floats are written as
    ``repr`` writes them, the shortest decimal that reads back to the same
    double, so parsing the file recovers ``rows`` exactly. Each piece after
    the header holds ``CSV_CHUNK_ROWS`` rows (``floattext.csv_rows``), so a
    long rollout is never held as text all at once.
    """
    yield ",".join(header) + "\n"
    for start in range(0, len(rows), CSV_CHUNK_ROWS):
        yield floattext.csv_rows(start, dt, rows[start : start + CSV_CHUNK_ROWS])


def _dataset_header(n: int, m: int) -> list[str]:
    """Dataset CSV columns: k, t, x0..x{n-1}, u0..u{m-1}, c."""
    return ["k", "t"] + [f"x{i}" for i in range(n)] + [f"u{i}" for i in range(m)] + ["c"]


def dataset_write(d: BatchDataset, path: str) -> None:
    """Write CSV (header k,t,x*,u*,c) plus the .meta.json sidecar, atomically."""
    rows = np.column_stack([d.xs, d.us, d.cs])
    write_atomic(path, indexed_csv_lines(_dataset_header(d.n, d.m), d.dt, rows))
    meta = {"dt": d.dt, "n": d.n, "m": d.m, "seed": d.seed}
    write_json(_meta_path(path), meta)


def _fast_values(body: list[str], width: int) -> np.ndarray | None:
    """The (N, width) t,x*,u*,c values of a well-formed body, else None.

    One ``np.loadtxt`` pass. It converts floats with the same C routine as
    ``float`` and rejects an int written ``1.0`` as ``int`` does, and what it
    accepts is a subset of what they accept, so a body it takes parses to
    the same bits as the line loop. The result is used only when every row
    is a finite sample with k = 0, 1, 2, ... in order.
    """
    if not any(body):  # loadtxt warns on input with no rows
        return None
    dtype = np.dtype([("k", np.int64), ("v", np.float64, (width,))])
    try:
        rec = np.loadtxt(body, dtype=dtype, delimiter=",", comments=None, ndmin=1)
    except ValueError:
        return None
    if not (np.array_equal(rec["k"], np.arange(len(rec))) and np.isfinite(rec["v"]).all()):
        return None
    return rec["v"]


def _checked_values(body: list[str], header: list[str]) -> np.ndarray:
    """The body parsed line by line; raises DatasetFormatError at the first bad line."""
    rows = []
    for lineno, line in enumerate(body, start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != len(header):
            raise DatasetFormatError(
                f"expected {len(header)} columns, got {len(parts)}", line=lineno
            )
        try:
            k = int(parts[0])
            row = [float(p) for p in parts[1:]]
        except ValueError as e:
            raise DatasetFormatError(f"bad number: {e}", line=lineno) from e
        if not all(map(math.isfinite, row)):
            col = next(i for i, v in enumerate(row) if not math.isfinite(v))
            raise DatasetFormatError(
                f"non-finite value {parts[col + 1]!r} in column {header[col + 1]}",
                line=lineno,
            )
        if k != len(rows):
            raise DatasetFormatError(
                f"sample index {k} out of order (expected {len(rows)})", line=lineno
            )
        rows.append(row)
    if not rows:
        raise DatasetFormatError("dataset has no sample rows", line=2)
    return np.array(rows)


def dataset_read(path: str) -> BatchDataset:
    """Read a dataset written by ``dataset_write``."""
    meta = read_json_object(_meta_path(path), DatasetFormatError, "metadata sidecar")

    def field(key, convert):
        if key not in meta:
            raise DatasetFormatError(f"metadata field {key} is missing")
        try:
            return convert(meta[key])
        except (TypeError, ValueError) as e:
            raise DatasetFormatError(f"metadata field {key}: {e}") from e

    dt = field("dt", json_number)
    n, m = (field(key, lambda v: json_int(v, minimum=1)) for key in ("n", "m"))
    seed = meta.get("seed")
    if seed is not None:
        seed = field("seed", lambda v: json_int(v, minimum=0))

    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise DatasetFormatError("empty dataset file", line=1)
    header = _dataset_header(n, m)
    if lines[0].split(",") != header:
        raise DatasetFormatError(f"header mismatch: expected {','.join(header)!r}", line=1)
    values = _fast_values(lines[1:], n + m + 2)
    if values is None:
        values = _checked_values(lines[1:], header)
    return BatchDataset(
        xs=values[:, 1 : 1 + n].copy(), us=values[:, 1 + n : 1 + n + m].copy(),
        cs=values[:, -1].copy(), dt=dt, seed=seed,
    )
