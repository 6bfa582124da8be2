"""Batch datasets sampled from an LQ plant under zero-order hold.

A dataset is the ordered collection {(x_k, u_k, c_k)} with x_k the state at
time k*dt, u_k the input held constant on [k*dt, (k+1)*dt), and c_k the
instantaneous quadratic cost. Generation uses the exact ZOH discretization
x_{k+1} = F x_k + G u_k, so the data is exactly consistent with the model
class the identification stage fits (no integrator error, no noise).

Datasets serialize to CSV with a JSON metadata sidecar. Floats are written
as shortest round-trip decimals so read(write(d)) == d bit for bit. Every
file the package writes goes through ``write_atomic`` (JSON documents via
``write_json``), and every indexed CSV, datasets and closed-loop
trajectories alike, is formatted by ``indexed_csv_lines``.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from . import linalg
from .errors import DatasetFormatError
from .lq import LQSystem

EXCITATION_KINDS = ("iid-uniform", "prbs", "gain-plus-dither")


@dataclass(frozen=True)
class ExcitationPolicy:
    """How inputs are chosen while collecting the batch.

    ``iid-uniform`` draws each input uniformly from [-amplitude, amplitude],
    ``prbs`` draws random +/-amplitude levels, and ``gain-plus-dither``
    applies u = gain @ x plus a uniform dither (closed-loop collection).
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
        if self.amplitude <= 0:
            raise ValueError(f"amplitude must be positive, got {self.amplitude}")
        if self.kind == "gain-plus-dither" and self.gain is None:
            raise ValueError("gain-plus-dither requires a gain matrix")


@dataclass(frozen=True)
class BatchDataset:
    """N samples of (state, held input, instantaneous cost) at spacing dt."""

    xs: np.ndarray  # (N, n)
    us: np.ndarray  # (N, m)
    cs: np.ndarray  # (N,)
    dt: float
    seed: int | None = None

    def __post_init__(self):
        xs = np.asarray(self.xs, dtype=float)
        us = np.asarray(self.us, dtype=float)
        cs = np.asarray(self.cs, dtype=float).reshape(-1)
        if xs.ndim != 2 or us.ndim != 2:
            raise ValueError("xs and us must be 2-D arrays")
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
    given the policy seed.
    """
    if N < 2:
        raise ValueError(f"need at least 2 samples, got N={N}")
    F, G = linalg.zoh_pair(sys.A, sys.B, sys.dt)
    rng = np.random.Generator(np.random.PCG64(policy.seed))
    n, m = sys.n, sys.m
    gain = None if policy.gain is None else np.asarray(policy.gain, dtype=float)
    xs = np.empty((N, n))
    us = np.empty((N, m))
    cs = np.empty(N)
    x = sys.x0.copy()
    for k in range(N):
        if policy.kind == "iid-uniform":
            u = rng.uniform(-policy.amplitude, policy.amplitude, size=m)
        elif policy.kind == "prbs":
            u = policy.amplitude * (2.0 * rng.integers(0, 2, size=m) - 1.0)
        else:  # gain-plus-dither
            u = gain @ x + rng.uniform(-policy.amplitude, policy.amplitude, size=m)
        xs[k] = x
        us[k] = u
        cs[k] = x @ sys.Q @ x + u @ sys.R @ u
        x = F @ x + G @ u
    return BatchDataset(xs=xs, us=us, cs=cs, dt=sys.dt, seed=policy.seed)


def _meta_path(path: str) -> str:
    base, _ = os.path.splitext(path)
    return base + ".meta.json"


def write_atomic(path: str, lines: Iterable[str]) -> None:
    """Stream ``lines`` (each with its own newline) to ``path`` atomically.

    The lines go to ``path + ".tmp"``, which then replaces ``path``, so a
    reader sees the old file or the complete new one, never a partial write.
    Lines are written as they are produced; the whole text is never held.
    """
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.writelines(lines)
    os.replace(tmp, path)


def write_json(path: str, doc) -> None:
    """Write ``doc`` as indented, key-sorted JSON, atomically."""
    write_atomic(path, [json.dumps(doc, indent=2, sort_keys=True) + "\n"])


def indexed_csv_lines(
    header: list[str], dt: float, rows: np.ndarray
) -> Iterator[str]:
    """CSV lines: ``header``, then ``k,k*dt,row...`` for each row of ``rows``.

    Floats are formatted with ``repr``, the shortest decimal that reads back
    to the same double, so parsing the file recovers ``rows`` exactly.
    """
    yield ",".join(header) + "\n"
    fmt = "{},{!r}" + ",{!r}" * rows.shape[1] + "\n"
    for k, row in enumerate(rows.tolist()):
        yield fmt.format(k, k * dt, *row)


def _dataset_header(n: int, m: int) -> list[str]:
    """Dataset CSV columns: k, t, x0..x{n-1}, u0..u{m-1}, c."""
    return ["k", "t"] + [f"x{i}" for i in range(n)] + [f"u{i}" for i in range(m)] + ["c"]


def dataset_write(d: BatchDataset, path: str) -> None:
    """Write CSV (header k,t,x*,u*,c) plus the .meta.json sidecar, atomically."""
    rows = np.column_stack([d.xs, d.us, d.cs])
    write_atomic(path, indexed_csv_lines(_dataset_header(d.n, d.m), d.dt, rows))
    meta = {"dt": d.dt, "n": d.n, "m": d.m, "seed": d.seed}
    write_atomic(_meta_path(path), [json.dumps(meta, sort_keys=True) + "\n"])


def dataset_read(path: str) -> BatchDataset:
    """Read a dataset written by ``dataset_write``."""
    meta_file = _meta_path(path)
    if not os.path.exists(meta_file):
        raise DatasetFormatError(f"missing metadata sidecar {meta_file}")
    with open(meta_file, encoding="utf-8") as fh:
        try:
            meta = json.load(fh)
        except json.JSONDecodeError as e:
            raise DatasetFormatError(f"bad metadata JSON: {e}") from e
    try:
        dt, n, m = float(meta["dt"]), int(meta["n"]), int(meta["m"])
        seed = meta.get("seed")
    except (KeyError, TypeError, ValueError) as e:
        raise DatasetFormatError(f"metadata missing/invalid field: {e}") from e

    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise DatasetFormatError("empty dataset file", line=1)
    expected_header = _dataset_header(n, m)
    header = lines[0].split(",")
    if header != expected_header:
        raise DatasetFormatError(
            f"header mismatch: expected {','.join(expected_header)!r}", line=1
        )
    ncols = len(expected_header)
    xs, us, cs = [], [], []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != ncols:
            raise DatasetFormatError(
                f"expected {ncols} columns, got {len(parts)}", line=lineno
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
        if k != len(xs):
            raise DatasetFormatError(
                f"sample index {k} out of order (expected {len(xs)})", line=lineno
            )
        xs.append(row[1 : 1 + n])
        us.append(row[1 + n : 1 + n + m])
        cs.append(row[-1])
    if not xs:
        raise DatasetFormatError("dataset has no sample rows", line=2)
    return BatchDataset(
        xs=np.array(xs), us=np.array(us), cs=np.array(cs), dt=dt, seed=seed
    )
