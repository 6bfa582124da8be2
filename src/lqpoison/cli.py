"""Command-line front end.

Subcommands: ``simulate`` (collect a batch dataset), ``sysid`` (identify a
model from a dataset), ``attack`` (poison a dataset toward a target gain),
``evaluate`` (closed-loop rollout of a gain on a configured plant), and
``reproduce`` (run a bundled case study end to end and gate it against its
expected tolerances).

A command that reads a scenario config takes every setting from it: the
seed, the ADMM settings and the horizon. ``attack`` without ``--config``
uses ``AdmmConfig()``; ``reproduce --seed`` replaces a bundled case's seed.

Exit codes are a stable contract (README's table has the details): 0 ok,
2 usage/config problem, 3 sampling too coarse to learn the plant, 4
unidentifiable data or a fitted cost weight without its required
structure, 5 an iterative solver did not converge, 6 reproduction check
failed, 7 no stabilizing LQR solution. Codes 3, 4, 5 and 7 are the
``exit_code`` of the one ``errors`` class that has each. An uncertified
attack (``converged`` false) writes its outputs, then exits 5 from
``attack`` and ``reproduce`` alike, or 6 if a ``reproduce`` check failed.
A failed ``reproduce`` stage exits with its error's code. Any other
``ValueError`` or ``OSError`` exits 2; anything else exits 1, which is a bug.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

import numpy as np

from . import __version__, linalg
from .config import (
    BUNDLED_CASES,
    CASE1_KSTAR_REF,
    CASE2_KSTAR_REF,
    load_bundled,
    load_scenario,
    reproduction_checks,
    with_seed,
)
from .data import (
    dataset_read,
    dataset_write,
    json_array,
    read_json_object,
    simulate_zoh,
    write_json,
)
from .errors import ConfigError, ConvergenceError
from .pipeline import (
    evaluate_closed_loop,
    report_write,
    run_attack,
    run_scenario,
    settling_step,
    trajectory_write,
)
from .sysid import SERIES_EPS, identify, model_write

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_CHECK_FAILED = 6


def _exit_code(e: Exception) -> int:
    """The error class's own ``exit_code``, else 2 for a usage error, else 1 (a bug)."""
    if hasattr(e, "exit_code"):
        return e.exit_code
    return EXIT_USAGE if isinstance(e, (ValueError, OSError)) else 1


def _load_gain(path: str, n: int, m: int) -> np.ndarray:
    doc = read_json_object(path, ConfigError, "gain file")
    key = "Ktarget" if "Ktarget" in doc else "K"
    if key not in doc:
        raise ConfigError("gain file must contain 'Ktarget' or 'K'", field=path)
    try:
        return linalg.as_matrix(json_array(doc[key]), "gain", (m, n))
    except ValueError as e:
        raise ConfigError(str(e), field=key) from e


def cmd_simulate(args) -> int:
    scenario, name = load_scenario(args.config)
    d = simulate_zoh(scenario.system, scenario.excitation, scenario.N)
    dataset_write(d, args.out)
    print(f"{name}: wrote {d.N} samples (n={d.n}, m={d.m}, dt={d.dt}) to {args.out}")
    return EXIT_OK


def cmd_sysid(args) -> int:
    d = dataset_read(args.data)
    est = identify(d, eps=args.eps, with_qr=args.with_qr)
    model_write(est, d.dt, args.out)
    extra = " with cost weights" if args.with_qr else ""
    print(f"identified model{extra} ({est.series_terms} series terms) -> {args.out}")
    return EXIT_OK


def cmd_attack(args) -> int:
    cfg = load_scenario(args.config)[0].admm if args.config else None
    d = dataset_read(args.data)
    Kt = _load_gain(args.target, n=d.n, m=d.m)
    result = run_attack(d, Kt, cfg)
    os.makedirs(args.out, exist_ok=True)
    dataset_write(result.poisoned, os.path.join(args.out, "poisoned.csv"))
    doc = {"Ktarget": Kt.tolist(), **result.to_json()}
    write_json(os.path.join(args.out, "attack_report.json"), doc)
    status = "converged" if result.converged else "NOT converged"
    print(
        f"attack {status}: certificate {result.certificate:.3e} "
        f"(floor {result.floor:.3e}), attack cost {result.attack_cost:.6g} -> {args.out}"
    )
    return EXIT_OK if result.converged else ConvergenceError.exit_code


def cmd_evaluate(args) -> int:
    scenario, name = load_scenario(args.config)
    K = _load_gain(args.gain, n=scenario.system.n, m=scenario.system.m)
    res = evaluate_closed_loop(scenario.system, K, scenario.horizon)
    os.makedirs(args.out, exist_ok=True)
    out_csv = os.path.join(args.out, "trajectory.csv")
    trajectory_write(out_csv, res.states, scenario.system.dt)
    settle = settling_step(res.states)
    print(
        f"{name}: cost {res.cost:.6g}, diverged={res.diverged}, "
        f"settling step {'never' if settle is None else settle} -> {out_csv}"
    )
    return EXIT_OK


def cmd_reproduce(args) -> int:
    scenario, name = load_bundled(args.case)
    scenario = with_seed(scenario, args.seed)
    report = run_scenario(scenario, name)
    if not report.errors:
        report.checks = reproduction_checks(args.case, report, scenario)
    report_write(report, args.out, scenario.system.dt)
    if report.errors:
        for stage, e in report.errors.items():
            print(f"stage {stage} failed: {type(e).__name__}: {e}", file=sys.stderr)
        return _exit_code(next(iter(report.errors.values())))

    kstar_ref = CASE1_KSTAR_REF if args.case == "case1" else CASE2_KSTAR_REF
    kstar_dev = float(np.max(np.abs(report.optimal_gain.K - kstar_ref)))
    print(f"{name}: report written to {args.out}")
    print(f"  optimal gain vs 2-decimal reference: max |diff| {kstar_dev:.4f}")
    for label, ok, detail, got, expected in report.checks:
        print(f"  [{'PASS' if ok else 'FAIL'}] {label} ({detail})")
        if not ok and got is not None:
            print(f"  {label}: element-wise comparison")
            for (i, j), g in np.ndenumerate(got):
                print(f"    [{i},{j}] got {g: .4f}  expected {expected[i, j]: .4f}"
                      f"  |diff| {abs(g - expected[i, j]):.4f}")
    print(f"  attack converged: {report.attack.converged} "
          f"(certificate {report.attack.certificate:.3e}, floor {report.attack.floor:.3e})")
    if not all(ok for _, ok, *_ in report.checks):
        return EXIT_CHECK_FAILED
    return EXIT_OK if report.attack.converged else ConvergenceError.exit_code


@functools.cache  # one parser per process: each is a reference cycle only the cyclic collector frees
def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="lqpoison",
        description="Batch-learned LQ control and data-poisoning attack synthesis.",
    )
    p.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("simulate", help="collect a batch dataset from a configured plant")
    sp.add_argument("--config", required=True, help="scenario config JSON")
    sp.add_argument("--out", required=True, help="output CSV path")
    sp.set_defaults(fn=cmd_simulate)

    sp = sub.add_parser("sysid", help="identify a continuous model from a dataset")
    sp.add_argument("--data", required=True, help="dataset CSV path")
    sp.add_argument("--out", required=True, help="output model JSON path")
    sp.add_argument("--with-qr", action="store_true", help="also fit the cost weights")
    sp.add_argument("--eps", type=float, default=SERIES_EPS,
                    help=f"log-series stopping tolerance (default {SERIES_EPS:g})")
    sp.set_defaults(fn=cmd_sysid)

    sp = sub.add_parser("attack", help="poison a dataset toward a target gain")
    sp.add_argument("--config", default=None, help="scenario config JSON (solver settings)")
    sp.add_argument("--data", required=True, help="clean dataset CSV path")
    sp.add_argument("--target", required=True, help="target-gain JSON ({'Ktarget': [[...]]})")
    sp.add_argument("--out", required=True, help="output directory")
    sp.set_defaults(fn=cmd_attack)

    sp = sub.add_parser("evaluate", help="closed-loop rollout of a gain on the true plant")
    sp.add_argument("--config", required=True, help="scenario config JSON")
    sp.add_argument("--gain", required=True, help="gain JSON ({'K': [[...]]})")
    sp.add_argument("--out", required=True, help="output directory")
    sp.set_defaults(fn=cmd_evaluate)

    sp = sub.add_parser("reproduce", help="run a bundled case study end to end")
    sp.add_argument("case", metavar="case",
                    help=f"one of: {', '.join(BUNDLED_CASES)}")
    sp.add_argument("--out", required=True, help="output directory")
    sp.add_argument("--seed", type=int, default=None, help="replace the case's seed")
    sp.set_defaults(fn=cmd_reproduce)
    return p


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except Exception as e:
        print(f"error: {e}", file=sys.stderr)
        return _exit_code(e)


if __name__ == "__main__":
    sys.exit(main())
