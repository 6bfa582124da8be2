"""Command-line front end.

Subcommands: ``simulate`` (collect a batch dataset), ``sysid`` (identify a
model from a dataset), ``attack`` (poison a dataset toward a target gain),
``evaluate`` (closed-loop rollout of a gain on a configured plant), and
``reproduce`` (run a bundled case study end to end and gate it against its
expected tolerances).

Exit codes are a stable contract: 0 ok, 2 usage/config problem, 3 the
sampling-interval learnability gate, 4 unidentifiable data or a fitted
cost weight without its required structure, 5 an iterative solver did not
converge (a stalled attack still writes its outputs), 6 reproduction check
failed. A failed ``reproduce`` stage exits with its error's code.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

from . import __version__
from .config import (
    BUNDLED_CASES,
    CASE1_KSTAR_REF,
    CASE2_ATTACK_SPRING,
    CASE2_KSTAR_REF,
    load_bundled,
    load_scenario,
    suspension_matrices,
)
from .data import dataset_read, dataset_write, simulate_zoh, write_json
from .errors import (
    AdmmDivergenceError,
    ConfigError,
    ConvergenceError,
    EstimationError,
    IdentifiabilityError,
    LearnabilityError,
)
from .lq import care_solve
from .pipeline import (
    evaluate_closed_loop,
    report_write,
    run_attack,
    run_scenario,
    settling_step,
    trajectory_write,
)
from .poison import AdmmConfig
from .sysid import SERIES_EPS, SERIES_MAX_TERMS, identify, model_write

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_LEARNABILITY = 3
EXIT_IDENTIFIABILITY = 4
EXIT_NONCONVERGED = 5
EXIT_CHECK_FAILED = 6


def _exit_code(e: Exception) -> int:
    if isinstance(e, LearnabilityError):
        return EXIT_LEARNABILITY
    if isinstance(e, (IdentifiabilityError, EstimationError)):
        return EXIT_IDENTIFIABILITY
    if isinstance(e, (AdmmDivergenceError, ConvergenceError)):
        return EXIT_NONCONVERGED
    if isinstance(e, (ValueError, OSError, KeyError)):
        return EXIT_USAGE
    return 1


def _admm_from_args(args, base: AdmmConfig) -> AdmmConfig:
    return AdmmConfig(
        mu=base.mu if args.mu is None else args.mu,
        n_iter=base.n_iter if args.iters is None else args.iters,
        primal_tol=base.primal_tol if args.tol is None else args.tol,
    )


def _load_gain(path: str, n: int, m: int) -> np.ndarray:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ConfigError("gain file root must be a JSON object", field=path)
    key = "Ktarget" if "Ktarget" in doc else "K"
    if key not in doc:
        raise ConfigError("gain file must contain 'Ktarget' or 'K'", field=path)
    K = np.array(doc[key], dtype=float)
    if K.ndim != 2:
        raise ConfigError("gain must be a matrix (array of row arrays)", field=key)
    if K.shape != (m, n):
        raise ConfigError(
            f"gain must be {m}x{n}, got {K.shape[0]}x{K.shape[1]}", field=key
        )
    return K


def cmd_simulate(args) -> int:
    scenario, name = load_scenario(args.config)
    policy = scenario.excitation
    if args.seed is not None:
        policy = dataclasses.replace(policy, seed=args.seed)
    d = simulate_zoh(scenario.system, policy, scenario.N)
    dataset_write(d, args.out)
    print(f"{name}: wrote {d.N} samples (n={d.n}, m={d.m}, dt={d.dt}) to {args.out}")
    return EXIT_OK


def cmd_sysid(args) -> int:
    d = dataset_read(args.data)
    est = identify(d, eps=args.eps, max_iter=args.max_iter, with_qr=args.with_qr)
    model_write(est, d.dt, args.out)
    extra = " with cost weights" if args.with_qr else ""
    print(f"identified model{extra} ({est.series_terms} series terms) -> {args.out}")
    return EXIT_OK


def cmd_attack(args) -> int:
    base = AdmmConfig()
    if args.config:
        scenario, _ = load_scenario(args.config)
        base = scenario.admm
    cfg = _admm_from_args(args, base)
    d = dataset_read(args.data)
    Kt = _load_gain(args.target, n=d.n, m=d.m)
    result = run_attack(d, Kt, cfg)
    os.makedirs(args.out, exist_ok=True)
    dataset_write(result.poisoned, os.path.join(args.out, "poisoned.csv"))
    doc = {
        "Atilde": result.Atilde.tolist(),
        "Ktarget": Kt.tolist(),
        "gain_error": result.gain_error,
        "attack_cost": result.attack_cost,
        "converged": result.converged,
        "admm_residuals": result.residuals,
    }
    write_json(os.path.join(args.out, "attack_report.json"), doc)
    status = "converged" if result.converged else "NOT converged"
    print(
        f"attack {status}: residual {result.residuals[-1]:.3e}, "
        f"attack cost {result.attack_cost:.6g} -> {args.out}"
    )
    return EXIT_OK if result.converged else EXIT_NONCONVERGED


def cmd_evaluate(args) -> int:
    scenario, name = load_scenario(args.config)
    K = _load_gain(args.gain, n=scenario.system.n, m=scenario.system.m)
    horizon = args.horizon if args.horizon is not None else scenario.horizon
    res = evaluate_closed_loop(scenario.system, K, horizon)
    os.makedirs(args.out, exist_ok=True)
    out_csv = os.path.join(args.out, "trajectory.csv")
    trajectory_write(out_csv, res.states, scenario.system.dt)
    settle = settling_step(res.states)
    print(
        f"{name}: cost {res.cost:.6g}, diverged={res.diverged}, "
        f"settling step {'never' if settle is None else settle} -> {out_csv}"
    )
    return EXIT_OK


def _print_diff_table(label: str, K: np.ndarray, ref: np.ndarray) -> None:
    print(f"  {label}: element-wise comparison")
    for i in range(K.shape[0]):
        for j in range(K.shape[1]):
            print(
                f"    [{i},{j}] got {K[i, j]: .4f}  expected {ref[i, j]: .4f}"
                f"  |diff| {abs(K[i, j] - ref[i, j]):.4f}"
            )


def cmd_reproduce(args) -> int:
    scenario, name = load_bundled(args.case)
    if args.seed is not None:
        scenario = dataclasses.replace(
            scenario, excitation=dataclasses.replace(scenario.excitation, seed=args.seed)
        )
    scenario = dataclasses.replace(scenario, admm=_admm_from_args(args, scenario.admm))
    report = run_scenario(scenario, name)
    report_write(report, args.out, scenario.system.dt)
    if report.errors:
        for stage, e in report.errors.items():
            print(f"stage {stage} failed: {type(e).__name__}: {e}", file=sys.stderr)
        return _exit_code(next(iter(report.errors.values())))

    kstar_ref = CASE1_KSTAR_REF if args.case == "case1" else CASE2_KSTAR_REF
    kstar_dev = float(np.max(np.abs(report.Kstar - kstar_ref)))
    print(f"{name}: report written to {args.out}")
    print(f"  optimal gain vs 2-decimal reference: max |diff| {kstar_dev:.4f}")

    failures = []
    if args.case == "case1":
        dev = float(np.max(np.abs(report.Khat_poisoned - report.Ktarget)))
        ok = dev <= 0.2
        print(f"  [{'PASS' if ok else 'FAIL'}] poisoned gain within 0.2 of target "
              f"(max |diff| {dev:.4f})")
        if not ok:
            failures.append(("poisoned gain", report.Khat_poisoned, report.Ktarget))
        cs = settling_step(report.clean_trajectory)
        ps = settling_step(report.poisoned_trajectory)
        ok2 = cs is not None and (ps is None or ps > cs)
        print(f"  [{'PASS' if ok2 else 'FAIL'}] poisoned loop settles later than clean "
              f"(clean {cs}, poisoned {'never' if ps is None else ps})")
        if not ok2:
            failures.append(("settling", None, None))
    else:
        rel = np.abs((report.Khat_poisoned - report.Ktarget) / report.Ktarget)
        ok = bool(np.max(rel) <= 0.05)
        print(f"  [{'PASS' if ok else 'FAIL'}] poisoned gain within 5% of target "
              f"per element (max rel {float(np.max(rel)):.4%})")
        if not ok:
            failures.append(("poisoned gain", report.Khat_poisoned, report.Ktarget))
        A_phys, B_phys = suspension_matrices(spring=CASE2_ATTACK_SPRING)
        K_phys = care_solve(A_phys, B_phys, scenario.system.Q, scenario.system.R).K
        dev = float(np.max(np.abs(K_phys - report.Ktarget)))
        ok2 = dev <= 0.05
        print(f"  [{'PASS' if ok2 else 'FAIL'}] target gain consistent with rebuilt "
              f"physics (max |diff| {dev:.4f})")
        if not ok2:
            failures.append(("physics cross-check", K_phys, report.Ktarget))
    print(f"  attack converged: {report.converged} "
          f"(final residual {report.admm_residuals[-1]:.3e})")

    if failures:
        for label, K, ref in failures:
            if K is not None:
                _print_diff_table(label, np.asarray(K), np.asarray(ref))
        return EXIT_CHECK_FAILED
    return EXIT_OK


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
    sp.add_argument("--seed", type=int, default=None, help="override the config seed")
    sp.set_defaults(fn=cmd_simulate)

    sp = sub.add_parser("sysid", help="identify a continuous model from a dataset")
    sp.add_argument("--data", required=True, help="dataset CSV path")
    sp.add_argument("--out", required=True, help="output model JSON path")
    sp.add_argument("--with-qr", action="store_true", help="also fit the cost weights")
    sp.add_argument("--eps", type=float, default=SERIES_EPS,
                    help=f"log-series stopping tolerance (default {SERIES_EPS:g})")
    sp.add_argument("--max-iter", type=int, default=SERIES_MAX_TERMS,
                    help=f"log-series term cap (default {SERIES_MAX_TERMS})")
    sp.set_defaults(fn=cmd_sysid)

    sp = sub.add_parser("attack", help="poison a dataset toward a target gain")
    sp.add_argument("--config", default=None, help="scenario config JSON (solver defaults)")
    sp.add_argument("--data", required=True, help="clean dataset CSV path")
    sp.add_argument("--target", required=True, help="target-gain JSON ({'Ktarget': [[...]]})")
    sp.add_argument("--out", required=True, help="output directory")
    sp.add_argument("--mu", type=float, default=None, help="ADMM penalty parameter")
    sp.add_argument("--iters", type=int, default=None, help="ADMM iteration count")
    sp.add_argument("--tol", type=float, default=None, help="ADMM primal tolerance")
    sp.set_defaults(fn=cmd_attack)

    sp = sub.add_parser("evaluate", help="closed-loop rollout of a gain on the true plant")
    sp.add_argument("--config", required=True, help="scenario config JSON")
    sp.add_argument("--gain", required=True, help="gain JSON ({'K': [[...]]})")
    sp.add_argument("--out", required=True, help="output directory")
    sp.add_argument("--horizon", type=int, default=None, help="override config horizon")
    sp.set_defaults(fn=cmd_evaluate)

    sp = sub.add_parser("reproduce", help="run a bundled case study end to end")
    sp.add_argument("case", metavar="case",
                    help=f"one of: {', '.join(BUNDLED_CASES)}")
    sp.add_argument("--out", required=True, help="output directory")
    sp.add_argument("--seed", type=int, default=None, help="override the bundled seed")
    sp.add_argument("--mu", type=float, default=None, help="ADMM penalty parameter")
    sp.add_argument("--iters", type=int, default=None, help="ADMM iteration count")
    sp.add_argument("--tol", type=float, default=None, help="ADMM primal tolerance")
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
