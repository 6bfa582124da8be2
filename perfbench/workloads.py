"""The benchmark's workloads: seeded inputs, one op each, and its checks.

Every op drives the program only through ``lqpoison.cli.main(argv)``, the
function behind the ``lqpoison`` console script, so what is timed is what a
user of the command line runs.

- ``case1``: ``reproduce case1``. The attacker's ADMM is most of the op
  (n=4, m=2, N=500, 500 iterations); rollouts and report writing are small.
- ``case2``: ``reproduce case2``. The opposite mix: two 40,000-step
  closed-loop rollouts and 8 MB of trajectory CSV dominate; the ADMM is the
  same size as in case1 but a small share of the op.
- ``chain-n10``: the step-by-step CLI path on a seeded random plant with
  n=10, m=3: simulate, sysid --with-qr, attack, sysid on the poisoned data,
  evaluate. It is the only workload that reads datasets back and writes
  them beside the reads, and it runs the ADMM at the top of the supported
  size.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import shutil
from dataclasses import dataclass

WORKLOADS = ("case1", "case2", "chain-n10")


# Sampling period of the chain plant. It is 0.005 rather than 0.01 so that
# the poisoned data stays identifiable on every seed: on some seeds the
# attack plants dynamics with spectral abscissa up to about 0.6; over the
# 50 s that N = 5000 samples span at dt = 0.01 the poisoned states can then
# grow by 1e10, the learner's regressor is numerically rank deficient and
# ``sysid`` exits 4 (seed 106). Halving dt keeps N, the CSV sizes and the
# ADMM unchanged.
CHAIN_DT = 0.005


@dataclass(frozen=True)
class ChainSize:
    """Size of the generated chain plant; the defaults are the workload's."""

    n: int = 10
    m: int = 3
    N: int = 5000
    n_iter: int = 200
    horizon: int = 5000


def make_inputs(workload: str, seed: int, workdir: str, chain: ChainSize = ChainSize()) -> dict:
    """Write the workload's inputs under ``workdir`` and return the job spec.

    The bundled cases get their seed through ``reproduce --seed``; the chain
    workload gets a plant, a scenario config and a target gain generated
    here from the seed. The program sees only these files and arguments.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; one of {', '.join(WORKLOADS)}")
    job = {"workload": workload, "seed": seed, "workdir": workdir}
    if workload == "chain-n10":
        config, target = chain_scenario(seed, chain)
        job["config"] = os.path.join(workdir, "scenario.json")
        job["target"] = os.path.join(workdir, "target.json")
        with open(job["config"], "w", encoding="utf-8") as fh:
            json.dump(config, fh)
        with open(job["target"], "w", encoding="utf-8") as fh:
            json.dump({"Ktarget": target}, fh)
    return job


def chain_scenario(seed: int, size: ChainSize = ChainSize()) -> tuple[dict, list]:
    """Seeded plant, scenario config and 2-decimal target gain for chain-n10.

    A is a standard normal matrix scaled by 1/sqrt(n) and shifted so that
    its spectral abscissa is +0.1 (open loop mildly unstable); B is standard
    normal, Q = I, R = 0.5 I, x0 uniform in [-1, 1], dt = CHAIN_DT. The target
    is the optimal gain plus 0.1 times a standard normal matrix, rounded to
    two decimals.
    """
    import numpy as np
    from lqpoison.lq import care_solve

    rng = np.random.default_rng(seed)
    n, m = size.n, size.m
    A = rng.normal(size=(n, n)) / math.sqrt(n)
    A -= (np.max(np.linalg.eigvals(A).real) - 0.1) * np.eye(n)
    B = rng.normal(size=(n, m))
    Q = np.eye(n)
    R = 0.5 * np.eye(m)
    x0 = rng.uniform(-1.0, 1.0, size=n)
    Kstar = care_solve(A, B, Q, R).K
    target = np.round(Kstar + 0.1 * rng.normal(size=(m, n)), 2)
    config = {
        "name": "chain-n10",
        "system": {"A": A.tolist(), "B": B.tolist(), "Q": Q.tolist(),
                   "R": R.tolist(), "x0": x0.tolist(), "dt": CHAIN_DT},
        "excitation": {"kind": "iid-uniform", "amplitude": 1.0},
        "N": size.N,
        "seed": seed,
        "Ktarget": target.tolist(),
        "admm": {"mu": 10.0, "n_iter": size.n_iter, "primal_tol": 1e-6, "inner_tol": 1e-8},
        "horizon": size.horizon,
    }
    return config, target.tolist()


def file_digest(path: str) -> str:
    with open(path, "rb") as fh:
        return "sha256:" + hashlib.sha256(fh.read()).hexdigest()


class Op:
    """One op of a workload: ``execute`` is timed, ``inspect`` is not.

    All of an op's files go to ``out``, which is emptied before each op so
    every op writes from scratch.
    """

    def __init__(self, job: dict, out: str, care_solve):
        self.job = job
        self.out = out
        self._care_solve = care_solve  # untraced, for the chain gain check
        if job["workload"] == "chain-n10":
            o = lambda *p: os.path.join(out, *p)  # noqa: E731
            cfg, target = job["config"], job["target"]
            # (argv, exit codes that count as success): attack may stop at
            # its iteration cap with exit 5 and still write its outputs.
            self.steps = [
                (["simulate", "--config", cfg, "--out", o("data.csv")], (0,)),
                (["sysid", "--data", o("data.csv"), "--out", o("model.json"),
                  "--with-qr", "--eps", "1e-10"], (0,)),
                (["attack", "--config", cfg, "--data", o("data.csv"),
                  "--target", target, "--out", o("attack")], (0, 5)),
                (["sysid", "--data", o("attack", "poisoned.csv"),
                  "--out", o("poisoned_model.json"), "--eps", "1e-10"], (0,)),
                (["evaluate", "--config", cfg, "--gain", target, "--out", o("eval")], (0,)),
            ]
            self.output = o("attack", "poisoned.csv")
        else:
            argv = ["reproduce", job["workload"], "--seed", str(job["seed"]), "--out", out]
            self.steps = [(argv, (0,))]
            self.output = os.path.join(out, "report.json")

    def reset(self) -> None:
        shutil.rmtree(self.out, ignore_errors=True)
        os.makedirs(self.out)

    def execute(self, main) -> str | None:
        """Run the op's CLI steps; return None on success, else why it failed."""
        for argv, ok_codes in self.steps:
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                rc = main(argv)
            if rc not in ok_codes:
                msg = err.getvalue().strip().splitlines()
                return f"{argv[0]} exited {rc}" + (f": {msg[-1]}" if msg else "")
        return None

    def inspect(self) -> tuple[str, dict]:
        """Digest of the op's main output and its attack-quality figures."""
        digest = file_digest(self.output)
        if self.job["workload"] == "chain-n10":
            attack_report = os.path.join(self.out, "attack", "attack_report.json")
            with open(attack_report, encoding="utf-8") as fh:
                rep = json.load(fh)
            with open(os.path.join(self.out, "poisoned_model.json"), encoding="utf-8") as fh:
                model = json.load(fh)
            with open(self.job["config"], encoding="utf-8") as fh:
                system = json.load(fh)["system"]
            import numpy as np

            K = self._care_solve(model["Ahat"], model["Bhat"], system["Q"], system["R"]).K
            gain_err = float(np.linalg.norm(K - np.array(rep["Ktarget"]), "fro"))
        else:
            with open(self.output, encoding="utf-8") as fh:
                rep = json.load(fh)
            gain_err = rep["gain_error_to_target"]
        quality = {
            "gain_err": gain_err,
            "attack_cost": rep["attack_cost"],
            "admm_residual": rep["admm_residuals"][-1],
        }
        return digest, quality
