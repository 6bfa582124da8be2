"""Self-tests of the benchmark harness.

Run from the root of a checkout:

    python3 -m pytest -q perfbench/selftest.py
"""

import json
import re
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import child  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

TINY_CHAIN = workloads.ChainSize(n=3, m=1, N=200, n_iter=20, horizon=200)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _declared() -> dict:
    return json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_declared_metrics_are_well_formed():
    doc = _declared()
    names = [m["name"] for kind in ("end_to_end", "per_layer") for m in doc[kind]]
    assert len(names) == len(set(names))
    for kind in ("end_to_end", "per_layer"):
        for m in doc[kind]:
            assert NAME.match(m["name"]) and UNIT.match(m["unit"]), m
            assert m["better"] in ("lower", "higher"), m
    for m in doc["end_to_end"]:
        assert 0 < m["bound"] <= 0.25, m
    setup = next(m for m in doc["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in doc["end_to_end"])
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_op_traced(workload):
    res = run.run_workload(workload, seed=3, seconds=0, trace=True, chain=TINY_CHAIN)
    result, record = run.summarize(res, trace=True)
    assert result["correct"], record["errors"]
    assert result["attempted"] == 3  # warm-up, one untraced, one traced
    per_layer = {m["name"]: m["unit"] for m in _declared()["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == per_layer
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert m["poison.admm_solve.iters"] == m["poison.a_step.calls"] == m["poison.p_step.calls"]
    assert m["poison.p_step.ls_share"] == 1.0
    t = record["self_time"]
    total = t["modules_self_s"] + t["unattributed_s"]
    assert total == pytest.approx(t["traced_op_mean_s"], rel=1e-3)
    if workload == "chain-n10":
        assert m["data.dataset_read.calls"] == 3 and m["data.dataset_write.calls"] == 2
    else:
        assert m["sysid.identify.calls"] == 3 and m["data.dataset_read.calls"] == 0


def test_end_to_end_metrics_match_declaration():
    res = run.run_workload("chain-n10", seed=2, seconds=0, trace=False, chain=TINY_CHAIN)
    result, record = run.summarize(res, trace=False)
    assert result["correct"], record["errors"]
    end_to_end = {m["name"]: m["unit"] for m in _declared()["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == end_to_end
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert record["counts"]["setup_s"] == run.SETUP_REPEATS + 1


def test_same_seed_same_inputs(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir()
    b.mkdir()
    workloads.make_inputs("chain-n10", 5, str(a), TINY_CHAIN)
    workloads.make_inputs("chain-n10", 5, str(b), TINY_CHAIN)
    for name in ("scenario.json", "target.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_forced_failing_op_is_counted(tmp_path):
    from lqpoison import cli, lq

    job = workloads.make_inputs("chain-n10", 4, str(tmp_path), TINY_CHAIN)
    op = workloads.Op(job, str(tmp_path / "out"), lq.care_solve)
    calls = []

    def main(argv):  # the second op's first step fails as a check would
        calls.append(argv[0])
        return 6 if len(calls) == len(op.steps) + 1 else cli.main(argv)

    res = child.measure(op, main, seconds=0, speed=child.host_speed)
    res.update(setup_s=[0.1], peak_rss_mb=1.0, env={})
    result, record = run.summarize(res, trace=False)
    assert result["attempted"] == 2 and result["failed"] == 1 and not result["correct"]
    assert record["failed_ratio"] == 0.5
    assert record["errors"] == ["simulate exited 6"]
    assert len(record["op_s"]["untraced"]) == 1  # the failed op is timed too
