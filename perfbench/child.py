"""One benchmark process: time set-up in a fresh interpreter, then run ops.

Usage: ``python3 perfbench/child.py <src dir> <job.json>``. ``run.py``
writes the job and reads the result file this process writes. Set-up is
timed from the top of ``main``: importing ``lqpoison.cli`` (numpy
included) and loading the scenario. A ``setup`` job stops there; an ``ops``
job goes on to the closed loop in ``measure``.

``python3 perfbench/child.py calibrate`` is the sibling interpreter that an
``ops`` job starts to time the host between ops (see ``Calibrator``).
"""

import json
import math
import os
import subprocess
import sys
import time

# Calibration time between two ops, as a share of the op before: long
# enough to average out the host's short stalls, short enough to sit in the
# same host state as the ops on either side.
CALIB_SHARE = 0.1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def main() -> int:
    t0 = time.perf_counter()
    src, job_path = sys.argv[1], sys.argv[2]
    sys.path.insert(0, src)
    import lqpoison.cli
    from lqpoison import config

    with open(job_path, encoding="utf-8") as fh:
        job = json.load(fh)
    if job["workload"] == "chain-n10":
        config.load_scenario(job["config"])
    else:
        config.load_bundled(job["workload"])
    setup_s = time.perf_counter() - t0

    if os.path.dirname(os.path.abspath(lqpoison.cli.__file__)) != os.path.join(
        os.path.abspath(src), "lqpoison"
    ):
        print(f"lqpoison was imported from {lqpoison.cli.__file__}, not {src}", file=sys.stderr)
        return 2
    result = {"setup_s": setup_s}
    if job["mode"] == "ops":
        result.update(run_ops(job, lqpoison))
    with open(job["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


def calibrate() -> float:
    """Wall seconds of a fixed pure-Python plus numpy reference loop.

    The loop makes the same kind of calls as the program's hot paths:
    small-matrix numpy kernels driven from Python loops. On a host whose
    speed drifts, its time moves with the ops' time, so it lets a run
    absorb the drift (see run.HOST_REF_S).
    """
    import numpy as np

    t0 = time.perf_counter()
    P = np.eye(4) + 0.1 * np.arange(16.0).reshape(4, 4)
    P = P + P.T
    rhs = np.ones(16)
    for _ in range(80):
        cols = np.empty((16, 16))
        E = np.zeros((4, 4))
        for j in range(4):
            for i in range(4):
                E[i, j] = 1.0
                cols[:, 4 * j + i] = (E.T @ P + P @ E).flatten("F")
                E[i, j] = 0.0
        np.linalg.solve(2.0 * np.eye(16) + cols.T @ cols, cols.T @ rhs)
        np.linalg.eigh(P)
        np.linalg.lstsq(cols, rhs, rcond=None)
    return time.perf_counter() - t0


def host_speed(op_s: float) -> float:
    """Mean ``calibrate`` time over a window of at least CALIB_SHARE * op_s."""
    times = [calibrate()]
    while sum(times) < CALIB_SHARE * op_s:
        times.append(calibrate())
    return sum(times) / len(times)


class Calibrator:
    """``host_speed`` timed in a sibling interpreter, one window per call.

    The sibling shares none of the op process's heap, gc generations or
    allocator state, so a program change that slows the whole op process
    is not divided out of the scaled op times. It runs only while the op
    process waits for its answer, so nothing runs beside an op.
    """

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), "calibrate"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        self.proc.stdout.readline()  # numpy imported and the loop warmed up

    def __call__(self, op_s: float) -> float:
        self.proc.stdin.write(f"{op_s!r}\n")
        self.proc.stdin.flush()
        return float(self.proc.stdout.readline())

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.proc.stdin.close()
        self.proc.wait(timeout=60)


def serve_calibration() -> int:
    """The sibling's loop: read an op time per line, answer ``host_speed``."""
    calibrate()
    print("ready", flush=True)
    for line in sys.stdin:
        print(repr(host_speed(float(line))), flush=True)
    return 0


def run_ops(job: dict, lqpoison) -> dict:
    import resource

    import spans
    import workloads
    from lqpoison import lq

    op = workloads.Op(job, job["out"], lq.care_solve)  # bound before any wrapping
    tracer = None
    if job["trace"]:
        tracer = spans.Tracer()
        tracer.install()
    # One CPU for the op process and, by inheritance, its calibrator: on a
    # VM each vCPU's speed drifts on its own, so the calibration has to run
    # where the ops run.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    with Calibrator() as speed:
        res = measure(op, lqpoison.cli.main, job["seconds"], speed, tracer)  # wrapped if traced
    res["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    res["env"] = environment()
    if tracer is not None:
        res["layers"] = spans.layer_metrics(tracer.spans)
        tracer.write(job["spans"])
    return res


def measure(op, main, seconds: float, speed, tracer=None) -> dict:
    """Closed loop with one client: each op starts when the previous ends.

    Op 0 is a warm-up: it is checked, and its output digest is the one
    every later op must reproduce, but it is not timed. Timed ops run until
    ``seconds`` have passed, each between two ``speed`` windows. With a
    tracer, timed ops alternate untraced and traced (at least one of each),
    so tracing overhead is measured under the same host conditions. Every
    op is counted in ``ops``, failed or not.
    """
    ops = []
    calib = []
    start = None
    ref = None
    while True:
        i = len(ops)
        if i > 0:
            calib.append(speed(ops[-1]["s"]))
        traced = tracer is not None and i > 0 and i % 2 == 0
        op.reset()
        if traced:
            tracer.begin(i)
        t0 = time.perf_counter()
        try:
            error = op.execute(main)
        except Exception as e:  # an op that raises is a failed op, not a crash
            error = f"{type(e).__name__}: {e}"
        elapsed = time.perf_counter() - t0
        if traced:
            tracer.end()
        digest = quality = None
        if error is None:
            try:
                digest, quality = op.inspect()
                if not all(math.isfinite(v) for v in quality.values()):
                    error = f"non-finite attack figures {quality}"
            except Exception as e:
                error = f"output check {type(e).__name__}: {e}"
        if error is None:
            if ref is None:
                ref = digest
            elif digest != ref:
                error = f"output {digest} differs from the first op's {ref}"
        ops.append({"s": elapsed, "traced": traced, "error": error,
                    "digest": digest, "quality": quality})
        if i == 0:
            start = time.perf_counter()
            continue
        timed = ops[1:]
        done = time.perf_counter() - start >= seconds
        if done and (tracer is None or any(o["traced"] for o in timed)):
            break
    calib.append(speed(ops[-1]["s"]))
    return {"ops": ops, "calib_s": calib, "digest": ref}


def environment() -> dict:
    import platform

    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            models = [ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")]
        cpu = models[0] if models else cpu
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": {k: os.environ.get(k) for k in THREAD_VARS},
        "nproc": os.cpu_count(),
        "cpu": cpu,
    }


if __name__ == "__main__":
    sys.exit(serve_calibration() if sys.argv[1:] == ["calibrate"] else main())
