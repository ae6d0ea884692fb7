"""Scenario benchmark for nlcavity: the one command.

    python3 bench/run.py --workload detect --seed 0 --seconds 20 --trace 0

Runs from the root of a source checkout (it needs ``src/nlcavity``). Each
call generates the workload's INI configs from the seed, times set-up in
fresh interpreters against a reference import, then runs the workload in one fresh worker process for
about ``--seconds`` seconds, one scenario after another, and checks every
output row. Human-readable lines come first; the last line of stdout is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``
(end-to-end metrics with ``--trace 0``, per-layer metrics with ``--trace 1``).
Everything it writes goes under ``.bench_run/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_PAIRS = 5        # set-up probe + reference probe pairs timed for setup_s
WORKER_TIMEOUT_S = 160.0
PROBE_TIMEOUT_S = 30.0
# calibration time (worker.calibration_s) of the reference speed run_norm_s
# is scaled to; about its typical value on a shared 2-vCPU Xeon VM
CAL_REF_S = 0.004
# reference import time (worker.reference) setup_s is scaled to; about its
# typical value on the same VM
SETUP_REF_S = 0.35


def pinned_env() -> dict:
    """Environment for every spawned process: serial sweeps, BLAS threads
    capped at nproc, nlcavity imported from this checkout's src/."""
    env = dict(os.environ)
    env.pop("NLCAVITY_THREADS", None)
    nproc = str(os.cpu_count() or 1)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = nproc
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    import numpy
    import scipy
    return {"nproc": os.cpu_count(), "cpu": _cpu_model(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "commit": _git_commit()}


def _wait(proc, timeout: float):
    """Wait for ``proc``; returns (exit code, peak RSS in MB). ``wait4``
    rather than ``Popen.wait``, for the child's resource usage."""
    deadline = time.monotonic() + timeout
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            proc.returncode = os.waitstatus_to_exitcode(status)
            return proc.returncode, usage.ru_maxrss / 1024.0
        if time.monotonic() > deadline:
            raise TimeoutError(f"worker {proc.args[2]} exceeded {timeout:.0f} s")
        time.sleep(0.02)


def _worker(args, env, log: Path, timeout: float, stdout: Path | None = None):
    """Run worker.py with ``args``; returns (exit code, peak RSS in MB).
    On timeout or interruption the child is killed and reaped."""
    with open(log, "ab") as err, open(stdout or log, "ab") as out:
        proc = subprocess.Popen([sys.executable, str(BENCH / "worker.py")] + args,
                                stdout=out, stderr=err, env=env, cwd=ROOT)
        try:
            return _wait(proc, timeout)
        except BaseException:
            if proc.returncode is None:
                proc.kill()
                os.wait4(proc.pid, 0)
                proc.returncode = -9
            raise


def _probe(args, key: str, env, log: Path) -> float:
    out = log.with_name("probe.out")
    out.unlink(missing_ok=True)
    code, _ = _worker(args, env, log, PROBE_TIMEOUT_S, stdout=out)
    if code != 0:
        raise RuntimeError(f"{args[0]} probe exited {code}; see {log}")
    return json.loads(out.read_text().splitlines()[-1])[key]


def setup_samples(config_dir: Path, env, log: Path) -> list[tuple[float, float]]:
    """(set-up, reference) seconds of SETUP_PAIRS pairs of fresh interpreters.

    Set-up is mostly loading numpy and scipy, and on the shared host it was
    sized on, its median over a run moved by up to 30% between runs minutes
    apart. A reference import timed right after each probe slows with it.
    """
    return [(_probe(["probe", "--configs", str(config_dir)], "setup_s", env, log),
             _probe(["reference"], "reference_s", env, log))
            for _ in range(SETUP_PAIRS)]


def normalized_setup(pairs) -> list[float]:
    """Set-up times at the reference speed: each probe x SETUP_REF_S / the
    reference import timed after it."""
    return [s * SETUP_REF_S / r for s, r in pairs]


def high_percentile(samples):
    """(p, value): the highest percentile with at least ten samples beyond
    it (nearest rank), or None when there are too few samples."""
    n = len(samples)
    p = int(100.0 * (1.0 - 10.0 / n)) if n else 0
    if p < 50:
        return None
    return p, sorted(samples)[math.ceil(p * n / 100) - 1]


def normalized_passes(passes, calibration) -> list[float]:
    """Pass times at the reference speed: pass i divided by the mean of the
    calibrations taken around and inside it (``calibration[i]``)."""
    return [p * CAL_REF_S / statistics.fmean(c) for p, c in zip(passes, calibration)]


def _percentile_text(samples, unit: str, scale: float) -> str:
    pct = high_percentile(samples)
    if pct is None:
        return "p-high n/a (under 20 samples)"
    return f"p{pct[0]} {scale * pct[1]:.4f} {unit}"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # on SIGTERM, unwind through _worker so the child is killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    if not (ROOT / "src" / "nlcavity" / "__init__.py").is_file():
        print(f"no nlcavity sources under {ROOT / 'src'}: run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; have {workloads.WORKLOADS}",
              file=sys.stderr)
        return 2

    work = ROOT / ".bench_run" / args.workload
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    config_dir, log, result_path = work / "configs", work / "worker.log", work / "result.json"
    configs = workloads.write_configs(args.workload, args.seed, config_dir)
    env = pinned_env()
    info = environment()

    try:
        setup = setup_samples(config_dir, env, log)
        code, peak_mb = _worker(
            ["measure", "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--configs", str(config_dir), "--out", str(work / "out"),
             "--result", str(result_path)], env, log, WORKER_TIMEOUT_S)
    except (RuntimeError, TimeoutError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    if code != 0 or not result_path.is_file():
        print(f"worker exited {code}; see {log}", file=sys.stderr)
        return 1
    res = json.loads(result_path.read_text())
    report = _report(args, info, res, setup, peak_mb, len(configs))
    (work / "report.json").write_text(json.dumps(report, indent=1) + "\n")
    print(json.dumps({k: report[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


def _report(args, info, res, setup, peak_mb, n_configs) -> dict:
    passes = res["pass_s"]
    share = res["failed"] / res["attempted"] if res["attempted"] else 1.0
    print(f"workload {args.workload}  seed {args.seed}  scenarios/pass {n_configs}  "
          f"trace {args.trace}")
    print("env " + json.dumps(info, sort_keys=True))
    run_norm_s = statistics.median(normalized_passes(passes, res["calibration_s"]))
    print(f"run_s        median {statistics.median(passes):.4f} s  "
          f"{_percentile_text(passes, 's', 1.0)}  n={len(passes)} passes")
    print(f"run_norm_s   median {run_norm_s:.4f} s  (each pass x {1e3 * CAL_REF_S:g} ms / "
          f"mean of the calibrations around it; calibration median "
          f"{1e3 * statistics.median(c for cs in res['calibration_s'] for c in cs):.3f} ms)")
    runs = [t for one_pass in res["scenario_s"] for t in one_pass]
    print(f"scenario_ms  median {1e3 * statistics.median(runs):.2f} ms  "
          f"{_percentile_text(runs, 'ms', 1e3)}  n={len(runs)} scenario runs")
    setup_s = statistics.median(normalized_setup(setup))
    print(f"setup_s      median {setup_s:.4f} s  (each probe x {SETUP_REF_S:g} s / the "
          f"reference import after it; raw median "
          f"{statistics.median(s for s, _ in setup):.4f} s, reference median "
          f"{statistics.median(r for _, r in setup):.4f} s)  n={len(setup)} pairs")
    print(f"peak_rss_mb  {peak_mb:.1f} MB  (worker process{', traced' if args.trace else ''})")
    print(f"failed_share {share:.4f}  ({res['failed']}/{res['attempted']} operations; "
          f"gated {res['gated']}; reasons {res['reasons']})")
    if res["problems"]:
        print("problems: " + "; ".join(res["problems"]))
    if args.trace:
        metrics = _trace_metrics(res)
    else:
        metrics = {
            "run_norm_s": {"value": run_norm_s, "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
        }
    return {"correct": bool(res["correct"]), "attempted": int(res["attempted"]),
            "failed": int(res["failed"]), "metrics": metrics, "env": info,
            "workload": args.workload, "seed": args.seed,
            "pass_s": passes, "run_s": statistics.median(passes),
            "calibration_s": res["calibration_s"], "scenario_s": res["scenario_s"],
            "setup_pairs_s": setup,
            "failed_share": share, "gated": res["gated"],
            "reasons": res["reasons"], "problems": res["problems"]}


def _trace_metrics(res) -> dict:
    import worker
    funcs = res["functions"]
    print(f"traced pass {res['traced_pass_s']:.4f} s  untraced median "
          f"{statistics.median(res['pass_s']):.4f} s  "
          f"trace_overhead_s {res['layers']['trace_overhead_s']:.4f}")
    print(f"{'function':48s} {'calls':>9s} {'s':>10s} {'self_s':>10s}")
    for name, v in sorted(funcs.items(), key=lambda kv: -kv[1]["self_s"]):
        print(f"{name:48s} {v['calls']:9d} {v['s']:10.4f} {v['self_s']:10.4f}")
    return {name: {"value": res["layers"][name], "unit": unit}
            for name, unit, _ in worker.per_layer_spec()}


if __name__ == "__main__":
    sys.exit(main())
