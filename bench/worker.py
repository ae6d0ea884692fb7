"""Benchmark child process: one fresh interpreter per use.

    worker.py probe   --configs DIR
        time ``import nlcavity.cli`` plus resolving every config in DIR into
        params; print {"setup_s": ...}.
    worker.py reference
        time importing the third-party stack nlcavity loads (numpy,
        scipy.sparse) and nothing of nlcavity; print {"reference_s": ...}.
    worker.py measure --workload W --seed N --seconds S --trace 0|1
                      --configs DIR --out DIR --result FILE
        run passes of the workload through ``nlcavity.cli.main`` for about S
        seconds, check every output row, write the result JSON to FILE. The
        operation counts are those of one pass; every pass must match them.

Only the standard library is imported before the timed import, so the
set-up time covers everything nlcavity itself loads.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import shutil
import statistics
import sys
import time
from pathlib import Path

# (metric, unit, better) reported by a traced run, in output order. Shares
# are per cent of the traced pass; BENCHMARK.json lists the same metrics.
CAL_EVERY_S = 1.0  # most frequent calibration between scenario runs

SELF_SHARES = (
    "numerics.integrate_adaptive", "detector.response_coeffs",
    "detector.signal_density", "detector.noise_density",
    "numerics.fit_lorentzian", "qinfo.bose_occupation", "numerics.evolve_ode",
    "trilinear.short_time_state", "trilinear.short_time_reduced",
    "qinfo.fidelity", "qinfo.von_neumann_entropy", "qinfo.squeezing_params",
    "qinfo.mutual_information_partitions", "fock.partial_trace",
    "fock.expectation",
)
INCLUSIVE_SHARES = (
    "detector.effective_thermo", "trilinear.evolve_full",
    "trilinear.semiclassical_pump", "hawking.find_horizon",
    "hawking.rise_scale_for_gradient_rate", "hawking.photons_per_pulse",
)
MODULES = ("numerics", "fock", "detector", "hawking", "trilinear", "qinfo",
           "presets", "cli")
CALL_COUNTS = (
    "numerics.integrate_adaptive", "detector.response_coeffs",
    "detector.mean_field", "detector.coupling_constants",
    "detector.effective_thermo", "numerics.fit_lorentzian",
    "qinfo.bose_occupation", "numerics.jacobi_dn", "fock.ladder_ops",
    "hawking.propagation_velocity", "numerics.find_root_bracketed",
)
WORK_COUNTS = (
    "numerics.integrate_adaptive.integrand_evals",
    "detector.response_coeffs.omegas", "numerics.evolve_ode.rhs_evals",
    "trilinear.evolve_full.state_dim", "trilinear.evolve_full.generator_nnz",
    "trilinear.evolve_full.op_count", "cli.warnings",
)


def per_layer_spec() -> list[tuple[str, str, str]]:
    spec = [("trace_overhead_s", "s", "lower"), ("traced_run_s", "s", "lower"),
            ("cli.config_s", "s", "lower"), ("cli.write_s", "s", "lower")]
    spec += [(f"{m}.self_pct", "%", "lower") for m in MODULES]
    spec += [(f"{n}.self_pct", "%", "lower") for n in SELF_SHARES]
    spec += [(f"{n}.pct", "%", "lower") for n in INCLUSIVE_SHARES]
    spec += [(f"{n}.calls", "count", "lower") for n in CALL_COUNTS]
    spec += [(n, "count", "lower") for n in WORK_COUNTS]
    spec += [("detector.mean_field.per_point", "calls/point", "lower"),
             ("cli.runs", "count", "lower"), ("cli.exit3_runs", "count", "lower"),
             ("cli.bytes_written", "B", "lower"), ("cli.gated_share", "%", "lower")]
    return spec


def _resolve(cli, presets, config_dir: Path):
    for path in sorted(config_dir.glob("*.ini")):
        cfg = cli.load_config(path)
        if cfg.kind.startswith("detector-"):
            presets.build_detector_params(cfg.params)
        elif cfg.kind == "hawking-line":
            presets.build_line_params(cfg.params)


def _timed_setup(config_dir: Path) -> float:
    start = time.perf_counter()
    from nlcavity import cli, presets
    _resolve(cli, presets, config_dir)
    return time.perf_counter() - start


def probe(args) -> int:
    print(json.dumps({"setup_s": _timed_setup(Path(args.configs))}))
    return 0


def reference(_args) -> int:
    """Set-up's speed reference: the same kind of work as a probe (a fresh
    interpreter loading compiled modules and extension libraries) that no
    change to nlcavity can move."""
    start = time.perf_counter()
    import numpy  # noqa: F401
    import scipy.sparse  # noqa: F401
    print(json.dumps({"reference_s": time.perf_counter() - start}))
    return 0


def calibration_s(reps: int = 8) -> float:
    """Mean time of a fixed mix of interpreter, small-array and
    memory-streaming work that uses no nlcavity code.

    The host this benchmark was sized on is shared: the same pass runs up to
    1.5x slower for tens of seconds at a time, and this loop slows with it.
    Dividing each pass by the calibrations around and inside it removes most
    of that drift from ``run_norm_s``.
    """
    import math
    import numpy as np
    start = time.perf_counter()
    for _ in range(reps):
        acc = 0.0
        for i in range(20000):
            acc += math.sqrt(i + 1.0) * 0.5
        a = np.linspace(0.0, 1.0, 1601)
        for _ in range(60):
            a = np.sqrt(a * a + 1.0) / 1.5
        b = np.ones(250_000)
        b *= 1.5
        b += b
    return (time.perf_counter() - start) / reps


def _csv_digest(out_dir: Path) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out_dir.glob("*.csv"))}


def _one_pass(cli, configs, out_dir: Path, calibrate=None):
    """Run every config once. Returns (pass seconds, exit codes, seconds per
    scenario run, calibrations taken between runs). ``calibrate`` runs
    between scenario runs at most once per CAL_EVERY_S; its time is not in
    the pass."""
    if out_dir.exists():
        shutil.rmtree(out_dir)
    out_dir.mkdir(parents=True)
    codes, run_s, cals = [], [], []
    next_cal = time.perf_counter() + CAL_EVERY_S
    for i, path in enumerate(configs):
        t = time.perf_counter()
        codes.append(cli.main(["run", str(path), "--out", str(out_dir)]))
        run_s.append(time.perf_counter() - t)
        if calibrate and i + 1 < len(configs) and time.perf_counter() >= next_cal:
            cals.append(calibrate())
            next_cal = time.perf_counter() + CAL_EVERY_S
    return sum(run_s), codes, run_s, cals


def measure(args) -> int:
    config_dir, out_dir = Path(args.configs), Path(args.out)
    import nlcavity
    from nlcavity import cli
    import checker
    import workloads

    src = Path(__file__).resolve().parent.parent / "src"
    if Path(nlcavity.__file__).resolve().parent.parent != src:
        print(f"nlcavity imported from {nlcavity.__file__}, not {src}", file=sys.stderr)
        return 2
    scenarios = workloads.scenarios(args.workload, args.seed)
    configs = [config_dir / f"{sc.label}.ini" for sc in scenarios]

    # the seed-0 reference applies wherever the seed left the configs as they are
    against_reference = scenarios == workloads.scenarios(args.workload, 0)
    checks = []  # one CheckResult per pass
    times, scenario_s, reference_digest, identical = [], [], None, True

    def run_and_check(calibrate=None):
        nonlocal reference_digest, identical
        dt, codes, run_s, cals = _one_pass(cli, configs, out_dir, calibrate)
        scenario_s.append(run_s)
        digest = _csv_digest(out_dir)
        if reference_digest is None:
            reference_digest = digest
        elif digest != reference_digest:
            identical = False
        checks.append(checker.check_pass(args.workload, list(zip(scenarios, codes)),
                                         out_dir, against_reference))
        return dt, cals

    # calibrations around and inside each pass: before, between runs, after
    budget = args.seconds / 2.0 if args.trace else float(args.seconds)
    calibration, before = [], calibration_s()
    start = time.perf_counter()
    while not times or (time.perf_counter() - start
                        + statistics.median(times) <= budget):
        dt, inside = run_and_check(calibration_s)
        after = calibration_s()
        times.append(dt)
        calibration.append([before] + inside + [after])
        before = after

    result = {"pass_s": times, "scenario_s": list(scenario_s),
              "calibration_s": calibration}
    if args.trace:
        import tracer as tracing
        tr = tracing.Tracer()
        with tr:
            traced_s, _ = run_and_check()
        tr.write(out_dir.parent / "trace")
        result["layers"], result["functions"] = _layers(
            tr, traced_s, statistics.median(times), checks[0])
        result["traced_pass_s"] = traced_s

    # Every pass repeats the same operations, so the counts are one pass's:
    # they depend on the seed only, not on how many passes fit the time.
    totals = checks[0]
    for later in checks[1:]:
        totals.problems.extend(p for p in later.problems if p not in totals.problems)
        if later.counts() != totals.counts():
            totals.problems.append("check counts differ between passes")
    if not identical:
        totals.problems.append("CSV outputs differ between passes")
    result.update(attempted=totals.attempted, failed=totals.failed,
                  gated=totals.gated, reasons=dict(totals.reasons),
                  problems=totals.problems[:20], correct=totals.correct,
                  identical_outputs=identical)
    Path(args.result).write_text(json.dumps(result, indent=1) + "\n")
    return 0


def _layers(tr, traced_s: float, untraced_s: float, totals) -> tuple[dict, dict]:
    """Per-layer metrics of one traced pass, plus the per-function table."""
    funcs = tr.summary()
    zero = {"calls": 0, "s": 0.0, "self_s": 0.0}
    f = lambda name: funcs.get(name, zero)
    pct = lambda seconds: 100.0 * seconds / traced_s
    layers = {
        "trace_overhead_s": traced_s - untraced_s,
        "traced_run_s": traced_s,
        "cli.config_s": sum(f(n)["s"] for n in (
            "cli.load_config", "presets.build_detector_params",
            "presets.build_line_params")),
        "cli.write_s": f("cli._write_csv")["s"] + f("cli._write_manifest")["s"],
    }
    for m in MODULES:
        layers[f"{m}.self_pct"] = pct(sum(v["self_s"] for k, v in funcs.items()
                                          if k.startswith(m + ".")))
    for n in SELF_SHARES:
        layers[f"{n}.self_pct"] = pct(f(n)["self_s"])
    for n in INCLUSIVE_SHARES:
        layers[f"{n}.pct"] = pct(f(n)["s"])
    for n in CALL_COUNTS:
        layers[f"{n}.calls"] = f(n)["calls"]
    for n in WORK_COUNTS:
        layers[n] = tr.counts.get(n, 0)
    points = f("detector.effective_thermo")["calls"]
    layers["detector.mean_field.per_point"] = (
        f("detector.mean_field")["calls"] / points if points else 0.0)
    runs = sum(tr.exit_codes.values())
    layers["cli.runs"] = runs
    layers["cli.exit3_runs"] = tr.exit_codes.get(3, 0)
    layers["cli.bytes_written"] = tr.counts.get("cli.bytes_written", 0)
    layers["cli.gated_share"] = 100.0 * totals.gated / max(totals.attempted, 1)
    return layers, funcs


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="worker.py")
    sub = ap.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("probe")
    p.add_argument("--configs", required=True)
    sub.add_parser("reference")
    m = sub.add_parser("measure")
    m.add_argument("--workload", required=True)
    m.add_argument("--seed", type=int, required=True)
    m.add_argument("--seconds", type=float, required=True)
    m.add_argument("--trace", type=int, choices=(0, 1), default=0)
    m.add_argument("--configs", required=True)
    m.add_argument("--out", required=True)
    m.add_argument("--result", required=True)
    args = ap.parse_args(argv)
    return {"probe": probe, "reference": reference, "measure": measure}[args.mode](args)


if __name__ == "__main__":
    sys.exit(main())
