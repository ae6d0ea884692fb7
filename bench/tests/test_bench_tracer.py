"""Tracer: self-time arithmetic, complete coverage of bound names, and
outputs unchanged by tracing."""

import hashlib
import random

import pytest

import tracer
import workloads


def _brute_self(spans):
    out = []
    for _, sid, _, start, end in spans:
        covered = set()
        for _, _, parent, c_start, c_end in spans:
            if parent == sid:
                covered.update(range(max(c_start, start), min(c_end, end)))
        out.append((end - start) - len(covered))
    return out


def test_self_time_on_a_hand_built_tree():
    # root [0, 100) with children [10, 30), [20, 50) (overlapping) and
    # [90, 120) (runs past its parent); [12, 18) is a grandchild
    spans = [(1, 1, 0, 10, 30), (2, 4, 1, 12, 18), (1, 2, 0, 20, 50),
             (1, 3, 0, 90, 120), (0, 0, -1, 0, 100)]
    assert tracer.self_times(spans).tolist() == [14, 6, 30, 30, 50]
    summary = tracer.summarize(spans, ["root", "child", "leaf"])
    assert summary["root"]["calls"] == 1
    assert summary["root"]["self_s"] == pytest.approx(50e-9)
    assert summary["child"]["self_s"] == pytest.approx(74e-9)
    assert summary["child"]["s"] == pytest.approx(70e-9)  # union [10,50)+[90,120)
    assert summary["leaf"]["s"] == pytest.approx(6e-9)


def test_self_time_matches_brute_force_on_random_trees():
    rng = random.Random(7)
    for _ in range(20):
        spans = [(0, 0, -1, 0, 200)]
        for sid in range(1, 30):
            parent = rng.randrange(sid)
            start = rng.randrange(0, 200)
            spans.append((rng.randrange(3), sid, parent, start, start + rng.randrange(1, 60)))
        assert tracer.self_times(spans).tolist() == _brute_self(spans)


def test_nested_same_name_spans_are_counted_once():
    spans = [(0, 1, 0, 10, 20), (0, 0, -1, 0, 100)]
    assert tracer.summarize(spans, ["f"])["f"]["s"] == pytest.approx(100e-9)


def test_wrappers_reach_every_binding_and_are_removed():
    from nlcavity import detector, hawking, numerics, qinfo, trilinear
    originals = (detector.integrate_adaptive, detector.bose_occupation,
                 hawking.find_root_bracketed, trilinear.evolve_ode,
                 trilinear.jacobi_dn, detector.fit_lorentzian)
    with tracer.Tracer() as tr:
        for mod, name in ((numerics, "integrate_adaptive"), (detector, "integrate_adaptive"),
                          (hawking, "integrate_adaptive"), (trilinear, "integrate_adaptive"),
                          (qinfo, "bose_occupation"), (detector, "bose_occupation"),
                          (hawking, "find_root_bracketed"), (trilinear, "evolve_ode"),
                          (trilinear, "jacobi_dn"), (detector, "fit_lorentzian")):
            assert hasattr(getattr(mod, name), "__wrapped__"), (mod.__name__, name)
        detector.bose_occupation(1e9, 0.01)
        assert tr.summary()["qinfo.bose_occupation"]["calls"] == 1
    assert (detector.integrate_adaptive, detector.bose_occupation,
            hawking.find_root_bracketed, trilinear.evolve_ode,
            trilinear.jacobi_dn, detector.fit_lorentzian) == originals


def _small_scenarios():
    detect = workloads.scenarios("detect", 0)[0]
    detect.grid.update(detuning_ratios="0.2", drive_points="3")
    info = workloads.scenarios("info", 0)
    for sc in info:
        sc.grid["tau_points"] = "6"
    return [detect] + info + workloads.scenarios("horizon", 0)[8:11]


def _run_all(scenarios, cfg_dir, out_dir):
    from nlcavity import cli
    cfg_dir.mkdir(parents=True)
    codes = []
    for sc in scenarios:
        ini = cfg_dir / f"{sc.label}.ini"
        ini.write_text(sc.ini_text())
        codes.append(cli.main(["run", str(ini), "--out", str(out_dir)]))
    return codes, {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                   for p in sorted(out_dir.glob("*.csv"))}


def test_traced_pass_writes_identical_csvs(workdir):
    scenarios = _small_scenarios()
    codes, plain = _run_all(scenarios, workdir / "cfg0", workdir / "plain")
    with tracer.Tracer() as tr:
        traced_codes, traced = _run_all(scenarios, workdir / "cfg1", workdir / "traced")
    assert codes == traced_codes
    assert plain and plain == traced
    funcs = tr.summary()
    assert funcs["cli.main"]["calls"] == len(scenarios)
    assert funcs["detector.response_coeffs"]["calls"] > 0
    assert funcs["qinfo.bose_occupation"]["calls"] > 0
    assert tr.counts["numerics.integrate_adaptive.integrand_evals"] > 0
    assert tr.counts["numerics.evolve_ode.rhs_evals"] > 0
    assert tr.counts["cli.bytes_written"] > 0
    tr.write(workdir / "trace")
    assert (workdir / "trace" / "spans.bin").stat().st_size == len(tr.spans) * 8
