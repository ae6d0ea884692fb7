import json
import math
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import nlcavity
from nlcavity import detector, fock, hawking, qinfo, trilinear
from nlcavity.cli import (
    EXIT_CONFIG,
    EXIT_NUMERICS,
    EXIT_OK,
    EXIT_PHYSICS,
    ScenarioConfig,
    _info_diagnostics,
    _tau_grid,
    _trilinear_setup,
    _write_csv,
    config_from_preset,
    load_config,
    main,
    run,
)
from nlcavity.errors import FitDegenerateError
from nlcavity.presets import build_detector_params, list_presets
from oracles import fidelity, thermal_density_matrix

CH2 = {
    "Z_p_ohm": "50", "omega_T_hz": "5e9", "Q_T": "300", "omega_m_hz": "4e6",
    "Q_m": "1e4", "mass_kg": "1e-16", "I_c_A": "4.5e-6", "C_J_F": "1e-14",
    "phi_ext_phi0": "0.442", "B_ext_T": "0.05", "K_d": "-3.4e-6",
    "K_Tm": "1.1e-5", "loop_inductance_H": "1e-12",
}


def test_preset_catalog_contents():
    cat = list_presets()
    assert set(cat) == {"ch2-detection", "ch2-cooling-Q1e4",
                        "ch2-goodcavity-Q1000", "ch3-beltran", "ch4-coherent9"}
    det = cat["ch2-detection"]["params"]
    assert float(det["I_c_A"]) == 4.5e-6
    assert float(det["phi_ext_phi0"]) == 0.442
    bel = cat["ch3-beltran"]["params"]
    assert float(bel["I_c_A"]) == 2e-6
    assert float(bel["C_0_F"]) == 5e-17
    assert float(bel["a_m"]) == 0.25e-6


def test_cli_import_loads_no_scipy():
    src = str(Path(nlcavity.__file__).resolve().parent.parent)
    code = (f"import sys; sys.path.insert(0, {src!r}); import nlcavity.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, timeout=60, check=True)
    assert out.stdout.strip() == "[]"


def test_preset_round_trip_through_config(tmp_path):
    # serialize a preset to INI and read it back unchanged
    import configparser

    cat = list_presets()
    body = cat["ch2-cooling-Q1e4"]
    parser = configparser.ConfigParser()
    parser.optionxform = str
    for section, kv in body.items():
        parser[section] = kv
    parser["output"] = {"dir": str(tmp_path)}
    path = tmp_path / "roundtrip.ini"
    with open(path, "w") as fh:
        parser.write(fh)
    cfg = load_config(path)
    assert cfg.kind == body["scenario"]["kind"]
    assert cfg.params == body["params"]
    assert cfg.grid == body["grid"]


def test_unknown_scenario_kind():
    with pytest.raises(ValueError):
        ScenarioConfig(kind="no-such-thing", params={}, grid={},
                       output_dir=Path("."))


def test_unknown_preset(tmp_path):
    with pytest.raises(ValueError):
        config_from_preset("nope", tmp_path)


def test_empty_grid_exits_2(tmp_path):
    cfg = ScenarioConfig(kind="detector-bistability", params=dict(CH2), grid={},
                         output_dir=tmp_path)
    assert run(cfg) == EXIT_CONFIG


def test_missing_param_exits_2(tmp_path):
    cfg = ScenarioConfig(kind="detector-bistability", params={"Q_T": "300"},
                         grid={"points": "5"}, output_dir=tmp_path)
    assert run(cfg) == EXIT_CONFIG


COOL_GRID = {"detuning_ratio": "1.3", "drive_points": "2", "bath_T_K": "0"}
SIGNAL_NOISE_GRID = {"detuning_ratios": "0.2", "drive_points": "3", "bath_T_K": "0"}
INFO_PARAMS = {"mean_occupations": "1", "tiers": "short"}
BELTRAN = list_presets()["ch3-beltran"]["params"]


@pytest.mark.parametrize("kind, params, grid", [
    ("detector-cooling", dict(CH2, Q_T="inf"), COOL_GRID),
    ("detector-cooling", dict(CH2, Q_T="nan"), COOL_GRID),
    ("detector-cooling", dict(CH2), dict(COOL_GRID, bath_T_K="-0.05")),
    ("detector-cooling", dict(CH2), dict(COOL_GRID, bath_T_K="nan")),
    ("detector-cooling", dict(CH2), dict(COOL_GRID, bath_T_K="inf")),
    ("detector-signal-noise", dict(CH2), dict(SIGNAL_NOISE_GRID, bath_T_K="nan")),
    ("detector-signal-noise", dict(CH2), dict(SIGNAL_NOISE_GRID, bath_T_K="inf")),
    ("detector-cooling", dict(CH2), dict(COOL_GRID, drive_points="0")),
    ("detector-bistability", dict(CH2), {"points": "0"}),
    ("hawking-line", dict(BELTRAN), {"xi_points": "0"}),
    ("trilinear-info", dict(INFO_PARAMS), {"tau_points": "0"}),
    ("trilinear-info", dict(INFO_PARAMS, tiers="none"), {"tau_points": "3"}),
    ("trilinear-info", dict(INFO_PARAMS, tiers="short,"), {"tau_points": "3"}),
    ("detector-bistability", dict(CH2), {"ratio_max": "nan", "points": "2"}),
    ("detector-cooling", dict(CH2), dict(COOL_GRID, bath_T_K="")),
    ("trilinear-info", dict(INFO_PARAMS, mean_occupations=""), {"tau_points": "3"}),
    ("hawking-line", dict(BELTRAN, gradient_rate_over_plasma="0"), {}),
    ("hawking-line", dict(BELTRAN, I_c_A="inf"), {}),
    ("hawking-line", dict(BELTRAN, C_0_F="nan"), {}),
    ("hawking-line", dict(BELTRAN, a_m="inf"), {}),
    ("hawking-line", dict(BELTRAN, u_over_c0flux="nan"), {}),
    ("hawking-line", dict(BELTRAN, rise_scale_m="nan"), {}),
    ("trilinear-info", dict(INFO_PARAMS, mean_occupations="nan"), {"tau_points": "3"}),
    ("trilinear-evolve", {"mean_occupation": "nan"}, {"tau_points": "3"}),
    ("trilinear-evolve", {"mean_occupation": "inf"}, {"tau_points": "3"}),
    ("trilinear-info", dict(INFO_PARAMS), {"tau_max": "nan", "tau_points": "3"}),
    ("trilinear-info", dict(INFO_PARAMS), {"tau_max": "inf", "tau_points": "3"}),
    ("trilinear-info", dict(INFO_PARAMS), {"tau_max": "-1", "tau_points": "3"}),
    ("trilinear-info", dict(INFO_PARAMS, tiers="full"),
     {"tau_max": "nan", "tau_points": "3"}),
    ("detector-signal-noise", dict(CH2), dict(SIGNAL_NOISE_GRID, drive_points="2.5")),
    ("detector-bistability", dict(CH2), {"points": "2.5"}),
    ("hawking-line", dict(BELTRAN), {"xi_points": "2.5"}),
    ("trilinear-info", dict(INFO_PARAMS), {"tau_points": "2.5"}),
    ("detector-signal-noise", dict(CH2), dict(SIGNAL_NOISE_GRID, detuning_ratios="nan")),
    ("detector-signal-noise", dict(CH2), dict(SIGNAL_NOISE_GRID, drive_max_ratio="inf")),
    ("detector-signal-noise", dict(CH2), dict(SIGNAL_NOISE_GRID, drive_min_ratio="-0.5")),
    ("detector-cooling", dict(CH2), dict(COOL_GRID, detuning_mode="optimal_harmonic")),
    ("detector-signal-noise", dict(CH2, K_Tm="1e300"), SIGNAL_NOISE_GRID),
    ("detector-bistability", dict(CH2, K_Tm="1e300"), {"points": "3"}),
    ("detector-cooling", dict(CH2, K_Tm="1e300"), COOL_GRID),
], ids=["Q_T-inf", "Q_T-nan", "bath_T-negative", "cooling-bath_T-nan",
        "cooling-bath_T-inf", "signal-noise-bath_T-nan", "signal-noise-bath_T-inf",
        "drive_points-0", "points-0", "xi_points-0", "tau_points-0",
        "tiers-none", "tiers-empty-item", "ratio_max-nan", "bath_T-empty",
        "mean_occupations-empty", "gradient_rate-0", "I_c-inf", "C_0-nan",
        "a-inf", "u_over_c0flux-nan", "rise_scale-nan", "mean_occupations-nan",
        "evolve-mean_occupation-nan", "evolve-mean_occupation-inf", "tau_max-nan",
        "tau_max-inf", "tau_max-negative", "full-tau_max-nan", "drive_points-2.5",
        "points-2.5", "xi_points-2.5", "tau_points-2.5", "detuning_ratios-nan",
        "drive_max_ratio-inf", "drive_min_ratio-negative", "detuning_mode-underscore",
        "signal-noise-K_Tm-1e300", "bistability-K_Tm-1e300", "cooling-K_Tm-1e300"])
def test_bad_numbers_exit_2(tmp_path, kind, params, grid):
    cfg = ScenarioConfig(kind=kind, params=params, grid=grid, output_dir=tmp_path)
    assert run(cfg) == EXIT_CONFIG


@pytest.mark.parametrize("key, value", [
    ("detuning_ratios", "0.2, nan"), ("drive_max_ratio", "inf"),
    ("drive_min_ratio", "-0.5"), ("drive_points", "2.5")])
def test_detection_grid_checked_before_solving(tmp_path, monkeypatch, capsys, key, value):
    solved = []
    monkeypatch.setattr(detector, "effective_thermo", lambda *args, **kw: solved.append(args))
    cfg = ScenarioConfig(kind="detector-signal-noise", params=dict(CH2),
                         grid=dict(SIGNAL_NOISE_GRID, **{key: value}), output_dir=tmp_path)
    assert run(cfg) == EXIT_CONFIG
    assert solved == []
    assert capsys.readouterr().err.startswith(f"config error: {key} must be")


@pytest.mark.parametrize("key, value", [
    ("detuning_ratio", "nan"), ("detuning_ratio", "inf"), ("drive_max_ratio", "inf"),
    ("drive_min_ratio", "-0.5"), ("drive_min_ratio", "nan"), ("detuning_mode", "optimal")])
def test_cooling_grid_checked_before_solving(tmp_path, monkeypatch, capsys, key, value):
    solved = []
    monkeypatch.setattr(detector, "cooling_curve", lambda *args: solved.append(args) or [])
    cfg = ScenarioConfig(kind="detector-cooling", params=dict(CH2),
                         grid=dict(COOL_GRID, **{key: value}), output_dir=tmp_path)
    assert run(cfg) == EXIT_CONFIG
    assert solved == []
    assert capsys.readouterr().err.startswith(f"config error: {key} must be")


@pytest.mark.parametrize("kind, grid, key", [
    ("detector-bistability", {"ratio_max": "1e300", "points": "3"}, "ratio_max"),
    ("detector-bistability", {"ratio_min": "inf", "ratio_max": "inf", "points": "3"},
     "ratio_min"),
    ("detector-cooling", dict(COOL_GRID, drive_max_ratio="1e200"), "drive_max_ratio"),
    ("detector-signal-noise", dict(SIGNAL_NOISE_GRID, drive_max_ratio="1e200"),
     "drive_max_ratio"),
], ids=["ratio_max-1e300", "ratio_min-max-inf", "drive_max_ratio-1e200",
        "signal-noise-drive_max_ratio-1e200"])
def test_overflowing_grid_exits_2_naming_key(tmp_path, capsys, kind, grid, key):
    # a finite grid value whose boundary or drive overflows is a config error
    cfg = ScenarioConfig(kind=kind, params=dict(CH2), grid=grid, output_dir=tmp_path)
    assert run(cfg) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:") and key in err and "nan" not in err


DETECTOR_RUNNERS = {"detector-signal-noise": SIGNAL_NOISE_GRID,
                    "detector-bistability": {"points": "3"}, "detector-cooling": COOL_GRID}


def test_overflowing_params_name_the_params(tmp_path, capsys):
    # a huge non-grid parameter overflows the bistability onset (K_Tm ** 2
    # raises at 1e300 and is inf at 1e150) or the drive sweep; the message
    # must not put it on the drive keys alone
    cases = [(kind, grid, dict(CH2, K_Tm=K_Tm))
             for kind, grid in DETECTOR_RUNNERS.items() for K_Tm in ("1e300", "1e150")]
    cases.append(("detector-cooling", COOL_GRID, dict(CH2, omega_T_hz="1e300")))
    for kind, grid, params in cases:
        cfg = ScenarioConfig(kind=kind, params=params, grid=grid, output_dir=tmp_path)
        assert run(cfg) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "detector params" in err, (kind, params)


@pytest.mark.parametrize("kind", DETECTOR_RUNNERS)
@pytest.mark.parametrize("key", ["K_d", "K_Tm"])
def test_missing_coupling_constant_names_the_key(tmp_path, capsys, kind, key):
    params = {k: v for k, v in CH2.items() if k != key}
    cfg = ScenarioConfig(kind=kind, params=params, grid=DETECTOR_RUNNERS[kind],
                         output_dir=tmp_path)
    assert run(cfg) == EXIT_CONFIG
    assert capsys.readouterr().err == f"config error: detector config needs {key}\n"


def test_optimal_harmonic_detuning(tmp_path):
    cfg = ScenarioConfig(kind="detector-cooling", params=dict(CH2),
                         grid=dict(COOL_GRID, detuning_mode="optimal-harmonic",
                                   detuning_ratio="nan"),
                         output_dir=tmp_path, label="opt")
    assert run(cfg) == EXIT_OK
    params = build_detector_params(CH2)
    manifest = json.loads((tmp_path / "opt_manifest.json").read_text())
    assert manifest["resolved"]["detuning"] == \
        -math.sqrt(params.omega_m ** 2 + params.gamma_pT ** 2)


def test_write_csv_literal_text(tmp_path):
    path = tmp_path / "t.csv"
    _write_csv(path, ["x", "tag", "y"], [
        [math.nan, "ok", -0.0], [math.inf, "", -math.inf], [np.float64(0.1), "a b", 2.5]])
    assert path.read_text() == (
        "x,tag,y\n"
        "nan,ok,-0.0000000000000000e+00\n"
        "inf,,-inf\n"
        "1.0000000000000001e-01,a b,2.5000000000000000e+00\n")
    _write_csv(path, ["a", "b"], np.array([[1.0, -2e-300], [math.nan, 123456789.0]]))
    assert path.read_text() == (
        "a,b\n"
        "1.0000000000000000e+00,-2.0000000000000001e-300\n"
        "nan,1.2345678900000000e+08\n")
    _write_csv(path, ["a", "b"], [])
    assert path.read_text() == "a,b\n"


@pytest.mark.parametrize("kind, params, grid, names", [
    ("detector-signal-noise", dict(CH2), dict(SIGNAL_NOISE_GRID, drive_points="2"),
     ["signal_noise"]),
    ("detector-bistability", dict(CH2), {"points": "3"}, ["bistability"]),
    ("detector-cooling", dict(CH2), COOL_GRID, ["cooling"]),
    ("hawking-line", dict(BELTRAN), {"xi_points": "5"}, ["profile", "summary"]),
    ("trilinear-evolve", {"mean_occupation": "1"}, {"tau_points": "3"}, ["evolve"]),
    ("trilinear-info", dict(INFO_PARAMS), {"tau_points": "3"}, ["info"]),
])
def test_run_writes_one_csv_per_table(tmp_path, monkeypatch, kind, params, grid, names):
    # the manifest's artifacts are the written CSVs, path first, in table order
    import nlcavity.cli as cli

    written = []
    write_csv = cli._write_csv

    def recorded(path, header, rows):
        written.append(str(path))
        return write_csv(path, header, rows)

    monkeypatch.setattr(cli, "_write_csv", recorded)
    cfg = ScenarioConfig(kind=kind, params=params, grid=grid, output_dir=tmp_path,
                         label="lab")
    assert run(cfg) == EXIT_OK
    manifest = json.loads((tmp_path / "lab_manifest.json").read_text())
    assert list(manifest["columns"]) == names
    assert manifest["artifacts"] == written == \
        [str(tmp_path / f"lab_{name}.csv") for name in names]
    for name, path in zip(names, written):
        header = Path(path).read_text().splitlines()[0]
        assert header == ",".join(manifest["columns"][name])


@pytest.mark.parametrize("tau_max", ["nan", "inf", "-1", "0"])
def test_tau_grid_rejects_bad_tau_max(tau_max):
    cfg = ScenarioConfig(kind="trilinear-info", params={}, output_dir=Path("."),
                         grid={"tau_max": tau_max, "tau_points": "3"})
    with pytest.raises(ValueError, match="tau_max"):
        _tau_grid(cfg)


def test_fit_failure_exits_4(tmp_path, monkeypatch, capsys):
    def degenerate_fit(*args, **kwargs):
        raise FitDegenerateError("singular normal equations in Lorentzian fit")

    monkeypatch.setattr(detector, "fit_lorentzian", degenerate_fit)
    cfg = ScenarioConfig(kind="detector-cooling", params=dict(CH2), grid=COOL_GRID,
                         output_dir=tmp_path)
    assert run(cfg) == EXIT_NUMERICS
    assert capsys.readouterr().err == \
        "numerical convergence error: singular normal equations in Lorentzian fit\n"


def test_physics_gate_exits_3(tmp_path):
    # half flux quantum: secant singularity fires before any sweep
    cfg = ScenarioConfig(kind="detector-bistability",
                         params=dict(CH2, phi_ext_phi0="0.5"),
                         grid={"points": "5"}, output_dir=tmp_path)
    assert run(cfg) == EXIT_PHYSICS


def test_bistability_scenario(tmp_path):
    cfg = ScenarioConfig(kind="detector-bistability", params=dict(CH2),
                         grid={"ratio_min": "1.0", "ratio_max": "3.0",
                               "points": "21"},
                         output_dir=tmp_path, label="bist")
    assert run(cfg) == EXIT_OK
    lines = (tmp_path / "bist_bistability.csv").read_text().splitlines()
    assert lines[0] == "detuning_over_detuning_bi,I_lower_over_Ibi,I_upper_over_Ibi"
    assert len(lines) == 22  # header + grid size
    first = [float(tok) for tok in lines[1].split(",")]
    assert first[1] == pytest.approx(1.0, abs=1e-12)
    assert first[2] == pytest.approx(1.0, abs=1e-12)
    manifest = json.loads((tmp_path / "bist_manifest.json").read_text())
    assert manifest["resolved"]["I_bi"] == pytest.approx(4.9e-8, rel=0.01)


def test_bistability_rerun_byte_identical(tmp_path):
    grid = {"ratio_min": "1.0", "ratio_max": "2.0", "points": "7"}
    cfg = ScenarioConfig(kind="detector-bistability", params=dict(CH2),
                         grid=dict(grid), output_dir=tmp_path, label="det")
    assert run(cfg) == EXIT_OK
    blob1 = (tmp_path / "det_bistability.csv").read_bytes()
    cfg2 = ScenarioConfig(kind="detector-bistability", params=dict(CH2),
                          grid=dict(grid), output_dir=tmp_path, label="det")
    assert run(cfg2) == EXIT_OK
    assert (tmp_path / "det_bistability.csv").read_bytes() == blob1


def test_runner_warnings_go_to_the_manifest(tmp_path, monkeypatch, capsys):
    boundary = detector.bistability_boundary

    def warning_boundary(params, ratio):
        warnings.warn("response determinant nearly singular", RuntimeWarning)
        return boundary(params, ratio)

    monkeypatch.setattr(detector, "bistability_boundary", warning_boundary)
    cfg = ScenarioConfig(kind="detector-bistability", params=dict(CH2),
                         grid={"points": "3"}, output_dir=tmp_path, label="warn")
    with warnings.catch_warnings(record=True) as escaped:
        warnings.simplefilter("always")
        assert run(cfg) == EXIT_OK
    assert not escaped
    assert capsys.readouterr().err == ""
    manifest = json.loads((tmp_path / "warn_manifest.json").read_text())
    assert manifest["warnings"].count("response determinant nearly singular") == 3


def test_detector_signal_noise_rerun_byte_identical(tmp_path, capsys):
    def signal_noise_run():
        cfg = config_from_preset("ch2-detection", tmp_path)
        cfg.grid.update(detuning_ratios="0.2", drive_points="3")
        assert run(cfg) == EXIT_OK
        return [(tmp_path / name).read_bytes() for name in
                ("ch2-detection_signal_noise.csv", "ch2-detection_manifest.json")]

    first = signal_noise_run()
    assert len(first[0].decode().splitlines()) == 1 + 2 * 3  # duffing 0.2 + harmonic
    assert signal_noise_run() == first
    assert capsys.readouterr().err == ""


def test_detection_rerun_byte_identical(tmp_path, capsys):
    # every curve of the preset, with gated and ungated points on each
    def detection_run():
        cfg = config_from_preset("ch2-detection", tmp_path)
        cfg.grid.update(drive_min_ratio="0.1", drive_max_ratio="0.3", drive_points="4")
        assert run(cfg) == EXIT_OK
        return [(tmp_path / name).read_bytes() for name in
                ("ch2-detection_signal_noise.csv", "ch2-detection_manifest.json")]

    first = detection_run()
    assert detection_run() == first
    assert capsys.readouterr().err == ""
    rows = [line.split(",") for line in first[0].decode().splitlines()[1:]]
    assert len(rows) == 4 * 4
    gated = [row for row in rows if row[-1]]
    assert 0 < len(gated) < len(rows)
    assert len(json.loads(first[1])["warnings"]) == len(gated)


def test_detector_signal_noise_solves_mean_field_once_per_point(tmp_path, monkeypatch):
    solved = []
    mean_field = detector.mean_field

    def counted_mean_field(params, drive, *args, **kwargs):
        solved.append(drive)
        return mean_field(params, drive, *args, **kwargs)

    monkeypatch.setattr(detector, "mean_field", counted_mean_field)
    cfg = config_from_preset("ch2-detection", tmp_path)
    cfg.grid.update(detuning_ratios="0.2", drive_points="3")
    assert run(cfg) == EXIT_OK
    rows = (tmp_path / "ch2-detection_signal_noise.csv").read_text().splitlines()[1:]
    assert any(row.endswith(",") for row in rows)  # some points reach the spectra
    assert len(solved) == len(set(solved)) == len(rows) == 6


def test_hawking_line_solves_horizon_at_most_twice(tmp_path, monkeypatch):
    solved = []
    find_horizon = hawking.find_horizon

    def counted_find_horizon(pulse, params, *args, **kwargs):
        solved.append(pulse.rise_scale)
        return find_horizon(pulse, params, *args, **kwargs)

    monkeypatch.setattr(hawking, "find_horizon", counted_find_horizon)
    cfg = config_from_preset("ch3-beltran", tmp_path)
    cfg.grid["xi_points"] = "11"
    assert run(cfg) == EXIT_OK
    assert 1 <= len(solved) <= 2


def test_hawking_profile_row_resolves_velocity_once(tmp_path, monkeypatch):
    # the horizon solves do not depend on xi_points, and the profile is one
    # array call, so more profile rows cost no more velocity evaluations
    calls = []
    velocity = hawking.propagation_velocity

    def counted_velocity(*args, **kwargs):
        calls.append(1)
        return velocity(*args, **kwargs)

    monkeypatch.setattr(hawking, "propagation_velocity", counted_velocity)
    counts = []
    for points in ("11", "21"):
        calls.clear()
        cfg = config_from_preset("ch3-beltran", tmp_path)
        cfg.grid["xi_points"] = points
        assert run(cfg) == EXIT_OK
        counts.append(len(calls))
    assert counts[1] == counts[0]


def test_cooling_scenario_rows_and_nan_warnings(tmp_path):
    cfg = ScenarioConfig(
        kind="detector-cooling", params=dict(CH2),
        grid={"detuning_ratio": "1.3", "drive_min_ratio": "0.4",
              "drive_max_ratio": "1.294", "drive_points": "4",
              "bath_T_K": "0"},
        output_dir=tmp_path, label="cool")
    assert run(cfg) == EXIT_OK
    lines = (tmp_path / "cool_cooling.csv").read_text().splitlines()
    assert len(lines) == 5
    nan_rows = [ln for ln in lines[1:] if "nan" in ln]
    manifest = json.loads((tmp_path / "cool_manifest.json").read_text())
    assert len(manifest["warnings"]) >= len(nan_rows) > 0


def test_cooling_rerun_byte_identical(tmp_path, capsys):
    def cooling_run():
        cfg = config_from_preset("ch2-cooling-Q1e4", tmp_path)
        cfg.grid.update(drive_points="4", bath_T_K="0, 0.05")
        assert run(cfg) == EXIT_OK
        return [(tmp_path / name).read_bytes() for name in
                ("ch2-cooling-Q1e4_cooling.csv", "ch2-cooling-Q1e4_manifest.json")]

    first = cooling_run()
    assert cooling_run() == first
    assert capsys.readouterr().err == ""
    rows = [line.split(",") for line in first[0].decode().splitlines()[1:]]
    assert len(rows) == 4 * 2
    gated = [row for row in rows if row[-1]]
    assert gated  # the top drive sits at the fold
    warnings_ = json.loads(first[1])["warnings"]
    assert len(warnings_) == len(gated)
    for row in gated:
        prefix = f"drive {float(row[0]):.3f} I_bi, T={float(row[1])}: {row[-1]}"
        assert warnings_.count(prefix) == 1


def test_trilinear_evolve_scenario(tmp_path):
    cfg = ScenarioConfig(
        kind="trilinear-evolve",
        params={"mean_occupation": "1", "dim_per_mode": "13"},
        grid={"tau_max": "1.0", "tau_points": "9"},
        output_dir=tmp_path, label="tri")
    assert run(cfg) == EXIT_OK
    lines = (tmp_path / "tri_evolve.csv").read_text().splitlines()
    assert len(lines) == 10
    header = lines[0].split(",")
    assert header[0] == "tau"
    row0 = dict(zip(header, (float(x) for x in lines[1].split(","))))
    assert row0["Na_full"] == pytest.approx(1.0, abs=1e-9)
    assert row0["Nb_full"] == pytest.approx(0.0, abs=1e-9)
    # the short-time tier conserves N_a + N_b at the truncated pump's mean
    pump_mean = trilinear.PumpInitialState.coherent(1.0, 13).mean_occupation
    for line in lines[1:]:
        row = dict(zip(header, (float(x) for x in line.split(","))))
        assert row["Na_shorttime"] + row["Nb_shorttime"] == pytest.approx(pump_mean, abs=1e-12)


def test_trilinear_info_scenario(tmp_path):
    def info_run():
        cfg = ScenarioConfig(
            kind="trilinear-info",
            params={"mean_occupations": "1", "tiers": "short,full"},
            grid={"tau_points": "6"}, output_dir=tmp_path, label="info")
        assert run(cfg) == EXIT_OK
        return (tmp_path / "info_info.csv").read_bytes()

    blob = info_run()
    lines = blob.decode().splitlines()
    assert len(lines) == 1 + 2 * 6  # header + both tiers over the tau grid
    header = lines[0].split(",")
    rows = [dict(zip(header, ln.split(","))) for ln in lines[1:]]
    for tier in ("short", "full"):
        first = next(r for r in rows if r["tier"] == tier)
        assert float(first["tau"]) == 0.0
        assert float(first["N_b"]) == pytest.approx(0.0, abs=1e-12)
        assert float(first["fidelity"]) == pytest.approx(1.0, abs=1e-12)
    for r in rows:
        for col in ("information_nats", "I_a_bc", "I_b_c"):
            assert float(r[col]) >= -1e-12
    assert info_run() == blob


def test_hawking_scenario_manifest(tmp_path):
    cfg = config_from_preset("ch3-beltran", tmp_path)
    cfg.grid["xi_points"] = "31"
    assert run(cfg) == EXIT_OK
    manifest = json.loads((tmp_path / "ch3-beltran_manifest.json").read_text())
    res = manifest["resolved"]
    assert res["T_H_K"] == pytest.approx(0.1216, rel=0.01)
    assert 0.5 < res["photons_per_pulse"] < 2.0
    assert res["gates"]["Z_A_over_R_Q"] < 1.0
    lines = (tmp_path / "ch3-beltran_profile.csv").read_text().splitlines()
    assert len(lines) == 32


def test_main_presets_command(capsys):
    assert main(["presets"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "ch2-detection" in out


def test_main_run_requires_input():
    assert main(["run"]) == EXIT_CONFIG


def test_main_missing_config_file(tmp_path):
    assert main(["run", str(tmp_path / "absent.ini")]) == EXIT_CONFIG


@pytest.mark.parametrize("tier, mean_occ", [("short", 9.0), ("full", 3.0)])
def test_info_diagnostics_match_dense_oracle(tier, mean_occ):
    # the parent path: rho_b = diag(p_b) as a dense matrix, Uhlmann fidelity
    # against the dense thermal reference, von Neumann entropies
    dim = fock.min_coherent_dim(mean_occ) + 3
    initial, psi0 = _trilinear_setup(mean_occ, dim)
    taus = np.linspace(0.0, 3.0, 25)
    if tier == "short":
        states = [trilinear.short_time_state(initial, float(t)) for t in taus]
    else:
        states = trilinear.evolve_full(psi0, taus)
    for state in states:
        rho_a, p_b = state.reduced()
        fid, info, i_abc, i_bc, *_ = _info_diagnostics(rho_a, p_b, state.n_a, state.n_b)
        rho_b = fock.DensityMatrix(fock.HilbertSpec((p_b.size,)), np.diag(p_b))
        sigma = thermal_density_matrix(state.n_b, p_b.size)
        n_bar = float(np.sum(np.diag(rho_b.entries).real * np.arange(p_b.size)))
        s_a = qinfo.von_neumann_entropy(rho_a)
        s_b = qinfo.von_neumann_entropy(rho_b)
        assert fid == pytest.approx(fidelity(rho_b, sigma), rel=0, abs=1e-12)
        assert info == pytest.approx(qinfo.thermal_entropy(n_bar) - s_b, rel=0, abs=1e-12)
        assert i_abc == pytest.approx(2.0 * s_a, rel=0, abs=1e-12)
        assert i_bc == pytest.approx(2.0 * s_b - s_a, rel=0, abs=1e-12)
