import importlib.util
import json
import math
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import nlcavity
from nlcavity import detector, fock, hawking, qinfo, trilinear
from nlcavity.cli import (
    EXIT_CONFIG,
    EXIT_NUMERICS,
    EXIT_OK,
    EXIT_PHYSICS,
    ScenarioConfig,
    _info_diagnostics,
    _write_csv,
    config_from_preset,
    load_config,
    main,
    run,
)
from nlcavity.constants import hbar, k_B
from nlcavity.errors import FitDegenerateError
from nlcavity.presets import (
    SCHEMAS,
    build_detector_params,
    build_line_params,
    checked,
    list_presets,
)
from oracles import (
    assemble,
    blocks_of,
    HilbertSpec,
    dense_von_neumann_entropy,
    expectation,
    fidelity,
    ladder_ops,
    partial_trace,
    pump_mean_occupation,
    state_vector,
    thermal_density_matrix,
)

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


@pytest.mark.parametrize("kind, params", [("detector-bistability", CH2),
                                          ("trilinear-evolve", {"mean_occupation": "1"})],
                         ids=["detector-bistability", "trilinear-evolve"])
def test_absent_grid_runs_on_the_table_defaults(tmp_path, kind, params):
    # no [grid] section is the grid that lists every key at its table default
    defaults = {name: str(key.default) for name, key in SCHEMAS[kind][1].items()}
    written = []
    for label, grid in (("absent", {}), ("listed", defaults)):
        cfg = ScenarioConfig(kind=kind, params=dict(params), grid=grid,
                             output_dir=tmp_path, label=label)
        assert run(cfg) == EXIT_OK
        written.append({path.name.removeprefix(label): path.read_bytes()
                        for path in tmp_path.glob(f"{label}_*.csv")})
    assert written[0] and written[0] == written[1]


def test_missing_param_exits_2(tmp_path):
    cfg = ScenarioConfig(kind="detector-bistability", params={"Q_T": "300"},
                         grid={"points": "5"}, output_dir=tmp_path)
    assert run(cfg) == EXIT_CONFIG


COOL_GRID = {"detuning_ratio": "1.3", "drive_points": "2", "bath_T_K": "0"}
SIGNAL_NOISE_GRID = {"detuning_ratios": "0.2", "drive_points": "3", "bath_T_K": "0"}
INFO_PARAMS = {"mean_occupations": "1", "tiers": "short"}
BELTRAN = list_presets()["ch3-beltran"]["params"]
# a tiny rise scale overflows the horizon gradient (1e-320) or the power
# (1e-200), a huge one the span of the +-12 rise-scale window (1e307) or the
# window itself (1e308); N and the plasma frequency overflow, truncate or
# underflow
HAWKING_BAD = [("rise_scale_m", "1e-320"), ("rise_scale_m", "1e-200"),
               ("rise_scale_m", "1e307"), ("rise_scale_m", "1e308"), ("N", "1e400"),
               ("N", "4800.5"), ("plasma_freq_hz", "1e-200"), ("plasma_freq_hz", "1e200"),
               ("plasma_freq_hz", "-1e12"), ("gradient_rate_over_plasma", "1e300"),
               ("gradient_rate_over_plasma", "-0.1"), ("gradient_rate_over_plasma", "nan")]
DETECTOR_PRESETS = [name for name, body in list_presets().items()
                    if body["scenario"]["kind"].startswith("detector-")]
# finite inputs that divide by an underflowed zero (omega_T_hz, omega_m_hz) or
# underflow the mean-field cubic's constant term to 0 (Q_T, the drive ratios)
DEGENERATE = [*[(name, "params", "omega_T_hz", value) for name in DETECTOR_PRESETS
                for value in ("0.5", "2.5", "1e-300")],
              ("ch2-detection", "params", "omega_T_hz", "1e6"),
              *[(name, section, key, value) for name in DETECTOR_PRESETS
                for section, key, value in [("params", "omega_m_hz", "1e-300"),
                                            ("params", "Q_T", "1e300"),
                                            ("grid", "drive_min_ratio", "1e-300"),
                                            ("grid", "drive_max_ratio", "1e-300")]]]


def _preset_with(name, section, key, value):
    """(kind, params, grid) of preset ``name`` with one key set to ``value``."""
    body = list_presets()[name]
    body[section][key] = value
    return body["scenario"]["kind"], body["params"], body["grid"]


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
    ("trilinear-evolve", {"dim_per_mode": "inf"}, {"tau_points": "3"}),
    ("trilinear-evolve", {"dim_per_mode": "13.5", "mean_occupation": "1"},
     {"tau_points": "3"}),
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
    *[("hawking-line", dict(BELTRAN, **{key: value}), {}) for key, value in HAWKING_BAD],
    *[_preset_with(*case) for case in DEGENERATE],
    ("trilinear-evolve", {"mean_occupation": "2e5"}, {"tau_points": "3"}),
    ("trilinear-evolve", {"mean_occupation": "2e5", "dim_per_mode": "30"}, {"tau_points": "3"}),
    ("trilinear-info", dict(INFO_PARAMS, mean_occupations="2e5"), {"tau_points": "3"}),
    ("trilinear-info", dict(INFO_PARAMS, mean_occupations="1e6"), {"tau_points": "3"}),
], ids=["Q_T-inf", "Q_T-nan", "bath_T-negative", "cooling-bath_T-nan",
        "cooling-bath_T-inf", "signal-noise-bath_T-nan", "signal-noise-bath_T-inf",
        "drive_points-0", "points-0", "xi_points-0", "tau_points-0",
        "tiers-none", "tiers-empty-item", "ratio_max-nan", "bath_T-empty",
        "mean_occupations-empty", "gradient_rate-0", "I_c-inf", "C_0-nan",
        "a-inf", "u_over_c0flux-nan", "rise_scale-nan", "mean_occupations-nan",
        "evolve-mean_occupation-nan", "evolve-mean_occupation-inf",
        "dim_per_mode-inf", "dim_per_mode-13.5", "tau_max-nan",
        "tau_max-inf", "tau_max-negative", "full-tau_max-nan", "drive_points-2.5",
        "points-2.5", "xi_points-2.5", "tau_points-2.5", "detuning_ratios-nan",
        "drive_max_ratio-inf", "drive_min_ratio-negative", "detuning_mode-underscore",
        "signal-noise-K_Tm-1e300", "bistability-K_Tm-1e300", "cooling-K_Tm-1e300",
        *[f"{key}-{value}" for key, value in HAWKING_BAD],
        *[f"{name}-{key}-{value}" for name, _, key, value in DEGENERATE],
        "evolve-mean_occupation-2e5", "evolve-dim_per_mode-30-mean_occupation-2e5",
        "mean_occupations-2e5", "mean_occupations-1e6"])
def test_bad_numbers_exit_2(tmp_path, kind, params, grid):
    cfg = ScenarioConfig(kind=kind, params=params, grid=grid, output_dir=tmp_path)
    assert run(cfg) == EXIT_CONFIG


def test_bad_hawking_numbers_name_the_key(tmp_path, capsys):
    for key, value in HAWKING_BAD:
        cfg = ScenarioConfig(kind="hawking-line", params=dict(BELTRAN, **{key: value}),
                             grid={}, output_dir=tmp_path)
        assert run(cfg) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith(f"config error: {key} ")


def test_bad_dim_per_mode_names_the_key(tmp_path, capsys):
    # 0 picks the dimension; anything but a finite whole count >= 2 is refused
    for value in ("inf", "nan", "13.5", "1", "-3"):
        cfg = ScenarioConfig(kind="trilinear-evolve",
                             params={"mean_occupation": "1", "dim_per_mode": value},
                             grid={"tau_points": "3"}, output_dir=tmp_path)
        assert run(cfg) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error: dim_per_mode ")


@pytest.mark.parametrize("key, value", [
    ("detuning_ratios", "0.2, nan"), ("drive_max_ratio", "inf"),
    ("drive_min_ratio", "-0.5"), ("drive_min_ratio", "0"), ("drive_points", "2.5")])
def test_detection_grid_checked_before_solving(tmp_path, monkeypatch, capsys, key, value):
    solved = []
    monkeypatch.setattr(detector, "thermo_sweep", lambda *args, **kw: solved.append(args))
    cfg = ScenarioConfig(kind="detector-signal-noise", params=dict(CH2),
                         grid=dict(SIGNAL_NOISE_GRID, **{key: value}), output_dir=tmp_path)
    assert run(cfg) == EXIT_CONFIG
    assert solved == []
    assert capsys.readouterr().err.startswith(f"config error: {key} must be")


@pytest.mark.parametrize("key, value", [
    ("detuning_ratio", "nan"), ("detuning_ratio", "inf"), ("drive_max_ratio", "inf"),
    ("drive_min_ratio", "-0.5"), ("drive_min_ratio", "nan"), ("drive_min_ratio", "0"),
    ("detuning_mode", "optimal")])
def test_cooling_grid_checked_before_solving(tmp_path, monkeypatch, capsys, key, value):
    solved = []
    monkeypatch.setattr(detector, "thermo_sweep",
                        lambda *args, **kw: solved.append(args) or [])
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


# finite table-valid inputs whose derived constants leave floating-point range:
# omega_T, omega_m (2 pi times the _hz value), and a line's C_J and u
DERIVED_OVERFLOW = [
    *[(kind, dict(CH2, **{key: "1e308"}), DETECTOR_RUNNERS[kind], key)
      for kind in ("detector-cooling", "detector-bistability")
      for key in ("omega_T_hz", "omega_m_hz")],
    *[("hawking-line", dict(BELTRAN, **{key: value}), {}, key)
      for key, value in [("I_c_A", "1e308"), ("I_c_A", "1e-320"), ("I_c_A", "1e300"),
                         ("C_0_F", "1e-320"), ("a_m", "1e308"), ("a_m", "1e300"),
                         ("u_over_c0flux", "1e308")]]]


@pytest.mark.parametrize("kind, params, grid, key", DERIVED_OVERFLOW,
                         ids=[f"{kind}-{key}-{params[key]}"
                              for kind, params, _, key in DERIVED_OVERFLOW])
def test_derived_overflow_exits_2_naming_the_params(tmp_path, capsys, kind, params, grid,
                                                    key):
    # the builders' derived quantities are checked once, and the message names
    # the config key or its family, not a dataclass field; a line whose u
    # overflows must not read as a missing horizon (exit 3). No grid key
    # reaches a builder or the detector onset, so none is named
    cfg = ScenarioConfig(kind=kind, params=params, grid=grid, output_dir=tmp_path)
    assert run(cfg) == EXIT_CONFIG
    err = capsys.readouterr().err
    family = kind.split("-")[0]
    assert err.startswith("config error:")
    assert key in err or f"{family} params" in err, err
    assert "grid keys" not in err and not any(k in err for k in SCHEMAS[kind][1]), err


@pytest.mark.parametrize("kind", ["detector-signal-noise", "detector-cooling"])
@pytest.mark.parametrize("K_d", ["1e300", "-1e308"])
def test_huge_duffing_constant_exits_2_naming_the_drive_keys(tmp_path, capsys, kind, K_d):
    # the +1 pole of such a drive is NaN; it must not reach the fit (exit 4)
    cfg = ScenarioConfig(kind=kind, params=dict(CH2, K_d=K_d),
                         grid=DETECTOR_RUNNERS[kind], output_dir=tmp_path)
    assert run(cfg) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert "drive_min_ratio" in err and "drive_max_ratio" in err and "detector params" in err


def test_huge_rise_scale_keeps_a_positive_hawking_temperature(tmp_path):
    # the horizon gradient at a 1e300 m rise scale is ~1e-293 1/s; hbar times
    # it underflows, the gradient times hbar/(2 pi kB) does not
    rise = 1e300
    cfg = ScenarioConfig(kind="hawking-line", params=dict(BELTRAN, rise_scale_m=repr(rise)),
                         grid={}, output_dir=tmp_path, label="wide")
    assert run(cfg) == EXIT_OK
    header, row = (tmp_path / "wide_summary.csv").read_text().splitlines()
    T_H = float(row.split(",")[header.split(",").index("T_H_K")])
    # closed form at the tanh horizon: |slope| = (2 phi_h / w)(1 - phi_h / A)
    params = build_line_params(BELTRAN)
    c0 = hawking.propagation_velocity(0.0, params)
    phi_h = math.acos((params.u / c0) ** 2) / math.pi
    amp = float(BELTRAN["amplitude_phi0"])
    dc_dphi = c0 * math.pi * math.sin(math.pi * phi_h) / (2.0 * math.sqrt(math.cos(math.pi * phi_h)))
    closed = hbar / (2.0 * math.pi * k_B) * dc_dphi * (2.0 * phi_h / rise) * (1.0 - phi_h / amp)
    assert T_H > 0.0
    assert T_H == pytest.approx(closed, rel=1e-12)


@pytest.mark.parametrize("kind", DETECTOR_RUNNERS)
@pytest.mark.parametrize("key", ["K_d", "K_Tm"])
def test_missing_coupling_constant_names_the_key(tmp_path, capsys, kind, key):
    params = {k: v for k, v in CH2.items() if k != key}
    cfg = ScenarioConfig(kind=kind, params=params, grid=DETECTOR_RUNNERS[kind],
                         output_dir=tmp_path)
    assert run(cfg) == EXIT_CONFIG
    assert capsys.readouterr().err == f"config error: detector config needs {key}\n"


# a small valid config of each scenario kind: (params, grid)
SMALL = {
    "detector-signal-noise": (CH2, dict(SIGNAL_NOISE_GRID, drive_points="2")),
    "detector-bistability": (CH2, {"points": "3"}),
    "detector-cooling": (CH2, COOL_GRID),
    "hawking-line": (BELTRAN, {"xi_points": "5"}),
    "trilinear-evolve": ({"mean_occupation": "1"}, {"tau_points": "3"}),
    "trilinear-info": (INFO_PARAMS, {"tau_points": "3"}),
}


@pytest.mark.parametrize("kind", SMALL)
@pytest.mark.parametrize("section", ["params", "grid"])
def test_unknown_key_exits_2_naming_it(tmp_path, capsys, kind, section):
    params, grid = (dict(raw) for raw in SMALL[kind])
    (params if section == "params" else grid)["no_such_key"] = "1"
    cfg = ScenarioConfig(kind=kind, params=params, grid=grid, output_dir=tmp_path)
    assert run(cfg) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: unknown") and "'no_such_key'" in err


@pytest.mark.parametrize("preset, section, typo, value", [
    ("ch3-beltran", "params", "amplitdue", "0.3"), ("ch4-coherent9", "grid", "tau_ponts", "5"),
    ("ch2-detection", "grid", "drive_point", "5"), ("ch2-cooling-Q1e4", "params", "Q_M", "1e4")])
def test_misspelt_key_exits_2_before_running(tmp_path, capsys, preset, section, typo, value):
    # a misspelt key used to run the scenario on the default of the key meant
    cfg = config_from_preset(preset, tmp_path)
    getattr(cfg, section)[typo] = value
    assert run(cfg) == EXIT_CONFIG
    assert f"unknown {cfg.kind.split('-')[0]} config key {typo!r}" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_missing_line_constant_names_the_key(tmp_path, capsys):
    params = {k: v for k, v in BELTRAN.items() if k != "I_c_A"}
    cfg = ScenarioConfig(kind="hawking-line", params=params, grid={}, output_dir=tmp_path)
    assert run(cfg) == EXIT_CONFIG
    assert capsys.readouterr().err == "config error: hawking config needs I_c_A\n"


def _bad_values(key):
    """Raw values the key table refuses for ``key``: a non-finite number or
    no number, a finite number out of its range (when it has one), a
    fractional count, an empty list or an unknown word."""
    _, ok = key.range
    if key.type in ("word", "words"):
        words = st.text("abcdefghijklmnopqrstuvwxyz-_", min_size=1, max_size=12)
        bad = words.filter(lambda word: not ok(word))
        return st.one_of(bad, st.just("")) if key.type == "words" else bad
    values = [st.sampled_from(["nan", "inf", "-inf", "1e400", "one"])]
    if not (ok(-1.0) and ok(1e300)):
        values.append(st.floats(-1e300, 1e300).filter(lambda x: not ok(x)).map(repr))
    if key.type == "count":
        values.append(st.floats(0.0, 1e6).filter(lambda x: x != int(x)).map(repr))
    if key.type == "floats":
        values.append(st.just(""))
    return st.one_of(values)


@pytest.mark.parametrize("kind, section, name", [
    (kind, section, name) for kind, tables in SCHEMAS.items()
    for section, keys in zip(("params", "grid"), tables) for name in keys])
@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_key_table_refusals_exit_2_naming_the_key(tmp_path, capsys, kind, section, name,
                                                 data):
    # generated from the key tables: every value a key's range refuses (and a
    # non-finite detuning_ratio, which the ratio-mode runner refuses) exits 2
    # naming the key, on a config that runs with every other key as given
    keys = SCHEMAS[kind][section == "grid"]
    value = data.draw(_bad_values(keys[name]), label=name)
    params, grid = (dict(raw) for raw in SMALL[kind])
    (params if section == "params" else grid)[name] = value
    cfg = ScenarioConfig(kind=kind, params=params, grid=grid, output_dir=tmp_path)
    capsys.readouterr()
    assert run(cfg) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith(f"config error: {name} must be")


def test_presets_and_bench_configs_pass_the_key_tables(monkeypatch):
    # every preset, and every benchmark workload config at seeds 0-5, uses only
    # table keys with values in range
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", Path(__file__).resolve().parents[1] / "bench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    configs = [(body["scenario"]["kind"], body["params"], body["grid"])
               for body in list_presets().values()]
    configs += [(sc.kind, sc.params, sc.grid) for name in workloads.WORKLOADS
                for seed in range(6) for sc in workloads.scenarios(name, seed)]
    assert len(configs) > 5 * 6
    for kind, params, grid in configs:
        for keys, raw in zip(SCHEMAS[kind], (params, grid)):
            checked(keys, raw, kind)


def test_readme_key_tables_follow_the_schema():
    # every key of every kind has a README row rendered from its table entry
    # (type, default, range, inert; the unit column is prose)
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    rows = {tuple(cell.strip() for cell in line.split("|")[1:-1])
            for line in readme.splitlines() if line.startswith("| `")}
    rows = {row[:2] + row[3:] for row in rows if len(row) == 6}
    for param_keys, grid_keys in SCHEMAS.values():
        for name, key in {**param_keys, **grid_keys}.items():
            default = (", ".join(map(str, key.default)) if isinstance(key.default, tuple)
                       else str(key.default))
            row = (f"`{name}`", key.type, default, key.range[0], "inert" if key.inert else "")
            assert row in rows, row


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


def _per_row_csv(header, rows):
    """The table writer formatting one tuple of cells per row: the reference
    for the one-operation writer."""
    lines = [",".join(header)]
    if len(rows):
        fmt = ",".join("%s" if isinstance(v, str) else "%.16e" for v in rows[0])
        lines += [fmt % tuple(row) for row in rows]
    return "\n".join(lines) + "\n"


def test_write_csv_matches_per_row_writer(tmp_path):
    rng = np.random.default_rng(7)
    array = rng.normal(size=(50, 4)) * 10.0 ** rng.integers(-300, 300, size=(50, 4))
    array[3] = [math.nan, math.inf, -math.inf, -0.0]
    mixed = [["tag", 3, np.float64(0.1), math.nan, ""],
             ["", -7, np.float64(-0.0), math.inf, "n_net_negative"],
             ["x y", 0, np.float64(1e-310), -math.inf, ""],
             ["z", 2 ** 53 + 1, -0.0, 1.0 / 3.0, "a,b"]]
    for header, rows in ((["a", "b", "c", "d"], array), (["a", "b", "c", "d", "e"], mixed)):
        path = tmp_path / "t.csv"
        _write_csv(path, header, rows)
        assert path.read_text() == _per_row_csv(header, rows)


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
def test_tau_grid_rejects_bad_tau_max(tmp_path, capsys, tau_max):
    cfg = ScenarioConfig(kind="trilinear-info", params={}, output_dir=tmp_path,
                         grid={"tau_max": tau_max, "tau_points": "3"})
    assert run(cfg) == EXIT_CONFIG
    assert "tau_max" in capsys.readouterr().err


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


def test_tiny_drive_noise_band_converges(tmp_path, capsys):
    # at 1e-6 I_bi, |b1|^2 - Re b1 in the noise bracket cancels terms of
    # order one; formed from delta = b1 - 1, the bracket leaves no round-off
    # for the band quadrature to chase past its panel budget (exit 4)
    cfg = config_from_preset("ch2-detection", tmp_path)
    cfg.grid.update(drive_min_ratio="1e-6")
    assert run(cfg) == EXIT_OK
    assert capsys.readouterr().err == ""
    text = (tmp_path / "ch2-detection_signal_noise.csv").read_text()
    rows = [line.split(",") for line in text.splitlines()[1:]]
    tiny = [row for row in rows if float(row[0]) == 1e-6]
    assert len(tiny) == 4  # three duffing detunings and the harmonic curve
    assert all(math.isfinite(float(row[5])) and float(row[5]) > 0.0 for row in tiny)


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


@pytest.mark.parametrize("preset, grid, table, occupations, n_weak", [
    ("ch2-cooling-Q1e4", {"drive_min_ratio": "1e-6", "drive_points": "3"}, "cooling",
     ("n_net", "n_back_plus"), 5),
    ("ch2-detection", {"detuning_ratios": "0", "drive_min_ratio": "1e-5",
                       "drive_max_ratio": "1e-4", "drive_points": "3"}, "signal_noise",
     ("n_back_plus",), 6),
    # the harmonic 1e-3 row: its probe sits 3e-9 below the bare damping and
    # its fit 1.3e-7 above it, so the inversion would divide by fit noise
    # (n_back_plus -3.9e6 without a gate)
    ("ch2-detection", {"detuning_ratios": "0", "drive_min_ratio": "1e-4",
                       "drive_max_ratio": "1e-3", "drive_points": "3"}, "signal_noise",
     ("n_back_plus",), 6),
], ids=["cooling", "signal-noise", "signal-noise-fit-against-probe"])
def test_weak_coupling_rows_name_their_gate(tmp_path, preset, grid, table, occupations,
                                            n_weak):
    # a drive too weak to move the +1 pole off the bare damping, or whose
    # fitted damping shift has the other sign than the pole probe's, leaves
    # no back-action damping to invert the noise with: its NaN occupations
    # are a named gate failure with one manifest warning per row, and the
    # fit (and the band spectra) of the row are kept
    cfg = config_from_preset(preset, tmp_path)
    cfg.grid.update(grid)
    assert run(cfg) == EXIT_OK
    header, *lines = (tmp_path / f"{preset}_{table}.csv").read_text().splitlines()
    rows = [dict(zip(header.split(","), line.split(","))) for line in lines]
    weak = [row for row in rows if row["gate_failure"] == "weak_coupling"]
    assert len(weak) == n_weak
    for row in rows:
        if any(math.isnan(float(row[key])) for key in occupations):
            assert row["gate_failure"]
    for row in weak:
        assert all(math.isnan(float(row[key])) for key in occupations)
        assert math.isfinite(float(row["R_gamma"]))
        assert table == "cooling" or float(row["signal_A2"]) > 0.0
    warnings_ = json.loads((tmp_path / f"{preset}_manifest.json").read_text())["warnings"]
    assert len(warnings_) == sum(1 for row in rows if row["gate_failure"])
    assert sum(w.endswith("weak_coupling") for w in warnings_) == len(weak)


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
    pump_mean = pump_mean_occupation(trilinear.PumpInitialState.coherent(1.0, 13))
    for line in lines[1:]:
        row = dict(zip(header, (float(x) for x in line.split(","))))
        assert row["Na_shorttime"] + row["Nb_shorttime"] == pytest.approx(pump_mean, abs=1e-12)


def test_trilinear_evolve_leak_gate_exits_before_propagating(tmp_path, monkeypatch, capsys):
    # the tail gate's own dimension leaves 1.977e-6 on the top pump level:
    # the full tier refuses the run at the first grid point
    def no_svd(*_, **__):
        raise AssertionError("a block was propagated before the leak gate")

    monkeypatch.setattr(np.linalg, "svd", no_svd)
    cfg = ScenarioConfig(
        kind="trilinear-evolve", params={"mean_occupation": "9", "dim_per_mode": "27"},
        grid={"tau_max": "3.0", "tau_points": "400"}, output_dir=tmp_path, label="gate")
    assert run(cfg) == EXIT_PHYSICS
    assert capsys.readouterr().err == ("physics validity error: truncation leak 1.977e-06 "
                                       "exceeds 1.0e-06; enlarge the pump dimension 27\n")


def test_trilinear_evolve_holds_one_block_at_a_time(tmp_path):
    # N_a = 100 (dim 155) over 100 tau: the trajectory C[tau, p, i] alone
    # would take 19.2 MB; both quantized tiers fold one conserved block at a
    # time into the pump and pair distributions instead
    cfg = ScenarioConfig(
        kind="trilinear-evolve", params={"mean_occupation": "100"},
        grid={"tau_max": "1.0", "tau_points": "100"}, output_dir=tmp_path, label="big")
    tracemalloc.start()
    try:
        assert run(cfg) == EXIT_OK
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6


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


def _bistability_ini(path, label=None, out_dir=None):
    """A small detector-bistability config file at path."""
    text = "[scenario]\nkind = detector-bistability\n"
    if label is not None:
        text += f"label = {label}\n"
    text += "[params]\n" + "".join(f"{k} = {v}\n" for k, v in CH2.items())
    text += "[grid]\npoints = 3\n"
    if out_dir is not None:
        text += f"[output]\ndir = {out_dir}\n"
    path.write_text(text)
    return path


def test_main_explicit_out_dot_overrides_the_config_dir(tmp_path, monkeypatch, capsys):
    # --out . is an explicit choice of the working directory; only an absent
    # --out falls back to the config's [output] dir
    config = _bistability_ini(tmp_path / "t.ini", out_dir="fromcfg")
    monkeypatch.chdir(tmp_path)
    assert main(["run", str(config), "--out", "."]) == EXIT_OK
    assert (tmp_path / "t_manifest.json").is_file()
    assert not (tmp_path / "fromcfg").exists()
    assert main(["run", str(config)]) == EXIT_OK
    assert (tmp_path / "fromcfg" / "t_manifest.json").is_file()


@pytest.mark.parametrize("label", ["o2/nodir/t", "sub/", "{tmp}/abs"],
                         ids=["nested", "trailing", "absolute"])
def test_label_with_a_path_separator_exits_2(tmp_path, monkeypatch, capsys, label):
    # the absolute label lies inside tmp_path, so a regression writes there
    config = _bistability_ini(tmp_path / "t.ini", label=label.format(tmp=tmp_path),
                              out_dir="o2")
    monkeypatch.chdir(tmp_path)
    assert main(["run", str(config)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: [scenario] label") and "Traceback" not in err
    assert list(tmp_path.iterdir()) == [config]


def _info_trajectory(tier, mean_occ, taus):
    """The info runner's trajectory C[tau, p, i] of one tier, assembled from
    the tier's block stream."""
    dim = fock.min_coherent_dim(mean_occ) + 3
    initial = trilinear.PumpInitialState.coherent(mean_occ, dim)
    run_tier = trilinear.short_time_state if tier == "short" else trilinear.full_state
    return assemble(run_tier(initial, taus), dim)


@pytest.mark.parametrize("tier, mean_occ", [("short", 3.0), ("short", 9.0),
                                            ("full", 3.0), ("full", 9.0)])
def test_info_diagnostics_match_dense_oracle(tier, mean_occ):
    # every column of the one-pass trajectory diagnostics against the dense
    # path at every tau: reduced density matrices from the full-grid state,
    # their eigenvalue entropies, the Uhlmann fidelity of rho_b against the
    # dense thermal reference, and the ladder-operator squeezing of rho_a
    taus = np.linspace(0.0, 3.0, 25)
    C = _info_trajectory(tier, mean_occ, taus)
    columns = np.column_stack(_info_diagnostics(np.zeros_like(C), blocks_of(C)))
    dim = C.shape[-1]
    spec = HilbertSpec((dim,) * 3)
    a, _, num = ladder_ops(dim)
    levels = np.arange(dim)
    for k, state in enumerate(C):
        psi = state_vector(state, spec)
        rho_a = partial_trace(psi, keep=[0])
        rho_b = partial_trace(psi, keep=[1])
        p_b = np.diag(rho_b.entries).real
        n_a, n_b = np.diag(rho_a.entries).real @ levels, p_b @ levels
        s_a, s_b = dense_von_neumann_entropy(rho_a), dense_von_neumann_entropy(rho_b)
        exp_a, exp_aa = expectation(rho_a, a), expectation(rho_a, a @ a)
        exp_n = expectation(rho_a, num).real
        dense = [n_b, fidelity(rho_b, thermal_density_matrix(n_b, dim)),
                 qinfo.thermal_entropy(n_b) - s_b, 2.0 * s_a, 2.0 * s_b - s_a,
                 2.0 * exp_n + 2.0 * exp_aa.real - 4.0 * exp_a.real ** 2,
                 2.0 * exp_n - 2.0 * exp_aa.real - 4.0 * exp_a.imag ** 2,
                 (2.0 * n_a + 1.0) - (2.0 * n_b + 1.0) ** 2]
        np.testing.assert_allclose(columns[k], dense, rtol=0, atol=1e-12)


def test_info_trace_gate_fires_on_one_tau_slice(tmp_path, monkeypatch):
    # a trajectory whose tau = 1 slice has norm 1.01: the per-tau trace check
    # raises ValueError, and the CLI maps it to the config exit code
    taus = np.linspace(0.0, 2.0, 5)
    C = _info_trajectory("short", 3.0, taus)
    C[2] *= 1.01
    with pytest.raises(ValueError, match="trace"):
        _info_diagnostics(np.zeros_like(C), blocks_of(C))
    monkeypatch.setattr(trilinear, "short_time_state",
                        lambda initial, tau: blocks_of(C))
    cfg = ScenarioConfig(
        kind="trilinear-info", params={"mean_occupations": "3", "tiers": "short"},
        grid={"tau_max": "2.0", "tau_points": "5"}, output_dir=tmp_path, label="bad")
    assert run(cfg) == EXIT_CONFIG


def test_bench_tracer_leaves_outputs_unchanged(tmp_path):
    # bench/tracer.py wraps every public function of the package; under it
    # the evolve preset and both info tiers still exit 0 and write the same
    # CSV bytes as an untraced run
    spec = importlib.util.spec_from_file_location(
        "bench_tracer", Path(__file__).resolve().parents[1] / "bench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    info = tmp_path / "info.ini"
    info.write_text("[scenario]\nkind = trilinear-info\n[params]\nmean_occupations = 1\n"
                    "tiers = short,full\n[grid]\ntau_max = 1.0\ntau_points = 3\n")

    def csv_bytes(out):
        assert main(["run", "--preset", "ch4-coherent9", "--out", str(out)]) == EXIT_OK
        assert main(["run", str(info), "--out", str(out)]) == EXIT_OK
        return {p.name: p.read_bytes() for p in sorted(out.glob("*.csv"))}

    plain = csv_bytes(tmp_path / "plain")
    with tracer.Tracer() as traced:
        assert csv_bytes(tmp_path / "traced") == plain
    assert len(plain) == 2 and "trilinear.full_state" in traced.summary()
