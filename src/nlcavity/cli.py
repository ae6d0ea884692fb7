"""Scenario runner: binds the physics modules to INI config files and
emits deterministic CSV tables plus a JSON run manifest.

Config format: flat key = value pairs under [scenario], [params], [grid],
[output]. Frequencies are given in Hz with an explicit _hz suffix and
converted to rad/s internally. Exit codes: 0 ok, 2 config error, 3
physics-validity error, 4 numerical-convergence error.
"""

from __future__ import annotations

import argparse
import configparser
import contextlib
import dataclasses
import functools
import json
import math
import sys
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import detector, fock, hawking, qinfo, trilinear
from .constants import TWO_PI
from .errors import (
    ConvergenceError,
    FitDegenerateError,
    NoBistabilityError,
    NoHorizonError,
    SingularFluxError,
    TruncationError,
)
from .presets import (SCHEMAS, build_detector_params, build_line_params, checked,
                      list_presets)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_PHYSICS = 3
EXIT_NUMERICS = 4


@dataclass
class ScenarioConfig:
    kind: str
    params: dict
    grid: dict
    output_dir: Path
    label: str = "run"
    warnings: list = field(default_factory=list)

    def __post_init__(self):
        if self.kind not in _RUNNERS:
            raise ValueError(f"unknown scenario kind {self.kind!r}")


def load_config(path: Path) -> ScenarioConfig:
    parser = configparser.ConfigParser()
    parser.optionxform = str  # keys are case-sensitive (unit suffixes)
    read = parser.read(path)
    if not read:
        raise ValueError(f"cannot read config {path}")
    if "scenario" not in parser or "kind" not in parser["scenario"]:
        raise ValueError("config must contain [scenario] kind = ...")
    out = Path(parser.get("output", "dir", fallback="."))
    label = parser.get("scenario", "label", fallback=Path(path).stem)
    # the label prefixes every artifact's file name inside the output dir
    if Path(label).name != label:
        raise ValueError(f"[scenario] label {label!r} must be a file name, without a "
                         "path separator")
    return ScenarioConfig(
        kind=parser["scenario"]["kind"],
        params=dict(parser["params"]) if "params" in parser else {},
        grid=dict(parser["grid"]) if "grid" in parser else {},
        output_dir=out,
        label=label,
    )


def config_from_preset(name: str, out_dir: Path) -> ScenarioConfig:
    catalog = list_presets()
    if name not in catalog:
        raise ValueError(f"unknown preset {name!r}; have {sorted(catalog)}")
    body = catalog[name]
    return ScenarioConfig(kind=body["scenario"]["kind"],
                          params=dict(body.get("params", {})),
                          grid=dict(body.get("grid", {})),
                          output_dir=Path(out_dir), label=name)


def _write_csv(path: Path, header, rows):
    """One table as CSV. A str column is written as is and any other with
    17 significant digits in scientific notation; the row format is built
    once, from the cell types of the first row, and the whole table is
    formatted in one operation on a flat list of Python scalars."""
    text = ",".join(header) + "\n"
    if len(rows):
        fmt = ",".join("%s" if isinstance(v, str) else "%.16e" for v in rows[0]) + "\n"
        cells = (rows.ravel().tolist() if isinstance(rows, np.ndarray)
                 else [v for row in rows for v in row])
        text += fmt * len(rows) % tuple(cells)
    path.write_text(text)


def _write_manifest(cfg: ScenarioConfig, resolved: dict, columns: dict, files: list):
    manifest = {
        "scenario": cfg.kind,
        "label": cfg.label,
        "params": cfg.params,
        "grid": cfg.grid,
        "resolved": resolved,
        "columns": columns,
        "warnings": cfg.warnings,
        "artifacts": files,
    }
    path = cfg.output_dir / f"{cfg.label}_manifest.json"
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True, default=str) + "\n")
    return path


@contextlib.contextmanager
def _params_range(family):
    """Blame a quantity taken out of floating-point range inside the block
    on the scenario's params: the builders and the detector onset read no
    grid key."""
    try:
        yield
    except ArithmeticError as exc:
        raise ValueError(f"the {family} params take a resolved quantity out of "
                         f"floating-point range ({exc})") from exc


# ---------------------------------------------------------------------------
# detector scenarios
# ---------------------------------------------------------------------------

def _detector_common(cfg, p):
    with _params_range("detector"):
        params = build_detector_params(p)
        K_eff = detector.effective_duffing(params)
        E_bi, dw_bi, I_bi = detector.bistability_onset(params)
        if not all(map(math.isfinite, (K_eff, E_bi, dw_bi, I_bi))):  # huge params reach inf
            raise OverflowError("K_eff or the bistability onset is not finite")
    resolved = {
        "gamma_pT": params.gamma_pT, "gamma_bm": params.gamma_bm,
        "K_eff": K_eff,
        "E_bi": E_bi, "delta_omega_bi": dw_bi, "I_bi": I_bi,
        "zero_point_m": detector.zero_point(params),
        "validity_gates": params.validity_gates(I_bi),
    }
    for gate, val in resolved["validity_gates"].items():
        if val > 0.2:
            cfg.warnings.append(f"validity gate {gate} = {val:.3g} is not << 1")
    return params, resolved


def _signal_noise_curve(cfg, label, params, r, dw, scale, drive_ratios, bath_T):
    """CSV rows of one detuning curve. One detector sweep resolves and fits
    every drive (mean field, gates, sideband fit), and one ``band_spectra``
    call integrates the band of every line that keeps its fit."""
    I_0s = drive_ratios * scale
    thermos = [th for (th,) in detector.thermo_sweep(params, dw, I_0s, [bath_T])]
    for x, th in zip(drive_ratios, thermos):
        if th.gate:
            cfg.warnings.append(f"{label} detuning {r}: drive {x:.3f} I_bi failed {th.gate}")
    spectra = (a.tolist() for a in detector.band_spectra(params, dw, I_0s, thermos, bath_T))
    return [[x, label, r, I_0, sig, noi, cav, noi / sig if sig > 0 else math.nan,
             th.R_omega, th.R_gamma, th.n_back_plus, th.lorentzian_residual, th.gate]
            for x, I_0, th, sig, noi, cav in zip(drive_ratios, I_0s, thermos, *spectra)]


def _run_detector_signal_noise(cfg: ScenarioConfig, p: dict, g: dict):
    params, resolved = _detector_common(cfg, p)
    I_bi = resolved["I_bi"]
    dw_bi = resolved["delta_omega_bi"]
    drive_ratios = np.linspace(g["drive_min_ratio"], g["drive_max_ratio"], g["drive_points"])

    curves = [("duffing", r) for r in g["detuning_ratios"]] + [("harmonic", 0.0)]
    harmonic = dataclasses.replace(params, K_d=0.0)
    _, _, I_bi_harm = detector.bistability_onset(harmonic)

    rows = []
    for label, r in curves:
        curve_params, scale = (harmonic, I_bi_harm) if label == "harmonic" else (params, I_bi)
        rows += _signal_noise_curve(cfg, label, curve_params, r, r * abs(dw_bi), scale,
                                    drive_ratios, g["bath_T_K"])

    header = ["I_over_Ibi", "curve", "detuning_ratio", "I_0_A", "signal_A2",
              "noise_A2", "caves_A2", "noise_to_signal", "R_omega", "R_gamma",
              "n_back_plus", "lorentzian_residual", "gate_failure"]
    return resolved, {"signal_noise": (header, rows)}


def _run_detector_bistability(cfg: ScenarioConfig, p: dict, g: dict):
    params, resolved = _detector_common(cfg, p)
    rows = [[r, *detector.bistability_boundary(params, float(r))]
            for r in np.linspace(g["ratio_min"], g["ratio_max"], g["points"])]
    header = ["detuning_over_detuning_bi", "I_lower_over_Ibi", "I_upper_over_Ibi"]
    return resolved, {"bistability": (header, rows)}


def _run_detector_cooling(cfg: ScenarioConfig, p: dict, g: dict):
    params, resolved = _detector_common(cfg, p)
    I_bi = resolved["I_bi"]
    if g["detuning_mode"] == "optimal-harmonic":
        detuning = -math.sqrt(params.omega_m ** 2 + params.gamma_pT ** 2)
    elif math.isfinite(g["detuning_ratio"]):
        detuning = g["detuning_ratio"] * resolved["delta_omega_bi"]
    else:
        raise ValueError(f"detuning_ratio must be finite in ratio mode, got "
                         f"{g['detuning_ratio']}")
    resolved["detuning"] = detuning
    I_grid = np.linspace(g["drive_min_ratio"], g["drive_max_ratio"], g["drive_points"]) * I_bi
    temps = g["bath_T_K"]
    rows = []
    for I_0, lines in zip(I_grid.tolist(), detector.thermo_sweep(params, detuning, I_grid,
                                                                 temps)):
        for T, th in zip(temps, lines):
            if th.gate:
                cfg.warnings.append(f"drive {I_0 / I_bi:.3f} I_bi, T={T}: {th.gate}")
            rows.append([I_0 / I_bi, T, th.n_net, th.R_omega, th.R_gamma, th.n_back_plus,
                         th.lorentzian_residual, th.gate])
    header = ["I_over_Ibi", "bath_T_K", "n_net", "R_omega", "R_gamma",
              "n_back_plus", "lorentzian_residual", "gate_failure"]
    return resolved, {"cooling": (header, rows)}


# ---------------------------------------------------------------------------
# hawking scenario
# ---------------------------------------------------------------------------

def _run_hawking_line(cfg: ScenarioConfig, p: dict, g: dict):
    with _params_range("hawking"):
        params = build_line_params(p)
    amplitude = p["amplitude_phi0"]
    rise = p.get("rise_scale_m")
    if rise is None:
        frac = p["gradient_rate_over_plasma"]
        target = frac * params.plasma_frequency(0.0) / TWO_PI
        if not 0.0 < target < math.inf:
            raise ValueError(f"gradient_rate_over_plasma must give a positive finite "
                             f"target rate, got {frac} ({target} Hz)")
        rise = hawking.rise_scale_for_gradient_rate(amplitude, params, target)
    pulse = hawking.TanhPulse(amplitude, rise)
    lo, hi = pulse.window
    if not math.isfinite(hi - lo):  # every grid over the window spans it
        raise ValueError(f"rise_scale_m {rise} overflows the pulse window of "
                         "+-12 rise scales")

    horizons = hawking.find_horizon(pulse, params)
    T_H = hawking.hawking_temperature(pulse, params, horizons[0])
    power = hawking.radiated_power(T_H)
    count = hawking.photons_per_pulse(T_H, params)
    if not all(map(math.isfinite, (T_H, power, count))):  # numpy scalars overflow to inf
        raise ValueError(f"rise_scale_m {rise} overflows the horizon gradient, T_H "
                         "or the power")

    gates = hawking.validity_report(pulse, params)
    resolved = {
        "C_J_F": params.C_J, "u_m_per_s": params.u,
        "c0flux_m_per_s": hawking.propagation_velocity(0.0, params),
        "rise_scale_m": rise, "horizons_m": horizons,
        "T_H_K": T_H, "power_W": power, "photons_per_pulse": count,
        "gates": gates,
    }
    if gates["Z_A_over_R_Q"] >= 1.0:
        cfg.warnings.append(f"impedance gate Z_A/R_Q = {gates['Z_A_over_R_Q']:.3g} >= 1")

    xi = np.linspace(*pulse.window, g["xi_points"])
    flux = pulse(xi)
    c = hawking.propagation_velocity(flux, params)
    g_tt, _, _ = hawking.metric_components(c, params)
    profile = (["xi_m", "flux_phi0", "c_m_per_s", "g_tt"],
               np.column_stack([xi, flux, c, g_tt]))
    summary = (["horizon_m", "T_H_K", "power_W", "photons_per_pulse",
                "Z_A_over_R_Q", "max_flux_ratio"],
               [[horizons[0], T_H, power, count,
                 gates["Z_A_over_R_Q"], gates["max_flux_ratio"]]])
    return resolved, {"profile": profile, "summary": summary}


# ---------------------------------------------------------------------------
# trilinear scenarios
# ---------------------------------------------------------------------------

def _pump_dim(mean_occ):
    """Fock levels per mode for a coherent pump: the tail gate's dimension
    plus a margin that keeps the signal/idler boundary clean."""
    return fock.min_coherent_dim(mean_occ) + 3


def _run_trilinear_evolve(cfg: ScenarioConfig, p: dict, g: dict):
    mean_occ = p["mean_occupation"]
    dim = p["dim_per_mode"] or _pump_dim(mean_occ)
    taus = np.linspace(0.0, g["tau_max"], g["tau_points"])
    initial = trilinear.PumpInitialState.coherent(mean_occ, dim)

    curve = trilinear.semiclassical_pump(mean_occ, taus)
    nb_semi = trilinear.semiclassical_occupation(curve)

    nb_param = trilinear.parametric_occupation(math.sqrt(mean_occ), taus)
    # both quantized tiers fold their blocks straight into p_a and p_b, so
    # no trajectory C[tau, p, i] is ever held
    short = trilinear.pair_state(trilinear.short_time_state(initial, taus), dim)
    full = trilinear.pair_state(trilinear.full_state(initial, taus), dim)
    rows = np.column_stack([taus, mean_occ - nb_param, nb_param, curve.N_a, nb_semi,
                            short.n_a, short.n_b, full.n_a, full.n_b, full.n_b,
                            full.pump_variance(), full.norm() - 1.0,
                            full.max_boundary_population()])
    header = ["tau", "Na_parametric", "Nb_parametric", "Na_semiclassical",
              "Nb_semiclassical", "Na_shorttime", "Nb_shorttime",
              "Na_full", "Nb_full", "Nc_full", "Na_var_residual",
              "norm_drift", "boundary_population"]
    resolved = {"dim_per_mode": dim, "beta_plus": curve.beta_plus,
                "beta_minus": curve.beta_minus, "modulus": curve.modulus}
    return resolved, {"evolve": (header, rows)}


def _info_diagnostics(C, blocks):
    """N_b and the seven info columns of a quantized tier's block stream, one
    value per tau. The blocks are written into the trajectory C[tau, p, i]
    (zeros on entry) and folded into the pair distributions on the same
    pass: the pump entropy comes from the Schmidt spectrum of C (the
    eigenvalues of rho_a = C C+), the signal's from its pair distribution
    p_b and the squeezing from C."""
    states = trilinear.pair_state(trilinear.written_into(C, blocks), C.shape[-1])
    p_b, n_a, n_b = states.p_b, states.n_a, states.n_b
    # checks both marginals to unit trace at every tau, before F relies on it
    i_abc, i_bc = qinfo.mutual_information_partitions(C, p_b)
    # rho_b and its thermal reference are diagonal: F is the Bhattacharyya sum
    q = qinfo.ThermalReference(n_b, p_b.shape[-1]).probabilities
    fid = np.sum(np.sqrt(p_b * q), axis=-1)
    if fid.max() > 1.0 + 1e-8:
        raise ValueError(f"fidelity {fid.max()} exceeds 1 beyond numerical slack")
    qp, qm = qinfo.squeezing_params(C)
    d_gap = qinfo.effective_dimension(n_a) - qinfo.effective_dimension(n_b) ** 2
    return (n_b, np.minimum(fid, 1.0), qinfo.information(p_b), i_abc, i_bc, qp, qm,
            d_gap)


def _run_trilinear_info(cfg: ScenarioConfig, p: dict, g: dict):
    taus = np.linspace(0.0, g["tau_max"], g["tau_points"])
    rows = []
    resolved = {"dims": {}}
    for mean_occ in p["mean_occupations"]:
        dim = _pump_dim(mean_occ)
        resolved["dims"][mean_occ] = dim
        initial = trilinear.PumpInitialState.coherent(mean_occ, dim)
        runs = {"short": trilinear.short_time_state, "full": trilinear.full_state}
        # both streams are made (and the full tier's leak gate read) first
        streams = [(tier, runs[tier](initial, taus)) for tier in runs if tier in p["tiers"]]
        for tier, blocks in streams:
            C = np.zeros((taus.size, dim, dim), dtype=initial.coefficients.dtype)
            rows += [[tau, mean_occ, tier, *cells]
                     for tau, *cells in zip(taus, *_info_diagnostics(C, blocks))]

    header = ["tau", "mean_occupation", "tier", "N_b", "fidelity",
              "information_nats", "I_a_bc", "I_b_c", "q_plus", "q_minus",
              "d_eff_gap"]
    return resolved, {"info": (header, rows)}


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------

_RUNNERS = {
    "detector-signal-noise": _run_detector_signal_noise,
    "detector-bistability": _run_detector_bistability,
    "detector-cooling": _run_detector_cooling,
    "hawking-line": _run_hawking_line,
    "trilinear-evolve": _run_trilinear_evolve,
    "trilinear-info": _run_trilinear_info,
}


def run(cfg: ScenarioConfig) -> int:
    """Execute one scenario; returns the process exit status.

    A runner returns (resolved, tables), tables an ordered {name: (header,
    rows)}. Each table is written to ``{label}_{name}.csv``, and the
    manifest's columns and artifacts come from the same tables, in order.
    """
    try:
        family = cfg.kind.split("-")[0]
        param_keys, grid_keys = SCHEMAS[cfg.kind]
        params = checked(param_keys, cfg.params, family)
        grid = checked(grid_keys, cfg.grid, family)
        cfg.output_dir.mkdir(parents=True, exist_ok=True)
        # numerical warnings of any runner go to the manifest, not stderr
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            resolved, tables = _RUNNERS[cfg.kind](cfg, params, grid)
        cfg.warnings.extend(str(w.message) for w in caught)
        paths = [cfg.output_dir / f"{cfg.label}_{name}.csv" for name in tables]
        for path, (header, rows) in zip(paths, tables.values()):
            _write_csv(path, header, rows)
    # physics gates first: several of them subclass ValueError
    except (SingularFluxError, NoBistabilityError, NoHorizonError,
            TruncationError) as exc:
        print(f"physics validity error: {exc}", file=sys.stderr)
        return EXIT_PHYSICS
    except (ConvergenceError, FitDegenerateError) as exc:
        print(f"numerical convergence error: {exc}", file=sys.stderr)
        return EXIT_NUMERICS
    except ArithmeticError as exc:  # a finite input overflowing, or an underflow to 0
        print(f"config error: the {family} params or the grid keys "
              f"{', '.join(SCHEMAS[cfg.kind][1])} take a resolved quantity out of "
              f"floating-point range ({type(exc).__name__})", file=sys.stderr)
        return EXIT_CONFIG
    except (ValueError, KeyError, TypeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    columns = {name: header for name, (header, _) in tables.items()}
    manifest = _write_manifest(cfg, resolved, columns, [str(p) for p in paths])
    print(f"wrote {len(paths)} artifact(s) + manifest {manifest}")
    return EXIT_OK


@functools.cache  # the CLI grammar, built on the first main() call (not at import)
def _parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="nlcavity",
                                 description="nonlinear-cavity scenario runner")
    sub = ap.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="run a scenario config or preset")
    runp.add_argument("config", nargs="?", help="path to INI config")
    runp.add_argument("--preset", help="preset name instead of a config file")
    runp.add_argument("--out", help="output directory (default: a config's [output] dir, "
                      "else the working directory)")
    sub.add_parser("presets", help="list available presets")
    return ap


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if args.command == "presets":
        for name, body in sorted(list_presets().items()):
            print(f"{name}: {body['scenario']['kind']}")
        return EXIT_OK
    try:  # the one other command, run
        if args.preset and args.config:
            raise ValueError("give a config path or --preset, not both")
        if args.preset:
            cfg = config_from_preset(args.preset, Path(args.out or "."))
        elif args.config:
            cfg = load_config(Path(args.config))
            if args.out is not None:
                cfg.output_dir = Path(args.out)
        else:
            raise ValueError("need a config path or --preset")
    except (ValueError, KeyError, configparser.Error) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return run(cfg)


if __name__ == "__main__":
    sys.exit(main())
