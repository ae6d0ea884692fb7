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
    InstabilityError,
    NoBistabilityError,
    NoHorizonError,
    NonLorentzianError,
    SingularFluxError,
    StiffnessError,
    TruncationError,
)
from .presets import build_detector_params, build_line_params, list_presets

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
    return ScenarioConfig(
        kind=parser["scenario"]["kind"],
        params=dict(parser["params"]) if "params" in parser else {},
        grid=dict(parser["grid"]) if "grid" in parser else {},
        output_dir=out,
        label=parser.get("scenario", "label", fallback=Path(path).stem),
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


def _floats(text: str):
    """Comma- or space-separated numbers; an empty list is a config error."""
    values = [float(tok) for tok in str(text).replace(",", " ").split()]
    if not values:
        raise ValueError(f"expected a list of numbers, got {text!r}")
    return values


def _points(cfg, key: str, default: int) -> int:
    """Grid point count ``key``; an empty, unbounded or fractional count is a
    config error."""
    n = float(cfg.grid.get(key, default))
    if not (1.0 <= n < math.inf and n == int(n)):
        raise ValueError(f"{key} must be a finite whole count of at least 1, got {n}")
    return int(n)


def _finite(key: str, values, lowest: float = -math.inf):
    """``values`` of grid ``key``, each checked finite and >= ``lowest``."""
    if not all(math.isfinite(v) and v >= lowest for v in values):
        bound = "" if lowest == -math.inf else f" and at least {lowest}"
        raise ValueError(f"{key} must be finite{bound}, got {values}")
    return values


def _write_csv(path: Path, header, rows):
    """One table as CSV. A str column is written as is and any other with
    17 significant digits in scientific notation; the row format is built
    once, from the cell types of the first row."""
    lines = [",".join(header)]
    if len(rows):
        fmt = ",".join("%s" if isinstance(v, str) else "%.16e" for v in rows[0])
        lines += [fmt % tuple(row) for row in rows]
    path.write_text("\n".join(lines) + "\n")


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


# ---------------------------------------------------------------------------
# detector scenarios
# ---------------------------------------------------------------------------

def _drive_overflow(lo, hi, detuning):
    """The config error of a drive sweep that overflows the detector response."""
    return ValueError(f"the drive sweep of drive_min_ratio {lo} to drive_max_ratio {hi} "
                      f"at {detuning} overflows the detector response with these "
                      "detector params")


def _detector_common(cfg):
    params = build_detector_params(cfg.params)
    try:  # huge finite params overflow either as an exception or to inf
        K_eff = detector.effective_duffing(params)
        E_bi, dw_bi, I_bi = detector.bistability_onset(params)
        finite = all(map(math.isfinite, (K_eff, E_bi, dw_bi, I_bi)))
    except OverflowError:
        finite = False
    if not finite:
        raise ValueError("the detector params overflow the effective Duffing constant "
                         "or the bistability onset")
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
    """CSV rows of one detuning curve. Each drive is resolved on its own
    (mean field, gates, sideband fit); the band spectra of every point that
    passes its gates then come from one ``band_spectra`` call."""
    thermos = []
    for x in drive_ratios:
        drive = detector.DrivePoint(I_0=float(x) * scale, delta_omega=dw)
        try:
            thermos.append(detector.effective_thermo(params, drive, bath_T=bath_T))
        except (InstabilityError, NonLorentzianError) as exc:
            thermos.append(type(exc).__name__)
            cfg.warnings.append(
                f"{label} detuning {r}: drive {x:.3f} I_bi failed {thermos[-1]}")
    ok = [i for i, th in enumerate(thermos) if not isinstance(th, str)]
    spectra = {}
    if ok:
        wp = params.omega_T + dw
        sig, noi, cav = detector.band_spectra(
            params, dw, [float(drive_ratios[i]) * scale for i in ok],
            [thermos[i].chi for i in ok],
            [wp + thermos[i].R_omega * params.omega_m for i in ok],
            [2.0 * thermos[i].R_gamma * params.gamma_bm for i in ok], bath_T)
        spectra = dict(zip(ok, zip(sig.tolist(), noi.tolist(), cav.tolist())))
    rows = []
    for i, (x, th) in enumerate(zip(drive_ratios, thermos)):
        if isinstance(th, str):
            rows.append([x, label, r, x * scale] + [math.nan] * 8 + [th])
            continue
        sig, noi, cav = spectra[i]
        rows.append([x, label, r, x * scale, sig, noi, cav,
                     noi / sig if sig > 0 else math.nan, th.R_omega, th.R_gamma,
                     th.n_back_plus, th.lorentzian_residual, ""])
    return rows


def _run_detector_signal_noise(cfg: ScenarioConfig):
    params, resolved = _detector_common(cfg)
    I_bi = resolved["I_bi"]
    dw_bi = resolved["delta_omega_bi"]
    # every grid value is checked before any operating point is solved
    ratios = _finite("detuning_ratios",
                     _floats(cfg.grid.get("detuning_ratios", "0, 0.2, 0.4")))
    n_pts = _points(cfg, "drive_points", 30)
    lo, = _finite("drive_min_ratio", [float(cfg.grid.get("drive_min_ratio", 0.05))], 0.0)
    hi, = _finite("drive_max_ratio", [float(cfg.grid.get("drive_max_ratio", 0.95))], 0.0)
    bath_T = float(cfg.grid.get("bath_T_K", 0.0))
    drive_ratios = np.linspace(lo, hi, n_pts)

    curves = [("duffing", r) for r in ratios] + [("harmonic", 0.0)]
    harmonic = build_detector_params(dict(cfg.params, K_d="0"))
    _, _, I_bi_harm = detector.bistability_onset(harmonic)

    rows = []
    for label, r in curves:
        p, scale = (harmonic, I_bi_harm) if label == "harmonic" else (params, I_bi)
        try:
            rows += _signal_noise_curve(cfg, label, p, r, r * abs(dw_bi), scale,
                                        drive_ratios, bath_T)
        except OverflowError as exc:
            raise _drive_overflow(lo, hi, f"detuning_ratios {ratios}") from exc

    header = ["I_over_Ibi", "curve", "detuning_ratio", "I_0_A", "signal_A2",
              "noise_A2", "caves_A2", "noise_to_signal", "R_omega", "R_gamma",
              "n_back_plus", "lorentzian_residual", "gate_failure"]
    return resolved, {"signal_noise": (header, rows)}


def _run_detector_bistability(cfg: ScenarioConfig):
    params, resolved = _detector_common(cfg)
    lo, = _finite("ratio_min", [float(cfg.grid.get("ratio_min", 1.0))])
    hi, = _finite("ratio_max", [float(cfg.grid.get("ratio_max", 3.0))])
    n = _points(cfg, "points", 101)
    try:  # the boundary is a function of the ratio alone
        rows = [[r, *detector.bistability_boundary(params, float(r))]
                for r in np.linspace(lo, hi, n)]
    except OverflowError as exc:
        raise ValueError(f"ratio_min {lo} or ratio_max {hi} overflows the boundary") from exc
    header = ["detuning_over_detuning_bi", "I_lower_over_Ibi", "I_upper_over_Ibi"]
    return resolved, {"bistability": (header, rows)}


def _run_detector_cooling(cfg: ScenarioConfig):
    params, resolved = _detector_common(cfg)
    I_bi = resolved["I_bi"]
    dw_bi = resolved["delta_omega_bi"]
    # every grid value is checked before any drive is solved
    mode = cfg.grid.get("detuning_mode", "ratio")
    if mode == "optimal-harmonic":
        detuning = -math.sqrt(params.omega_m ** 2 + params.gamma_pT ** 2)
    elif mode == "ratio":
        ratio, = _finite("detuning_ratio", [float(cfg.grid.get("detuning_ratio", 1.3))])
        detuning = ratio * dw_bi
    else:
        raise ValueError(f"detuning_mode must be ratio or optimal-harmonic, got {mode!r}")
    resolved["detuning"] = detuning
    n_pts = _points(cfg, "drive_points", 40)
    lo, = _finite("drive_min_ratio", [float(cfg.grid.get("drive_min_ratio", 0.2))], 0.0)
    hi, = _finite("drive_max_ratio", [float(cfg.grid.get("drive_max_ratio", 1.2))], 0.0)
    temps = _floats(cfg.grid.get("bath_T_K", "0"))
    I_grid = np.linspace(lo, hi, n_pts) * I_bi

    try:
        all_rows = detector.cooling_curve(params, detuning, I_grid, temps)
    except OverflowError as exc:  # the drive and the detector params enter together
        raise _drive_overflow(lo, hi, f"detuning {detuning} rad/s") from exc
    rows = []
    for row in all_rows:
        if row["gate_failure"]:
            cfg.warnings.append(
                f"drive {row['I_0'] / I_bi:.3f} I_bi, T={row['bath_T']}: "
                f"{row['gate_failure']}")
        rows.append([row["I_0"] / I_bi, row["bath_T"], row["n_net"],
                     row["R_omega"], row["R_gamma"], row["n_back"],
                     row["residual"], row["gate_failure"]])
    header = ["I_over_Ibi", "bath_T_K", "n_net", "R_omega", "R_gamma",
              "n_back_plus", "lorentzian_residual", "gate_failure"]
    return resolved, {"cooling": (header, rows)}


# ---------------------------------------------------------------------------
# hawking scenario
# ---------------------------------------------------------------------------

def _run_hawking_line(cfg: ScenarioConfig):
    params = build_line_params(cfg.params)
    n = _points(cfg, "xi_points", 201)
    amplitude = float(cfg.params.get("amplitude_phi0", 0.2))
    if "rise_scale_m" in cfg.params:
        rise = float(cfg.params["rise_scale_m"])
    else:
        frac = float(cfg.params.get("gradient_rate_over_plasma", 0.1))
        target = frac * params.plasma_frequency(0.0) / TWO_PI
        rise = hawking.rise_scale_for_gradient_rate(amplitude, params, target)
    pulse = hawking.tanh_pulse(amplitude, rise)

    horizons = hawking.find_horizon(pulse, params)
    T_H = hawking.hawking_temperature(pulse, params, horizons[0])
    power = hawking.radiated_power(T_H)
    count = hawking.photons_per_pulse(T_H, params)

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

    xi = np.linspace(*pulse.window, n)
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

def _tau_grid(cfg):
    tau_max = float(cfg.grid.get("tau_max", 3.0))
    if not 0.0 < tau_max < math.inf:
        raise ValueError(f"tau_max must be positive and finite, got {tau_max}")
    return np.linspace(0.0, tau_max, _points(cfg, "tau_points", 400))


def _trilinear_setup(mean_occ, dim):
    initial = trilinear.PumpInitialState.coherent(mean_occ, dim)
    psi0 = trilinear.initial_product_state(initial, fock.HilbertSpec((dim, dim, dim)))
    return initial, psi0


def _run_trilinear_evolve(cfg: ScenarioConfig):
    mean_occ = float(cfg.params.get("mean_occupation", 9))
    # margin over the pump tail gate keeps the signal/idler boundary clean
    dim = int(float(cfg.params.get("dim_per_mode", 0))) or \
        fock.min_coherent_dim(mean_occ) + 3
    taus = _tau_grid(cfg)
    initial, psi0 = _trilinear_setup(mean_occ, dim)

    A = math.sqrt(mean_occ)
    curve = trilinear.semiclassical_pump(mean_occ, taus)
    nb_semi = trilinear.semiclassical_occupation(curve)

    nb_param = np.array([trilinear.parametric_occupation(A, float(t)) for t in taus])
    short = trilinear.short_time_state(initial, taus)
    columns = [taus, mean_occ - nb_param, nb_param, curve.N_a, nb_semi, short.n_a, short.n_b]
    del short  # freed before the full tier's trajectory of the same size is built
    full = trilinear.evolve_full(psi0, taus)
    rows = np.column_stack(columns + [full.n_a, full.n_b, full.n_b, full.pump_variance(),
                                      full.norm() - 1.0, full.max_boundary_population()])
    header = ["tau", "Na_parametric", "Nb_parametric", "Na_semiclassical",
              "Nb_semiclassical", "Na_shorttime", "Nb_shorttime",
              "Na_full", "Nb_full", "Nc_full", "Na_var_residual",
              "norm_drift", "boundary_population"]
    resolved = {"dim_per_mode": dim, "beta_plus": curve.beta_plus,
                "beta_minus": curve.beta_minus, "modulus": curve.modulus}
    return resolved, {"evolve": (header, rows)}


def _info_diagnostics(rho_a, p_b, n_a, n_b):
    # rho_b and its thermal reference are diagonal: F is the Bhattacharyya sum
    q = qinfo.ThermalReference(n_b, p_b.size).probabilities
    fid = float(np.sum(np.sqrt(p_b * q)))
    if fid > 1.0 + 1e-8:
        raise ValueError(f"fidelity {fid} exceeds 1 beyond numerical slack")
    info = qinfo.information(p_b)
    i_abc, i_bc = qinfo.mutual_information_partitions(rho_a, p_b)
    qp, qm = qinfo.squeezing_params(rho_a)
    d_gap = qinfo.effective_dimension(n_a) - qinfo.effective_dimension(n_b) ** 2
    return min(fid, 1.0), info, i_abc, i_bc, qp, qm, d_gap


def _run_trilinear_info(cfg: ScenarioConfig):
    means = _floats(cfg.params.get("mean_occupations", "1, 3, 6, 9"))
    taus = _tau_grid(cfg)
    tiers = [tok.strip() for tok in cfg.params.get("tiers", "short,full").split(",")]
    if not set(tiers) <= {"short", "full"}:
        raise ValueError(f"tiers must be a comma list of short, full; got {tiers}")
    rows = []
    resolved = {"dims": {}}
    for mean_occ in means:
        dim = fock.min_coherent_dim(mean_occ) + 3
        resolved["dims"][mean_occ] = dim
        initial, psi0 = _trilinear_setup(mean_occ, dim)
        trajectories = []
        if "short" in tiers:
            trajectories.append(("short", trilinear.short_time_state(initial, taus)))
        if "full" in tiers:
            trajectories.append(("full", trilinear.evolve_full(psi0, taus)))
        for tier, states in trajectories:
            n_a, n_b = states.n_a, states.n_b
            for k, tau in enumerate(taus):
                diag = _info_diagnostics(*states[k].reduced(), n_a[k], n_b[k])
                rows.append([tau, mean_occ, tier, n_b[k], *diag])

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
        if not cfg.grid and cfg.kind != "hawking-line":
            raise ValueError("empty grid section")
        cfg.output_dir.mkdir(parents=True, exist_ok=True)
        # numerical warnings of any runner go to the manifest, not stderr
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            resolved, tables = _RUNNERS[cfg.kind](cfg)
        cfg.warnings.extend(str(w.message) for w in caught)
        paths = [cfg.output_dir / f"{cfg.label}_{name}.csv" for name in tables]
        for path, (header, rows) in zip(paths, tables.values()):
            _write_csv(path, header, rows)
    # physics gates first: several of them subclass ValueError
    except (SingularFluxError, NoBistabilityError, NoHorizonError,
            TruncationError, InstabilityError, NonLorentzianError) as exc:
        print(f"physics validity error: {exc}", file=sys.stderr)
        return EXIT_PHYSICS
    except (ConvergenceError, StiffnessError, FitDegenerateError) as exc:
        print(f"numerical convergence error: {exc}", file=sys.stderr)
        return EXIT_NUMERICS
    except (ValueError, KeyError, TypeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    columns = {name: header for name, (header, _) in tables.items()}
    manifest = _write_manifest(cfg, resolved, columns, [str(p) for p in paths])
    print(f"wrote {len(paths)} artifact(s) + manifest {manifest}")
    return EXIT_OK


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="nlcavity",
                                 description="nonlinear-cavity scenario runner")
    sub = ap.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="run a scenario config or preset")
    runp.add_argument("config", nargs="?", help="path to INI config")
    runp.add_argument("--preset", help="preset name instead of a config file")
    runp.add_argument("--out", default=".", help="output directory")
    sub.add_parser("presets", help="list available presets")

    args = ap.parse_args(argv)
    if args.command == "presets":
        for name, body in sorted(list_presets().items()):
            print(f"{name}: {body['scenario']['kind']}")
        return EXIT_OK
    if args.command == "run":
        try:
            if args.preset:
                cfg = config_from_preset(args.preset, Path(args.out))
            elif args.config:
                cfg = load_config(Path(args.config))
                if args.out != ".":
                    cfg.output_dir = Path(args.out)
            else:
                raise ValueError("need a config path or --preset")
        except (ValueError, KeyError, configparser.Error) as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return EXIT_CONFIG
        return run(cfg)
    return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
