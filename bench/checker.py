"""Correctness checker for one pass of a benchmark workload.

An operation is one output row, or one scenario run on ``horizon``. An
operation fails when

* its run exited other than 0 or 3 (exit 3 is a named physics gate), or
  wrote fewer or more rows than its grid asks for;
* a cell is NaN and the row names no gate;
* the row breaks its workload's invariant and no gate fired;
* with the seed-0 configs, an ungated row deviates from the committed seed reference by
  more than ``REF_RTOL`` relative to the reference column's scale.

Rows that are gated where the reference was ungated are not failures; they
count towards ``gated``. Failures are never filtered: the seed program's
unphysical cooling rows are reported as such.
"""

from __future__ import annotations

import csv
import json
import math
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

# Looser than the solvers' own targets (adaptive Simpson rel_tol 1e-8,
# RK45 rel_tol 1e-10), so a change of algorithm within those targets passes.
REF_RTOL = 1e-6
# Every PROFILE_STRIDE-th row of each hawking profile is kept in the reference.
PROFILE_STRIDE = 10

CAVES_SLACK = 1e-9       # noise >= caves * (1 - slack), as acceptance 4
LEAK_GATE = 1e-6         # evolve_full's own truncation leak gate
CONSERVATION_TOL = 1e-6  # relative to the initial N_a + N_b
INFO_FLOOR = -1e-12      # information and mutual informations
FIDELITY_SLACK = 1e-12
HEISENBERG_SLACK = 1e-8  # (1+q+)(1+q-) >= 1 - slack, as the qinfo tests

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# per table: the columns compared against the reference (solver diagnostics
# such as fit residuals, norm drift and boundary population are not compared;
# the invariants bound them instead)
COMPARED = {
    "signal_noise": ["I_over_Ibi", "curve", "detuning_ratio", "I_0_A", "signal_A2",
                     "noise_A2", "caves_A2", "noise_to_signal", "R_omega",
                     "R_gamma", "n_back_plus"],
    "cooling": ["I_over_Ibi", "bath_T_K", "n_net", "R_omega", "R_gamma",
                "n_back_plus"],
    "evolve": ["tau", "Na_parametric", "Nb_parametric", "Na_semiclassical",
               "Nb_semiclassical", "Na_shorttime", "Nb_shorttime", "Na_full",
               "Nb_full", "Nc_full", "Na_var_residual"],
    "info": ["tau", "mean_occupation", "tier", "N_b", "fidelity",
             "information_nats", "I_a_bc", "I_b_c", "q_plus", "q_minus",
             "d_eff_gap"],
    "summary": ["horizon_m", "T_H_K", "power_W", "photons_per_pulse",
                "Z_A_over_R_Q", "max_flux_ratio"],
    "profile": ["xi_m", "flux_phi0", "c_m_per_s", "g_tt"],
}
TABLE_OF_KIND = {
    "detector-signal-noise": "signal_noise",
    "detector-cooling": "cooling",
    "trilinear-evolve": "evolve",
    "trilinear-info": "info",
    "hawking-line": "summary",
}
STRING_COLUMNS = {"curve", "tier", "gate_failure", "label"}


@dataclass
class CheckResult:
    attempted: int = 0
    failed: int = 0
    gated: int = 0
    reasons: Counter = field(default_factory=Counter)
    problems: list = field(default_factory=list)  # make the pass incorrect

    @property
    def correct(self) -> bool:
        return not self.problems

    def counts(self) -> tuple:
        return self.attempted, self.failed, self.gated, dict(self.reasons)

    def merge(self, other: "CheckResult") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.gated += other.gated
        self.reasons.update(other.reasons)
        self.problems.extend(other.problems)


def _floats(text):
    return [float(tok) for tok in str(text).replace(",", " ").split()]


def expected_rows(kind: str, grid: dict, params: dict) -> int:
    """Rows the scenario's main table must hold (1 for a hawking run)."""
    if kind == "detector-signal-noise":
        curves = len(_floats(grid.get("detuning_ratios", "0, 0.2, 0.4"))) + 1
        return curves * int(float(grid.get("drive_points", 30)))
    if kind == "detector-cooling":
        return (int(float(grid.get("drive_points", 40)))
                * len(_floats(grid.get("bath_T_K", "0"))))
    if kind == "trilinear-evolve":
        return int(float(grid.get("tau_points", 400)))
    if kind == "trilinear-info":
        tiers = params.get("tiers", "short,full")
        n_tiers = ("short" in tiers) + ("full" in tiers)
        return (len(_floats(params.get("mean_occupations", "1, 3, 6, 9")))
                * int(float(grid.get("tau_points", 400))) * n_tiers)
    if kind == "hawking-line":
        return 1
    raise ValueError(f"unknown scenario kind {kind!r}")


def read_table(path: Path) -> list[dict]:
    """CSV rows as dicts; numeric cells become floats."""
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    for row in rows:
        for key, val in row.items():
            if key not in STRING_COLUMNS:
                row[key] = float(val)
    return rows


def _has_nan(row: dict) -> bool:
    return any(isinstance(v, float) and math.isnan(v) for v in row.values())


# ---------------------------------------------------------------------------
# invariants: each returns the name of the broken invariant, or None
# ---------------------------------------------------------------------------

def _detect_invariant(row, _first):
    if not row["signal_A2"] > 0.0:
        return "signal_not_positive"
    if row["noise_A2"] < row["caves_A2"] * (1.0 - CAVES_SLACK):
        return "noise_below_caves"
    return None


def _cool_invariant(row, _first):
    if row["n_net"] < 0.0:
        return "n_net_negative"
    if row["n_back_plus"] < -0.5:
        return "n_back_below_half"
    return None


def _evolve_invariant(row, first):
    if abs(row["norm_drift"]) >= LEAK_GATE:
        return "norm_drift"
    if row["boundary_population"] >= LEAK_GATE:
        return "boundary_leak"
    total0 = first["Na_full"] + first["Nb_full"]
    if abs(row["Na_full"] + row["Nb_full"] - total0) > CONSERVATION_TOL * total0:
        return "manley_rowe_ab"
    if abs(row["Nb_full"] - row["Nc_full"]) > CONSERVATION_TOL * total0:
        return "manley_rowe_bc"
    return None


def _info_invariant(row, _first):
    if not (0.0 <= row["fidelity"] <= 1.0 + FIDELITY_SLACK):
        return "fidelity_range"
    if min(row["information_nats"], row["I_a_bc"], row["I_b_c"]) < INFO_FLOOR:
        return "information_negative"
    if (1.0 + row["q_plus"]) * (1.0 + row["q_minus"]) < 1.0 - HEISENBERG_SLACK:
        return "heisenberg"
    return None


INVARIANTS = {
    "signal_noise": _detect_invariant,
    "cooling": _cool_invariant,
    "evolve": _evolve_invariant,
    "info": _info_invariant,
}


def check_rows(table: str, rows: list[dict], reference: dict | None = None,
               label: str = "") -> CheckResult:
    """Check the rows of one row-per-operation table.

    ``reference`` maps row index -> reference row (ungated rows only) for the
    same label; ``None`` skips the reference comparison.
    """
    res = CheckResult(attempted=len(rows))
    invariant = INVARIANTS[table]
    first = rows[0] if rows else None
    for i, row in enumerate(rows):
        if row.get("gate_failure"):
            res.gated += 1
            continue
        reason = "nan_ungated" if _has_nan(row) else invariant(row, first)
        if reason is None and reference is not None and i in reference:
            reason = _deviation(table, row, reference[i])
            if reason:
                res.problems.append(f"{label} row {i}: {reason}")
        if reason:
            res.failed += 1
            res.reasons[reason] += 1
    return res


def _deviation(table: str, row: dict, ref: dict):
    """Name of the first column deviating from the reference, or None."""
    scales = ref["__scale__"]
    for col in COMPARED[table]:
        want, got = ref[col], row[col]
        if col in STRING_COLUMNS:
            if got != want:
                return f"reference_{col}"
        elif not abs(got - want) <= REF_RTOL * (abs(want) + scales[col]):
            return f"reference_{col}"
    return None


# ---------------------------------------------------------------------------
# reference files
# ---------------------------------------------------------------------------

def reference_path(workload: str, table: str) -> Path:
    return REFERENCE_DIR / f"{workload}_{table}.csv"


def load_reference(workload: str, table: str) -> dict:
    """{label: {row index: row}}; every row carries the column scales
    (max |value| over the file) under ``__scale__``."""
    rows = read_table(reference_path(workload, table))
    numeric = [c for c in COMPARED[table] if c not in STRING_COLUMNS]
    scales = {c: max((abs(r[c]) for r in rows), default=0.0) for c in numeric}
    out: dict = {}
    for r in rows:
        r["__scale__"] = scales
        out.setdefault(r.pop("label"), {})[int(r.pop("row"))] = r
    return out


def reference_rows(table: str, label: str, rows: list[dict]) -> list[list]:
    """The ungated rows of one output table, as written to a reference file."""
    stride = PROFILE_STRIDE if table == "profile" else 1
    out = []
    for i, row in enumerate(rows):
        if i % stride or row.get("gate_failure"):
            continue
        out.append([label, i] + [row[c] if c in STRING_COLUMNS else f"{row[c]:.9e}"
                                 for c in COMPARED[table]])
    return out


# ---------------------------------------------------------------------------
# one pass of a workload
# ---------------------------------------------------------------------------

def check_pass(workload: str, runs, out_dir: Path, against_reference: bool) -> CheckResult:
    """Check every output of one pass.

    ``runs`` is a list of (Scenario, exit code) in run order.
    """
    total = CheckResult()
    refs = {}
    if against_reference:
        kinds = {TABLE_OF_KIND[sc.kind] for sc, _ in runs}
        for table in kinds | ({"profile"} if "summary" in kinds else set()):
            refs[table] = load_reference(workload, table)
    for sc, code in runs:
        table = TABLE_OF_KIND[sc.kind]
        n_expected = expected_rows(sc.kind, sc.grid, sc.params)
        if code not in (0, 3):
            total.merge(CheckResult(attempted=n_expected, failed=n_expected,
                                    reasons=Counter({f"exit_{code}": n_expected}),
                                    problems=[f"{sc.label}: exit {code}"]))
            continue
        if code == 3:
            total.merge(CheckResult(attempted=n_expected, gated=n_expected))
            continue
        if table == "summary":
            total.merge(_check_hawking(sc, out_dir, refs))
            continue
        rows = read_table(out_dir / f"{sc.label}_{table}.csv")
        res = check_rows(table, rows, refs[table].get(sc.label, {}) if refs else None,
                         sc.label)
        if len(rows) != n_expected:
            missing = max(n_expected - len(rows), 0)
            res.attempted = max(res.attempted, n_expected)
            res.failed += missing
            res.reasons["missing_rows"] += missing
            res.problems.append(f"{sc.label}: {len(rows)} rows, expected {n_expected}")
        total.merge(res)
    return total


def _check_hawking(sc, out_dir: Path, refs: dict) -> CheckResult:
    """One hawking run is one operation: summary invariants, no NaN in the
    summary or the profile, and (seed 0) agreement with the reference."""
    res = CheckResult(attempted=1)
    summary = read_table(out_dir / f"{sc.label}_summary.csv")
    profile = read_table(out_dir / f"{sc.label}_profile.csv")
    manifest = json.loads((out_dir / f"{sc.label}_manifest.json").read_text())
    rise = float(manifest["resolved"]["rise_scale_m"])
    n_profile = int(float(sc.grid.get("xi_points", 201)))
    reason = None
    if len(summary) != 1 or len(profile) != n_profile:
        reason = "missing_rows"
        res.problems.append(f"{sc.label}: {len(summary)} summary and "
                            f"{len(profile)} profile rows")
    elif any(_has_nan(r) for r in summary + profile):
        reason = "nan_ungated"
    else:
        row = summary[0]
        if not (math.isfinite(row["T_H_K"]) and row["T_H_K"] > 0.0):
            reason = "hawking_temperature"
        elif not (-12.0 * rise <= row["horizon_m"] <= 12.0 * rise):
            reason = "horizon_outside_window"
        elif refs:
            reason = _hawking_deviation(sc.label, summary, profile, refs)
            if reason:
                res.problems.append(f"{sc.label}: {reason}")
    if reason:
        res.failed = 1
        res.reasons[reason] += 1
    return res


def _hawking_deviation(label, summary, profile, refs):
    ref_summary = refs["summary"].get(label, {})
    if 0 in ref_summary:
        reason = _deviation("summary", summary[0], ref_summary[0])
        if reason:
            return reason
    for i, ref in refs["profile"].get(label, {}).items():
        reason = _deviation("profile", profile[i], ref)
        if reason:
            return f"{reason} (profile row {i})"
    return None
