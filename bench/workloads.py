"""Seeded scenario configs for the five benchmark workloads.

Seed 0 runs exactly the configs named in the benchmark doc (the built-in
presets and the fixed info/horizon grids). Any other seed moves each scan
by a random fraction of one grid step and nudges the fixed levels
(detuning ratios, horizon amplitudes, rates and velocity ratios) by small
amounts, with the same point counts, so each pass does about the same work
on different inputs.

``cool`` is the exception: it runs the two presets unchanged at every seed.
Its known unphysical rows lie all along the drive scans, and shifted scans
gave 87 to 92 failing rows of 400 instead of 88, so the failure count would
depend on the seed; with fixed configs every run reports the same 88.

This module is pure standard library apart from reading the preset table
from ``nlcavity.presets`` when configs are generated.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("detect", "cool", "evolve", "info", "horizon")

# horizon grid: amplitude 0.1 never forms a horizon (exit 3, a named gate)
HORIZON_AMPLITUDES = (0.1, 0.2, 0.25, 0.3, 0.4)
HORIZON_RATES = (0.05, 0.1, 0.15, 0.2)
HORIZON_VELOCITY_RATIOS = (0.93, 0.95)

INFO_TAU = {"tau_max": "3.0", "tau_points": "121"}


@dataclass
class Scenario:
    """One INI config the workload runs through ``nlcavity run``."""

    label: str
    kind: str
    params: dict
    grid: dict = field(default_factory=dict)

    def ini_text(self) -> str:
        lines = ["[scenario]", f"kind = {self.kind}", f"label = {self.label}", ""]
        for section, body in (("params", self.params), ("grid", self.grid)):
            if body:
                lines.append(f"[{section}]")
                lines += [f"{k} = {v}" for k, v in body.items()]
                lines.append("")
        return "\n".join(lines)


def _num(x: float) -> str:
    return repr(float(x))


def _floats(text: str):
    return [float(tok) for tok in str(text).replace(",", " ").split()]


def _preset(name: str) -> Scenario:
    from nlcavity.presets import list_presets
    body = list_presets()[name]
    return Scenario(label=name, kind=body["scenario"]["kind"],
                    params=dict(body.get("params", {})),
                    grid=dict(body.get("grid", {})))


def _shift(rng, lo: float, hi: float, points: int):
    """The scan [lo, hi] moved by a random fraction of one step."""
    step = (hi - lo) / max(points - 1, 1)
    d = rng.uniform(-0.5, 0.5) * step
    return _num(lo + d), _num(hi + d)


def _detect(rng):
    sc = _preset("ch2-detection")
    if rng:
        g = sc.grid
        ratios = [r + rng.uniform(0.0, 0.01) for r in _floats(g["detuning_ratios"])]
        g["detuning_ratios"] = ", ".join(_num(r) for r in ratios)
        g["drive_min_ratio"], g["drive_max_ratio"] = _shift(
            rng, float(g["drive_min_ratio"]), float(g["drive_max_ratio"]),
            int(g["drive_points"]))
    return [sc]


def _cool(_rng):
    return [_preset(name) for name in ("ch2-cooling-Q1e4", "ch2-goodcavity-Q1000")]


def _tau_max(rng, tau_max: str, points: str) -> str:
    """tau_max moved by up to half a step of the tau grid."""
    step = float(tau_max) / (int(points) - 1)
    return _num(float(tau_max) + rng.uniform(-0.5, 0.5) * step)


def _evolve(rng):
    sc = _preset("ch4-coherent9")
    if rng:
        sc.grid["tau_max"] = _tau_max(rng, sc.grid["tau_max"], sc.grid["tau_points"])
    return [sc]


def _info(rng):
    grid = dict(INFO_TAU)
    if rng:
        grid["tau_max"] = _tau_max(rng, grid["tau_max"], grid["tau_points"])
    return [
        Scenario("info-short", "trilinear-info",
                 {"mean_occupations": "1, 3, 6, 9", "tiers": "short"}, dict(grid)),
        Scenario("info-full", "trilinear-info",
                 {"mean_occupations": "1, 3", "tiers": "full"}, dict(grid)),
    ]


def _horizon(rng):
    base = _preset("ch3-beltran")
    out = []
    for ia, amp in enumerate(HORIZON_AMPLITUDES):
        for ir, rate in enumerate(HORIZON_RATES):
            for iu, ratio in enumerate(HORIZON_VELOCITY_RATIOS):
                if rng:
                    amp_i = amp + rng.uniform(-0.002, 0.002)
                    rate_i = rate * rng.uniform(0.98, 1.02)
                    ratio_i = ratio + rng.uniform(-0.002, 0.002)
                else:
                    amp_i, rate_i, ratio_i = amp, rate, ratio
                params = dict(base.params, amplitude_phi0=_num(amp_i),
                              gradient_rate_over_plasma=_num(rate_i),
                              u_over_c0flux=_num(ratio_i))
                out.append(Scenario(f"hawking-a{ia}-r{ir}-u{iu}", base.kind,
                                    params, dict(base.grid)))
    return out


_BUILDERS = {"detect": _detect, "cool": _cool, "evolve": _evolve,
             "info": _info, "horizon": _horizon}


def scenarios(workload: str, seed: int) -> list[Scenario]:
    """The workload's configs for ``seed`` (seed 0: the reference configs)."""
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}; have {WORKLOADS}")
    rng = random.Random(f"{workload}:{seed}") if seed else None
    return _BUILDERS[workload](rng)


def write_configs(workload: str, seed: int, directory: Path) -> list[Path]:
    """Write the workload's INI files; returns their paths in run order."""
    directory.mkdir(parents=True, exist_ok=True)
    for old in directory.glob("*.ini"):
        old.unlink()
    paths = []
    for sc in scenarios(workload, seed):
        path = directory / f"{sc.label}.ini"
        path.write_text(sc.ini_text())
        paths.append(path)
    return paths
