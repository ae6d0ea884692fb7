"""The checker flags a hand-corrupted row of each invariant kind."""

import math

import pytest

import checker


def _detect_row(**kw):
    row = {"I_over_Ibi": 0.1, "curve": "duffing", "detuning_ratio": 0.2,
           "I_0_A": 1e-9, "signal_A2": 2e-23, "noise_A2": 3e-22,
           "caves_A2": 2.9e-22, "noise_to_signal": 15.0, "R_omega": 1.0,
           "R_gamma": 0.99, "n_back_plus": 10.0, "lorentzian_residual": 1e-4,
           "gate_failure": ""}
    row.update(kw)
    return row


def _cool_row(**kw):
    row = {"I_over_Ibi": 0.5, "bath_T_K": 0.0, "n_net": 0.3, "R_omega": 1.0,
           "R_gamma": 2.0, "n_back_plus": 0.1, "lorentzian_residual": 1e-5,
           "gate_failure": ""}
    row.update(kw)
    return row


def _evolve_row(**kw):
    row = {"tau": 0.0, "Na_parametric": 9.0, "Nb_parametric": 0.0,
           "Na_semiclassical": 9.0, "Nb_semiclassical": 0.0,
           "Na_shorttime": 9.0, "Nb_shorttime": 0.0, "Na_full": 9.0,
           "Nb_full": 0.0, "Nc_full": 0.0, "Na_var_residual": 9.0,
           "norm_drift": 1e-13, "boundary_population": 1e-12}
    row.update(kw)
    return row


def _info_row(**kw):
    row = {"tau": 0.5, "mean_occupation": 3.0, "tier": "short", "N_b": 0.7,
           "fidelity": 0.99, "information_nats": 0.01, "I_a_bc": 0.5,
           "I_b_c": 0.4, "q_plus": 0.2, "q_minus": -0.1, "d_eff_gap": 1.0}
    row.update(kw)
    return row


CASES = [
    ("signal_noise", _detect_row, {"signal_A2": 0.0}, "signal_not_positive"),
    ("signal_noise", _detect_row, {"noise_A2": 2.0e-22}, "noise_below_caves"),
    ("cooling", _cool_row, {"n_net": -0.01}, "n_net_negative"),
    ("cooling", _cool_row, {"n_back_plus": -0.6}, "n_back_below_half"),
    ("evolve", _evolve_row, {"norm_drift": -2e-6}, "norm_drift"),
    ("evolve", _evolve_row, {"boundary_population": 2e-6}, "boundary_leak"),
    ("evolve", _evolve_row, {"Na_full": 8.9, "Nb_full": 0.0}, "manley_rowe_ab"),
    ("evolve", _evolve_row, {"Na_full": 8.0, "Nb_full": 1.0, "Nc_full": 0.9},
     "manley_rowe_bc"),
    ("info", _info_row, {"fidelity": 1.01}, "fidelity_range"),
    ("info", _info_row, {"fidelity": -0.01}, "fidelity_range"),
    ("info", _info_row, {"information_nats": -1e-9}, "information_negative"),
    ("info", _info_row, {"I_a_bc": -1e-9}, "information_negative"),
    ("info", _info_row, {"I_b_c": -1e-9}, "information_negative"),
    ("info", _info_row, {"q_plus": -0.5, "q_minus": 0.5}, "heisenberg"),
]


@pytest.mark.parametrize("table,make,corruption,reason", CASES)
def test_corrupted_row_fails(table, make, corruption, reason):
    good = make()
    bad = make(**corruption)
    res = checker.check_rows(table, [make(), good, bad])
    assert res.attempted == 3
    assert res.failed == 1
    assert res.reasons == {reason: 1}


@pytest.mark.parametrize("table,make", [("signal_noise", _detect_row),
                                        ("cooling", _cool_row),
                                        ("evolve", _evolve_row),
                                        ("info", _info_row)])
def test_nan_fails_unless_gated(table, make):
    rows = [make()]
    col = next(k for k, v in rows[0].items() if isinstance(v, float) and k != "tau")
    rows.append(make(**{col: math.nan}))
    res = checker.check_rows(table, rows)
    assert (res.failed, res.reasons) == (1, {"nan_ungated": 1})
    if "gate_failure" in rows[0]:
        rows[1]["gate_failure"] = "InstabilityError"
        res = checker.check_rows(table, rows)
        assert (res.failed, res.gated) == (0, 1)


def test_gated_rows_skip_the_invariant():
    res = checker.check_rows("cooling", [_cool_row(n_net=-1.0, gate_failure="NonLorentzianError")])
    assert (res.attempted, res.failed, res.gated) == (1, 0, 1)


def test_reference_deviation_is_a_failure_and_makes_the_pass_incorrect():
    ref_row = dict(_cool_row(), __scale__={c: 2.0 for c in checker.COMPARED["cooling"]})
    within = _cool_row(n_net=0.3 + 1e-7)
    beyond = _cool_row(n_net=0.3 + 1e-4)
    ok = checker.check_rows("cooling", [within], {0: ref_row}, "x")
    assert ok.failed == 0 and ok.correct
    bad = checker.check_rows("cooling", [beyond], {0: ref_row}, "x")
    assert bad.failed == 1 and bad.reasons == {"reference_n_net": 1}
    assert not bad.correct


def test_newly_gated_row_is_not_a_reference_failure():
    ref_row = dict(_cool_row(), __scale__={c: 2.0 for c in checker.COMPARED["cooling"]})
    gated = _cool_row(n_net=math.nan, gate_failure="InstabilityError")
    res = checker.check_rows("cooling", [gated], {0: ref_row}, "x")
    assert (res.failed, res.gated, res.correct) == (0, 1, True)


def test_crashed_run_fails_all_its_rows(workdir):
    import workloads
    sc = workloads.scenarios("detect", 0)[0]
    res = checker.check_pass("detect", [(sc, 4)], workdir, against_reference=False)
    assert res.attempted == res.failed == 120
    assert not res.correct
    gated = checker.check_pass("detect", [(sc, 3)], workdir, against_reference=False)
    assert (gated.failed, gated.gated, gated.correct) == (0, 120, True)


def test_hawking_run_checks(workdir):
    import workloads
    from nlcavity import cli
    sc = workloads.scenarios("horizon", 0)[10]
    ini = workloads.write_configs("horizon", 0, workdir / "cfg")[10]
    assert cli.main(["run", str(ini), "--out", str(workdir / "out")]) == 0
    res = checker.check_pass("horizon", [(sc, 0)], workdir / "out", against_reference=True)
    assert (res.attempted, res.failed, res.correct) == (1, 0, True)

    summary = workdir / "out" / f"{sc.label}_summary.csv"
    lines = summary.read_text().splitlines()
    cells = lines[1].split(",")
    cells[1] = "-1.0"  # T_H_K
    summary.write_text("\n".join([lines[0], ",".join(cells)]) + "\n")
    res = checker.check_pass("horizon", [(sc, 0)], workdir / "out", against_reference=False)
    assert res.reasons == {"hawking_temperature": 1}

    cells = lines[1].split(",")
    cells[0] = "1.0"  # horizon far outside the pulse window
    summary.write_text("\n".join([lines[0], ",".join(cells)]) + "\n")
    res = checker.check_pass("horizon", [(sc, 0)], workdir / "out", against_reference=False)
    assert res.reasons == {"horizon_outside_window": 1}
