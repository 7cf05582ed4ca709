"""Each benchmark check accepts the right answer and rejects a wrong one.

    python3 -m pytest bench/test_checks.py -q
"""

import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import checks  # noqa: E402
from checks import CheckFailed  # noqa: E402

NU = np.arange(0.5e6, 10e6 + 1.0, 30e3)
PARAMS = (-80.0, 0.6, 3e6)  # (s0_dbm, xi, delta_hz)


def csv(header, *columns, fmt="{:.12g}"):
    rows = [",".join(fmt.format(v) for v in row) for row in zip(*columns)]
    return "\n".join([header, *rows]) + "\n"


def test_check_fit_accepts_optimum_and_rejects_one_percent_off():
    rng = np.random.default_rng(0)
    y = checks.intensity_dbm(NU, *PARAMS) + rng.normal(0.0, 0.05, NU.size)
    for space in ("db", "linear"):
        ref = checks.reference_fit(NU, y, space, PARAMS)
        checks.check_fit(ref.params, ref)
        for i in range(3):
            for factor in (1.01, 1.0001):
                wrong = list(ref.params)
                wrong[i] *= factor
                with pytest.raises(CheckFailed):
                    checks.check_fit(tuple(wrong), ref)


def test_check_fit_noise_free_needs_the_truth():
    ref = checks.reference_fit(NU, checks.intensity_dbm(NU, *PARAMS), "db", PARAMS, noise_free=True)
    checks.check_fit(PARAMS, ref)
    with pytest.raises(CheckFailed):
        checks.check_fit((PARAMS[0], PARAMS[1], PARAMS[2] * (1 + 1e-5)), ref)
    moved_truth = dataclasses.replace(ref, truth=(PARAMS[0], PARAMS[1] + 2e-6, PARAMS[2]))
    with pytest.raises(CheckFailed, match="truth"):
        checks.check_fit(PARAMS, moved_truth)


def test_reference_fit_subtracts_the_floor_and_windows():
    floor_db = np.full(NU.size, PARAMS[0] - 12.0)
    y = 10 * np.log10(checks.dbm_to_mw(checks.intensity_dbm(NU, *PARAMS))
                      + checks.dbm_to_mw(floor_db))
    ref = checks.reference_fit(NU, y, "db", PARAMS, floor=(NU, floor_db), noise_free=True)
    assert ref.nu.min() >= checks.FIT_WINDOW_HZ[0]
    assert not np.any((ref.nu >= 3.8e6) & (ref.nu <= 4.0e6))
    checks.check_fit(PARAMS, ref)


def test_phase_csv_rejects_a_dropped_row(tmp_path):
    s0, xi, delta = PARAMS
    lines = ["frequency_hz,value,unit"] + [
        f"{f:.10g},{v:.12g},dbm" for f, v in zip(NU, checks.phase_dbm(NU, *PARAMS))]
    path = tmp_path / "p.csv"
    path.write_text("\n".join(lines) + "\n")
    checks.check_phase_csv(path, NU, PARAMS)
    with pytest.raises(CheckFailed):
        checks.check_phase_csv(path, NU, (s0, xi * 1.01, delta))
    path.write_text("\n".join(lines[:5] + lines[6:]) + "\n")
    with pytest.raises(CheckFailed):
        checks.check_phase_csv(path, NU, PARAMS)


def test_model_csv_rejects_dropped_row_and_shift():
    y = checks.intensity_dbm(NU, *PARAMS)
    checks.check_model_csv(csv("frequency_hz,power_dbm", NU, y), NU, *PARAMS)
    with pytest.raises(CheckFailed):
        checks.check_model_csv(csv("frequency_hz,power_dbm", NU[1:], y[1:]), NU, *PARAMS)
    with pytest.raises(CheckFailed):
        checks.check_model_csv(csv("frequency_hz,power_dbm", NU, y + 1e-6), NU, *PARAMS)


def test_noisy_model_csv_rejects_offset_and_wrong_spread():
    nu = np.arange(0.5e6, 10e6 + 1.0, 100.0)
    rng = np.random.default_rng(3)
    y = checks.intensity_dbm(nu, *PARAMS) + rng.normal(0.0, 0.05, nu.size)
    checks.check_noisy_model_csv(csv("frequency_hz,power_dbm", nu, y), nu, *PARAMS, 0.05)
    for bad in (y + 0.005, checks.intensity_dbm(nu, *PARAMS) + 1.1 * (y - checks.intensity_dbm(
            nu, *PARAMS))):
        with pytest.raises(CheckFailed):
            checks.check_noisy_model_csv(csv("frequency_hz,power_dbm", nu, bad), nu, *PARAMS, 0.05)


def test_spectra_csv_rejects_a_wrong_column():
    cols = [checks.intensity_dbm(NU, *PARAMS), checks.phase_dbm(NU, *PARAMS),
            np.full(NU.size, PARAMS[0])]
    header = "frequency_hz,intensity_dbm,phase_dbm,shot_noise_dbm"
    checks.check_spectra_csv(csv(header, NU, *cols), NU, *PARAMS)
    cols[1] = cols[1] + 1e-6
    with pytest.raises(CheckFailed):
        checks.check_spectra_csv(csv(header, NU, *cols), NU, *PARAMS)


def test_uncertainty_csv_needs_product_equal_one_plus_excess():
    u = np.array([1e-4, 1e-3, 0.125, 1.0])
    header = "u,s_intensity,s_phase,product,excess_over_1"
    for xi in (1.0, 0.7):
        s_x, s_p = checks.intensity_rel(u, xi), checks.phase_rel(u, xi)
        excess = xi * (1 - xi) / (u**2 * (1 + u**2))
        checks.check_uncertainty_csv(csv(header, u, s_x, s_p, 1 + excess, excess), u, xi)
    # The program's cancelling form at xi = 1 prints 0.99999999282 at u = 1e-4.
    s_x = 1.0 - 1.0 / (1.0 + u**2)
    s_p = checks.phase_rel(u, 1.0)
    with pytest.raises(CheckFailed, match="product"):
        checks.check_uncertainty_csv(csv(header, u, s_x, s_p, s_x * s_p, 0 * u), u, 1.0)


def test_limits_csv_rejects_one_wrong_entry():
    n = np.arange(11.0)
    cols = [n, np.sqrt(n), np.sqrt(2 * n * (n + 1)), np.sqrt(n), n]
    header = "n,dn_minus_single,dn_minus_twin,sqrt_n_reference,n_reference"
    checks.check_limits_csv(csv(header, *cols), 10)
    cols[2] = cols[2].copy()
    cols[2][7] *= 1 + 1e-9
    with pytest.raises(CheckFailed):
        checks.check_limits_csv(csv(header, *cols), 10)


def test_hom_json_tells_the_dichotomy_apart():
    indist = {"distribution": {"-2": 0.5, "2": 0.5}, "dn_minus": 2.0,
              "coincidence_probability": 0.0}
    dist = {"distribution": {"-2": 0.25, "0": 0.5, "2": 0.25}, "dn_minus": math.sqrt(2.0),
            "coincidence_probability": 0.5}
    checks.check_hom_json(json.dumps(indist), False)
    checks.check_hom_json(json.dumps(dist), True)
    with pytest.raises(CheckFailed):
        checks.check_hom_json(json.dumps(indist), True)
    with pytest.raises(CheckFailed):
        checks.check_hom_json(json.dumps(dict(indist, coincidence_probability=1e-9)), False)


def test_distribution_rejects_a_moved_bin():
    law = checks.binomial_difference(6)
    checks.check_distribution(dict(law), law)
    moved = dict(law)
    moved[0] -= law[2]
    moved[4] = moved[4] + moved.pop(2)
    with pytest.raises(CheckFailed):
        checks.check_distribution(moved, law)


def test_splitter_oracle_realises_the_stated_mode_maps():
    theta = 0.37
    for convention, (c, s) in (("symmetric_i", (math.cos(theta), 1j * math.sin(theta))),
                               ("rotation", (math.cos(theta), -math.sin(theta)))):
        u = checks.splitter_unitary(3, theta, convention)
        one_a = np.zeros(9, complex)
        one_a[1 * 3 + 0] = 1.0
        out = u @ one_a
        assert abs(out[3] - c) < 1e-12 and abs(out[1] - s) < 1e-12
    checks.check_distribution(checks.pair_joint(1, 1, "rotation"), {(2, 0): 0.5, (0, 2): 0.5},
                              1e-15)


def test_twin_fock_checks_parity_variance_and_coincidence():
    for n in (1, 2, 5):
        joint = checks.pair_joint(n, n, "symmetric_i")
        law = checks.difference_law(joint)
        _, var = checks.moments(law)
        checks.check_twin_fock(n, law, var, checks.coincidence_of(joint))
        with pytest.raises(CheckFailed):
            checks.check_twin_fock(n, law, var * (1 + 1e-9), checks.coincidence_of(joint))
        with pytest.raises(CheckFailed):
            checks.check_twin_fock(n, law, var, checks.coincidence_of(joint) + 1e-9)
    law = checks.difference_law(checks.pair_joint(2, 2, "rotation"))
    law[-2] = law.get(-2, 0.0) + 1e-6  # n_c = 1: odd
    with pytest.raises(CheckFailed, match="odd"):
        checks.check_twin_fock(2, law, checks.moments(law)[1], 1 - 2 * 6 / 16)


def test_single_port_fock_and_norm():
    n = 7
    law = checks.binomial_difference(n)
    checks.check_single_port_fock(n, law, float(n), 1 - 2.0 ** (1 - n))
    with pytest.raises(CheckFailed):
        checks.check_single_port_fock(n, law, n * (1 + 1e-10), 1 - 2.0 ** (1 - n))
    checks.check_state_norm(np.array([0.6, 0.8j]))
    with pytest.raises(CheckFailed, match="norm"):
        checks.check_state_norm(np.array([0.6, 0.8j]) * (1 + 1e-10))
    checks.check_state_norm(np.diag([0.25, 0.75]))


def test_distinguishable_law_is_a_binomial_convolution():
    law = checks.difference_law(checks.distinguishable_joint(2, 3))
    checks.check_distribution(law, checks.convolve(checks.binomial_difference(2),
                                                   checks.binomial_difference(3)))


def test_coherent_cross_check_rejects_one_percent():
    alpha = 0.8 * np.exp(0.3j)
    std = math.sqrt(2.0) * abs(alpha)
    checks.check_coherent_cross_check(alpha, [std] * 3, [std] * 3, 1e-15, 16)
    with pytest.raises(CheckFailed):
        checks.check_coherent_cross_check(alpha, [std, std * 1.01, std], [std] * 3, 1e-15, 16)
    with pytest.raises(CheckFailed):
        checks.check_coherent_cross_check(alpha, [std] * 3, [std * 1.01] * 3, 1e-15, 16)


def test_twin_mixture_rejects_wrong_variance():
    w = np.array([0.1, 0.2, 0.3, 0.4])
    var = float(np.dot(w, 2 * np.arange(4) * (np.arange(4) + 1)))
    coinc = sum(w[k] * (1 - 2 * math.comb(2 * k, k) / 4**k) for k in range(1, 4))
    checks.check_twin_mixture(w, var, 0.0, coinc)
    with pytest.raises(CheckFailed):
        checks.check_twin_mixture(w, var * 1.01, 0.0, coinc)


def test_squeezing_report():
    s0, xi, delta = PARAMS
    raw = 10 * math.log10(1 - xi)
    floor_mw = 0.05 * 10 ** (s0 / 10)
    corrected = 10 * math.log10(1 - xi - 0.05)
    checks.check_squeezing(raw, None, delta, PARAMS)
    checks.check_squeezing(raw, corrected, delta, PARAMS, floor_mw)
    with pytest.raises(CheckFailed):
        checks.check_squeezing(raw * 1.01, None, delta, PARAMS)
    with pytest.raises(CheckFailed):
        checks.check_squeezing(raw, corrected + 0.01, delta, PARAMS, floor_mw)
    with pytest.raises(CheckFailed):
        checks.check_squeezing(raw, corrected, delta, PARAMS)


def test_metric_tables_match_benchmark_json():
    import run
    import tracing

    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    for key, table in (("end_to_end", run.E2E_METRICS), ("per_layer", tracing.LAYER_METRICS)):
        assert {m["name"]: (m["unit"], m["better"]) for m in spec[key]} == table
    import workloads

    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", ["cli_cold", "fit_batch", "fock_twin", "fock_multimode"])
def test_cycle_make_up_does_not_depend_on_the_seed(name, tmp_path):
    import workloads

    kind = workloads.WORKLOADS[name]
    make_up = [sorted((op.kind, op.fault) for op in kind(seed, tmp_path, False, {}).cycle())
               for seed in (1, 2)]
    assert make_up[0] == make_up[1]


def test_poisson_tail():
    assert checks.poisson_tail(2.0, 3) == pytest.approx(1 - 19 / 3 * math.exp(-2.0), rel=1e-12)
