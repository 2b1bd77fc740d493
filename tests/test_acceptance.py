"""Acceptance suite: one test per criterion, each printing PASS or FAIL.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the line per
criterion.  Criterion 2b is known-red: the measured small-t deviation
slope is exactly (n - 1) * J2, matching the analytic bound factor, so
slope(n)/n is not constant to 5 percent over n in 3..8 (see the module
tests for the law that does hold).
"""

import json
from pathlib import Path

import numpy as np
import pytest

from blockadechain.chain import ChainSpec
from blockadechain.cli import main as cli_main
from blockadechain.deviation import (
    Scenario,
    deviation_speed,
    scenario_deviation,
)
from blockadechain.blockade import pair_encoded_layout, single_spin_layout, verify_blockade_cancellation
from blockadechain.gates import compile_cphase, composite_pulse_parameters, logical_sigma_z, simulate_gate
from blockadechain.josephson import (
    JosephsonArraySpec,
    build_capacitance_matrix,
    decay_check,
    extract_couplings,
    invert_capacitance,
)
from blockadechain.oracles import (
    dense_tridiagonal,
    expm_unitary,
    full_chain_deviation,
    pulse_rotation,
    spectral_norm,
)

GATE_SPEC = ChainSpec(10, j1=1.0, j2=0.05, x1_max=0.5)
GATE_LAYOUT = pair_encoded_layout(2, 2)

N_RANGES = {
    Scenario.IDLE: range(2, 7),
    Scenario.SIGMA_Z: range(2, 7),
    Scenario.SIGMA_X: range(4, 7),
    Scenario.INTER_QUBIT: range(3, 7),
}
J2_VALUES = (0.005, 0.01, 0.05)


def report(number: str, ok: bool, detail: str) -> bool:
    print(f"[criterion {number}] {'PASS' if ok else 'FAIL'} — {detail}", flush=True)
    return ok


def test_criterion_01_bound_dominance():
    worst = np.inf
    points = 0
    for scenario, n_range in N_RANGES.items():
        for n in n_range:
            for j2 in J2_VALUES:
                for t in np.linspace(0.0, np.pi / (2 * j2 * n), 20):
                    res = scenario_deviation(scenario, n, j2, float(t))
                    worst = min(worst, res.exact_phase_opt - res.lower_bound)
                    points += 1
    ok = worst >= -1e-9
    assert report("01", ok, f"{points} grid points, min(exact - bound) = {worst:.3e}")


def test_criterion_02a_slope_doubles_with_coupling():
    worst = 0.0
    for n in range(3, 9):
        for j2 in (0.005, 0.01):
            ratio = deviation_speed(Scenario.IDLE, n, 2 * j2) / deviation_speed(Scenario.IDLE, n, j2)
            worst = max(worst, abs(ratio / 2.0 - 1.0))
    ok = worst <= 1e-6
    assert report("02a", ok, f"max relative error of slope(2 j2)/slope(j2) = 2: {worst:.3e}")


def test_criterion_02b_slope_over_n_constant():
    j2 = 0.01
    ratios = [deviation_speed(Scenario.IDLE, n, j2) / n for n in range(3, 9)]
    spread = (max(ratios) - min(ratios)) / np.mean(ratios)
    ok = spread <= 0.05
    detail = (
        f"slope(n)/n spread {spread:.1%} over n in 3..8 (measured slope is "
        f"J2*(n-1) exactly, so the /n normalization cannot be 5%-flat)"
    )
    assert report("02b", ok, detail)


def test_criterion_03_reduced_matches_full_chain():
    cases = {
        Scenario.IDLE: (2, 3, 4),
        Scenario.SIGMA_Z: (2, 3, 4),
        Scenario.SIGMA_X: (4,),
        Scenario.INTER_QUBIT: (3, 4),
    }
    worst = 0.0
    for scenario, ns in cases.items():
        for n in ns:
            for j2, t in ((0.01, 0.8), (0.05, 0.3)):
                res = scenario_deviation(scenario, n, j2, t)
                raw, opt = full_chain_deviation(scenario, n, j2, t)
                worst = max(worst, abs(res.exact_raw - raw), abs(res.exact_phase_opt - opt))
    ok = worst <= 1e-9
    assert report("03", ok, f"max |reduced - full| = {worst:.3e} for chains up to 9 spins")


def test_criterion_04_cphase_exactness():
    worst_fid, worst_leak, worst_phi = 1.0, 0.0, 0.0
    for tau in (0.1, 0.2, 0.4):
        rep = simulate_gate(GATE_SPEC, GATE_LAYOUT, compile_cphase(GATE_SPEC, tau, layout=GATE_LAYOUT))
        target = (4 * GATE_SPEC.j1 * tau) % (2 * np.pi)
        dphi = abs(rep.phase_phi - target)
        dphi = min(dphi, 2 * np.pi - dphi)
        ideal = np.diag([1.0, np.exp(1j * rep.phase_phi), 1.0, 1.0])
        assert np.max(np.abs(rep.logical_matrix - ideal)) < 1e-8
        worst_fid = min(worst_fid, rep.fidelity)
        worst_leak = max(worst_leak, rep.leakage)
        worst_phi = max(worst_phi, dphi)
    ok = worst_fid >= 1 - 1e-9 and worst_leak <= 1e-10 and worst_phi <= 1e-8
    assert report(
        "04",
        ok,
        f"fidelity >= {worst_fid:.12f}, leakage <= {worst_leak:.1e}, "
        f"|phi - 4 J1 tau| <= {worst_phi:.1e}",
    )


def test_criterion_05_compensation_necessity():
    tau = 0.2
    exact = simulate_gate(GATE_SPEC, GATE_LAYOUT, compile_cphase(GATE_SPEC, tau, layout=GATE_LAYOUT))
    naive = simulate_gate(
        GATE_SPEC, GATE_LAYOUT, compile_cphase(GATE_SPEC, tau, layout=GATE_LAYOUT, naive=True)
    )
    deficit_exact = 1 - exact.fidelity
    deficit_naive = 1 - naive.fidelity
    ok = deficit_naive >= 100 * deficit_exact
    assert report(
        "05",
        ok,
        f"naive deficit {deficit_naive:.3e} vs compensated {deficit_exact:.3e} "
        f"(ratio {deficit_naive / max(deficit_exact, 1e-300):.1e})",
    )


def test_criterion_06_composite_rotation_identity():
    rng = np.random.default_rng(606)
    target = -1j * np.array([[0.0, 1.0], [1.0, 0.0]])
    worst = 0.0
    for _ in range(50):
        x1 = rng.uniform(0.05, 2.0)
        j2 = rng.uniform(0.0, 1.5 * x1)
        p = composite_pulse_parameters(x1, 2 * j2)
        product = pulse_rotation(p.x1, j2) @ pulse_rotation(p.x2, j2) @ pulse_rotation(p.x1, j2)
        worst = max(worst, float(np.max(np.abs(product - target))))
    ok = worst <= 1e-12
    assert report("06", ok, f"max |R(X1)R(X2)R(X1) - exp(-i pi X/2)| = {worst:.3e} over 50 draws")


def test_criterion_07_blockade_cancellation():
    r1 = verify_blockade_cancellation(single_spin_layout(4), [1.0])
    r2 = verify_blockade_cancellation(pair_encoded_layout(2, 2), [1.0, 0.05])
    r3 = verify_blockade_cancellation(pair_encoded_layout(2, 2), [1.0, 0.05, 0.01])
    ok = abs(r1) < 1e-14 and abs(r2) < 1e-14 and r3 > 0
    assert report("07", ok, f"residuals: width-1 {r1}, width-2 {r2}, injected 3rd order {r3:.3e}")


def test_criterion_08_sigma_z_from_cphase():
    worst = 0.0
    for phi in (0.3, 0.7, 1.5):
        rep = simulate_gate(GATE_SPEC, GATE_LAYOUT, logical_sigma_z(GATE_SPEC, GATE_LAYOUT, 1, phi))
        target = np.diag([np.exp(2j * phi), np.exp(2j * phi), 1.0, 1.0])
        target = target / (target[0, 0] / abs(target[0, 0]))
        worst = max(worst, float(np.max(np.abs(rep.logical_matrix - target))))
    ok = worst <= 1e-8
    assert report("08", ok, f"max deviation from e^(i phi) e^(i Z phi) action: {worst:.3e}")


def test_criterion_09_josephson_decay():
    spec = JosephsonArraySpec(8, c_g=0.5, c_j=0.5, c_c=0.01)
    cmat = build_capacitance_matrix(spec)
    cinv = invert_capacitance(cmat)
    ratios, in_band = decay_check(cinv, spec.epsilon)
    ratio_dev = max(abs(r / spec.epsilon - 1) for r in ratios)
    inv_residual = float(np.max(np.abs(dense_tridiagonal(cmat) @ np.array([cinv.row(i) for i in range(8)]) - np.eye(8))))

    two = JosephsonArraySpec(2, c_g=0.5, c_j=0.5, c_c=0.1)
    rep = extract_couplings(two, invert_capacitance(build_capacitance_matrix(two)))
    expected = 0.1 / (4 * (1 + 2 * 0.1))  # adjugate inverse off-diagonal / 4
    coupling_err = abs(rep.couplings_by_order[1] - expected)

    ok = in_band and ratio_dev <= 0.05 and inv_residual <= 1e-12 and coupling_err < 1e-15
    assert report(
        "09",
        ok,
        f"decay ratios within {ratio_dev:.1%} of eps, C*Cinv residual {inv_residual:.1e}, "
        f"two-box coupling error {coupling_err:.1e}",
    )


def test_criterion_10_kernel_oracles(tmp_path):
    rng = np.random.default_rng(1010)

    def expm_taylor(a, terms=20):
        norm = np.linalg.norm(a, np.inf)
        s = max(0, int(np.ceil(np.log2(norm))) + 1) if norm > 0 else 0
        m = a / 2**s
        out = np.eye(a.shape[0], dtype=complex)
        term = np.eye(a.shape[0], dtype=complex)
        for k in range(1, terms + 1):
            term = term @ m / k
            out = out + term
        for _ in range(s):
            out = out @ out
        return out

    worst_expm = 0.0
    for _ in range(5):
        a = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        h = (a + a.conj().T) / 2
        u = expm_unitary(h, 0.37).matrix
        worst_expm = max(worst_expm, float(np.max(np.abs(u - expm_taylor(-1j * 0.37 * h)))))

    worst_norm = 0.0
    for _ in range(3):
        a = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        b = a.conj().T @ a
        best = 0.0
        for _ in range(2):
            x = rng.standard_normal(16) + 1j * rng.standard_normal(16)
            x /= np.linalg.norm(x)
            for _ in range(20000):
                y = b @ x
                x = y / np.linalg.norm(y)
            best = max(best, float(np.sqrt(np.real(x.conj() @ b @ x))))
        worst_norm = max(worst_norm, abs(spectral_norm(a) - best))

    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "scenario": "deviation-sweep",
                "parameters": {"n_min": 2, "n_max": 3, "j2": [0.01], "t_points": 5, "scenarios": ["idle"]},
            }
        ),
        encoding="utf-8",
    )
    out1, out2 = tmp_path / "run1.csv", tmp_path / "run2.csv"
    code1 = cli_main(["deviation-sweep", "--config", str(cfg), "--out", str(out1), "--seed", "7"])
    code2 = cli_main(["deviation-sweep", "--config", str(cfg), "--out", str(out2), "--seed", "7"])
    identical = code1 == code2 == 0 and Path(out1).read_bytes() == Path(out2).read_bytes()

    ok = worst_expm <= 1e-10 and worst_norm <= 1e-10 and identical
    assert report(
        "10",
        ok,
        f"expm vs Taylor {worst_expm:.1e}, spectral norm vs power iteration "
        f"{worst_norm:.1e}, CLI reruns byte-identical: {identical}",
    )
