import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockadechain.deviation import Scenario, scenario_deviation
from blockadechain.josephson import (
    JosephsonArraySpec,
    build_capacitance_matrix,
    decay_check,
    extract_couplings,
    invert_capacitance,
)
from blockadechain import InvariantViolation
from blockadechain.oracles import OperatorSum, PauliTerm, realize


def array_spec(n, eps, c0=1.0, gate_charges=None):
    # split c0 evenly between gate and junction capacitance
    return JosephsonArraySpec(
        n_boxes=n, c_g=c0 / 2, c_j=c0 / 2, c_c=eps * c0, gate_charges=gate_charges
    )


def tridiagonal_inverse(a):
    """Closed-form inverse of a symmetric tridiagonal matrix via the
    alpha/beta continuant recursions; independent of LAPACK."""
    n = a.shape[0]
    d = np.diag(a).copy()
    e = np.diag(a, 1).copy()
    alpha = np.zeros(n + 1)
    alpha[0], alpha[1] = 1.0, d[0]
    for i in range(2, n + 1):
        alpha[i] = d[i - 1] * alpha[i - 1] - e[i - 2] ** 2 * alpha[i - 2]
    beta = np.zeros(n + 2)
    beta[n + 1], beta[n] = 1.0, d[n - 1]
    for i in range(n - 1, 0, -1):
        beta[i] = d[i - 1] * beta[i + 1] - e[i - 1] ** 2 * beta[i + 2]
    det = alpha[n]
    inv = np.zeros((n, n))
    for i in range(1, n + 1):
        for j in range(i, n + 1):
            off = np.prod(e[i - 1 : j - 1]) if j > i else 1.0
            inv[i - 1, j - 1] = (-1) ** (i + j) * off * alpha[i - 1] * beta[j + 1] / det
            inv[j - 1, i - 1] = inv[i - 1, j - 1]
    return inv


def dct_inverse(n, eps, c0):
    """C^-1 = Q diag(1 / (c0 (1 + eps (2 - 2 cos(pi k / n))))) Q^T, with Q the
    orthonormal DCT-II basis that diagonalizes the path-graph Laplacian
    (G. Strang, SIAM Review 41(1), 1999); independent of LAPACK's inverse."""
    k = np.arange(n)
    q = np.cos(np.pi * np.outer(k + 0.5, k) / n) * np.sqrt(2.0 / n)
    q[:, 0] /= np.sqrt(2.0)
    lam = c0 * (1.0 + eps * (2.0 - 2.0 * np.cos(np.pi * k / n)))
    return (q / lam) @ q.T


# ---------------------------------------------------------------------------
# capacitance matrix

def test_two_box_matrix_with_edge_correction():
    spec = array_spec(2, 0.1)
    c = build_capacitance_matrix(spec)
    assert np.allclose(c, [[1.1, -0.1], [-0.1, 1.1]])


def test_decoupled_boxes_give_scaled_identity():
    spec = array_spec(4, 0.0, c0=2.0)
    assert np.allclose(build_capacitance_matrix(spec), 2.0 * np.eye(4))


def test_six_box_matrix_against_elementwise_oracle():
    spec = array_spec(6, 0.03, c0=1.5)
    c = build_capacitance_matrix(spec)
    c0, eps = 1.5, 0.03
    expected = np.zeros((6, 6))
    for i in range(6):
        for j in range(6):
            if i == j:
                expected[i, j] = c0 * (1 + eps) if i in (0, 5) else c0 * (1 + 2 * eps)
            elif abs(i - j) == 1:
                expected[i, j] = -c0 * eps
    assert np.allclose(c, expected)
    assert np.all(np.linalg.eigvalsh(c) > 0)


def test_spec_validation():
    with pytest.raises(ValueError):
        JosephsonArraySpec(1, 0.5, 0.5, 0.01)
    with pytest.raises(ValueError):
        JosephsonArraySpec(4, -0.5, 0.5, 0.01)
    with pytest.raises(ValueError):
        JosephsonArraySpec(4, 0.5, 0.5, 2.0)  # epsilon >= 1
    with pytest.warns(UserWarning, match="epsilon"):
        JosephsonArraySpec(4, 0.5, 0.5, 0.5)


def test_decay_regime_warning_names_the_caller():
    # the dataclass-generated __init__ sits between __post_init__ and the caller
    with pytest.warns(UserWarning, match="epsilon") as record:
        JosephsonArraySpec(4, 0.5, 0.5, 0.5)
    assert record[0].filename == __file__


# ---------------------------------------------------------------------------
# inversion

def test_diagonal_inverse_is_reciprocal():
    c = np.diag([2.0, 4.0, 5.0])
    assert np.allclose(invert_capacitance(c), np.diag([0.5, 0.25, 0.2]))


def test_two_box_adjugate_inverse():
    spec = array_spec(2, 0.1)
    inv = invert_capacitance(build_capacitance_matrix(spec))
    det = 1.1**2 - 0.1**2
    assert np.allclose(inv, np.array([[1.1, 0.1], [0.1, 1.1]]) / det, atol=1e-15)


def test_inverse_against_continuant_oracle():
    spec = array_spec(8, 0.01)
    c = build_capacitance_matrix(spec)
    inv = invert_capacitance(c)
    assert np.max(np.abs(inv - tridiagonal_inverse(c))) < 1e-12
    assert np.max(np.abs(c @ inv - np.eye(8))) < 1e-12
    assert np.max(np.abs(inv - inv.T)) == 0.0


def test_inverse_against_column_solve_oracle():
    spec = array_spec(8, 0.01)
    c = build_capacitance_matrix(spec)
    inv = invert_capacitance(c)
    columns = np.column_stack(
        [np.linalg.solve(c, np.eye(8)[:, k]) for k in range(8)]
    )
    assert np.max(np.abs(inv - columns)) < 1e-12


@settings(max_examples=60, deadline=None)
@given(
    st.integers(2, 120),
    st.floats(0.0, 0.1, exclude_min=True, exclude_max=True),
    st.floats(0.1, 10.0),
)
def test_inverse_against_dct_closed_form(n, eps, c0):
    spec = array_spec(n, eps, c0)
    inv = invert_capacitance(build_capacitance_matrix(spec))
    assert np.max(np.abs(inv - dct_inverse(n, spec.epsilon, spec.c0))) <= 1e-13 / spec.c0


@pytest.mark.parametrize("eps, c0", [(1e-4, 1.0), (0.02, 1.0), (0.099, 3.0)])
def test_large_inverse_against_dct_closed_form(eps, c0):
    spec = array_spec(300, eps, c0)
    inv = invert_capacitance(build_capacitance_matrix(spec))
    assert np.max(np.abs(inv - dct_inverse(300, spec.epsilon, spec.c0))) <= 1e-13 / spec.c0


def test_inverse_rejects_singular():
    with pytest.raises(ValueError, match="singular"):
        invert_capacitance(np.zeros((3, 3)))


def test_inverse_holds_two_matrices_beside_its_input():
    # C^{-1} and one residual temporary; C C^{-1} - I built out of place holds three
    n = 300
    c = build_capacitance_matrix(array_spec(n, 0.01))
    tracemalloc.start()
    try:
        invert_capacitance(c)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * n * n * 8


def test_inverse_residual_failure_is_an_invariant_violation():
    k = np.arange(8)
    hilbert = 1.0 / (k[:, None] + k[None, :] + 1.0)  # residual about 3e-7
    with pytest.raises(InvariantViolation, match="residual"):
        invert_capacitance(hilbert)


# ---------------------------------------------------------------------------
# decay of the inverse

def test_decay_ratios_in_band():
    spec = array_spec(8, 0.01)
    inv = invert_capacitance(build_capacitance_matrix(spec))
    ratios, in_band = decay_check(inv, spec.epsilon)
    assert in_band
    assert all(abs(r / 0.01 - 1) < 0.05 for r in ratios)
    assert len(ratios) >= 3


def test_decay_ratio_small_eps_limit():
    spec = array_spec(8, 1e-4)
    inv = invert_capacitance(build_capacitance_matrix(spec))
    ratios, in_band = decay_check(inv, spec.epsilon)
    assert in_band
    assert ratios[0] == pytest.approx(1e-4, rel=5e-4)


@pytest.mark.parametrize("n", [30, 60, 120, 300])
@pytest.mark.parametrize("eps", [1e-4, 1e-3, 0.01, 0.05])
def test_central_decay_ratios_match_exact_ratio(n, eps):
    # Away from the edges a row x of C^-1 solves -eps x[k-1] + (1 + 2 eps) x[k]
    # - eps x[k+1] = 0, so x decays by the smaller root of eps r^2 - (1 + 2 eps) r
    # + eps = 0: r = ((1 + 2 eps) - sqrt(1 + 4 eps)) / (2 eps), written here
    # without that form's cancellation, which costs up to 4e-9 at eps = 1e-4.
    spec = array_spec(n, eps)
    ratios, _ = decay_check(invert_capacitance(build_capacitance_matrix(spec)), spec.epsilon)
    r = 2.0 * spec.epsilon / ((1.0 + 2.0 * spec.epsilon) + np.sqrt(1.0 + 4.0 * spec.epsilon))
    assert len(ratios) >= 3
    assert np.max(np.abs(np.asarray(ratios[:3]) / r - 1.0)) <= 1e-13


def test_decay_needs_five_boxes():
    spec = array_spec(4, 0.01)
    inv = invert_capacitance(build_capacitance_matrix(spec))
    with pytest.raises(ValueError, match="five"):
        decay_check(inv, spec.epsilon)


# ---------------------------------------------------------------------------
# coupling extraction

def test_decoupled_array_has_zero_couplings():
    spec = array_spec(4, 0.0)
    report = extract_couplings(spec, invert_capacitance(build_capacitance_matrix(spec)))
    assert all(v == 0.0 for v in report.couplings_by_order.values())
    assert np.all(report.zz_matrix == 0.0)


@pytest.mark.parametrize("n", [2, 5, 40])
@pytest.mark.parametrize("units", ["reduced", "si"])
def test_zz_matrix_matches_pairwise_loop(n, units):
    # the upper-triangle fill by pairs, kept as the reference: same bytes
    spec = array_spec(n, 0.03) if units == "reduced" else JosephsonArraySpec(n, 0.5e-15, 0.5e-15, 0.03e-15)
    cinv = invert_capacitance(build_capacitance_matrix(spec))
    report = extract_couplings(spec, cinv, units=units)
    e2 = spec.c0 if units == "reduced" else (2 * 1.602176634e-19) ** 2
    expected = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            expected[i, j] = e2 * cinv[i, j] / 4.0
    assert report.zz_matrix.tobytes() == expected.tobytes()


def test_two_box_coupling_closed_form():
    # adjugate inverse off-diagonal eps/(1+2 eps) in units of 1/C0
    spec = array_spec(2, 0.1)
    report = extract_couplings(spec, invert_capacitance(build_capacitance_matrix(spec)))
    assert report.couplings_by_order[1] == pytest.approx(0.1 / (4 * 1.2), abs=1e-15)


def test_coupling_hierarchy_and_chain_emission():
    spec = array_spec(8, 0.01)
    report = extract_couplings(spec, invert_capacitance(build_capacitance_matrix(spec)))
    j = report.couplings_by_order
    assert j[2] / j[1] == pytest.approx(0.01, rel=0.05)
    values = [abs(j[k]) for k in sorted(j)]
    assert all(a > b for a, b in zip(values, values[1:]))  # strictly decreasing
    assert all(v > 0 for v in j.values())  # sign follows the inverse entries
    assert report.residual_bound == pytest.approx(abs(j[3]), rel=1e-12)
    chain = report.effective_chain
    assert chain.n_spins == 8
    assert chain.j1 == pytest.approx(j[1])
    assert chain.j2 == pytest.approx(j[2])


def test_quadratic_form_expansion_against_spin_matrix():
    # realize sum_ij (2e)^2/2 Cinv_ij (n_i - ng_i)(n_j - ng_j) directly with
    # n = (1 + Z)/2 occupation matrices and compare with the extracted terms
    rng = np.random.default_rng(3)
    n = 4
    ng = tuple(rng.uniform(0.2, 0.8, n))
    spec = array_spec(n, 0.05, gate_charges=ng)
    cinv = invert_capacitance(build_capacitance_matrix(spec))
    report = extract_couplings(spec, cinv)

    dim = 2**n
    number_ops = []
    for site in range(1, n + 1):
        z = realize(OperatorSum([PauliTerm(1.0, {site: "Z"})], n))
        number_ops.append((np.eye(dim) + z) / 2)
    e2 = spec.c0  # reduced units
    direct = np.zeros((dim, dim), dtype=complex)
    for i in range(n):
        for j in range(n):
            a = number_ops[i] - ng[i] * np.eye(dim)
            b = number_ops[j] - ng[j] * np.eye(dim)
            direct += e2 / 2 * cinv[i, j] * (a @ b)

    terms = []
    for i in range(n):
        for j in range(i + 1, n):
            terms.append(PauliTerm(report.zz_matrix[i, j], {i + 1: "Z", j + 1: "Z"}))
    for i in range(n):
        terms.append(PauliTerm(report.linear_coeffs[i], {i + 1: "Z"}))
    reconstructed = realize(OperatorSum(terms, n)) + report.constant * np.eye(dim)
    assert np.max(np.abs(direct - reconstructed)) < 1e-12


def test_linear_fields_vanish_at_degeneracy_point():
    spec = array_spec(6, 0.02)  # default gate charges 1/2
    report = extract_couplings(spec, invert_capacitance(build_capacitance_matrix(spec)))
    assert np.max(np.abs(report.linear_coeffs)) < 1e-15


def test_si_units_mode():
    spec = JosephsonArraySpec(2, 0.5e-15, 0.5e-15, 0.1e-15)
    report = extract_couplings(
        spec, invert_capacitance(build_capacitance_matrix(spec)), units="si"
    )
    e2 = (2 * 1.602176634e-19) ** 2
    expected = e2 / 4 * 0.1 / (1.2 * 1e-15)
    assert report.couplings_by_order[1] == pytest.approx(expected, rel=1e-12)
    with pytest.raises(ValueError, match="units"):
        extract_couplings(spec, invert_capacitance(build_capacitance_matrix(spec)), units="cgs")


def test_pipeline_consistency_with_deviation_module():
    spec = array_spec(8, 0.01)
    report = extract_couplings(spec, invert_capacitance(build_capacitance_matrix(spec)))
    j2 = report.effective_chain.j2
    direct = scenario_deviation(Scenario.IDLE, 4, j2, 0.8)
    via_chain = scenario_deviation(Scenario.IDLE, 4, report.effective_chain.j2, 0.8)
    assert direct.lower_bound == via_chain.lower_bound
    assert direct.exact_phase_opt == via_chain.exact_phase_opt
