import math
import sys
import tracemalloc
import warnings
from array import array
from fractions import Fraction
from itertools import repeat

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
from blockadechain import InvariantViolation, _inverse
from blockadechain.oracles import (
    OperatorSum,
    PauliTerm,
    closed_form_fill,
    dense_tridiagonal,
    lapack_inverse,
    realize,
)


def array_spec(n, eps, c0=1.0, gate_charges=None):
    # split c0 evenly between gate and junction capacitance
    return JosephsonArraySpec(
        n_boxes=n, c_g=c0 / 2, c_j=c0 / 2, c_c=eps * c0, gate_charges=gate_charges
    )


def as_matrix(inv):
    """The n x n numpy array of C^{-1}, built from its rows."""
    return np.array([np.frombuffer(inv.row(i), dtype=float) for i in range(inv.n)])


def continuant_inverse(diag, off):
    """Closed-form inverse of a symmetric tridiagonal matrix via the
    alpha/beta continuant recursions, in the arithmetic of its entries
    (floats, or Fractions for the exact inverse); independent of LAPACK."""
    n = len(diag)
    alpha = [1, diag[0]]
    for i in range(2, n + 1):
        alpha.append(diag[i - 1] * alpha[i - 1] - off[i - 2] ** 2 * alpha[i - 2])
    beta = [0] * (n + 2)
    beta[n + 1], beta[n] = 1, diag[n - 1]
    for i in range(n - 1, 0, -1):
        beta[i] = diag[i - 1] * beta[i + 1] - off[i - 1] ** 2 * beta[i + 2]
    inv = [[0] * n for _ in range(n)]
    for i in range(1, n + 1):
        sign_prod = 1  # (-1)^(i+j) times the off-diagonal entries i..j-1
        for j in range(i, n + 1):
            if j > i:
                sign_prod *= -off[j - 2]
            inv[i - 1][j - 1] = inv[j - 1][i - 1] = sign_prod * alpha[i - 1] * beta[j + 1] / alpha[n]
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
    assert [type(v).__name__ for v in c] == ["array", "array"]
    assert np.allclose(dense_tridiagonal(c), [[1.1, -0.1], [-0.1, 1.1]])


def test_decoupled_boxes_give_scaled_identity():
    spec = array_spec(4, 0.0, c0=2.0)
    assert np.allclose(dense_tridiagonal(build_capacitance_matrix(spec)), 2.0 * np.eye(4))


def test_six_box_matrix_against_elementwise_oracle():
    spec = array_spec(6, 0.03, c0=1.5)
    c = dense_tridiagonal(build_capacitance_matrix(spec))
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
    # C's interior diagonal C_0 (1 + 2 epsilon) must be a finite float, and so must C_0
    for c_g, c_c in ((1e308, 0.0), (8e307, 1.6e307)):
        with pytest.raises(ValueError, match=r"^c_g \+ c_j = .* is too large: C's diagonal"):
            JosephsonArraySpec(4, c_g, c_g, c_c)
    diag, _ = build_capacitance_matrix(JosephsonArraySpec(4, 8e307, 8e307, 8e306))
    assert all(map(math.isfinite, diag))
    # a non-finite capacitance is named, not taken for a C_0 that is too large
    for k, name in enumerate(("c_g", "c_j", "c_c")):
        for bad in (math.nan, math.inf, -math.inf):
            values = [0.5, 0.5, 0.01]
            values[k] = bad
            with pytest.raises(ValueError, match=f"^{name} must be finite$"):
                JosephsonArraySpec(4, *values)
    # a non-finite gate charge would give infinite linear fields
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="^gate_charges must be finite$"):
            JosephsonArraySpec(4, 0.5, 0.5, 0.01, gate_charges=(0.5, bad, 0.5, 0.5))
    # 1 / C_0 bounds every |C^-1_ij|, so a C_0 whose reciprocal overflows is refused
    # before the inversion; a C_0 whose reciprocal is near the float maximum is admitted
    for c_c in (0.0, 1e-310):
        with pytest.raises(ValueError, match=r"^c_g \+ c_j = 2e-310 is too small: its reciprocal overflows$"):
            JosephsonArraySpec(4, 1e-310, 1e-310, c_c)
    tiny = 1.0 / sys.float_info.max
    assert 1.0 / JosephsonArraySpec(4, tiny, tiny, 0.0).c0 < math.inf


def test_decay_regime_warning_names_the_caller():
    # stacklevel points past JosephsonArraySpec.__init__ to the line that built the spec
    with pytest.warns(UserWarning, match="epsilon") as record:
        JosephsonArraySpec(4, 0.5, 0.5, 0.5)
    assert record[0].filename == __file__


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: JosephsonArraySpec(4, 0.5, 0.5, -0.01), "coupling capacitance must be nonnegative"),
        (lambda: JosephsonArraySpec(4, 0.5, 0.5, 0.01, gate_charges=(0.5,)), "gate_charges length must equal n_boxes"),
        # two diagonal entries and two off-diagonal ones: not the halves of a square matrix
        (lambda: invert_capacitance(([1.0, 1.0], [0.1, 0.1])), "capacitance matrix must be square"),
        (lambda: extract_couplings(JosephsonArraySpec(4, 0.5, 0.5, 0.01),
                                   invert_capacitance(build_capacitance_matrix(JosephsonArraySpec(3, 0.5, 0.5, 0.01)))),
         "inverse matrix size does not match the array"),
    ],
)
def test_josephson_guards(build, message):
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == message


# ---------------------------------------------------------------------------
# inversion

def test_diagonal_inverse_is_reciprocal():
    inv = invert_capacitance(([2.0, 4.0, 5.0], [0.0, 0.0]))
    assert np.allclose(as_matrix(inv), np.diag([0.5, 0.25, 0.2]))


def test_two_box_adjugate_inverse():
    spec = array_spec(2, 0.1)
    inv = invert_capacitance(build_capacitance_matrix(spec))
    det = 1.1**2 - 0.1**2
    assert np.allclose(as_matrix(inv), np.array([[1.1, 0.1], [0.1, 1.1]]) / det, atol=1e-15)


def test_inverse_against_continuant_oracle():
    spec = array_spec(8, 0.01)
    c = build_capacitance_matrix(spec)
    inv = as_matrix(invert_capacitance(c))
    assert np.max(np.abs(inv - np.array(continuant_inverse(*c)))) < 1e-12
    assert np.max(np.abs(dense_tridiagonal(c) @ inv - np.eye(8))) < 1e-12
    assert np.max(np.abs(inv - inv.T)) == 0.0


def test_inverse_against_column_solve_oracle():
    spec = array_spec(8, 0.01)
    c = build_capacitance_matrix(spec)
    inv = as_matrix(invert_capacitance(c))
    columns = np.column_stack(
        [np.linalg.solve(dense_tridiagonal(c), np.eye(8)[:, k]) for k in range(8)]
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
    inv = as_matrix(invert_capacitance(build_capacitance_matrix(spec)))
    assert np.max(np.abs(inv - dct_inverse(n, spec.epsilon, spec.c0))) <= 1e-13 / spec.c0


@pytest.mark.parametrize("eps, c0", [(1e-4, 1.0), (0.02, 1.0), (0.099, 3.0)])
def test_large_inverse_against_dct_closed_form(eps, c0):
    spec = array_spec(300, eps, c0)
    inv = as_matrix(invert_capacitance(build_capacitance_matrix(spec)))
    assert np.max(np.abs(inv - dct_inverse(300, spec.epsilon, spec.c0))) <= 1e-13 / spec.c0


#: Error allowed on an entry whose exact value lies below the smallest normal float:
#: four steps of the subnormal grid, 5e-324 each, against 2.2e-308.
SUBNORMAL_ALLOWANCE = 4 * 5e-324


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 40), st.floats(0.0, 0.1, exclude_max=True), st.floats(1e-15, 10.0))
def test_inverse_against_the_exact_inverse(n, eps, c0):
    # every entry of C^{-1} against the exact inverse of the float matrix C, by
    # continuants in Fractions: within 1e-13 relative where that inverse is a
    # normal float, and SUBNORMAL_ALLOWANCE absolute below it
    c = build_capacitance_matrix(array_spec(n, eps, c0))
    inv = as_matrix(invert_capacitance(c))
    exact = continuant_inverse(*([Fraction(v) for v in part] for part in c))
    for i in range(n):
        for j in range(n):
            error = abs(Fraction(inv[i, j]) - exact[i][j])
            if abs(exact[i][j]) >= sys.float_info.min:
                assert error <= Fraction(1e-13) * abs(exact[i][j]), (i, j)
            else:
                assert error <= SUBNORMAL_ALLOWANCE, (i, j)


@pytest.mark.parametrize("n, eps, c0", [(8, 0.01, 1.0), (300, 0.02, 1.0), (120, 0.099, 1e-15)])
def test_inverse_against_lapack(n, eps, c0):
    c = build_capacitance_matrix(array_spec(n, eps, c0))
    inv = as_matrix(invert_capacitance(c))
    assert np.max(np.abs(inv - lapack_inverse(c))) <= 1e-13 / c0


def test_inverse_of_a_chain_cut_by_a_zero_coupling():
    # a zero off-diagonal entry splits C into blocks: every product across it is 0
    c = ([1.0, 1.1, 1.2, 1.3, 1.4], [0.2, 0.0, -0.3, 0.1])
    inv = as_matrix(invert_capacitance(c))
    assert np.all(inv[:2, 2:] == 0.0) and np.all(inv[2:, :2] == 0.0)
    assert np.max(np.abs(inv - lapack_inverse(c))) <= 1e-15


def test_inverse_rejects_singular():
    with pytest.raises(ValueError, match="singular"):
        invert_capacitance(([0.0] * 3, [0.0] * 2))


#: Traced bytes per box that ``invert_capacitance`` may peak at: its 40-digit decimal
#: pivots, ratios and prefix products, about 890 bytes a box on CPython 3.11, and what it
#: keeps, about 70; one row of C^{-1} and one of C C^{-1} at a time beside them.
INVERSE_BOX_BYTES = 1024


@pytest.mark.parametrize("n", [300, 1000])
def test_inverse_traces_bytes_linear_in_the_boxes(n):
    # no n x n array: 300 boxes of C^{-1} as one array would be 720 kB, 1000 boxes 8 MB
    c = build_capacitance_matrix(array_spec(n, 0.01))
    invert_capacitance(c)  # the decimal module's first use allocates once
    tracemalloc.start()
    try:
        inv = invert_capacitance(c)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert inv.n == n
    assert peak <= INVERSE_BOX_BYTES * n, (
        f"{n} boxes: traced peak {peak} B, {peak / n:.0f} B a box against {INVERSE_BOX_BYTES} (kept {kept} B)")


def test_inverse_keeps_the_residual_its_certificate_compared():
    c = build_capacitance_matrix(array_spec(40, 0.05))
    inv = invert_capacitance(c)
    assert inv.residual == _inverse._residual(*c, inv)
    assert 0.0 < inv.residual <= 1e-12
    # the max |C C^-1 - I| that numpy takes, within the rounding of its own sums near 1
    dense = dense_tridiagonal(c) @ as_matrix(inv) - np.eye(40)
    assert inv.residual == pytest.approx(np.max(np.abs(dense)), abs=2 * sys.float_info.epsilon)


def test_rows_and_entries_refuse_indices_outside_the_matrix():
    inv = invert_capacitance(build_capacitance_matrix(array_spec(4, 0.01)))
    assert inv.row(-1).tobytes() == inv.row(3).tobytes() and inv.entry(-1, 0) == inv.entry(3, 0)
    for read in (lambda: inv.row(4), lambda: inv.entry(0, 4), lambda: inv.entry(-5, 0)):
        with pytest.raises(IndexError):
            read()


def assert_equals_the_fill(inv, c):
    """Every row and every entry of ``inv`` is, bit for bit, that of the dense fill."""
    n, dense = inv.n, closed_form_fill(c)
    for i in range(n):
        expected = dense[i * n : (i + 1) * n].tobytes()
        assert inv.row(i).tobytes() == expected, f"row {i}"
        assert array("d", map(inv.entry, repeat(i), range(n))).tobytes() == expected, f"entries of row {i}"


def drawn_chain(n, eps, c0, data):
    """C_0 (I + eps L) of n boxes with couplings of either sign, one of them maybe 0."""
    signs = data.draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=n - 1, max_size=n - 1))
    cut = data.draw(st.none() | st.integers(0, n - 2))
    diag = array("d", [c0 * (1.0 + 2.0 * eps)]) * n
    diag[0] = diag[-1] = c0 * (1.0 + eps)
    off = array("d", [s * c0 * eps for s in signs])
    if cut is not None:
        off[cut] = 0.0
    return diag, off


CHAINS = (st.integers(2, 40), st.floats(0.0, 0.99, exclude_max=True), st.floats(-300.0, 300.0).map(lambda x: 10.0**x),
          st.data())


@settings(max_examples=150, deadline=None)
@given(*CHAINS)
def test_rows_and_entries_equal_the_dense_fill(n, eps, c0, data):
    # C_0 from 1e-300 to 1e300 puts entries past 2^513, into subnormals and to signed
    # zeros; mixed signs and a zero coupling, which cuts the chain, as a C may have
    c = drawn_chain(n, eps, c0, data)
    assert_equals_the_fill(invert_capacitance(c), c)


def residual_of_the_fill(diag, off, dense):
    """max |C C^-1 - I| over every entry, the rows of C^-1 taken whole from the dense fill,
    in the certificate's float order; nan where a row's sum is."""
    n, coupling = len(diag), [0.0, *off, 0.0]
    rows = [[0.0] * n] + [list(dense[i * n : (i + 1) * n]) for i in range(n)] + [[0.0] * n]
    worst = 0.0
    for i in range(n):
        row = [coupling[i] * x + diag[i] * y + coupling[i + 1] * z for x, y, z in zip(*rows[i : i + 3])]
        row[i] -= 1.0
        if math.isnan(sum(row)):
            return math.nan
        worst = max(worst, *map(abs, row))
    return worst


@settings(max_examples=100, deadline=None)
@given(*CHAINS)
def test_certificate_is_the_max_over_every_entry(n, eps, c0, data):
    # the certificate computes only the columns where a row of C^-1 is not +0.0 past its
    # underflowed tail or a cut; the max over all n^2 entries is the same float
    c = drawn_chain(n, eps, c0, data)
    assert invert_capacitance(c).residual == residual_of_the_fill(*c, closed_form_fill(c))


@pytest.mark.parametrize("c, coefficients", [
    # an infinite coefficient times the +0.0 past a block of two boxes, whose entries are
    # all positive, so that the columns of the block alone sum to inf, not nan
    (([2.0] * 4, [-0.5, 0.0, -0.5]), ([math.inf, 2.0, 2.0, 2.0], [-0.5, 0.0, -0.5])),
    # C^-1_00 = 1e310 overflows, and the cut's zero coupling multiplies it in row 1
    (([1e-310, 1.0, 1.0], [0.0, 0.5]), None),
], ids=["infinite-coefficient", "infinite-entry"])
def test_certificate_is_nan_where_a_column_it_may_skip_is(c, coefficients):
    coefficients = coefficients or c
    inv = _inverse.CapacitanceInverse(*_inverse._closed_form(*c))
    assert math.isnan(_inverse._residual(*coefficients, inv))
    assert math.isnan(residual_of_the_fill(*coefficients, closed_form_fill(c)))


ANY_ENTRY = st.just(0.0) | st.floats(0.25, 4.0) | st.floats(-4.0, -0.25)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(ANY_ENTRY, ANY_ENTRY), min_size=2, max_size=12))
def test_rows_of_any_tridiagonal_equal_the_dense_fill(pairs):
    # exponents that do not rise or fall monotonically along a block take the ldexp path;
    # the factors are compared without the certificate, which such a C may fail
    diag, off = array("d", [a for a, _ in pairs]), array("d", [b for _, b in pairs[1:]])
    try:
        inv = _inverse.CapacitanceInverse(*_inverse._closed_form(diag, off))
    except ArithmeticError:  # a zero pivot
        return
    assert_equals_the_fill(inv, (diag, off))


def test_an_entry_past_the_float_range_raises_as_the_fill_does():
    # diagonal entries of 2.2e-309 put C^{-1}_01 near 1e308 times the coupling
    c = (array("d", [2.225073858507203e-309, 0.0, 2.225073858507203e-309]), array("d", [1.0, 1.0]))
    with pytest.raises(OverflowError):
        closed_form_fill(c)
    with pytest.raises(OverflowError):
        invert_capacitance(c)


def test_a_matrix_whose_factors_are_not_monotone_takes_the_ldexp_path():
    c = ([1.0, 4.0, 1.0, 4.0, 1.0], [1.5, 1.5, 1.5, 1.5])
    inv = _inverse.CapacitanceInverse(*_inverse._closed_form(*c))
    assert not inv._rows.monotone and not inv._columns.monotone
    assert_equals_the_fill(inv, c)


#: c_g and c_c of the josephson-array benchmark at seeds 1-3 (300 boxes, c_j = 1 - c_g).
BENCH_ARRAYS = [(0.35374569764496044, 0.04313451816217547), (0.6824137087556997, 0.047652236917670725),
                (0.3951858508367565, 0.029490315138317836)]


@pytest.mark.parametrize("n, c_g, c_c", [(300, *p) for p in BENCH_ARRAYS] + [(965, 0.5, 0.01), (965, 0.4, 0.99)],
                         ids=["bench-1", "bench-2", "bench-3", "965-boxes", "965-boxes-0.99"])
def test_large_arrays_equal_the_dense_fill(n, c_g, c_c):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # epsilon 0.99 is out of the decay regime
        c = build_capacitance_matrix(JosephsonArraySpec(n, c_g, 1.0 - c_g, c_c))
    assert_equals_the_fill(invert_capacitance(c), c)


def test_inverse_residual_failure_is_an_invariant_violation():
    # the path-graph Laplacian plus 1e-8: C^{-1} entries near 1.25e7 leave
    # C C^{-1} - I at about 6e-9
    diag = [1.0 + 1e-8] + [2.0 + 1e-8] * 6 + [1.0 + 1e-8]
    with pytest.raises(InvariantViolation, match="residual"):
        invert_capacitance((diag, [-1.0] * 7))


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
    assert all(v == 0.0 for v in report.linear_coeffs)


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
    c_inv = as_matrix(cinv)

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
            direct += e2 / 2 * c_inv[i, j] * (a @ b)

    # the ZZ terms and the constant of the expansion, from C^{-1} here
    d = 0.5 - np.asarray(ng)
    terms = []
    for i in range(n):
        for j in range(i + 1, n):
            terms.append(PauliTerm(e2 * c_inv[i, j] / 4.0, {i + 1: "Z", j + 1: "Z"}))
    for i in range(n):
        terms.append(PauliTerm(report.linear_coeffs[i], {i + 1: "Z"}))
    constant = e2 / 8.0 * np.trace(c_inv) + e2 / 2.0 * d @ c_inv @ d
    reconstructed = realize(OperatorSum(terms, n)) + constant * np.eye(dim)
    assert np.max(np.abs(direct - reconstructed)) < 1e-12


@pytest.mark.parametrize("n, c0, units", [(8, 1.0, "reduced"), (300, 1.0, "reduced"), (40, 1e-15, "si")])
def test_linear_fields_against_the_inverse(n, c0, units):
    # the O(n) solve on the pivots against (2e)^2 / 2 C^{-1} (1/2 - n_g) from the n^2 inverse
    rng = np.random.default_rng(n)
    spec = array_spec(n, 0.02, c0, gate_charges=tuple(rng.uniform(0.3, 0.7, n)))
    cinv = invert_capacitance(build_capacitance_matrix(spec))
    report = extract_couplings(spec, cinv, units=units)
    e2 = spec.c0 if units == "reduced" else (2 * 1.602176634e-19) ** 2
    expected = e2 / 2.0 * as_matrix(cinv) @ (0.5 - np.array(spec.gate_charges))
    assert np.max(np.abs(np.array(report.linear_coeffs) - expected)) <= 1e-13 * e2 / spec.c0


def test_linear_fields_vanish_at_degeneracy_point():
    spec = array_spec(6, 0.02)  # default gate charges 1/2
    report = extract_couplings(spec, invert_capacitance(build_capacitance_matrix(spec)))
    assert max(map(abs, report.linear_coeffs)) < 1e-15


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
