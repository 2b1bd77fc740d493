"""``josephson-map``: a charge-qubit capacitance network to its effective couplings.

The CLI imports this module only when this subcommand runs: ``validate``
checks and normalizes a loaded config's parameters, ``run`` returns the
CSV header and the rows.
"""

from __future__ import annotations

from . import LAYOUT_BYTES_CAP, ConfigError, InvariantViolation, Table, _finite, _finite_list, _is_int

#: Peak bytes of josephson-map per pair of boxes, and its fixed allowance: a run of
#: n_boxes is charged n_boxes^2 * BOX_PAIR_BYTES + MAP_FIXED_BYTES against
#: LAYOUT_BYTES_CAP at load.  The run holds C^{-1} as O(n) factors and makes each row when
#: it is read; the writer adds the texts of the distinct cells, which stop growing once
#: the entries underflow.  Traced run plus write with a mirror at c_c = 0.99 (CPython
#: 3.11): 1.82 / 2.69 / 3.80 / 5.36 MB at 300 / 400 / 635 / 800 boxes, 12.4 bytes a pair
#: and 0.70 MB between the first two, against charges of 2.74 / 3.65 / 6.82 / 9.89 MB.
#: Admits up to 2245 boxes.
BOX_PAIR_BYTES = 13
MAP_FIXED_BYTES = 3 * 2**19


def validate(cfg) -> None:
    p = cfg.parameters
    if not _is_int(p["n_boxes"]) or p["n_boxes"] < 2:
        raise ConfigError("n_boxes must be an integer >= 2")
    if p["n_boxes"] ** 2 * BOX_PAIR_BYTES + MAP_FIXED_BYTES > LAYOUT_BYTES_CAP:
        raise ConfigError(f"an array of {p['n_boxes']} boxes exceeds the budget of {LAYOUT_BYTES_CAP} bytes")
    for key in ("c_g", "c_j", "c_c"):
        p[key] = _finite(p[key], key)
    if p["gate_charges"] is not None:
        p["gate_charges"] = _finite_list(p["gate_charges"], "gate_charges")
    if p["units"] not in ("reduced", "si"):
        raise ConfigError("units must be 'reduced' or 'si'")


def run(cfg) -> tuple[list, Table]:
    from array import array

    from .josephson import JosephsonArraySpec, build_capacitance_matrix, extract_couplings, invert_capacitance

    p = cfg.parameters
    spec = JosephsonArraySpec(p["n_boxes"], p["c_g"], p["c_j"], p["c_c"], p["gate_charges"])
    cmat = build_capacitance_matrix(spec)
    cinv = invert_capacitance(cmat)
    report = extract_couplings(spec, cinv, units=p["units"])

    if not report.decay_in_regime:
        status = "out-of-regime"
    elif not report.decay_ratios:
        status = "unchecked"  # no ratio was computed, as below five boxes
    elif report.decay_in_band:
        status = "pass"
    else:
        status = "fail"
        cfg.invariant_failures.append("decay ratios left the epsilon band in regime")

    n = spec.n_boxes
    header = ["n_boxes", "c_g", "c_j", "c_c", "epsilon", "record", "i", "j", "order", "value", "status"]
    base = dict(n_boxes=n, c_g=spec.c_g, c_j=spec.c_j, c_c=spec.c_c, epsilon=spec.epsilon)
    # C's rows are windows: interior row i is band[n-i : 2n-i], an edge row half of edges
    diag, off = cmat
    if diag[1:-1].tobytes() != diag[1:2].tobytes() * (n - 2) or off.tobytes() != off[:1].tobytes() * (n - 1):
        raise InvariantViolation("capacitance matrix is not one band: interior diagonal or off-diagonal varies")
    zeros = array("d", [0.0]) * (n - 2)
    band = memoryview(zeros + array("d", [0.0, off[0], diag[1], off[0], 0.0]) + zeros)
    edges = memoryview(zeros + array("d", [off[0], diag[-1], diag[0], off[0]]) + zeros)
    index = array("i", range(1, n + 1))
    orders = sorted(report.couplings_by_order)
    couplings = [report.couplings_by_order[k] for k in orders]
    ratios = list(report.decay_ratios)
    chain = report.effective_chain
    tail = [
        (len(orders), dict(base, record="coupling", order=orders, value=couplings)),
        (len(ratios), dict(base, record="decay_ratio", order=list(range(len(ratios))), value=ratios)),
        (1, dict(base, record="decay_check", status=status)),
        (1, dict(base, record="residual_bound", value=report.residual_bound)),
        (n, dict(base, record="linear_field", i=index, value=report.linear_coeffs)),
        (1, dict(base, record="chain_j1", value=chain.j1)),
        (1, dict(base, record="chain_j2", value=chain.j2)),
        (1, dict(base, record="chain_x1_max", value=chain.x1_max)),
    ]

    def blocks():
        # one block per matrix row: i is constant on it, and every row shares one j column
        for i in range(n):
            yield n, dict(base, record="capacitance", i=i + 1, j=index,
                          value=edges[n:] if i == 0 else edges[:n] if i == n - 1 else band[n - i : 2 * n - i])
        for i in range(n):
            yield n, dict(base, record="inverse", i=i + 1, j=index, value=cinv.row(i))
        yield from tail

    return header, Table(_Passes(blocks), rows=2 * n * n + len(orders) + len(ratios) + n + 5)


class _Passes:
    """Blocks made anew on each pass, so that a mirror's second pass makes each row of
    C^{-1} again and the writer holds none of them past its own block."""

    __slots__ = ("blocks",)

    def __init__(self, blocks) -> None:
        self.blocks = blocks

    def __iter__(self):
        return self.blocks()
