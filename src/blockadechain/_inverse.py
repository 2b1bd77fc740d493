"""C^{-1} of a symmetric tridiagonal matrix in closed form, held as O(n) factors.

The pivots, the diagonal of C^{-1} and the prefix products of its row ratios
are taken in 40-digit decimal arithmetic (G. Meurant, SIAM J. Matrix Anal.
Appl. 13(3), 1992); each entry off the diagonal is then one float product of
two split factors, scaled by a power of two.  ``CapacitanceInverse`` builds a
row from them when it is read, so no n x n array is held, and ``_residual``
certifies C C^{-1} = I three rows at a time.  ``josephson.invert_capacitance``
is the public entry point; this module is its own so that each of the two
compiles from source peaks lower than the one module did.
"""

from __future__ import annotations

import math
import struct
from array import array
from bisect import bisect_left, bisect_right
from decimal import MAX_EMAX, MIN_EMIN, Context, Decimal, localcontext
from itertools import accumulate, repeat
from operator import add, mul, sub

#: The decimal arithmetic of the pivots: 40 digits (about 133 bits), so that each float
#: taken from it is rounded once, from a value good far past its last bit, and an exponent
#: range that no product of ratios leaves.
_DECIMAL = Context(prec=40, Emin=MIN_EMIN, Emax=MAX_EMAX)


def _pivots(diag, off) -> tuple:
    """The off-diagonal b of a symmetric tridiagonal matrix with diagonal a, as
    decimals, and its forward pivots delta_0 = a_0, delta_i = a_i - b_{i-1}^2 /
    delta_{i-1} and backward pivots d_{n-1} = a_{n-1}, d_i = a_i - b_i^2 / d_{i+1},
    in the current decimal context.  A zero pivot, as a singular matrix has,
    raises ``ArithmeticError``."""
    a, b = [Decimal(v) for v in diag], [Decimal(v) for v in off]
    forward = [a[0]]
    for ai, bi in zip(a[1:], b):
        forward.append(ai - bi * bi / forward[-1])
    backward = [a[-1]]
    for ai, bi in zip(a[-2::-1], b[::-1]):
        backward.append(ai - bi * bi / backward[-1])
    return b, forward, backward[::-1]


def _split(d: Decimal) -> tuple[float, int]:
    """A nonzero decimal as m * 2**e with 0.5 <= |m| < 1, m a float: no float range limits it."""
    e = int(d.adjusted() * 3.321928094887362)  # about log2 |d|
    m, k = math.frexp(float(d / Decimal(2) ** e))
    return m, e + k


def _restart(product: Decimal, ratio: Decimal) -> Decimal:
    # a zero ratio ends a block of C (a zero coupling); the product starts again after it
    return product * ratio if ratio else Decimal(1)


def _closed_form(diag, off) -> tuple:
    """The floats that entry (i, j >= i) of C^{-1} is built from: C^{-1}_ii, the
    split C^{-1}_ii / P_i and P_j, and the end of row i's block."""
    n = len(diag)
    with localcontext(_DECIMAL):
        b, forward, backward = _pivots(diag, off)
        diagonal = [1 / (p - bi * bi / d) for p, bi, d in zip(forward, b, backward[1:])]
        diagonal.append(1 / forward[-1])
        ratios = [-bi / d for bi, d in zip(b, backward[1:])]
        prefix = list(accumulate(ratios, _restart, initial=Decimal(1)))
        mantissas, exponents = zip(*map(_split, prefix))
        scales = [_split(x / p) for x, p in zip(diagonal, prefix)]
        ends = [n]  # ends[i]: the first column past row i's block
        for m in range(n - 1, 0, -1):
            ends.append(m if not ratios[m - 1] else ends[-1])
        return [float(x) for x in diagonal], scales, mantissas, exponents, ends[::-1]


#: Exponents K of an entry ldexp(m c, K) of two split factors, 1/4 <= |m c| < 1.  In _FAST
#: it is the plain product of m 2^(K - k + s) and c 2^(k - s), for any s - k in [0, _STEP):
#: both are normal floats, and so is the entry, which a power of two scales unrounded.  At
#: _ZERO and below it is a signed zero; elsewhere only ldexp rounds it as it should.
_FAST, _ZERO, _STEP = (-1020, 513), -1076, 512


class _Factors:
    """One side of the entries ldexp(m_j c, op(k, g_j)) along a row of C^{-1}: the
    split factors m_j and g_j, g ascending within each block of C, and the m_j
    pre-scaled for the last scale s that a row used."""

    __slots__ = ("m", "g", "op", "positive", "monotone", "scaled")

    def __init__(self, m, g, op, starts) -> None:
        self.m, self.g, self.op, self.scaled = array("d", m), array("q", g), op, (None,)
        self.positive = min(m) > 0.0
        self.monotone = all(a <= b for a, b, s, t in zip(g, g[1:], starts, starts[1:]) if s == t)

    def _ldexp(self, lo: int, hi: int, c: float, k: int) -> list:
        if lo == hi:
            return []
        return list(map(math.ldexp, map(mul, self.m[lo:hi], repeat(c)), map(self.op, repeat(k), self.g[lo:hi])))

    def _zeros(self, lo: int, hi: int, c: float) -> list:
        # +0.0 zeros at the far end of a part from the diagonal are left to the row's padding
        return [] if c > 0.0 and self.positive else list(map(mul, self.m[lo:hi], repeat(math.copysign(0.0, c))))

    def entries(self, lo: int, hi: int, c: float, k: int, block: tuple) -> list:
        """ldexp(m_j c, op(k, g_j)) for j in range(lo, hi), a part of one block, bit for
        bit, but for +0.0 zeros at the part's far end from the diagonal."""
        if not self.monotone:
            return self._ldexp(lo, hi, c, k)
        g, s = self.g, -(-k // _STEP) * _STEP
        if self.scaled[0] != (s, block):  # the block's m_j 2^op(s, g_j) that are normal floats
            u, v = (_FAST[0] - s, 1024 - s) if self.op is add else (s - 1024, s - _FAST[0])
            first = bisect_left(g, u, *block)
            last = bisect_right(g, v, first, block[1])
            scaled = map(math.ldexp, self.m[first:last], map(self.op, repeat(s), g[first:last]))
            self.scaled = (s, block), first, array("d", scaled)
        _, first, scaled = self.scaled
        d = math.ldexp(c, k - s)
        if self.op is add:  # K rises along the part: zeros, subnormals, normal entries, large ones
            z = bisect_right(g, _ZERO - k, lo, hi)
            x = bisect_left(g, _FAST[0] - k, z, hi)
            y = bisect_right(g, _FAST[1] - k, x, hi)
            return (self._zeros(lo, z, c) + self._ldexp(z, x, c, k) + [v * d for v in scaled[x - first : y - first]]
                    + self._ldexp(y, hi, c, k))
        x = bisect_left(g, k - _FAST[1], lo, hi)  # K falls
        y = bisect_right(g, k - _FAST[0], x, hi)
        z = bisect_left(g, k - _ZERO, y, hi)
        return (self._ldexp(lo, x, c, k) + [v * d for v in scaled[x - first : y - first]] + self._ldexp(y, z, c, k)
                + self._zeros(z, hi, c))


class CapacitanceInverse:
    """C^{-1} of a symmetric tridiagonal C, held as the O(n) factors of its closed form:
    ``n``, ``row(i)`` (a new ``array('d')`` each time it is read), ``entry(i, j)``, and
    ``residual``, the max |C C^{-1} - I| that ``invert_capacitance`` certified.

    Entry (i, j > i) is ldexp(m_i M_j, e_i + E_j), m_i 2^e_i being C^{-1}_ii / P_i and
    M_j 2^E_j the prefix product P_j, split, within the block of C that holds row i,
    and 0.0 past it; the lower triangle reads the upper one, so C^{-1} is exactly
    symmetric.  A row costs about one float product per entry: the factors along it
    are kept pre-scaled, so that the product needs no ldexp unless the entry is
    subnormal or larger than 2^513.
    """

    __slots__ = ("n", "residual", "_diagonal", "_starts", "_ends", "_rows", "_columns")

    def __init__(self, diagonal, scales, mantissas, exponents, ends) -> None:
        n = len(diagonal)
        starts = [0] * n  # starts[i]: the first column of row i's block
        for j in range(1, n):
            starts[j] = j if ends[j - 1] == j else starts[j - 1]
        self.n, self.residual = n, math.nan
        self._diagonal, self._starts, self._ends = array("d", diagonal), array("q", starts), array("q", ends)
        row_m, row_e = zip(*scales)
        self._rows = _Factors(row_m, row_e, add, starts)  # e_i ascends, so g_i = e_i
        self._columns = _Factors(mantissas, [-x for x in exponents], sub, starts)  # E_j descends

    def entry(self, i: int, j: int) -> float:
        """C^{-1}_ij, the float that ``row(i)[j]`` holds."""
        i, j = range(self.n)[i], range(self.n)[j]
        i, j = min(i, j), max(i, j)
        if i == j or j >= self._ends[i]:
            return self._diagonal[i] if i == j else 0.0
        return math.ldexp(self._rows.m[i] * self._columns.m[j], self._rows.g[i] - self._columns.g[j])

    def _list(self, i: int) -> tuple:
        """Row i as a list, and the columns lo, hi outside which it is +0.0."""
        block, rows, columns = (self._starts[i], self._ends[i]), self._rows, self._columns
        left = rows.entries(block[0], i, columns.m[i], -columns.g[i], block)
        lo = i - len(left)
        row = [0.0] * lo
        row += left
        row.append(self._diagonal[i])
        row += columns.entries(i + 1, block[1], rows.m[i], rows.g[i], block)
        hi = len(row)
        row.extend(repeat(0.0, self.n - hi))
        return row, lo, hi

    def row(self, i: int) -> array:
        """Row i of C^{-1}."""
        return array("d", struct.pack(f"{self.n}d", *self._list(range(self.n)[i])[0]))  # faster than fromlist


def _residual(diag, off, inv: CapacitanceInverse) -> float:
    """max |C C^{-1} - I| over all n^2 entries, row i of C C^{-1} being
    b_{i-1} C^{-1}[i-1] + a_i C^{-1}[i] + b_i C^{-1}[i+1]; nan if any entry is.

    Where the three rows of C^{-1} are +0.0 and the coefficients finite, the entry is a
    signed zero, which changes neither the max nor the nan: only the columns between
    are computed."""
    n = len(diag)
    coupling = [0.0, *off, 0.0]
    above, here = ([0.0] * n, n, 0), inv._list(0)
    worst = 0.0
    for i in range(n):
        below = inv._list(i + 1) if i + 1 < n else ([0.0] * n, n, 0)
        p, a, q = coupling[i], diag[i], coupling[i + 1]
        lo, hi = 0, n
        if math.isfinite(p * a * q):
            lo, hi = min(above[1], here[1], below[1]), max(above[2], here[2], below[2])
        row = [p * x + a * y + q * z for x, y, z in zip(above[0][lo:hi], here[0][lo:hi], below[0][lo:hi])]
        row[i - lo] -= 1.0
        if math.isnan(sum(row)):  # max() passes over a nan
            return math.nan
        worst = max(worst, max(row), -min(row))
        above, here = here, below
    return worst
