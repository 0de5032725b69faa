"""Generalized mean inequality for nonnegative matrices, in exact rationals.

For a nonnegative matrix with row sums a_i*, column sums a_*j and total e,
the weighted sum phi = sum a_ij (a_i* - rho)(a_*j - gamma) dominates
e (e/v - rho)(e/w - gamma) whenever every row sum is at least 2*rho and
every column sum at least 2*gamma, with equality exactly for constant
margins.  The doubled-threshold hypothesis is sharp; the single-threshold
regime admits counterexamples, which this module can hunt for.

Every comparison is exact: the interesting cases live near the boundary,
where float ties would be untrustworthy.  A matrix keeps its entries once
as integer numerators over the least common denominator L of its entries.
At rho = p/q and gamma = r/s, F*phi and F*rhs are integers for
F = L^3*q*s*v*w, so the verdict is decided by comparing plain ints, and a
Fraction is built only for each value returned.
"""

from __future__ import annotations

import re
import sys
from collections import namedtuple
from fractions import Fraction
from math import lcm
from operator import mul


__all__ = [
    "IneqVerdict",
    "NonnegMatrix",
    "check",
    "find_weak_hypothesis_violation",
    "phi",
    "psi",
    "rational",
]


# Fraction alone also takes decimals and exponents, and expands "1e99999999"
# to an exact integer in time that grows with the exponent.  [0-9] and not
# \d: int() would also take other scripts' decimal digits.
_RATIONAL = re.compile(r"\s*([+-]?[0-9]+)(?:/([0-9]+))?\s*")


def rational(value) -> Fraction:
    """A Fraction, an int that is not a bool, or a string "p" or "p/q" with
    an optional sign and surrounding whitespace, as a Fraction.

    Anything else raises ValueError, as does a zero denominator or a
    numerator or denominator with more digits than int() converts
    (sys.get_int_max_str_digits(), 4,300 by default).
    """
    # Fraction last: isinstance goes through its ABC metaclass.
    if isinstance(value, str):
        match = _RATIONAL.fullmatch(value)
        if match:
            try:
                num, den = int(match[1]), int(match[2] or 1)
            except ValueError:  # only past int()'s digit limit
                raise ValueError(
                    f"rational {value.strip()[:12]}... has more digits than Python"
                    f" converts to an integer (at most {sys.get_int_max_str_digits()})"
                ) from None
            if den:
                return Fraction(num, den)
            raise ValueError(f"{value!r} has a zero denominator")
    elif isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    elif isinstance(value, Fraction):
        return value
    raise ValueError(f"{value!r} is not a rational p or p/q")


class NonnegMatrix:
    """Rectangular matrix of nonnegative rationals with cached margins.

    The margins ``row_sums``, ``col_sums`` and ``total`` are Fractions.  The
    entries are kept only in the private integer form: the least common
    denominator ``_den`` of the entries, each row's nonzero entries as
    column indices (``_cols``) and numerators over ``_den`` (``_nums``),
    and the margins' numerators ``_row_nums`` and ``_col_nums``.
    """

    __slots__ = (
        "v", "w", "row_sums", "col_sums", "total",
        "_den", "_cols", "_nums", "_row_nums", "_col_nums",
    )

    def __init__(self, rows) -> None:
        if not isinstance(rows, (list, tuple)):
            raise ValueError(f"matrix rows {rows!r} are not a list")
        parsed = []
        for row in rows:
            if not isinstance(row, (list, tuple)):
                raise ValueError(f"matrix row {row!r} is not a list")
            parsed.append(list(map(rational, row)))
        if not parsed or not parsed[0]:
            raise ValueError("matrix must have at least one row and one column")
        width = len(parsed[0])
        if any(len(row) != width for row in parsed):
            raise ValueError("matrix rows must all have the same length")
        den = lcm(*[x.denominator for row in parsed for x in row])
        cols, nums = [], []
        for row in parsed:
            row_cols, row_nums = [], []
            for j, x in enumerate(row):
                p, q = x.as_integer_ratio()
                if p:
                    if p < 0:
                        raise ValueError(f"matrix entry {x} is negative")
                    row_cols.append(j)
                    row_nums.append(p * (den // q))
            cols.append(row_cols)
            nums.append(row_nums)
        self._fill(width, den, cols, nums)

    def _fill(self, width, den, cols, nums) -> None:
        self.v, self.w = len(cols), width
        self._den, self._cols, self._nums = den, cols, nums
        self._row_nums = list(map(sum, nums))
        self._col_nums = col_nums = [0] * self.w
        for row_cols, row_nums in zip(cols, nums):
            for j, p in zip(row_cols, row_nums):
                col_nums[j] += p
        self.row_sums = tuple(map(Fraction, self._row_nums, [den] * self.v))
        self.col_sums = tuple(map(Fraction, col_nums, [den] * self.w))
        self.total = Fraction(sum(col_nums), den)

    @classmethod
    def from_graph(cls, g) -> "NonnegMatrix":
        """0/1 incidence matrix of a graphcore.BipartiteGraph (rows = class V).

        Built directly: the entries of a validated graph cannot fail the
        parse and sign checks of ``NonnegMatrix(rows)``, and the
        denominator is 1.
        """
        if g.v == 0 or g.w == 0:
            raise ValueError("incidence matrix needs both classes nonempty")
        m = cls.__new__(cls)
        m._fill(g.w, 1, list(map(list, g.adj_v)), [[1] * len(nb) for nb in g.adj_v])
        return m

    def __repr__(self) -> str:
        return f"NonnegMatrix(v={self.v}, w={self.w}, total={self.total})"


def _scaled(m: NonnegMatrix, p: int, q: int, r: int, s: int) -> tuple[int, int, int]:
    """(F*phi, F*rhs, F) at rho = p/q and gamma = r/s, all three integers,
    for F = L^3*q*s*v*w and L the matrix's common denominator.

    With N, R and C the numerators over L of the entries and margins,
    L^3*q*s*phi = sum_i (R_i q - p L) sum_j N_ij (C_j s - r L), and with
    E = L*e, L^3*q*s*v*w*rhs = E (E q - p L v)(E s - r L w).
    """
    den, v, w = m._den, m.v, m.w
    pl, rl = p * den, r * den
    col = [c * s - rl for c in m._col_nums].__getitem__
    lhs = 0
    for row_num, cols, nums in zip(m._row_nums, m._cols, m._nums):
        lhs += (row_num * q - pl) * sum(map(mul, nums, map(col, cols)))
    e = sum(m._row_nums)
    return lhs * v * w, e * (e * q - pl * v) * (e * s - rl * w), den ** 3 * q * s * v * w


def phi(m: NonnegMatrix, rho, gamma) -> Fraction:
    """sum_ij a_ij (a_i* - rho)(a_*j - gamma), exact."""
    scaled, _, den = _scaled(
        m, *rational(rho).as_integer_ratio(), *rational(gamma).as_integer_ratio()
    )
    return Fraction(scaled, den)


def psi(m: NonnegMatrix) -> Fraction:
    """sum_ij a_ij a_i* a_*j, exact; at least e^3 / (v*w) for any
    nonnegative matrix: phi at rho = gamma = 0."""
    return phi(m, 0, 0)


IneqVerdict = namedtuple("IneqVerdict", "phi rhs hypotheses_hold satisfied equality")
IneqVerdict.__doc__ = """Exact verdict of the inequality at given (rho, gamma).

``phi`` and ``rhs`` are Fractions.  ``hypotheses_hold`` records the
doubled thresholds (every row sum >= 2*rho, every column sum >= 2*gamma,
non-strict so the constant-margin equality case is not excluded); it
implies ``satisfied``.  A named tuple: it unpacks, and compares equal to,
(phi, rhs, hypotheses_hold, satisfied, equality).
"""


def check(m: NonnegMatrix, rho, gamma) -> IneqVerdict:
    """Evaluate phi against e(e/v - rho)(e/w - gamma), all exact.

    Weak hypotheses are not an error: the verdict simply reports
    ``hypotheses_hold = False`` and whatever the comparison says.
    """
    p, q = rational(rho).as_integer_ratio()
    r, s = rational(gamma).as_integer_ratio()
    if p < 0 or r < 0:
        raise ValueError("rho and gamma must be nonnegative")
    lhs, rhs, den = _scaled(m, p, q, r, s)
    return IneqVerdict(
        phi=Fraction(lhs, den),
        rhs=Fraction(rhs, den),
        hypotheses_hold=min(m._row_nums) * q >= 2 * p * m._den
        and min(m._col_nums) * s >= 2 * r * m._den,
        satisfied=lhs >= rhs,
        equality=lhs == rhs,
    )


def find_weak_hypothesis_violation(
    m: NonnegMatrix, denominator: int = 4
) -> tuple[Fraction, Fraction] | None:
    """Search a rational grid for (rho, gamma) where the single-threshold
    hypotheses hold (every row sum >= rho, every column sum >= gamma) yet
    phi < e(e/v - rho)(e/w - gamma).

    Returns the first violating pair in grid order, or None.  This is the
    certificate that the doubled thresholds cannot be weakened to single
    ones.
    """
    if denominator < 1:
        raise ValueError("denominator must be >= 1")
    for p in range(min(m._row_nums) * denominator // m._den + 1):
        for r in range(min(m._col_nums) * denominator // m._den + 1):
            lhs, rhs, _ = _scaled(m, p, denominator, r, denominator)
            if lhs < rhs:
                return Fraction(p, denominator), Fraction(r, denominator)
    return None
