"""Generalized mean inequality for nonnegative matrices, in exact rationals.

For a nonnegative matrix with row sums a_i*, column sums a_*j and total e,
the weighted sum phi = sum a_ij (a_i* - rho)(a_*j - gamma) dominates
e (e/v - rho)(e/w - gamma) whenever every row sum is at least 2*rho and
every column sum at least 2*gamma, with equality exactly for constant
margins.  The doubled-threshold hypothesis is sharp; the single-threshold
regime admits counterexamples, which this module can hunt for.

All comparisons are exact Fraction arithmetic: the interesting cases live
near the boundary, where float ties would be untrustworthy.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from .graphcore import BipartiteGraph


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
# to an exact integer in time that grows with the exponent.  re compiles it
# at first use: at import it would add 0.3 ms to every process.
_RATIONAL = r"\s*[+-]?[0-9]+(/[0-9]+)?\s*"


def rational(value) -> Fraction:
    """A Fraction, an int that is not a bool, or a string "p" or "p/q" with
    an optional sign and surrounding whitespace, as a Fraction.

    Anything else raises ValueError, as does a zero denominator.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if not isinstance(value, str) or not re.fullmatch(_RATIONAL, value):
        raise ValueError(f"{value!r} is not a rational p or p/q")
    try:
        return Fraction(value)
    except ZeroDivisionError:
        raise ValueError(f"{value!r} has a zero denominator") from None


def _parse_row(row) -> tuple[Fraction, ...]:
    if not isinstance(row, (list, tuple)):
        raise ValueError(f"matrix row {row!r} is not a list")
    return tuple(map(rational, row))


class NonnegMatrix:
    """Rectangular matrix of nonnegative rationals with cached margins."""

    __slots__ = ("entries", "v", "w", "row_sums", "col_sums", "total")

    def __init__(self, rows) -> None:
        if not isinstance(rows, (list, tuple)):
            raise ValueError(f"matrix rows {rows!r} are not a list")
        parsed = [_parse_row(row) for row in rows]
        if not parsed or not parsed[0]:
            raise ValueError("matrix must have at least one row and one column")
        width = len(parsed[0])
        if any(len(row) != width for row in parsed):
            raise ValueError("matrix rows must all have the same length")
        for row in parsed:
            for x in row:
                if x < 0:
                    raise ValueError(f"matrix entry {x} is negative")
        self.entries = tuple(parsed)
        self.v = len(parsed)
        self.w = width
        self.row_sums = tuple(sum(row, Fraction(0)) for row in parsed)
        self.col_sums = tuple(
            sum((row[j] for row in parsed), Fraction(0)) for j in range(width)
        )
        self.total = sum(self.row_sums, Fraction(0))

    @classmethod
    def from_graph(cls, g: BipartiteGraph) -> "NonnegMatrix":
        """0/1 incidence matrix of a bipartite graph (rows = class V).

        Built directly: the entries of a validated graph cannot fail the
        parse and sign checks of ``NonnegMatrix(rows)``, and the margins
        are the degrees.
        """
        if g.v == 0 or g.w == 0:
            raise ValueError("incidence matrix needs both classes nonempty")
        zero, one = Fraction(0), Fraction(1)
        rows = [[zero] * g.w for _ in range(g.v)]
        for i, j in g.edges:
            rows[i][j] = one
        m = cls.__new__(cls)
        m.entries = tuple(map(tuple, rows))
        m.v, m.w = g.v, g.w
        m.row_sums = tuple(map(Fraction, g.degrees_v()))
        m.col_sums = tuple(map(Fraction, g.degrees_w()))
        m.total = Fraction(g.e)
        return m

    def __repr__(self) -> str:
        return f"NonnegMatrix(v={self.v}, w={self.w}, total={self.total})"


def phi(m: NonnegMatrix, rho, gamma) -> Fraction:
    """sum_ij a_ij (a_i* - rho)(a_*j - gamma), exact."""
    rho, gamma = rational(rho), rational(gamma)
    total = Fraction(0)
    for i, row in enumerate(m.entries):
        ri = m.row_sums[i] - rho
        for j, a in enumerate(row):
            if a:
                total += a * ri * (m.col_sums[j] - gamma)
    return total


def psi(m: NonnegMatrix) -> Fraction:
    """sum_ij a_ij a_i* a_*j, exact; at least e^3 / (v*w) for any
    nonnegative matrix: phi at rho = gamma = 0."""
    return phi(m, 0, 0)


@dataclass(frozen=True)
class IneqVerdict:
    """Exact verdict of the inequality at given (rho, gamma).

    ``hypotheses_hold`` records the doubled thresholds (every row sum
    >= 2*rho, every column sum >= 2*gamma, non-strict so the constant-
    margin equality case is not excluded); it implies ``satisfied``.
    """

    phi: Fraction
    rhs: Fraction
    hypotheses_hold: bool
    satisfied: bool
    equality: bool


def check(m: NonnegMatrix, rho, gamma) -> IneqVerdict:
    """Evaluate phi against e(e/v - rho)(e/w - gamma), all exact.

    Weak hypotheses are not an error: the verdict simply reports
    ``hypotheses_hold = False`` and whatever the comparison says.
    """
    rho, gamma = rational(rho), rational(gamma)
    if rho < 0 or gamma < 0:
        raise ValueError("rho and gamma must be nonnegative")
    value = phi(m, rho, gamma)
    e = m.total
    rhs = e * (e / m.v - rho) * (e / m.w - gamma)
    hyp = all(s >= 2 * rho for s in m.row_sums) and all(
        s >= 2 * gamma for s in m.col_sums
    )
    return IneqVerdict(
        phi=value,
        rhs=rhs,
        hypotheses_hold=hyp,
        satisfied=value >= rhs,
        equality=value == rhs,
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
    rho_max = min(m.row_sums)
    gamma_max = min(m.col_sums)
    for num_r in range(int(rho_max * denominator) + 1):
        rho = Fraction(num_r, denominator)
        for num_g in range(int(gamma_max * denominator) + 1):
            gamma = Fraction(num_g, denominator)
            verdict = check(m, rho, gamma)
            if not verdict.satisfied:
                return rho, gamma
    return None
