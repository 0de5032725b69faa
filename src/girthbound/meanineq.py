"""Generalized mean inequality for nonnegative matrices, in exact rationals.

For a nonnegative matrix with row sums a_i*, column sums a_*j and total e,
the weighted sum phi = sum a_ij (a_i* - rho)(a_*j - gamma) dominates
e (e/v - rho)(e/w - gamma) whenever every row sum is at least 2*rho and
every column sum at least 2*gamma, with equality exactly for constant
margins.  The doubled-threshold hypothesis is sharp; the single-threshold
regime admits counterexamples, which this module can hunt for.

Every comparison is exact: the interesting cases live near the boundary,
where float ties would be untrustworthy.  Expanding the product gives

    phi(rho, gamma) = psi - gamma sum_i a_i*^2 - rho sum_j a_*j^2 + rho gamma e,

with psi = sum a_ij a_i* a_*j, so a matrix keeps no entries: only its
margins as integer numerators over the least common denominator L of its
entries, and four integers, psi * L^3, the two sums of squared margins
times L^2, and e * L.  At rho = p/q and gamma = r/s, F*phi and F*rhs are
then integers for F = L^3*q*s*v*w, each from a few products whatever the
size of the matrix; the verdict is decided by comparing plain ints, and a
Fraction is built only for each value returned.
"""

from __future__ import annotations

import re
import sys
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
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


def _parse(value):
    """The (p, q) in lowest terms of a string "p" or "p/q"."""
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
            g = gcd(num, den)
            return num // g, den // g
        raise ValueError(f"{value!r} has a zero denominator")
    raise ValueError(f"{value!r} is not a rational p or p/q")


# Matrix files repeat a few entry strings many times.  Only exact str goes
# through the cache: a subclass may redefine hashing or equality.  An error
# is raised, never stored.
_parse_cached = lru_cache(maxsize=1024)(_parse)


def _ratio(value) -> tuple[int, int]:
    """The (p, q) in lowest terms, q > 0, of what :func:`rational` accepts;
    the one parse behind it and ``NonnegMatrix(rows)``."""
    kind = type(value)
    if kind is str:
        return _parse_cached(value)
    if kind is int or isinstance(value, int) and kind is not bool:
        return value, 1
    if isinstance(value, str):
        return _parse(value)
    # Fraction last: isinstance goes through its ABC metaclass.
    if isinstance(value, Fraction):
        return value.as_integer_ratio()
    raise ValueError(f"{value!r} is not a rational p or p/q")


def rational(value) -> Fraction:
    """A Fraction, an int that is not a bool, or a string "p" or "p/q" with
    an optional sign and surrounding whitespace, as a Fraction.

    Anything else raises ValueError, as does a zero denominator or a
    numerator or denominator with more digits than int() converts
    (sys.get_int_max_str_digits(), 4,300 by default).
    """
    return Fraction(*_ratio(value))


class NonnegMatrix:
    """Rectangular matrix of nonnegative rationals.

    The margins ``row_sums``, ``col_sums`` and ``total`` are read-only
    properties that build Fractions on each read; ``check``, ``phi``,
    ``psi`` and ``find_weak_hypothesis_violation`` never read them.  The
    entries are not kept.  With N, R and C the numerators of the entries
    and margins over their least common denominator ``_den`` = L, a matrix
    holds ``_row_nums`` = R, ``_col_nums`` = C and four integers:
    ``_psi`` = sum_ij N_ij R_i C_j, ``_row_sq`` = sum_i R_i^2,
    ``_col_sq`` = sum_j C_j^2 and ``_e`` = sum_i R_i, which are psi * L^3,
    the sums of squared margins times L^2 and e * L.  That is O(v + w)
    integers, and all that phi needs at any (rho, gamma).
    """

    __slots__ = ("v", "w", "_den", "_row_nums", "_col_nums", "_psi", "_row_sq", "_col_sq", "_e")

    def __init__(self, rows) -> None:
        if not isinstance(rows, (list, tuple)):
            raise ValueError(f"matrix rows {rows!r} are not a list")
        parsed = []
        for row in rows:
            if not isinstance(row, (list, tuple)):
                raise ValueError(f"matrix row {row!r} is not a list")
            parsed.append(list(map(_ratio, row)))
        if not parsed or not parsed[0]:
            raise ValueError("matrix must have at least one row and one column")
        width = len(parsed[0])
        if any(len(row) != width for row in parsed):
            raise ValueError("matrix rows must all have the same length")
        den = lcm(*[q for row in parsed for _, q in row])
        # One pass over the nonzeros: T_j = sum_i N_ij R_i, so that
        # psi * L^3 = sum_j C_j T_j.
        row_nums, col_nums, col_t = [], [0] * width, [0] * width
        for row in parsed:
            nums = [p * (den // q) for p, q in row]
            r = sum(nums)
            for j, n in enumerate(nums):
                if n:
                    if n < 0:
                        raise ValueError(f"matrix entry {Fraction(n, den)} is negative")
                    col_nums[j] += n
                    col_t[j] += n * r
            row_nums.append(r)
        self._store(den, row_nums, col_nums, sum(map(mul, col_nums, col_t)))

    def _store(self, den, row_nums, col_nums, psi):
        self.v, self.w = len(row_nums), len(col_nums)
        self._den, self._row_nums, self._col_nums, self._psi = den, row_nums, col_nums, psi
        self._row_sq = sum(map(mul, row_nums, row_nums))
        self._col_sq = sum(map(mul, col_nums, col_nums))
        self._e = sum(row_nums)

    @property
    def row_sums(self) -> tuple:
        return tuple(Fraction(n, self._den) for n in self._row_nums)

    @property
    def col_sums(self) -> tuple:
        return tuple(Fraction(n, self._den) for n in self._col_nums)

    @property
    def total(self) -> Fraction:
        return Fraction(self._e, self._den)

    @classmethod
    def from_graph(cls, g) -> "NonnegMatrix":
        """0/1 incidence matrix of a graphcore.BipartiteGraph (rows = class V).

        Built directly: the entries of a validated graph cannot fail the
        parse and sign checks of ``NonnegMatrix(rows)``, the denominator
        is 1, the margins are the degrees, and psi is the sum over the
        edges of the product of their ends' degrees.
        """
        if g.v == 0 or g.w == 0:
            raise ValueError("incidence matrix needs both classes nonempty")
        deg_v, deg_w = g.degrees_v(), g.degrees_w()
        m = cls.__new__(cls)
        m._store(1, list(deg_v), list(deg_w), sum(deg_v[i] * deg_w[j] for i, j in g.edges))
        return m

    def __repr__(self) -> str:
        return f"NonnegMatrix(v={self.v}, w={self.w}, total={self.total})"


def _scaled(m: NonnegMatrix, p: int, q: int, r: int, s: int) -> tuple[int, int, int]:
    """(F*phi, F*rhs, F) at rho = p/q and gamma = r/s, all three integers,
    for F = L^3*q*s*v*w and L the matrix's common denominator.

    From phi = psi - gamma sum R_i^2 / L^2 - rho sum C_j^2 / L^2 + rho gamma E / L,
    L^3*q*s*phi = q s Psi - L (q r sum R_i^2 + p s sum C_j^2) + p r L^2 E,
    and L^3*q*s*v*w*rhs = E (E q - p L v)(E s - r L w), with Psi = L^3 psi
    and E = L e.
    """
    den, v, w, e = m._den, m.v, m.w, m._e
    pl, rl = p * den, r * den
    lhs = q * s * m._psi - den * (q * r * m._row_sq + p * s * m._col_sq) + pl * rl * e
    return lhs * v * w, e * (e * q - pl * v) * (e * s - rl * w), den ** 3 * q * s * v * w


def phi(m: NonnegMatrix, rho, gamma) -> Fraction:
    """sum_ij a_ij (a_i* - rho)(a_*j - gamma), exact."""
    scaled, _, den = _scaled(m, *_ratio(rho), *_ratio(gamma))
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
    p, q = _ratio(rho)
    r, s = _ratio(gamma)
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

    The grid has step 1/denominator, for an int denominator >= 1;
    anything else, a bool included, raises ValueError.  Returns the first
    violating pair in grid order, or None.  This is the certificate that
    the doubled thresholds cannot be weakened to single ones.  Each grid
    point costs a few integer products, whatever the size of the matrix.
    """
    if not isinstance(denominator, int) or isinstance(denominator, bool):
        raise ValueError(f"denominator must be an integer, got {denominator!r}")
    if denominator < 1:
        raise ValueError("denominator must be >= 1")
    for p in range(min(m._row_nums) * denominator // m._den + 1):
        for r in range(min(m._col_nums) * denominator // m._den + 1):
            lhs, rhs, _ = _scaled(m, p, denominator, r, denominator)
            if lhs < rhs:
                return Fraction(p, denominator), Fraction(r, denominator)
    return None
