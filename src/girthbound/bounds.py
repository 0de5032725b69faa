"""Exact evaluation and integer inversion of the girth-6/8 size bounds.

Everything is arbitrary-precision integer arithmetic except the balanced
approximation, which is documented floating point.  Bound certificates must
be exact, so no bound value ever passes through a float.

Notation used throughout: a bipartite graph with classes of sizes v and w
and e edges.  The girth-6 quadratic is O(v, w, e) = e^2 - w*e - v*w*(v-1);
the girth-8 cubic is P(v, w, e) = e^3 - (v+w)*e^2 + 2*v*w*e - v^2*w^2.
"""

from __future__ import annotations

from collections import namedtuple
from math import isqrt


__all__ = [
    "BoundReport",
    "CubicDiagnostics",
    "METHOD_ORDER",
    "balanced_approx",
    "balanced_approx_at_cube",
    "bound_report",
    "cubic_discriminant",
    "cubic_max_e",
    "eval_cubic",
    "eval_reiman",
    "girth6_coarse_bound",
    "girth8_coarse_bound",
    "growth_delta",
    "reiman_max_e",
    "size_cap",
    "unbalanced_cap",
]

# Fixed tie-break order for the binding bound in reports.
METHOD_ORDER = ("reiman", "cubic", "cap", "coarse")


def eval_reiman(v: int, w: int, e) -> int:
    """O(v, w, e) = e^2 - w*e - v*w*(v-1); nonpositive for girth >= 6."""
    return e * e - w * e - v * w * (v - 1)


def eval_cubic(v: int, w: int, e) -> int:
    """P(v, w, e) = e^3 - (v+w)*e^2 + 2*v*w*e - v^2*w^2; nonpositive for girth >= 8."""
    return e ** 3 - (v + w) * e ** 2 + 2 * v * w * e - v * v * w * w


def _require_positive(v: int, w: int) -> None:
    if v < 1 or w < 1:
        raise ValueError(f"class sizes must be >= 1, got v={v} w={w}")


def reiman_max_e(v: int, w: int) -> int:
    """Largest integer e with O nonpositive in both class orientations.

    The (min, max) orientation is binding: the positive root of
    X^2 - vX - vw(w-1) already makes O(v, w, .) nonnegative for v <= w, so
    only one quadratic needs inverting: the largest integer e with
    O(a, b, e) <= 0 is floor((b + sqrt(D)) / 2) with D = b^2 + 4ab(a-1),
    which equals (b + isqrt(D)) // 2 exactly for integers b, D >= 0.
    """
    _require_positive(v, w)
    return _reiman_max_e(v, w)


def _reiman_max_e(v: int, w: int) -> int:
    a, b = (v, w) if v <= w else (w, v)
    return (b + isqrt(b * b + 4 * a * b * (a - 1))) // 2


def cubic_max_e(v: int, w: int) -> int:
    """Largest integer e >= 0 with P(v, w, e) <= 0, by integer Newton
    steps from above.  Symmetric in (v, w).

    With s = v + w and p = vw, P(e) = e(e - v)(e - w) + p(e - p).
    P(max(v, w)) = p(max - p) <= 0, and on [max(v, w), oo) P is convex and
    increasing, with P'(x) = x^2 + 2(x - v)(x - w) >= x^2, so the single
    root r lies there and a tangent step from any x >= r lands at or above
    r.  The floor step x -= P(x) // P'(x) is no longer than the tangent
    step, so it never passes r.  When it is 0 while P(x) > 0, x > r and a
    unit step is taken instead, which cannot pass floor(r); then
    P(x) < P'(x), and the exact expansion
    P(x - 2) = P(x) - 2P'(x) + 12x - 4s - 8 < 12x - x^2 - 4s - 8 is
    negative once x >= 12, so at most two unit steps follow.  The loop
    stops at the first x with P(x) <= 0, which is floor(r).  Only integers
    are involved.

    Any integer start x >= r will do.  Any x > p^(2/3) + s makes the first
    term of P exceed p^2, so P(x) > 0; this function starts at
    2^ceil(2 bitlen(p) / 3) + s, which is such an x.

    ``bound_report`` starts closer to r.  Write (a, b) = (max, min) and
    q = floor(b^2 / 4).

    - When a <= q, at m + 1 for m = floor(t), t = (2p^2)^(1/3), the
      coarse girth-8 value.  t >= a, as t^3 >= a^3 is 2b^2 >= a and
      a <= b^2 / 4.  With t^3 = 2p^2, P(t) = p^2 + t(2p - st), so
      P(t) >= 0 exactly when
      f(a) = p^(2/3) / 2^(2/3) + 2^(2/3) p^(1/3) - (a + b) >= 0, p = ab.
      f is concave in a, f(b^2 / 4) = 0, and f(b) = u(sqrt(u) - sqrt(2))^2
      >= 0 with u = b^(2/3) / 2^(1/3).  So f >= 0 on [b, b^2 / 4],
      P(t) >= 0, and t >= r because P increases on [a, oo): m + 1 > t >= r.
    - When a > q, at x = a + 4q + 1 >= a + b^2.  Then x - a >= b^2 and
      x - b >= a, so x(x - a)(x - b) >= a^2 b^2 = p^2 > p(p - x), and
      P(x) > 0 with x > a: x > r.

    Over v, w <= 100 they take 4.1 evaluations of P per pair on average,
    against 5.9 from this function's own start.
    """
    _require_positive(v, w)
    return _cubic_max_e(v, w, (1 << (2 * (v * w).bit_length() + 2) // 3) + v + w)


def _cubic_max_e(v: int, w: int, x: int) -> int:
    """The cubic bound by Newton steps from x, any integer at or above
    the root (see cubic_max_e)."""
    s, p = v + w, v * w
    while True:
        value = x * (x * (x - s) + 2 * p) - p * p  # P(v, w, x)
        if value <= 0:
            return x
        x -= value // (x * (3 * x - 2 * s) + 2 * p) or 1


def size_cap(v: int, w: int, girth: int) -> int:
    """The paper's size bound at a girth floor: the cubic bound at girth 8,
    the quadratic (Reiman) bound at girth 6."""
    if girth == 8:
        return cubic_max_e(v, w)
    if girth == 6:
        return reiman_max_e(v, w)
    raise ValueError(f"girth must be 6 or 8, got {girth}")


def unbalanced_cap(v: int, w: int) -> int | None:
    """a + floor(b^2/4) with (a, b) = (max, min), when a >= floor(b^2/4).

    Applies to graphs without 4- and 6-cycles; absent (None) outside the
    unbalanced regime.
    """
    _require_positive(v, w)
    a, q = _max_quarter(v, w)
    return a + q if a >= q else None


def _max_quarter(v: int, w: int):
    """(a, q) = (max(v, w), floor(min(v, w)^2 / 4)): the unbalanced cap
    applies when a >= q, the coarse girth-8 cube root when a <= q."""
    return max(v, w), min(v, w) ** 2 // 4


def _girth6_coarse_oriented(v: int, w: int) -> int:
    half = v * (v - 1) // 2
    if w <= half:
        return isqrt(2 * v * w * (v - 1))
    return half + w


def girth6_coarse_bound(v: int, w: int) -> int:
    """Coarse size bound for graphs without 4-cycles.

    Piecewise: floor(sqrt(2vw(v-1))) when w <= v(v-1)/2, else v(v-1)/2 + w.
    The statement is orientation-dependent, so both role assignments are
    evaluated and the smaller value returned.
    """
    _require_positive(v, w)
    return _girth6_coarse_bound(v, w)


def _girth6_coarse_bound(v: int, w: int) -> int:
    return min(_girth6_coarse_oriented(v, w), _girth6_coarse_oriented(w, v))


def _icbrt(n: int) -> int:
    """Largest integer m with m^3 <= n (n >= 0), by integer Newton steps
    from above.

    The start x = 2^ceil(bitlen(n) / 3) has x^3 > n.  By the AM-GM
    inequality (2x + n/x^2) / 3 >= n^(1/3), so the floor step
    x <- (2x + n // x^2) // 3 never drops below m; while x > m it
    strictly falls, because x^3 > n.  The first step that does not fall
    therefore starts from m.
    """
    if n < 0:
        raise ValueError("negative argument")
    if n == 0:
        return 0
    x = 1 << -(-n.bit_length() // 3)
    while True:
        y = (2 * x + n // (x * x)) // 3
        if y >= x:
            return x
        x = y


def girth8_coarse_bound(v: int, w: int) -> int:
    """Coarse size bound for graphs without 4- and 6-cycles.

    floor(2^(1/3) (vw)^(2/3)) when max(v, w) <= floor(min(v, w)^2 / 4),
    else floor(min^2/4) + max, the unbalanced cap.  The cube-root branch
    is computed exactly as the largest m with m^3 <= 2 (vw)^2.  The
    handful of small pairs where the cube-root factorization flips sign
    all fail the branch condition, so they take the second alternative as
    required.
    """
    _require_positive(v, w)
    return _girth8_coarse_bound(v * w, *_max_quarter(v, w))


def _girth8_coarse_bound(p: int, a: int, q: int) -> int:
    if a <= q:
        return _icbrt(2 * p * p)
    return a + q


def balanced_approx(v: int) -> float:
    """v^(4/3) + (2/3)v - (2/9)v^(2/3) - (20/81)v^(1/3), in floating point.

    Strict upper bound for the size of balanced girth-8 graphs.  Relative
    error of the float evaluation is below 1e-12.
    """
    if v < 1:
        raise ValueError(f"class size must be >= 1, got v={v}")
    c = v ** (1.0 / 3.0)
    return c ** 4 + (2.0 / 3.0) * v - (2.0 / 9.0) * c * c - (20.0 / 81.0) * c


def balanced_approx_at_cube(k: int):
    """Exact rational value of the balanced approximation at v = k^3, a
    fractions.Fraction."""
    # Imported here: no other bound needs fractions, which loads decimal.
    from fractions import Fraction

    if k < 1:
        raise ValueError(f"cube root must be >= 1, got k={k}")
    # (81k^4 + 54k^3 - 18k^2 - 20k) / 81, in Horner form.
    return Fraction(k * (k * (k * (81 * k + 54) - 18) - 20), 81)


class CubicDiagnostics(namedtuple("CubicDiagnostics", "s p D")):
    """Symmetric-function view of the cubic: s = v+w, p = vw, and the
    discriminant certificate D = 27p^2 + 4s^3 - 36sp - 4s^2 + 32p whose
    positivity gives the cubic exactly one positive root in e."""

    __slots__ = ()


def discriminant_from_sp(s: int, p: int) -> int:
    return 27 * p * p + 4 * s ** 3 - 36 * s * p - 4 * s * s + 32 * p


def cubic_discriminant(v: int, w: int) -> CubicDiagnostics:
    _require_positive(v, w)
    s, p = v + w, v * w
    return CubicDiagnostics(s=s, p=p, D=discriminant_from_sp(s, p))


def growth_delta(v: int, w: int, e: int) -> int:
    """P(v+1, w, e+1) - P(v, w, e) in closed form:
    2e^2 + (1-2v)e + (w - w^2)(2v + 1) - v."""
    return 2 * e * e + (1 - 2 * v) * e + (w - w * w) * (2 * v + 1) - v


class BoundReport(namedtuple("BoundReport", "v w girth_target values binding")):
    """All applicable bound values for a (v, w, girth) query.

    ``values`` maps method name to its integer bound; ``cap`` may be
    absent.  ``binding`` names the minimum, ties broken by METHOD_ORDER.
    """

    __slots__ = ()

    @property
    def binding_value(self) -> int:
        return self.values[self.binding]


def bound_report(v: int, w: int, girth_target: int) -> BoundReport:
    """Evaluate every bound applicable at the requested girth floor.

    Girth 6: reiman and the coarse 4-cycle-free bound.  Girth 8 adds the
    cubic, the unbalanced cap when defined, and uses the 4/6-cycle-free
    coarse bound; reiman stays applicable since girth 8 implies girth 6.
    (v, w) is checked once, here; each value comes from the unchecked core
    of its public function, except the cap, which is the coarse value
    wherever it applies (below).

    At girth 8, (a, q) = (max, floor(min^2 / 4)) is computed once.  The
    coarse bound comes first: when a <= q it is m = floor((2 (vw)^2)^(1/3)),
    and the cubic is inverted from m + 1; otherwise from a + 4q + 1.  Both
    starts lie above the cubic's root (proofs in cubic_max_e).  Where the
    cap applies (a >= q) it is the coarse value itself: for a > q both are
    a + q, and for a = q, with b^2 = 4q + c and c in {0, 1},
    (2q)^3 <= 2 (vw)^2 = 8q^3 + 2cq^2 < (2q + 1)^3, so m = 2q = a + q.
    At girth 6 one comparison picks the binding bound.
    """
    _require_positive(v, w)
    if girth_target not in (6, 8):
        raise ValueError(f"girth target must be 6 or 8, got {girth_target}")
    reiman = _reiman_max_e(v, w)
    if girth_target == 6:
        coarse = _girth6_coarse_bound(v, w)
        # One comparison; a tie goes to reiman, first in METHOD_ORDER.
        return BoundReport(
            v, w, girth_target, {"reiman": reiman, "coarse": coarse},
            "coarse" if coarse < reiman else "reiman",
        )
    a, q = _max_quarter(v, w)
    coarse = _girth8_coarse_bound(v * w, a, q)
    values = {"reiman": reiman, "cubic": _cubic_max_e(v, w, coarse + 1 if a <= q else a + 4 * q + 1)}
    if a >= q:
        values["cap"] = coarse
    values["coarse"] = coarse
    # ``values`` is filled in METHOD_ORDER, so the first minimum is the
    # binding bound under that tie-break.
    return BoundReport(v, w, girth_target, values, min(values, key=values.__getitem__))
