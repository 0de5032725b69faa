"""Exact evaluation and integer inversion of the girth-6/8 size bounds.

Everything is arbitrary-precision integer arithmetic except the balanced
approximation, which is documented floating point.  Bound certificates must
be exact, so no bound value ever passes through a float; one float picks
where the exact cube-root descent starts, and an exact evaluation checks
that start (bound_report).

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


def reiman_max_e(v: int, w: int) -> int:
    """Largest integer e with O nonpositive in both class orientations."""
    return bound_report(v, w, 6).values["reiman"]


def cubic_max_e(v: int, w: int) -> int:
    """Largest integer e >= 0 with P(v, w, e) <= 0.  Symmetric in (v, w)."""
    return bound_report(v, w, 8).values["cubic"]


def size_cap(v: int, w: int, girth: int) -> int:
    """The paper's size bound at a girth floor: the cubic bound at girth 8,
    the quadratic (Reiman) bound at girth 6."""
    return bound_report(v, w, girth).values["cubic" if girth == 8 else "reiman"]


def unbalanced_cap(v: int, w: int) -> int | None:
    """a + floor(b^2/4) with (a, b) = (max, min), when a >= floor(b^2/4).

    Applies to graphs without 4- and 6-cycles; absent (None) outside the
    unbalanced regime.
    """
    return bound_report(v, w, 8).values.get("cap")


def girth6_coarse_bound(v: int, w: int) -> int:
    """Coarse size bound for graphs without 4-cycles.

    Piecewise in (a, b) = (max(v, w), min(v, w)) and h = b(b-1)/2:
    a + h when a >= h, else floor(sqrt(2ab(b-1))).  The paper states the
    bound for either assignment of the classes; this (min, max) one is
    never the larger (proof in bound_report).
    """
    return bound_report(v, w, 6).values["coarse"]


def girth8_coarse_bound(v: int, w: int) -> int:
    """Coarse size bound for graphs without 4- and 6-cycles.

    floor(2^(1/3) (vw)^(2/3)) when max(v, w) <= floor(min(v, w)^2 / 4),
    else floor(min^2/4) + max, the unbalanced cap.  The cube-root branch
    is computed exactly as the largest m with m^3 <= 2 (vw)^2.  The
    handful of small pairs where the cube-root factorization flips sign
    all fail the branch condition, so they take the second alternative as
    required.
    """
    return bound_report(v, w, 8).values["coarse"]


def _descend(s: int, t: int, c: int, x: int, above: int) -> int:
    """Largest integer x with x^3 - s x^2 + t x - c <= 0, by integer Newton
    steps down from the start x if the cubic is positive there, else from
    ``above``, an integer proven above the root (proofs in bound_report)."""
    value = x * (x * (x - s) + t) - c
    if value <= 0:
        x = above
        value = x * (x * (x - s) + t) - c
    while value > 0:
        x -= value // (x * (3 * x - 2 * s) + t) or 1
        value = x * (x * (x - s) + t) - c
    return x


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
    if v < 1 or w < 1:
        raise ValueError(f"class sizes must be >= 1, got v={v} w={w}")
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
    Every bound is computed here, after one check of (v, w) and the girth
    floor; each public single-bound function returns one of these values.
    ``values`` is filled in METHOD_ORDER, and the binding bound is its
    first minimum, found by at most two strict comparisons: coarse against
    reiman at girth 6; at girth 8 cubic against reiman, then coarse against
    the lesser, under the name cap when the cap applies, as it comes first
    and equals coarse there.  The report is built with ``tuple.__new__``,
    which skips the named tuple's Python-level ``__new__``.
    Below, (a, b) = (max(v, w), min(v, w)), p = vw and q = floor(b^2 / 4).

    The coarse rule.  With h = C(b, 2) at girth 6 and h = q at girth 8,
    the coarse value is a + h when a >= h, the paper's estimate for very
    unbalanced graphs, and otherwise the root bound: isqrt(4ah) =
    floor(sqrt(2ab(b-1))) at girth 6, and the largest m with m^3 <= 2p^2
    at girth 8.  At a = h the branches agree: isqrt(4a^2) = 2a at girth 6,
    and at girth 8, with b^2 = 4q + c and c in {0, 1},
    (2q)^3 <= 2p^2 = 8q^3 + 2cq^2 < (2q + 1)^3, so m = 2q = a + q.  The
    girth-6 bound holds in either class orientation, and the (min, max)
    one used here is never the larger.  The (max, min) one,
    floor(sqrt(2ab(a-1))) when b <= C(a, 2), is in that root branch unless
    a = b <= 2, where the two orientations are the same cell.  In it,
    2ab(b-1) <= 2ab(a-1) covers a <= h; when a > h and b >= 3,
    (h + a)^2 < 4a^2 <= 2ab(a-1), and (h + a)^2 <= 2ab(a-1) also holds
    for b = 1, a >= 2 (a^2 <= 2a(a-1)) and b = 2, a >= 3
    ((a + 1)^2 <= 4a(a-1)).  At girth 8 the cap, where it applies
    (a >= q), is the coarse value a + q.

    Reiman.  The (min, max) orientation is binding: the positive root of
    X^2 - bX - ba(a-1) already makes O(b, a, .) nonnegative, so only one
    quadratic needs inverting: the largest integer e with O(b, a, e) <= 0
    is floor((a + sqrt(D)) / 2) with D = a^2 + 4ab(b-1), which equals
    (a + isqrt(D)) // 2 exactly for integers a, D >= 0.

    The descent.  Let F(x) = x^3 - s x^2 + t x - c be increasing and convex
    on [x0, oo) for an integer x0 with F(x0) <= 0, so that it has one root
    r >= x0 there.  From an integer start above r, _descend returns
    floor(r), the largest integer x >= x0 with F(x) <= 0.  A tangent step
    from any x >= r lands at or above r.  The floor step
    x -= F(x) // F'(x) is no longer than the tangent step, so it never
    passes r.  When it is 0 while F(x) > 0, x > r and a unit step is
    taken instead, which cannot pass floor(r); then F(x) < F'(x), and the
    exact expansion F(x - 2) = F(x) - 2F'(x) + 12x - 4s - 8 is below
    12x - 4s - 8 - F'(x).  F'(x) >= x^2 in both uses below, so this is
    negative once x >= 12, and at most two unit steps follow.  The loop
    stops at the first x with F(x) <= 0, which is floor(r).  Only
    integers are involved.  _descend takes a start and a proven start: its
    first exact evaluation keeps the start only if F is positive there,
    which puts it above r, and otherwise it begins at the proven start.

    - The cube root (s = t = 0, c = 2p^2, x0 = 0): x^3 - c is increasing
      and convex for x >= 0, F'(x) = 3x^2, and the proven start
      x = 2^ceil(bitlen(c) / 3) has x^3 >= 2^bitlen(c) > c.  So the result
      is the largest m with m^3 <= 2p^2, the coarse girth-8 value, used
      when a < q.  As c >= 2^(bitlen(c) - 1), that start can lie twice
      above r, so for p < 2^45 the descent starts at int(f (1 + 2^-40)) + 1
      instead, with f the float c ** (1/3).  The float only picks the
      start, which the exact evaluation checks.  Here c < 2^91 converts
      without overflow, r < 2^31, and f is within a relative 2^-48 of r
      (from rounding c, 1/3 and pow), so f (1 + 2^-40) lies in
      (r, r + 2^-8]: the start is floor(r) + 1, or floor(r) + 2 when the
      fraction of r exceeds 1 - 2^-8, and two exact evaluations end the
      descent.  A less accurate pow would cost steps, never the result.
    - The cubic (s = a + b, t = 2p, c = p^2, x0 = a): F = P(v, w, .) and
      P(x) = x(x - a)(x - b) + p(x - p).  P(a) = p(a - p) <= 0, and on
      [a, oo) P is convex and increasing, with
      P'(x) = x^2 + 2(x - a)(x - b) >= x^2.

    The cubic starts above r in both branches, from these proven starts
    alone (a float start from Cardano's formula took about as long to
    compute as the Newton steps it saved):

    - When a < q, at m + 1 for m = floor(t'), t' = (2p^2)^(1/3), the
      coarse value.  t' >= a, as t'^3 >= a^3 is 2b^2 >= a and
      a <= b^2 / 4.  With t'^3 = 2p^2, P(t') = p^2 + t'(2p - st'), so
      P(t') >= 0 exactly when
      f(a) = p^(2/3) / 2^(2/3) + 2^(2/3) p^(1/3) - (a + b) >= 0, p = ab.
      f is concave in a, f(b^2 / 4) = 0, and f(b) = u(sqrt(u) - sqrt(2))^2
      >= 0 with u = b^(2/3) / 2^(1/3).  So f >= 0 on [b, b^2 / 4],
      P(t') >= 0, and t' >= r because P increases on [a, oo): m + 1 > t' >= r.
    - When a >= q, at x = a + 4q + 1 >= a + b^2.  Then x - a >= b^2 and
      x - b >= a, so x(x - a)(x - b) >= a^2 b^2 = p^2 > p(p - x), and
      P(x) > 0 with x > a: x > r.
    """
    if v < 1 or w < 1:
        raise ValueError(f"class sizes must be >= 1, got v={v} w={w}")
    if girth_target not in (6, 8):
        raise ValueError(f"girth target must be 6 or 8, got {girth_target}")
    a, b = (v, w) if v >= w else (w, v)
    p = a * b
    reiman = (a + isqrt(a * a + 4 * p * (b - 1))) // 2
    if girth_target == 6:
        h = b * (b - 1) // 2
        coarse = a + h if a >= h else isqrt(4 * a * h)
        binding = "coarse" if coarse < reiman else "reiman"
        return tuple.__new__(
            BoundReport, (v, w, girth_target, {"reiman": reiman, "coarse": coarse}, binding)
        )
    q = b * b // 4
    if a >= q:
        coarse = a + q
        start = a + 4 * q + 1
        cubic = _descend(a + b, 2 * p, p * p, start, start)
        values = {"reiman": reiman, "cubic": cubic, "cap": coarse, "coarse": coarse}
    else:
        c = 2 * p * p
        above = 1 << -(-c.bit_length() // 3)
        start = int(c ** (1 / 3) * (1 + 2 ** -40)) + 1 if p < 1 << 45 else above
        coarse = _descend(0, 0, c, start, above)
        cubic = _descend(a + b, 2 * p, p * p, coarse + 1, coarse + 1)
        values = {"reiman": reiman, "cubic": cubic, "coarse": coarse}
    low, binding = (cubic, "cubic") if cubic < reiman else (reiman, "reiman")
    if coarse < low:
        binding = "cap" if a >= q else "coarse"
    return tuple.__new__(BoundReport, (v, w, girth_target, values, binding))
