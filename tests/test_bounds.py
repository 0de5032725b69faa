import hashlib
import json
import pickle
import random
from fractions import Fraction
from math import isqrt
from pathlib import Path

import pytest

from girthbound import bounds
from girthbound.bounds import (
    METHOD_ORDER,
    BoundReport,
    balanced_approx,
    balanced_approx_at_cube,
    bound_report,
    cubic_discriminant,
    cubic_max_e,
    discriminant_from_sp,
    eval_cubic,
    eval_reiman,
    girth6_coarse_bound,
    girth8_coarse_bound,
    growth_delta,
    reiman_max_e,
    size_cap,
    unbalanced_cap,
)

# SHA-256 of the JSON list of bound_report tuples over a grid, as the
# bisection-based inversion computed them.
BOUNDS = Path(__file__).parent / "data" / "bounds.json"


class TestEvalReiman:
    def test_fano_equality(self):
        assert eval_reiman(7, 7, 21) == 0

    def test_degenerate(self):
        assert eval_reiman(1, 1, 1) == 0

    def test_negative_value(self):
        assert eval_reiman(4, 6, 9) == -45


class TestReimanMaxE:
    def test_heawood(self):
        assert reiman_max_e(7, 7) == 21

    def test_star_degenerates(self):
        for w in range(1, 12):
            assert reiman_max_e(1, w) == w

    def test_c6_tight(self):
        assert reiman_max_e(3, 3) == 6

    def test_defining_property(self):
        rng = random.Random(3)
        for _ in range(200):
            v, w = rng.randint(1, 40), rng.randint(1, 40)
            e = reiman_max_e(v, w)
            a, b = min(v, w), max(v, w)
            assert eval_reiman(a, b, e) <= 0 and eval_reiman(b, a, e) <= 0
            assert eval_reiman(a, b, e + 1) > 0 or eval_reiman(b, a, e + 1) > 0

    def test_closed_form_equals_linear_scan(self):
        # (b + isqrt(D)) // 2 needs no fix-up: every v, w <= 60, both orders.
        for w in range(1, 61):
            for v in range(1, w + 1):
                e = 0
                while eval_reiman(v, w, e + 1) <= 0 and eval_reiman(w, v, e + 1) <= 0:
                    e += 1
                assert reiman_max_e(v, w) == reiman_max_e(w, v) == e, (v, w)

    def test_orientation_lemma(self):
        # The (min, max) orientation is binding for every v <= w <= 50.
        def largest(a, b):
            e = 0
            while eval_reiman(a, b, e + 1) <= 0:
                e += 1
            return e

        for w in range(1, 51):
            for v in range(1, w + 1):
                assert largest(v, w) <= largest(w, v)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            reiman_max_e(0, 3)


class TestEvalCubic:
    def test_wq2_equality(self):
        assert eval_cubic(15, 15, 45) == 0

    def test_star_factorization(self):
        assert eval_cubic(1, 3, 3) == 0
        for w in range(1, 20):
            for e in range(0, w + 2):
                assert eval_cubic(1, w, e) == (e - w) * (e * e - e + w)

    def test_past_root(self):
        assert eval_cubic(15, 15, 46) == 3931


class TestCubicMaxE:
    def test_wq2(self):
        assert cubic_max_e(15, 15) == 45

    def test_star(self):
        for w in range(1, 12):
            assert cubic_max_e(1, w) == w

    def test_five_five(self):
        assert cubic_max_e(5, 5) == 10
        assert eval_cubic(5, 5, 10) == -125 and eval_cubic(5, 5, 11) == 46

    def test_newton_equals_linear_scan(self):
        for v in range(1, 31):
            for w in range(1, 31):
                scan = max(e for e in range(v * w + 1) if eval_cubic(v, w, e) <= 0)
                assert cubic_max_e(v, w) == scan

    def test_symmetry(self):
        for v in range(1, 51):
            for w in range(1, 51):
                assert cubic_max_e(v, w) == cubic_max_e(w, v)

    def test_exact_sign_change_on_big_integers(self):
        for k in (*range(1, 40), 50, 100, 200, 300, 500, 700, 999, 1000):
            big = 10 ** k
            cases = [(big - 1, big - 1), (big - 1, big + 1), (big + 1, big + 1)]
            cases += [(1, big), (big, 1), (big, 7 * big)]
            for v, w in cases:
                e = cubic_max_e(v, w)
                assert eval_cubic(v, w, e) <= 0 < eval_cubic(v, w, e + 1), (k, v - big, w - big)

    def test_sign_changes_at_most_once(self):
        rng = random.Random(5)
        for _ in range(150):
            v, w = rng.randint(1, 25), rng.randint(1, 25)
            signs = [eval_cubic(v, w, e) > 0 for e in range(v * w + 1)]
            # once positive, stays positive
            first_pos = signs.index(True) if True in signs else len(signs)
            assert all(signs[first_pos:])


class TestIcbrt:
    # The coarse girth-8 bound's cube root: bound_report's Newton descent
    # with s = t = 0, from a start x when x^3 > n, else from the proven
    # start 2^ceil(bitlen(n) / 3).
    @staticmethod
    def icbrt(n, x):
        return bounds._descend(0, 0, n, x, 1 << -(-n.bit_length() // 3))

    @staticmethod
    def starts(m):
        # Below, at and above the root floor m, and far above it.
        return (0, m - 1, m, m + 1, m + 2, 2 * m + 5)

    def test_small_values(self):
        m = 0
        for n in range(20001):
            if (m + 1) ** 3 <= n:
                m += 1
            for x in self.starts(m):
                assert self.icbrt(n, x) == m, (n, x)

    def test_around_big_cubes(self):
        for m in (2, 3, 2 ** 20, 10 ** 40 + 3, 3 ** 300, 7 ** 1000):
            n = m ** 3
            for x in self.starts(m):
                assert self.icbrt(n - 1, x) == m - 1
                assert self.icbrt(n, x) == self.icbrt(n + 1, x) == m

    def test_exact_cubes_through_the_report(self):
        # 2(vw)^2 is a cube exactly when vw = 2j^3, and then coarse = 2j^2:
        # (4, 4) has 2 * 16^2 = 8^3 and (6, 9) has 2 * 54^2 = 18^3.
        k = 10 ** 40 + 1
        for v, w, m in ((4, 4, 8), (6, 9, 18), (9, 6, 18), (4 * k ** 3, 4 * k ** 3, 8 * k ** 4)):
            assert bound_report(v, w, 8).values["coarse"] == m
            assert m ** 3 == 2 * (v * w) ** 2
            check_girth8_cell(v, w)


class TestUnbalancedCap:
    def test_examples(self):
        assert unbalanced_cap(10, 4) == 14
        assert unbalanced_cap(4, 10) == 14
        assert unbalanced_cap(15, 15) is None

    def test_threshold(self):
        assert unbalanced_cap(4, 4) == 8   # 4 >= floor(16/4)
        assert unbalanced_cap(5, 5) is None  # 5 < floor(25/4)

    def test_rejects_class_sizes_below_one(self):
        for v, w in ((0, 5), (5, 0), (-3, 2), (0, 0)):
            with pytest.raises(ValueError, match="class sizes must be >= 1"):
                unbalanced_cap(v, w)


class TestCoarseBounds:
    def test_girth6_examples(self):
        assert girth6_coarse_bound(7, 7) == 24
        assert girth6_coarse_bound(4, 10) == 16
        assert girth6_coarse_bound(1, 1) == 1

    def test_girth8_examples(self):
        assert girth8_coarse_bound(15, 15) == 46
        assert girth8_coarse_bound(4, 10) == 14
        assert girth8_coarse_bound(2, 2) == 3

    def test_girth8_exceptional_pairs_take_second_alternative(self):
        assert girth8_coarse_bound(1, 1) == 1
        assert girth8_coarse_bound(1, 2) == 2
        assert girth8_coarse_bound(2, 1) == 2
        assert girth8_coarse_bound(3, 3) == 5

    def test_symmetry(self):
        rng = random.Random(7)
        for _ in range(100):
            v, w = rng.randint(1, 60), rng.randint(1, 60)
            assert girth6_coarse_bound(v, w) == girth6_coarse_bound(w, v)
            assert girth8_coarse_bound(v, w) == girth8_coarse_bound(w, v)

    def test_domination(self):
        # Domination only holds in the coarse bounds' square/cube-root
        # branches; in the unbalanced second alternative the coarse bound
        # can be sharper (e.g. (3, 8): coarse 11 < reiman 12).
        for v in range(1, 41):
            for w in range(1, 41):
                a, b = min(v, w), max(v, w)
                if b <= a * (a - 1) // 2:
                    assert reiman_max_e(v, w) <= girth6_coarse_bound(v, w)
                if a >= 4 and b <= a * a // 4:
                    assert cubic_max_e(v, w) <= girth8_coarse_bound(v, w)

    def test_coarse6_sharper_in_second_alternative(self):
        # The degree-deficit argument beats the quadratic on (3, 8).
        assert reiman_max_e(3, 8) == 12
        assert girth6_coarse_bound(3, 8) == 11

    def test_girth6_rule_is_the_least_orientation(self):
        # The paper's estimate, floor(sqrt(2vw(v-1))) when w <= C(v, 2) and
        # C(v, 2) + w beyond, holds for either assignment of the classes;
        # the bound is the smaller of the two.
        def oriented(v, w):
            half = v * (v - 1) // 2
            return isqrt(2 * v * w * (v - 1)) if w <= half else half + w

        def least(v, w):
            return min(oriented(v, w), oriented(w, v))

        rng = random.Random(29)
        cells = [(v, w) for v in range(1, 61) for w in range(1, 61)]
        cells += [
            (rng.randint(1, 10 ** rng.randint(1, 300)), rng.randint(1, 10 ** rng.randint(1, 300)))
            for _ in range(2000)
        ]
        for b in [*range(1, 200), *(rng.randint(2, 10 ** rng.randint(1, 150)) for _ in range(300))]:
            h = b * (b - 1) // 2  # the branch point, C(b, 2)
            cells += [(b, a) for a in (h - 1, h, h + 1) if a >= 1]
        for v, w in cells:
            assert bound_report(v, w, 6).values["coarse"] == least(v, w), (v, w)
            assert bound_report(w, v, 6).values["coarse"] == least(v, w), (w, v)


class TestBalancedApprox:
    def test_exact_at_one(self):
        assert balanced_approx_at_cube(1) == Fraction(97, 81)
        assert abs(balanced_approx(1) - 97 / 81) < 1e-12

    def test_value_at_eight(self):
        assert balanced_approx_at_cube(2) == Fraction(1616, 81)
        assert abs(balanced_approx(8) - 1616 / 81) < 1e-9

    def test_bound_dominates_search_value(self):
        assert cubic_max_e(8, 8) == 19
        assert 19 < balanced_approx(8)

    def test_cube_agreement_with_float(self):
        for k in range(1, 30):
            exact = balanced_approx_at_cube(k)
            approx = balanced_approx(k ** 3)
            assert abs(approx - float(exact)) <= 1e-12 * float(exact)

    def test_sandwich_exact_small(self):
        for k in range(1, 21):
            v = k ** 3
            e = balanced_approx_at_cube(k)
            assert eval_cubic(v, v, e) >= 0
            assert eval_cubic(v, v, e - Fraction(16, 81)) <= 0

    def test_refuses_sizes_below_one(self):
        with pytest.raises(ValueError, match="class size must be >= 1, got v=0"):
            balanced_approx(0)
        with pytest.raises(ValueError, match="cube root must be >= 1, got k=0"):
            balanced_approx_at_cube(0)


class TestDiscriminant:
    def test_boundary_values(self):
        d = cubic_discriminant(1, 1)
        assert (d.s, d.p, d.D) == (2, 1, 3)
        d = cubic_discriminant(2, 1)
        assert d.D == 28 == (4 * 3 - 5) * (3 - 1) ** 2
        d = cubic_discriminant(2, 2)
        assert d.D == 176

    def test_boundary_factorization(self):
        # At p = s - 1 the discriminant collapses to (4s-5)(s-1)^2 >= 3.
        for s in range(2, 60):
            assert discriminant_from_sp(s, s - 1) == (4 * s - 5) * (s - 1) ** 2

    def test_minimum_three(self):
        for s in range(2, 40):
            for p in range(s - 1, s * s // 4 + 1):
                assert discriminant_from_sp(s, p) >= 3


class TestGrowthDelta:
    def test_examples(self):
        assert growth_delta(1, 1, 1) == 0
        assert eval_cubic(2, 1, 2) - eval_cubic(1, 1, 1) == 0
        assert growth_delta(3, 2, 4) == -5
        assert eval_cubic(4, 2, 5) - eval_cubic(3, 2, 4) == -5
        # Recomputed boundary case: both routes agree at -1.
        assert growth_delta(1, 2, 2) == -1
        assert eval_cubic(2, 2, 3) - eval_cubic(1, 2, 2) == -1

    def test_identity_small_grid(self):
        for v in range(1, 26):
            for w in range(1, 26):
                for e in range(v * w + 1):
                    assert growth_delta(v, w, e) == eval_cubic(v + 1, w, e + 1) - eval_cubic(v, w, e)


class TestBoundReport:
    def test_balanced_girth8(self):
        r = bound_report(15, 15, 8)
        assert r.values == {"reiman": 64, "cubic": 45, "coarse": 46}
        assert r.binding == "cubic" and r.binding_value == 45

    def test_unbalanced_cap_binds(self):
        r = bound_report(10, 4, 8)
        assert r.values["cap"] == 14 and r.values["coarse"] == 14
        assert r.binding == "cap"  # tie broken by fixed method order

    def test_girth6_methods(self):
        r = bound_report(7, 7, 6)
        assert set(r.values) == {"reiman", "coarse"}
        assert r.binding == "reiman" and r.binding_value == 21

    def test_binding_is_minimum(self):
        rng = random.Random(11)
        for _ in range(200):
            v, w = rng.randint(1, 50), rng.randint(1, 50)
            r = bound_report(v, w, rng.choice((6, 8)))
            assert r.binding_value == min(r.values.values())
            assert all(val >= 0 for val in r.values.values())

    def test_rejects_bad_girth(self):
        with pytest.raises(ValueError):
            bound_report(3, 3, 7)

    @pytest.mark.parametrize(
        "bound",
        [reiman_max_e, cubic_max_e, unbalanced_cap, girth6_coarse_bound, girth8_coarse_bound,
         lambda v, w: bound_report(v, w, 6), lambda v, w: bound_report(v, w, 8)],
        ids=["reiman", "cubic", "cap", "coarse6", "coarse8", "report6", "report8"],
    )
    def test_every_entry_point_checks_class_sizes(self, bound):
        for v, w in ((0, 5), (5, 0), (-3, 2), (0, 0)):
            with pytest.raises(ValueError, match="class sizes must be >= 1"):
                bound(v, w)

    def test_grid_matches_the_pinned_hash(self):
        rows = [list(bound_report(v, w, g)) for g in (6, 8) for v in range(1, 101) for w in range(1, 101)]
        digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
        assert digest == json.loads(BOUNDS.read_text())["bound_report(1..100, 1..100, 6 and 8)"]

    @pytest.mark.parametrize("v,w,girth,values,binding", [
        (3, 3, 6, {"reiman": 6, "coarse": 6}, "reiman"),
        (8, 3, 6, {"reiman": 12, "coarse": 11}, "coarse"),
        (2, 2, 8, {"reiman": 3, "cubic": 3, "cap": 3, "coarse": 3}, "reiman"),
        (4, 4, 8, {"reiman": 9, "cubic": 8, "cap": 8, "coarse": 8}, "cubic"),
        (6, 6, 8, {"reiman": 16, "cubic": 13, "coarse": 13}, "cubic"),
        (6, 3, 8, {"reiman": 9, "cubic": 9, "cap": 8, "coarse": 8}, "cap"),
        (8, 8, 8, {"reiman": 25, "cubic": 19, "coarse": 20}, "cubic"),
    ])
    def test_ties_name_the_first_minimum_in_method_order(self, v, w, girth, values, binding):
        for a, b in ((v, w), (w, v)):
            r = bound_report(a, b, girth)
            assert r.values == values and r.binding == binding
            assert list(r.values) == [m for m in METHOD_ORDER if m in values]

    def test_report_is_an_ordinary_named_tuple(self):
        r = bound_report(10, 4, 8)
        values = {"reiman": 17, "cubic": 15, "cap": 14, "coarse": 14}
        assert type(r) is BoundReport and r == BoundReport(10, 4, 8, values, "cap")
        assert pickle.loads(pickle.dumps(r)) == r
        assert r._replace(binding="coarse") == BoundReport(10, 4, 8, values, "coarse")
        assert r.binding_value == 14

    def test_class_sizes_are_checked_before_the_girth_floor(self):
        with pytest.raises(ValueError, match="class sizes must be >= 1, got v=0 w=5"):
            bound_report(0, 5, 7)
        with pytest.raises(ValueError, match="girth target must be 6 or 8, got 7"):
            bound_report(5, 5, 7)

    def test_the_girth_target_is_kept_as_passed(self):
        target = 8.0
        r = bound_report(15, 15, target)
        assert r.girth_target is target and r == bound_report(15, 15, 8)


def check_girth8_cell(v, w):
    """Check bound_report(v, w, 8) and the public girth-8 bounds against
    the defining inequalities: the sign change of P, the cube root, and
    the cap a + q = max + floor(min^2 / 4) exactly where a >= q."""
    a, b = max(v, w), min(v, w)
    q, p = b * b // 4, v * w
    values = bound_report(v, w, 8).values
    c, m = values["cubic"], values["coarse"]
    assert eval_cubic(v, w, c) <= 0 < eval_cubic(v, w, c + 1)
    if a <= q:
        assert m ** 3 <= 2 * p * p < (m + 1) ** 3
    else:
        assert m == a + q
    if a >= q:
        assert values["cap"] == unbalanced_cap(v, w) == a + q == m
    else:
        assert "cap" not in values and unbalanced_cap(v, w) is None
    assert (c, m) == (cubic_max_e(v, w), girth8_coarse_bound(v, w))


@pytest.fixture
def descents(monkeypatch):
    """The calls bound_report makes to bounds._descend, each as
    (s, t, c, start, proven start, result)."""
    calls = []
    descend = bounds._descend

    def record(s, t, c, x, above):
        calls.append((s, t, c, x, above, descend(s, t, c, x, above)))
        return calls[-1][-1]

    monkeypatch.setattr(bounds, "_descend", record)
    return calls


def check_girth8_starts(descents, v, w):
    """Check the girth-8 cell (v, w) and where its descents start.

    Both starts of each descent lie above the root, where the cubic F is
    positive, so no descent falls back.  Upper limits, with r the result:
    the cube root starts at r + 1 or r + 2 when vw < 2^45, and at most at
    2(r + 1) from 2^ceil(bitlen(c) / 3) otherwise; the cubic starts at the
    coarse value m + 1 <= 2^(1/3) (r + 1) + 1 when max < floor(min^2 / 4),
    and below 3r from max + 4 floor(min^2 / 4) + 1 otherwise."""
    descents.clear()
    check_girth8_cell(v, w)
    a, b = max(v, w), min(v, w)
    unbalanced = a >= b * b // 4
    assert descents and all(call[0] for call in descents) == unbalanced
    for s, t, c, x, above, r in descents:
        for start in (x, above):
            assert start * (start * (start - s) + t) - c > 0, (v, w, s, start)
        if s == 0 and v * w < 2 ** 45:
            assert r + 1 <= x <= r + 2, (v, w, x, r)
        elif s == 0:
            assert x == above <= 2 * (r + 1), (v, w, x, r)
        elif not unbalanced:
            assert (x - 1) ** 3 <= 2 * (r + 1) ** 3, (v, w, x, r)
        else:
            assert x < 3 * r, (v, w, x, r)


class TestGirth8Starts:
    # bound_report takes the cube root from a float start checked by an
    # exact evaluation, and inverts the cubic from the coarse value m + 1
    # when max < floor(min^2 / 4), and from max + 4 floor(min^2 / 4) + 1
    # otherwise; every start must lie above its root, and not far above.

    def test_starts_lie_above_the_root(self, descents):
        cube_root_branch = 0
        for v in range(1, 301):
            for w in range(1, 301):
                check_girth8_starts(descents, v, w)
                cube_root_branch += descents[0][0] == 0
        assert cube_root_branch > 60000

    def test_branch_boundary(self, descents):
        # a = q - 1, q, q + 1 around q = floor(b^2 / 4): the cap applies from
        # a = q on, and the coarse bound leaves the cube root after a = q.
        sizes = [*range(5, 200)]
        for k in range(3, 51):
            sizes += [10 ** k - 1, 10 ** k, 10 ** k + 1]
        for b in sizes:
            q = b * b // 4
            for a in (q - 1, q, q + 1):
                check_girth8_starts(descents, a, b)
                check_girth8_starts(descents, b, a)

    def test_random_pairs_in_both_branches(self, descents):
        rng = random.Random(23)
        for _ in range(300):
            b = rng.randint(5, 10 ** rng.randint(1, 150))
            q = b * b // 4
            v, w = rng.randint(b, q), b  # cube-root branch
            check_girth8_starts(descents, v, w)
            check_girth8_starts(descents, w, v)
            v = rng.randint(q + 1, max(q + 1, 10 ** 300))  # unbalanced branch
            check_girth8_starts(descents, v, w)
            check_girth8_starts(descents, w, v)
        for _ in range(300):
            v, w = rng.randint(1, 10 ** rng.randint(1, 300)), rng.randint(1, 10 ** rng.randint(1, 300))
            check_girth8_starts(descents, v, w)


class TestSizeCap:
    def test_matches_the_paper_bound_of_each_floor(self):
        for v in range(1, 12):
            for w in range(1, 12):
                assert size_cap(v, w, 8) == cubic_max_e(v, w)
                assert size_cap(v, w, 6) == reiman_max_e(v, w)

    def test_rejects_bad_girth(self):
        with pytest.raises(ValueError):
            size_cap(3, 3, 7)


class TestBigIntegers:
    def test_no_overflow_semantics(self):
        v = w = 10 ** 9
        e = cubic_max_e(v, w)
        assert eval_cubic(v, w, e) <= 0 < eval_cubic(v, w, e + 1)
        assert e > 10 ** 11  # roughly v^(4/3) territory
        assert reiman_max_e(v, w) > 10 ** 13
