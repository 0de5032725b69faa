import random
from fractions import Fraction

import pytest

from girthbound import meanineq
from girthbound.constructions import pg2_incidence
from girthbound.graphcore import from_edges
from girthbound.meanineq import NonnegMatrix, check, phi, psi, rational
from helpers import (
    is_biregular,
    random_bipartite,
    random_fraction_upto,
    random_min_degree2,
    random_rational_matrix,
)

COUNTEREXAMPLE_1 = [[2, 5], [4, 0]]
COUNTEREXAMPLE_2 = [[0, 1, 1], [1, 0, 0], [1, 0, 0]]


class TestRational:
    @pytest.mark.parametrize(
        "value,want",
        [("4", 4), (" 3/2 ", Fraction(3, 2)), ("-1/2", Fraction(-1, 2)), ("+0/7", 0),
         (7, 7), (Fraction(5, 3), Fraction(5, 3))],
    )
    def test_documented_forms(self, value, want):
        got = rational(value)
        assert got == want and type(got) is Fraction

    # Decimals and exponents are refused before Fraction, which would take
    # time growing with the exponent to expand "1e99999999".
    @pytest.mark.parametrize(
        "value", ["1.5", "1e3", "1/0", "", " ", "x", "1/-2", "1_000", "/2", "nan", True, 1.5, None]
    )
    def test_everything_else_is_refused(self, value):
        with pytest.raises(ValueError):
            rational(value)


class TestMatrix:
    def test_margins_cached(self):
        m = NonnegMatrix([[2, 5], [4, 0]])
        assert m.row_sums == (7, 4)
        assert m.col_sums == (6, 5)
        assert m.total == 11

    def test_string_and_fraction_entries(self):
        m = NonnegMatrix([["1/2", 1], [Fraction(3, 4), "2"]])
        assert m.total == Fraction(17, 4)

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            NonnegMatrix([[1, -1]])

    def test_ragged_rejected(self):
        with pytest.raises(ValueError, match="same length"):
            NonnegMatrix([[1, 2], [3]])

    @pytest.mark.parametrize("rows", [[["1/0", 1]], [1, 2], 5])
    def test_malformed_rejected(self, rows):
        with pytest.raises(ValueError):
            NonnegMatrix(rows)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            NonnegMatrix([])

    def test_from_graph(self):
        g = from_edges(2, 3, [(0, 0), (1, 2)])
        m = NonnegMatrix.from_graph(g)
        assert m.entries[0][0] == 1 and m.entries[1][2] == 1
        assert m.total == 2

    def test_from_graph_equals_parsed_rows(self):
        rng = random.Random(29)
        graphs = [random_bipartite(rng, max_side=9) for _ in range(200)]
        graphs.append(pg2_incidence(3))
        for g in graphs:
            edges = set(g.edges)
            rows = [[int((i, j) in edges) for j in range(g.w)] for i in range(g.v)]
            direct = NonnegMatrix.from_graph(g)
            parsed = NonnegMatrix(rows)
            for slot in NonnegMatrix.__slots__:
                assert getattr(direct, slot) == getattr(parsed, slot), slot
            values = [x for row in direct.entries for x in row]
            values += [*direct.row_sums, *direct.col_sums, direct.total]
            assert all(type(x) is Fraction for x in values)

    def test_from_graph_needs_both_classes(self):
        with pytest.raises(ValueError, match="nonempty"):
            NonnegMatrix.from_graph(from_edges(0, 3, []))
        with pytest.raises(ValueError, match="nonempty"):
            NonnegMatrix.from_graph(from_edges(2, 0, []))


class TestPhi:
    def test_all_ones(self):
        assert phi(NonnegMatrix([[1, 1], [1, 1]]), 1, 1) == 4

    def test_counterexample_matrix(self):
        assert phi(NonnegMatrix(COUNTEREXAMPLE_1), 4, 5) == 6

    def test_star_pattern_vanishes(self):
        assert phi(NonnegMatrix(COUNTEREXAMPLE_2), 1, 1) == 0


class TestPsi:
    def test_all_ones_equality(self):
        m = NonnegMatrix([[1, 1], [1, 1]])
        assert psi(m) == 16 == Fraction(m.total ** 3, m.v * m.w)

    def test_diagonal(self):
        m = NonnegMatrix([[1, 0], [0, 3]])
        assert psi(m) == 28
        assert psi(m) >= Fraction(m.total ** 3, m.v * m.w)

    def test_zero_matrix(self):
        m = NonnegMatrix([[0, 0], [0, 0]])
        assert psi(m) == 0

    def test_cubic_mean_lower_bound_random(self):
        rng = random.Random(3)
        for _ in range(200):
            v, w = rng.randint(1, 5), rng.randint(1, 5)
            m = NonnegMatrix(random_rational_matrix(rng, v, w))
            assert psi(m) >= Fraction(m.total ** 3, m.v * m.w)


class TestCheck:
    def test_all_ones_equality_case(self):
        verdict = check(NonnegMatrix([[1, 1], [1, 1]]), 1, 1)
        assert verdict.hypotheses_hold and verdict.satisfied and verdict.equality
        assert verdict.phi == verdict.rhs == 4

    def test_counterexample_1(self):
        verdict = check(NonnegMatrix(COUNTEREXAMPLE_1), 4, 5)
        assert not verdict.hypotheses_hold
        assert verdict.phi == 6 and verdict.rhs == Fraction(33, 4)
        assert not verdict.satisfied

    def test_counterexample_2(self):
        verdict = check(NonnegMatrix(COUNTEREXAMPLE_2), 1, 1)
        assert not verdict.hypotheses_hold
        assert verdict.phi == 0 and verdict.rhs == Fraction(4, 9)
        assert not verdict.satisfied

    def test_counterexamples_admit_single_threshold(self):
        # The witnesses satisfy the single-threshold hypotheses, so the
        # doubled thresholds really cannot be weakened.
        m1 = NonnegMatrix(COUNTEREXAMPLE_1)
        assert min(m1.row_sums) >= 4 and min(m1.col_sums) >= 5
        m2 = NonnegMatrix(COUNTEREXAMPLE_2)
        assert min(m2.row_sums) >= 1 and min(m2.col_sums) >= 1

    def test_zero_matrix(self):
        verdict = check(NonnegMatrix([[0, 0], [0, 0]]), 1, 1)
        assert verdict.phi == 0 == verdict.rhs
        assert verdict.satisfied and verdict.equality
        assert not verdict.hypotheses_hold

    def test_negative_rho_rejected(self):
        with pytest.raises(ValueError):
            check(NonnegMatrix([[1]]), -1, 0)

    def test_theorem_random(self):
        rng = random.Random(5)
        for _ in range(400):
            v, w = rng.randint(2, 6), rng.randint(2, 6)
            m = NonnegMatrix(random_rational_matrix(rng, v, w))
            rho = random_fraction_upto(rng, min(m.row_sums) / 2)
            gamma = random_fraction_upto(rng, min(m.col_sums) / 2)
            verdict = check(m, rho, gamma)
            assert verdict.hypotheses_hold
            assert verdict.satisfied

    def test_equality_characterization(self):
        rng = random.Random(7)
        strict_seen = 0
        for _ in range(200):
            v, w = rng.randint(2, 6), rng.randint(2, 6)
            # constant margins: scaled all-ones matrix
            den = rng.randint(1, 16)
            c = Fraction(rng.randint(1, 8 * den), den)
            m = NonnegMatrix([[c] * w for _ in range(v)])
            rho = random_fraction_upto(rng, min(m.row_sums) / 2)
            gamma = random_fraction_upto(rng, min(m.col_sums) / 2)
            assert check(m, rho, gamma).equality
        for _ in range(200):
            v, w = rng.randint(2, 6), rng.randint(2, 6)
            m = NonnegMatrix(random_rational_matrix(rng, v, w))
            constant = len(set(m.row_sums)) == 1 and len(set(m.col_sums)) == 1
            rho = random_fraction_upto(rng, min(m.row_sums) / 2)
            gamma = random_fraction_upto(rng, min(m.col_sums) / 2)
            verdict = check(m, rho, gamma)
            assert verdict.satisfied
            if not constant and not verdict.equality:
                strict_seen += 1
        assert strict_seen > 0

    def test_refinement_identity(self):
        # phi - psi = -gamma sum(row^2) - rho sum(col^2) + rho gamma e
        rng = random.Random(11)
        for _ in range(200):
            v, w = rng.randint(1, 6), rng.randint(1, 6)
            m = NonnegMatrix(random_rational_matrix(rng, v, w))
            rho = Fraction(rng.randint(0, 32), rng.randint(1, 8))
            gamma = Fraction(rng.randint(0, 32), rng.randint(1, 8))
            lhs = phi(m, rho, gamma) - psi(m)
            rhs = (
                -gamma * sum(s * s for s in m.row_sums)
                - rho * sum(s * s for s in m.col_sums)
                + rho * gamma * m.total
            )
            assert lhs == rhs


class TestGraphBridge:
    def test_phi_counts_paths3(self):
        from girthbound.graphcore import count_paths3

        rng = random.Random(13)
        for _ in range(150):
            g = random_bipartite(rng, max_side=10)
            if g.v + g.w > 20 or g.v == 0 or g.w == 0:
                continue
            m = NonnegMatrix.from_graph(g)
            assert phi(m, 1, 1) == count_paths3(g)

    def test_paths3_corollary(self):
        # Minimum degree 2 gives paths3 >= e(e/v - 1)(e/w - 1), equality
        # exactly for biregular graphs.
        from girthbound.graphcore import count_paths3

        rng = random.Random(17)
        equal_seen = strict_seen = 0
        for _ in range(200):
            g = random_min_degree2(rng, max_side=8)
            e = Fraction(g.e)
            lower = e * (e / g.v - 1) * (e / g.w - 1)
            p3 = count_paths3(g)
            assert p3 >= lower
            if is_biregular(g):
                assert p3 == lower
                equal_seen += 1
            else:
                assert p3 > lower
                strict_seen += 1
        assert strict_seen > 0
        # force at least one biregular instance through the same check
        from girthbound.constructions import complete_bipartite

        g = complete_bipartite(4, 5)
        e = Fraction(g.e)
        assert count_paths3(g) == e * (e / 4 - 1) * (e / 5 - 1)


class TestWeakHypothesisSearch:
    def test_finds_violations_for_both_counterexamples(self):
        m1 = NonnegMatrix(COUNTEREXAMPLE_1)
        found = meanineq.find_weak_hypothesis_violation(m1, denominator=1)
        assert found is not None
        rho, gamma = found
        assert rho <= min(m1.row_sums) and gamma <= min(m1.col_sums)
        assert not check(m1, rho, gamma).satisfied

        m2 = NonnegMatrix(COUNTEREXAMPLE_2)
        found = meanineq.find_weak_hypothesis_violation(m2, denominator=2)
        assert found is not None
        rho, gamma = found
        assert not check(m2, rho, gamma).satisfied

    def test_none_for_safe_matrix(self):
        m = NonnegMatrix([[1, 1], [1, 1]])
        assert meanineq.find_weak_hypothesis_violation(m, denominator=2) is None
