import random
import sys
import tracemalloc
from fractions import Fraction
from math import lcm

import pytest

from girthbound import meanineq
from girthbound.constructions import pg2_incidence, wq_incidence
from girthbound.graphcore import count_paths3, from_edges
from girthbound.meanineq import NonnegMatrix, check, phi, psi, rational
from helpers import (
    check_oracle,
    is_biregular,
    margins_oracle,
    random_bipartite,
    random_fraction_upto,
    random_min_degree2,
    random_rational_matrix,
    rational_oracle,
    weak_violation_oracle,
)

COUNTEREXAMPLE_1 = [[2, 5], [4, 0]]
COUNTEREXAMPLE_2 = [[0, 1, 1], [1, 0, 0], [1, 0, 0]]


class TestRational:
    @pytest.mark.parametrize(
        "value,want",
        [("4", 4), (" 3/2 ", Fraction(3, 2)), ("-1/2", Fraction(-1, 2)), ("+0/7", 0),
         (7, 7), (Fraction(5, 3), Fraction(5, 3)), ("007/008", Fraction(7, 8))],
    )
    def test_documented_forms(self, value, want):
        got = rational(value)
        assert got == want and type(got) is Fraction

    # Decimals and exponents are refused before Fraction, which would take
    # time growing with the exponent to expand "1e99999999".
    # int() refuses more than 4,300 digits (sys.get_int_max_str_digits).
    @pytest.mark.parametrize(
        "value",
        ["1.5", "1e3", "1/0", "0/0", "", " ", "x", "1/-2", "1 / 2", "+-1", "\u0661", "1_000",
         "/2", "nan", pytest.param("9" * 4301, id="4301-digits"), True, 1.5, None],
    )
    def test_everything_else_is_refused(self, value):
        with pytest.raises(ValueError):
            rational(value)

    def test_same_verdict_as_the_regex_then_fraction_parser(self):
        # Random strings over the characters the grammar turns on, each
        # accepted with the same value by both parsers or refused by both.
        rng = random.Random(37)
        alphabet = "0123456789+-/ \t\n\u00a0\u0661\u0966_.e"
        cases = ["".join(rng.choice(alphabet) for _ in range(rng.randint(0, 8))) for _ in range(20000)]
        cases += [f"{rng.choice(['', '+', '-', ' '])}{rng.randint(0, 999)}/{rng.randint(0, 99)} "
                  for _ in range(2000)]
        accepted = 0
        for value in cases:
            try:
                want = rational_oracle(value)
            except ValueError:
                with pytest.raises(ValueError):
                    rational(value)
                continue
            got = rational(value)
            assert got == want and type(got) is Fraction, value
            accepted += 1
        assert 2000 < accepted < len(cases)

    def test_only_exact_strings_are_cached_and_errors_never(self):
        class Text(str):
            pass

        cache = meanineq._parse_cached
        cache.cache_clear()
        assert rational(Text(" 3/6")) == Fraction(1, 2)
        for value in ("1/0", "1.5", "9" * 4301):
            for _ in range(2):
                with pytest.raises(ValueError):
                    rational(value)
        assert cache.cache_info().currsize == 0
        assert rational(" 3/6") == rational(" 3/6") == Fraction(1, 2)
        info = cache.cache_info()
        assert (info.hits, info.currsize) == (1, 1)


class TestMatrix:
    def test_margins_are_built_on_read(self):
        m = NonnegMatrix([[2, 5], [4, 0]])
        assert m.row_sums == (7, 4)
        assert m.col_sums == (6, 5)
        assert m.total == 11
        for name in ("row_sums", "col_sums", "total"):
            with pytest.raises(AttributeError):
                setattr(m, name, 0)

    def test_only_returned_values_build_fractions(self, monkeypatch):
        # Building a matrix makes no Fraction: the margins are built only
        # when read.  check makes two, its phi and rhs.
        built = []

        class Counted(Fraction):
            def __new__(cls, *args):
                built.append(args)
                return super().__new__(cls, *args)

        monkeypatch.setattr(meanineq, "Fraction", Counted)
        m = NonnegMatrix([[2, "5/3"], [4, 0], ["1/2", 7]])
        assert built == []
        NonnegMatrix.from_graph(wq_incidence(2))
        assert built == []
        verdict = check(m, "1/2", 1)
        assert len(built) == 2
        assert type(verdict.phi) is type(verdict.rhs) is Counted
        assert m.total == Fraction(91, 6) and len(built) == 3

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
        g = from_edges(2, 3, [(0, 0), (0, 2), (1, 2)])
        m = NonnegMatrix.from_graph(g)
        assert (m.v, m.w) == (2, 3)
        assert m.row_sums == (2, 1) and m.col_sums == (1, 0, 2)
        assert m.total == 3
        assert phi(m, 1, 1) == count_paths3(g) == 1

    def test_from_graph_keeps_the_margins_not_the_edges(self):
        # W(7): 400 x 400 with 3,200 edges.  A dense v*w copy alone would
        # take well over 1 MiB, and a copy of the edges about 100 KiB; the
        # two lists of 400 degrees take about 7 KiB.
        g = wq_incidence(7)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            m = NonnegMatrix.from_graph(g)
            kept, peak = (x - before for x in tracemalloc.get_traced_memory())
        finally:
            tracemalloc.stop()
        assert m.total == g.e == 3200
        assert kept <= peak < 16 << 10

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
            values = [*direct.row_sums, *direct.col_sums, direct.total]
            assert values == [*parsed.row_sums, *parsed.col_sums, parsed.total]
            assert all(type(x) is Fraction for x in values)

    def test_from_graph_needs_both_classes(self):
        with pytest.raises(ValueError, match="nonempty"):
            NonnegMatrix.from_graph(from_edges(0, 3, []))
        with pytest.raises(ValueError, match="nonempty"):
            NonnegMatrix.from_graph(from_edges(2, 0, []))


def fraction_per_entry(rows):
    """(_den, _row_nums, _col_nums, _psi, _row_sq, _col_sq, _e, row_sums,
    col_sums, total) of a matrix by the reference parse: one Fraction per
    entry, then their common denominator L, the margins times L, psi times
    L^3, the sums of squared margins times L^2 and the total times L."""
    entries = [[rational_oracle(x) for x in row] for row in rows]
    den = lcm(*[x.denominator for row in entries for x in row])
    row_sums, col_sums, total = margins_oracle(entries)
    psi = check_oracle(entries, 0, 0)[0]
    return (den, [x * den for x in row_sums], [x * den for x in col_sums], psi * den ** 3,
            sum(x * x for x in row_sums) * den ** 2, sum(x * x for x in col_sums) * den ** 2,
            total * den, row_sums, col_sums, total)


def random_entry(rng: random.Random):
    """An entry in one of the forms a matrix file or a caller may use."""
    p, q = rng.randint(0, 30), rng.randint(1, 12)
    kind = rng.randrange(6)
    if kind == 0:
        return p
    if kind == 1:
        return str(p)
    if kind == 2:
        k = rng.randint(2, 5)  # unreduced: "4/6" for 2/3
        return f"{p * k}/{q * k}"
    if kind == 3:
        return f"{rng.choice(' +')}{p}/{q}"
    if kind == 4:
        return rng.choice(["", " ", "\t"]) + f"{p}/{q}" + rng.choice(["", " ", "\n"])
    return Fraction(p, q)


class TestParseParity:
    def test_fields_equal_the_fraction_per_entry_parse(self):
        rng = random.Random(53)
        cases = [[[" 4/6 ", "+1"], ["-0/5", Fraction(8, 12)]], [["0"]], [["007/008", 3]]]
        for _ in range(400):
            v, w = rng.randint(1, 6), rng.randint(1, 6)
            cases.append([[random_entry(rng) for _ in range(w)] for _ in range(v)])
        for rows in cases:
            m = NonnegMatrix(rows)
            invariants = (m._psi, m._row_sq, m._col_sq, m._e)
            got = (m._den, m._row_nums, m._col_nums, *invariants, m.row_sums, m.col_sums, m.total)
            assert got == fraction_per_entry(rows), rows
            assert all(type(x) is int for x in (m._den, *m._row_nums, *m._col_nums, *invariants))
            assert all(type(x) is Fraction for x in (*m.row_sums, *m.col_sums, m.total))

    @pytest.mark.parametrize(
        "entry,message",
        [
            (True, "True is not a rational p or p/q"),
            (1.5, "1.5 is not a rational p or p/q"),
            ("1e5", "'1e5' is not a rational p or p/q"),
            ("1/0", "'1/0' has a zero denominator"),
            ("-2/4", "matrix entry -1/2 is negative"),
            (-7, "matrix entry -7 is negative"),
            ("9" * 4301, "rational 999999999999... has more digits than Python converts"
             f" to an integer (at most {sys.get_int_max_str_digits()})"),
        ],
        ids=["bool", "float", "exponent", "zero-denominator", "negative", "negative-int", "digits"],
    )
    def test_refused_entries_keep_their_messages(self, entry, message):
        with pytest.raises(ValueError) as exc:
            NonnegMatrix([[1, 2], [3, entry]])
        assert str(exc.value) == message
        if "negative" not in message:
            with pytest.raises(ValueError) as exc:
                rational(entry)
            assert str(exc.value) == message


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


def random_entry(rng: random.Random):
    """An int, a "p/q" string or a Fraction, zero one time in five, with a
    denominator that divides 2^3 * 3^2 * 5 * 7 * 11."""
    if rng.random() < 0.2:
        return rng.choice([0, "0/3", Fraction(0)])
    den = rng.choice([1, 2, 3, 4, 6, 7, 8, 9, 10, 11, 15, 22, 63])
    num = rng.randint(1, 5 * den)
    return rng.choice([num // den or 1, f"{num}/{den}", Fraction(num, den)])


def perturbed_counterexample(rng: random.Random) -> list[list]:
    """A counterexample with its rows and columns permuted and 0, 1 or 1/2
    added to one entry."""
    base = rng.choice([COUNTEREXAMPLE_1, COUNTEREXAMPLE_2])
    cols = rng.sample(range(len(base[0])), k=len(base[0]))
    rows = [[row[j] for j in cols] for row in rng.sample(base, k=len(base))]
    i, j = rng.randrange(len(rows)), rng.randrange(len(rows[0]))
    rows[i][j] += rng.choice([0, 1, Fraction(1, 2)])
    return rows


def oracle_entries(rows) -> list[list[Fraction]]:
    """The rows as Fractions, parsed by the oracle parser."""
    return [list(map(rational_oracle, row)) for row in rows]


def assert_agrees_with_oracle(m: NonnegMatrix, rows, rho, gamma):
    """Check the shape and margins of m and every value at (rho, gamma)
    against the Fraction oracles; return the verdict."""
    entries = oracle_entries(rows)
    assert (m.v, m.w) == (len(rows), len(rows[0]))
    assert (m.row_sums, m.col_sums, m.total) == margins_oracle(entries)
    assert all(type(x) is Fraction for x in (*m.row_sums, *m.col_sums, m.total))
    verdict = check(m, rho, gamma)
    want = check_oracle(entries, rational_oracle(rho), rational_oracle(gamma))
    assert tuple(verdict) == want, (rows, rho, gamma)
    assert [type(x) for x in verdict] == [Fraction, Fraction, bool, bool, bool]
    assert phi(m, rho, gamma) == want[0]
    assert psi(m) == check_oracle(entries, 0, 0)[0]
    return verdict


class TestOracle:
    """The integer kernel against Fraction arithmetic entry by entry."""

    def test_random_matrices(self):
        # rho and gamma have prime denominators 13..23, coprime to every
        # entry's, and reach the least margin: past the doubled threshold
        # at half of it, so the hypotheses fail in about half the cases.
        # One matrix in four is a perturbed counterexample, so that some
        # verdicts are not satisfied.
        rng = random.Random(41)
        outcomes = set()
        for k in range(1500):
            if k % 4:
                v, w = rng.randint(1, 6), rng.randint(1, 6)
                rows = [[random_entry(rng) for _ in range(w)] for _ in range(v)]
            else:
                rows = perturbed_counterexample(rng)
            m = NonnegMatrix(rows)
            q, s = rng.choice([13, 17, 19, 23]), rng.choice([13, 17, 19, 23])
            rho = Fraction(rng.randint(0, int(q * min(m.row_sums))), q)
            gamma = Fraction(rng.randint(0, int(s * min(m.col_sums))), s)
            verdict = assert_agrees_with_oracle(m, rows, rng.choice([rho, str(rho)]), gamma)
            outcomes.add((verdict.hypotheses_hold, verdict.satisfied))
        assert outcomes == {(True, True), (False, True), (False, False)}

    def test_constant_margins_and_the_zero_matrix(self):
        rng = random.Random(43)
        for _ in range(200):
            v, w = rng.randint(1, 6), rng.randint(1, 6)
            c = random_entry(rng)
            rows = [[c] * w for _ in range(v)]
            m = NonnegMatrix(rows)
            rho = random_fraction_upto(rng, min(m.row_sums) / 2)
            gamma = random_fraction_upto(rng, min(m.col_sums) / 2)
            assert assert_agrees_with_oracle(m, rows, rho, gamma).equality
        zero = [[0] * 4 for _ in range(3)]
        assert_agrees_with_oracle(NonnegMatrix(zero), zero, Fraction(1, 3), 2)

    def test_entries_with_900_distinct_prime_denominators(self):
        # The common denominator is the product of the first 900 primes,
        # a number of about 29,000 bits.
        primes = []
        n = 2
        while len(primes) < 900:
            if all(n % p for p in primes if p * p <= n):
                primes.append(n)
            n += 1
        rows = [[f"1/{primes[30 * i + j]}" for j in range(30)] for i in range(30)]
        m = NonnegMatrix(rows)
        rho, gamma = min(m.row_sums) / 3, Fraction(1, 7919)
        assert assert_agrees_with_oracle(m, rows, rho, gamma).hypotheses_hold


class TestWeakHypothesisSearch:
    @pytest.mark.parametrize(
        "rows,found",
        [(COUNTEREXAMPLE_1, [(0, 5)] * 4),
         (COUNTEREXAMPLE_2, [(1, 1), (Fraction(1, 2), 1), (Fraction(2, 3), 1), (Fraction(1, 2), 1)])],
    )
    def test_pinned_on_both_counterexamples(self, rows, found):
        m = NonnegMatrix(rows)
        for denominator, pair in enumerate(found, start=1):
            got = meanineq.find_weak_hypothesis_violation(m, denominator)
            assert got == pair == weak_violation_oracle(oracle_entries(rows), denominator)
            assert all(type(x) is Fraction for x in got)

    def test_agrees_with_oracle_on_random_matrices(self):
        # Half are random, with entries 0..3 and 1/2 to keep the margins,
        # and so the grid, small; they rarely violate the inequality.  Of
        # the perturbed counterexamples about half still do.
        rng = random.Random(47)
        found = 0
        for k in range(50):
            if k % 2:
                v, w = rng.randint(2, 4), rng.randint(2, 4)
                rows = [[rng.choice([0, 0, 1, 2, 3, "1/2"]) for _ in range(w)] for _ in range(v)]
            else:
                rows = perturbed_counterexample(rng)
            m = NonnegMatrix(rows)
            denominator = rng.randint(1, 4)
            got = meanineq.find_weak_hypothesis_violation(m, denominator)
            want = weak_violation_oracle(oracle_entries(rows), denominator)
            assert got == want, (rows, denominator)
            found += got is not None
        assert 0 < found < 50

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

    def test_refuses_a_denominator_below_one(self):
        m = NonnegMatrix(COUNTEREXAMPLE_1)
        with pytest.raises(ValueError, match="denominator must be >= 1"):
            meanineq.find_weak_hypothesis_violation(m, 0)

    @pytest.mark.parametrize("denominator", [True, False, 2.5, 4.0, "4", None, Fraction(4)])
    def test_refuses_a_denominator_that_is_not_an_int(self, denominator):
        m = NonnegMatrix(COUNTEREXAMPLE_1)
        with pytest.raises(ValueError, match="denominator must be an integer, got"):
            meanineq.find_weak_hypothesis_violation(m, denominator)

    @pytest.mark.parametrize("build,q", [(wq_incidence, 7), (pg2_incidence, 13)], ids=["W(7)", "PG(2,13)"])
    def test_none_on_the_equality_families(self, build, q):
        # Biregular: phi meets the bound with equality on the whole grid up
        # to the least degree (33 x 33 points for W(7), 57 x 57 for
        # PG(2, 13)), so no point violates it.
        m = NonnegMatrix.from_graph(build(q))
        assert meanineq.find_weak_hypothesis_violation(m) is None

    def test_none_for_safe_matrix(self):
        m = NonnegMatrix([[1, 1], [1, 1]])
        assert meanineq.find_weak_hypothesis_violation(m, denominator=2) is None
