"""Per-nest terms, E/F/G values and the two formula residuals."""

import itertools

import pytest

from nestprohibitor.orevkov import (
    OrevkovError,
    _f_from_definition,
    allowed_zones,
    e_values,
    f_value,
    first_formula_residual,
    g_value,
    nest_terms,
    second_formula_residual,
)
from nestprohibitor.schemes import (
    MINUS,
    PLUS,
    ComplexType,
    NestScheme,
    enumerate_nest_schemes,
)


def ns(nu, a_plus, a_minus):
    return NestScheme(nu, a_plus, a_minus)


# (scheme, pi, pi', N, M, G) rows of the per-nest table
TERM_ROWS = [
    (ns(MINUS, 1, 1), 0, 0, 0, 1, 0),
    (ns(PLUS, 1, 1), 0, 0, 1, 0, 1),
    (ns(MINUS, 1, 0), 0, 1, 0, 1, 0),
    (ns(PLUS, 0, 1), 1, 0, 1, 0, 0),
    (ns(MINUS, 0, 1), 0, -1, 0, 1, 0),
    (ns(PLUS, 1, 0), -1, 0, 1, 0, 2),
    (ns(MINUS, 2, 0), 0, 2, 0, 1, 0),
    (ns(PLUS, 0, 2), 2, 0, 1, 0, -1),
    (ns(MINUS, 0, 2), 0, -2, 0, 1, 0),
    (ns(PLUS, 2, 0), -2, 0, 1, 0, 3),
]


class TestNestTerms:
    @pytest.mark.parametrize("scheme,pi,pi_p,n,m,g", TERM_ROWS)
    def test_table_rows(self, scheme, pi, pi_p, n, m, g):
        t = nest_terms(scheme)
        assert (t.pi, t.pi_prime, t.big_n, t.big_m) == (pi, pi_p, n, m)
        assert g_value(scheme) == g

    def test_terms_scale_with_counts(self):
        assert nest_terms(ns(PLUS, 4, 5)).pi == 1
        assert nest_terms(ns(MINUS, 10, 9)).pi_prime == 1

    def test_exactly_one_of_pi_piprime_nonzero(self):
        for alpha in range(1, 24):
            for s in enumerate_nest_schemes(alpha, jump_allowed=True):
                t = nest_terms(s)
                assert t.pi == 0 or t.pi_prime == 0
                assert abs(t.pi) + abs(t.pi_prime) == abs(s.diff)

    def test_structural_invariants(self):
        t = nest_terms(ns(PLUS, 3, 3))
        assert t.big_n + t.big_m == 1


F_ROWS = [
    (ComplexType(ns(MINUS, 1, 1), "d"), 0),
    (ComplexType(ns(MINUS, 1, 1), "u"), -1),
    (ComplexType(ns(PLUS, 1, 1), "d"), 0),
    (ComplexType(ns(PLUS, 1, 1), "u"), -1),
    (ComplexType(ns(MINUS, 0, 1), "s"), -1),
    (ComplexType(ns(MINUS, 1, 0), "s"), 0),
    (ComplexType(ns(PLUS, 0, 1), "s"), 0),
    (ComplexType(ns(PLUS, 1, 0), "s"), -1),
]


class TestFValues:
    @pytest.mark.parametrize("ct,expected", F_ROWS)
    def test_table(self, ct, expected):
        assert f_value(ct) == expected

    def test_value_is_size_independent(self):
        assert f_value(ComplexType(ns(MINUS, 5, 5), "u")) == -1
        assert f_value(ComplexType(ns(PLUS, 4, 3), "s")) == -1

    def test_nonseparating_rejected(self):
        with pytest.raises(OrevkovError):
            f_value(ComplexType(ns(MINUS, 1, 1), "n"))

    def test_from_definition_matches_table(self):
        # the frozen table agrees with the defining pair counts across
        # chain layouts and choices of the auxiliary interior base
        for ct, expected in F_ROWS:
            alpha = 6 if ct.tag != "s" else 5
            a_plus = alpha // 2 if ct.tag != "s" else (alpha + ct.scheme.mu) // 2
            big = ComplexType(ns(ct.scheme.nu, a_plus, alpha - a_plus), ct.tag)
            straddles = (2, 4) if ct.tag != "s" else (0,)
            for straddle in straddles:
                for a4 in range(straddle + 1, alpha):
                    assert _f_from_definition(big, alpha, straddle, a4) == expected


E_ROWS = [
    ((ns(MINUS, 1, 1), ns(MINUS, 1, 1), ns(MINUS, 1, 1)), (0, -1, -1, -1), (0,)),
    ((ns(MINUS, 1, 1), ns(MINUS, 1, 1), ns(PLUS, 1, 1)), (-1, -2, -2, 0), (3,)),
    ((ns(MINUS, 1, 1), ns(PLUS, 1, 1), ns(PLUS, 1, 1)), (-2, -3, -1, -1), ()),
    ((ns(PLUS, 1, 1), ns(PLUS, 1, 1), ns(PLUS, 1, 1)), (-3, -2, -2, -2), ()),
]


class TestEValues:
    @pytest.mark.parametrize("triple,expected,zones", E_ROWS)
    def test_table(self, triple, expected, zones):
        assert e_values(*triple) == expected
        assert allowed_zones(*triple) == zones

    def test_deep_balanced_matches_shallow(self):
        deep = (ns(MINUS, 5, 5), ns(MINUS, 3, 3), ns(MINUS, 10, 10))
        assert e_values(*deep) == (0, -1, -1, -1)

    def test_mixed_depth_rows(self):
        triple = (ns(MINUS, 1, 1), ns(MINUS, 0, 1), ns(MINUS, 0, 1))
        assert e_values(*triple)[1:] == (-1, -2, -2)

    def test_equals_the_definition_from_nest_terms(self):
        # E_0 = sum pi - sum N; E_i swaps nest i's (pi, N) for (pi', M)
        pool = [s for alpha in range(1, 7) for s in enumerate_nest_schemes(alpha, True)]
        for triple in itertools.product(pool, repeat=3):
            t = [nest_terms(s) for s in triple]
            expected = [sum(x.pi for x in t) - sum(x.big_n for x in t)]
            for i in range(3):
                others = [t[j] for j in range(3) if j != i]
                lhs = sum(x.pi for x in others) + t[i].pi_prime
                rhs = sum(x.big_n for x in others) + t[i].big_m
                expected.append(lhs - rhs)
            assert e_values(*triple) == tuple(expected), triple

    def test_slot_symmetry(self):
        # swapping the two uninvolved nests fixes E0 and swaps their E's
        for s1, s2, s3 in itertools.product(
            enumerate_nest_schemes(2, False), repeat=3
        ):
            a = e_values(s1, s2, s3)
            b = e_values(s1, s3, s2)
            assert a[0] == b[0]
            assert a[1] == b[1]
            assert (a[2], a[3]) == (b[3], b[2])


class TestFirstFormula:
    def test_placements(self):
        triple = (ns(MINUS, 1, 1), ns(MINUS, 1, 1), ns(MINUS, 1, 1))
        assert first_formula_residual(triple, 0) == 0
        plus = (ns(PLUS, 1, 1), ns(PLUS, 1, 1), ns(PLUS, 1, 1))
        assert first_formula_residual(plus, 0) == -3
        mixed = (ns(MINUS, 1, 1), ns(PLUS, 1, 1), ns(PLUS, 1, 1))
        assert first_formula_residual(mixed, 1) == -3

    def test_depth_pattern_enforced(self):
        triple = (ns(MINUS, 1, 1), ns(MINUS, 1, 1), ns(MINUS, 1, 1))
        with pytest.raises(OrevkovError):
            first_formula_residual(triple, 4)
        with pytest.raises(OrevkovError):
            first_formula_residual(triple[:2], 0)


SECOND_ROWS = [
    (ComplexType(ns(MINUS, 1, 1), "d"), ns(MINUS, 1, 1), ns(MINUS, 1, 1), 0),
    (ComplexType(ns(MINUS, 1, 1), "d"), ns(MINUS, 1, 1), ns(PLUS, 1, 1), -1),
    (ComplexType(ns(MINUS, 1, 1), "d"), ns(PLUS, 1, 1), ns(PLUS, 1, 1), -2),
    (ComplexType(ns(MINUS, 1, 1), "u"), ns(MINUS, 1, 1), ns(MINUS, 1, 1), -1),
    (ComplexType(ns(MINUS, 1, 1), "u"), ns(MINUS, 1, 1), ns(PLUS, 1, 1), -2),
    (ComplexType(ns(MINUS, 1, 1), "u"), ns(PLUS, 1, 1), ns(PLUS, 1, 1), -3),
    (ComplexType(ns(PLUS, 1, 1), "d"), ns(MINUS, 1, 1), ns(MINUS, 1, 1), 0),
    (ComplexType(ns(PLUS, 1, 1), "d"), ns(MINUS, 1, 1), ns(PLUS, 1, 1), -1),
    (ComplexType(ns(PLUS, 1, 1), "d"), ns(PLUS, 1, 1), ns(PLUS, 1, 1), -2),
    (ComplexType(ns(PLUS, 1, 1), "u"), ns(MINUS, 1, 1), ns(MINUS, 1, 1), -1),
    (ComplexType(ns(PLUS, 1, 1), "u"), ns(MINUS, 1, 1), ns(PLUS, 1, 1), -2),
    (ComplexType(ns(PLUS, 1, 1), "u"), ns(PLUS, 1, 1), ns(PLUS, 1, 1), -3),
]


class TestSecondFormula:
    @pytest.mark.parametrize("sep,sj,sk,expected", SECOND_ROWS)
    def test_table(self, sep, sj, sk, expected):
        assert second_formula_residual(sep, sj, sk) == expected

    @pytest.mark.parametrize("sep,sj,sk,expected", SECOND_ROWS)
    def test_residual_is_f_minus_g_minus_g(self, sep, sj, sk, expected):
        assert second_formula_residual(sep, sj, sk) == (
            f_value(sep) - g_value(sj) - g_value(sk)
        )

    def test_companion_symmetry(self):
        sep = ComplexType(ns(MINUS, 1, 1), "d")
        a, b = ns(MINUS, 1, 1), ns(PLUS, 1, 1)
        assert second_formula_residual(sep, a, b) == second_formula_residual(sep, b, a)

    def test_nonseparating_rejected(self):
        with pytest.raises(OrevkovError):
            second_formula_residual(
                ComplexType(ns(MINUS, 1, 1), "n"), ns(MINUS, 1, 1), ns(MINUS, 1, 1)
            )
