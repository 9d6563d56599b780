"""Scheme model: parser, formatter, enumerators and their invariants."""

import copy

import pytest
from hypothesis import given, strategies as st

from nestprohibitor.schemes import (
    EMPTY_OVALS,
    MINUS,
    PLUS,
    ComplexType,
    CurveType,
    Jump,
    NestScheme,
    RealScheme,
    SchemeArityError,
    SchemeInvariantError,
    SchemeSyntaxError,
    _parse_short_scheme,
    enumerate_nest_schemes,
    enumerate_three_nest_schemes,
    format_real_scheme,
    nest_complex_types,
    parse_real_scheme,
    pi_delta,
)


def all_canonical_schemes():
    return enumerate_three_nest_schemes()


class TestParse:
    def test_family_member(self):
        s = parse_real_scheme("<J + 1<2> + 1<2> + 1<20> + 1>")
        assert s.alpha == (2, 2, 20)
        assert s.beta == 1

    def test_minimal_nests(self):
        s = parse_real_scheme("<J + 1<1> + 1<1> + 1<1> + 22>")
        assert s.alpha == (1, 1, 1)
        assert s.beta == 22

    def test_two_nests_is_arity_error(self):
        with pytest.raises(SchemeArityError):
            parse_real_scheme("<J + 1<2> + 1<2>>")

    def test_four_nests_is_arity_error(self):
        with pytest.raises(SchemeArityError):
            parse_real_scheme("<J + 1<1> + 1<1> + 1<1> + 1<1> + 21>")

    def test_depth_three_rejected(self):
        with pytest.raises(SchemeArityError):
            parse_real_scheme("<J + 1<1<1>> + 1<1> + 1<1> + 21>")

    def test_deep_nesting_rejected_at_the_third_level(self):
        # a reader that recursed once per "<" would overflow the stack here
        deep = "1<" * 5000 + "1" + ">" * 5000
        with pytest.raises(SchemeArityError, match="depth greater than two"):
            parse_real_scheme(f"<J + {deep} + 1<1> + 1<1> + 21>")

    def test_syntax_error_reports_position(self):
        with pytest.raises(SchemeSyntaxError) as err:
            parse_real_scheme("<J + 1<2> + 1<2> + 1<20> + 1")
        assert err.value.position == 28

    @pytest.mark.parametrize(
        "count, position, message",
        [("9" * 5000, 21, "too many digits"), ("2\u00b2", 22, "expected '>'")],
        ids=["5000-digits", "superscript-digit"],
    )
    def test_bad_count_is_syntax_error(self, count, position, message):
        # int() converts at most 4300 digits, and str.isdigit() accepts
        # digits int() does not read; neither may escape as a plain ValueError.
        with pytest.raises(SchemeSyntaxError, match=message) as err:
            parse_real_scheme(f"<J + 1<2> + 1<2> + 1<{count}> + 1>")
        assert err.value.position == position

    def test_bad_total_strict(self):
        # the constructor's check, the one check of the total
        with pytest.raises(SchemeInvariantError, match="must be 25, got 4"):
            parse_real_scheme("<J + 1<1> + 1<1> + 1<1> + 1>")

    def test_bad_total_relaxed(self):
        s = parse_real_scheme("<J + 1<1> + 1<1> + 1<1> + 1>", strict=False)
        assert s.alpha == (1, 1, 1) and s.beta == 1
        assert str(s) == "<J + 1<1> + 1<1> + 1<1> + 1>"
        assert repr(s) == "RealScheme(alpha=(1, 1, 1), beta=1)"
        assert type(s) is RealScheme and s == ((1, 1, 1), 1)
        assert s == parse_real_scheme("<J+1<1>+1<1>+1<1>+1>", strict=False)
        # the one unchecked value: rebuilding it runs the check it skipped
        for rebuild in (copy.copy, RealScheme._replace, RealScheme._make):
            with pytest.raises(SchemeInvariantError):
                rebuild(s)

    def test_nests_kept_in_written_order(self):
        s = parse_real_scheme("<J + 1<20> + 1<2> + 1<2> + 1>")
        assert s.alpha == (20, 2, 2)
        assert s.canonical().alpha == (2, 2, 20)

    def test_whitespace_free(self):
        s = parse_real_scheme("<J+1<2>+1<2>+1<20>+1>")
        assert s.alpha == (2, 2, 20)

    def test_non_singleton_wrapper_rejected(self):
        with pytest.raises(SchemeSyntaxError):
            parse_real_scheme("<J + 2<2> + 1<2> + 1<20> + 1>")


class TestFormat:
    @pytest.mark.parametrize(
        "alpha,beta,text",
        [
            ((2, 2, 20), 1, "<J + 1<2> + 1<2> + 1<20> + 1>"),
            ((4, 6, 8), 7, "<J + 1<4> + 1<6> + 1<8> + 7>"),
            ((2, 2, 2), 19, "<J + 1<2> + 1<2> + 1<2> + 19>"),
            ((1, 1, 23), 0, "<J + 1<1> + 1<1> + 1<23>>"),
        ],
    )
    def test_examples(self, alpha, beta, text):
        assert format_real_scheme(RealScheme(alpha, beta)) == text

    def test_round_trip_all_canonical(self):
        for s in all_canonical_schemes():
            assert parse_real_scheme(format_real_scheme(s)) == s

    @given(
        st.sampled_from(all_canonical_schemes()),
        st.sampled_from(["", " ", "  ", "\t"]),
    )
    def test_round_trip_survives_whitespace(self, scheme, pad):
        text = format_real_scheme(scheme)
        noisy = (
            text.replace("<", f"<{pad}")
            .replace(">", f"{pad}>")
            .replace("+", f"{pad}+{pad}")
        )
        assert parse_real_scheme(noisy) == scheme


class TestEnumerateSchemes:
    def test_all_even_count_is_53(self):
        assert len(enumerate_three_nest_schemes(lambda s: s.all_even)) == 53

    def test_all_even_beta1_count_is_12(self):
        found = enumerate_three_nest_schemes(lambda s: s.all_even and s.beta == 1)
        assert len(found) == 12

    def test_all_even_beta_not_1_count_is_41(self):
        found = enumerate_three_nest_schemes(lambda s: s.all_even and s.beta != 1)
        assert len(found) == 41

    def test_forced_beta_for_minimal_nests(self):
        found = enumerate_three_nest_schemes(lambda s: s.alpha == (1, 1, 1))
        assert found == [RealScheme((1, 1, 1), 22)]

    def test_lexicographic_no_duplicates(self):
        schemes = all_canonical_schemes()
        alphas = [s.alpha for s in schemes]
        assert alphas == sorted(alphas)
        assert len(set(alphas)) == len(alphas)
        assert all(s.is_canonical for s in schemes)

    def test_even_count_against_brute_force(self):
        # all-even triples correspond to halved triples summing to at most 12
        brute = sum(
            1
            for a1 in range(1, 13)
            for a2 in range(a1, 13)
            for a3 in range(a2, 13)
            if a1 + a2 + a3 <= 12
        )
        assert brute == 53


class TestNestSchemes:
    def test_alpha2_without_jump(self):
        found = enumerate_nest_schemes(2, jump_allowed=False)
        assert found == [NestScheme(PLUS, 1, 1), NestScheme(MINUS, 1, 1)]

    def test_alpha1(self):
        found = enumerate_nest_schemes(1, jump_allowed=False)
        assert set(found) == {
            NestScheme(PLUS, 1, 0),
            NestScheme(PLUS, 0, 1),
            NestScheme(MINUS, 1, 0),
            NestScheme(MINUS, 0, 1),
        }
        assert found == enumerate_nest_schemes(1, jump_allowed=True)

    def test_alpha2_with_jump_adds_imbalance2(self):
        found = enumerate_nest_schemes(2, jump_allowed=True)
        assert len(found) == 6
        extra = set(found) - set(enumerate_nest_schemes(2, jump_allowed=False))
        assert extra == {
            NestScheme(PLUS, 2, 0),
            NestScheme(PLUS, 0, 2),
            NestScheme(MINUS, 2, 0),
            NestScheme(MINUS, 0, 2),
        }

    @pytest.mark.parametrize("jump_allowed", [False, True])
    def test_matches_brute_force_enumeration(self, jump_allowed):
        bound = 2 if jump_allowed else 1
        for alpha in range(1, 24):
            brute = {
                (nu, ap, alpha - ap)
                for nu in (PLUS, MINUS)
                for ap in range(alpha + 1)
                if abs(2 * ap - alpha) <= bound
            }
            found = enumerate_nest_schemes(alpha, jump_allowed)
            assert {(s.nu, s.a_plus, s.a_minus) for s in found} == brute
            for s in found:
                assert s.alpha == alpha
                assert abs(s.diff) <= bound

    def test_alpha_below_one_rejected(self):
        with pytest.raises(SchemeInvariantError):
            enumerate_nest_schemes(0, jump_allowed=False)

    def test_short_encodings(self):
        assert str(NestScheme(PLUS, 1, 1)) == "+"
        assert str(NestScheme(MINUS, 2, 2)) == "-"
        assert str(NestScheme(PLUS, 0, 1)) == "(+, -)"
        assert str(NestScheme(MINUS, 2, 0)) == "(-, +, +)"

    @pytest.mark.parametrize("alpha", range(1, 7))
    def test_short_form_parses_back(self, alpha):
        for s in enumerate_nest_schemes(alpha, jump_allowed=True):
            assert str(_parse_short_scheme(str(s))) == str(s)


def _jumped_curve_type() -> CurveType:
    return CurveType(
        (
            ComplexType(NestScheme(PLUS, 1, 1), "d"),
            ComplexType(NestScheme(MINUS, 0, 1), "s"),
            ComplexType(NestScheme(PLUS, 0, 2), "n"),
        ),
        Jump((1, 1, 1)),
    )


N_TYPE = ComplexType(NestScheme(PLUS, 1, 1), "n")


class TestConstructorChecks:
    # A check by value alone takes each of these, as 1 == True and 2.0 == 2,
    # and the value then prints or replays wrongly: the jump trichotomy
    # reads a crossing of 0 as "not False", and replay rejects it.  A part
    # of the wrong type would end in an AttributeError, or in a value whose
    # hash raises TypeError.
    @pytest.mark.parametrize(
        "build",
        [
            lambda: RealScheme((2.0, 2, 20), 1),
            lambda: RealScheme((2, 2, 20), True),
            lambda: NestScheme(True, 1, 1),
            lambda: NestScheme(PLUS, 1.0, 1),
            lambda: NestScheme(PLUS, 1, True),
            lambda: Jump((1, 1.0, 1)),
            lambda: Jump((1, 1, 1), crossing=0),
            lambda: Jump((1, 1, 1), crossing=1),
            lambda: Jump((1, 1, 1), crossing="x"),
            lambda: ComplexType((1, 1, 1), "n"),
            lambda: CurveType((N_TYPE, N_TYPE, N_TYPE), (1, 1, 1)),
            lambda: CurveType([N_TYPE, N_TYPE, N_TYPE]),
            lambda: CurveType((N_TYPE, N_TYPE, NestScheme(PLUS, 1, 1))),
            # a value is a tuple too, but not one of counts
            lambda: RealScheme(NestScheme(PLUS, 1, 1), 22),
            lambda: Jump(NestScheme(PLUS, 1, 1)),
            lambda: CurveType(CurveType((N_TYPE, N_TYPE, N_TYPE))),
        ],
        ids=[
            "alpha-float", "beta-bool", "nu-bool", "a_plus-float", "a_minus-bool",
            "repartition-float", "crossing-zero", "crossing-one", "crossing-string",
            "scheme-tuple", "jump-tuple", "nests-list", "nest-scheme",
            "alpha-value", "repartition-value", "nests-value",
        ],
    )
    def test_loose_value_rejected(self, build):
        with pytest.raises(SchemeInvariantError):
            build()

    @pytest.mark.parametrize("count", [2, 4])
    def test_three_nests_required(self, count):
        with pytest.raises(SchemeArityError, match="exactly three nests"):
            CurveType((N_TYPE,) * count)

    @pytest.mark.parametrize("crossing", [None, True, False])
    def test_crossing_values_accepted(self, crossing):
        assert Jump((1, 2, 1), crossing=crossing).crossing is crossing


class TestDerivedFields:
    def test_repr_lists_the_given_fields_only(self):
        ct = ComplexType(NestScheme(PLUS, 1, 1), "d")
        assert repr(ct) == "ComplexType(scheme=NestScheme(nu=1, a_plus=1, a_minus=1), tag='d')"
        assert repr(_jumped_curve_type()) == (
            "CurveType(nests=(ComplexType(scheme=NestScheme(nu=1, a_plus=1, a_minus=1), "
            "tag='d'), ComplexType(scheme=NestScheme(nu=-1, a_plus=0, a_minus=1), tag='s'), "
            "ComplexType(scheme=NestScheme(nu=1, a_plus=0, a_minus=2), tag='n')), "
            "jump=Jump(repartition=(1, 1, 1), crossing=None))"
        )

    def test_text_and_schemes(self):
        c = _jumped_curve_type()
        assert str(c) == "[(+, d), (-, -, s), (+, -, -, n) | jump (1, 1, 1) ?]"
        assert c.schemes == tuple(ct.scheme for ct in c.nests)
        assert c.schemes[2] == NestScheme(PLUS, 0, 2)

    def test_non_crossing_text(self):
        c = _jumped_curve_type()._replace(jump=Jump((1, 1, 1), crossing=False))
        assert str(c) == "[(+, d), (-, -, s), (+, -, -, n) | jump (1, 1, 1) non-crossing]"

    def test_equality_hash_and_order_ignore_derived_fields(self):
        a, b = ComplexType(NestScheme(PLUS, 1, 0), "s"), ComplexType(NestScheme(PLUS, 1, 0), "s")
        object.__setattr__(b, "_text", "(-, z)")
        assert a == b and hash(a) == hash(b) and not a < b and not b < a
        assert sorted([b, a])[0] is b  # "(-, z)" > "(+, s)" as text
        c, d = _jumped_curve_type(), _jumped_curve_type()
        object.__setattr__(d, "_text", "[]")
        object.__setattr__(d, "schemes", ())
        assert c == d and hash(c) == hash(d)

    def test_replace_rebuilds_the_derived_fields(self):
        c = _jumped_curve_type()
        crossing = c._replace(jump=Jump((1, 1, 1), crossing=True))
        assert str(crossing) == "[(+, d), (-, -, s), (+, -, -, n) | jump (1, 1, 1) crossing]"
        nests = (ComplexType(NestScheme(MINUS, 1, 1), "u"), *c.nests[1:])
        moved = c._replace(nests=nests)
        assert str(moved) == "[(-, u), (-, -, s), (+, -, -, n) | jump (1, 1, 1) ?]"
        assert moved.schemes == (NestScheme(MINUS, 1, 1), *c.schemes[1:])
        ct = c.nests[0]._replace(tag="n")
        assert str(ct) == "(+, n)"


class TestComplexTypes:
    def test_per_nest_count_for_alpha1(self):
        assert len(nest_complex_types(1)) == 8  # 4 schemes x tags {n, s}

    def test_even_nest_tags(self):
        types = nest_complex_types(2)
        tags = sorted(str(t) for t in types)
        assert tags == [
            "(+, d)",
            "(+, n)",
            "(+, u)",
            "(-, d)",
            "(-, n)",
            "(-, u)",
        ]

    def test_tag_parity_enforced(self):
        with pytest.raises(SchemeInvariantError):
            ComplexType(NestScheme(PLUS, 1, 0), "u")
        with pytest.raises(SchemeInvariantError):
            ComplexType(NestScheme(PLUS, 1, 1), "s")

    def test_jumped_nest_must_be_nonseparating(self):
        good = CurveType(
            (
                ComplexType(NestScheme(MINUS, 1, 1), "n"),
                ComplexType(NestScheme(MINUS, 1, 1), "n"),
                ComplexType(NestScheme(PLUS, 0, 2), "n"),
            ),
            Jump((1, 1, 1)),
        )
        assert good.jump.all_odd
        # a balanced nest, so that only the tag is wrong for a jumped nest
        with pytest.raises(SchemeInvariantError, match="jumped nest is non-separating"):
            CurveType(
                (
                    ComplexType(NestScheme(MINUS, 1, 1), "n"),
                    ComplexType(NestScheme(MINUS, 1, 1), "n"),
                    ComplexType(NestScheme(PLUS, 1, 1), "d"),
                ),
                Jump((1, 2, 1)),
            )

    def test_imbalance2_needs_jump(self):
        with pytest.raises(SchemeInvariantError):
            CurveType(
                (
                    ComplexType(NestScheme(MINUS, 1, 1), "n"),
                    ComplexType(NestScheme(MINUS, 1, 1), "n"),
                    ComplexType(NestScheme(PLUS, 0, 2), "n"),
                )
            )

    @pytest.mark.parametrize("slot", [0, 1])
    def test_imbalance2_outside_the_jumped_nest_rejected(self, slot):
        jumped = ComplexType(NestScheme(PLUS, 0, 2), "n")
        nests = [N_TYPE, N_TYPE, jumped]
        nests[slot] = jumped
        with pytest.raises(SchemeInvariantError, match="jump to sit in that nest"):
            CurveType(tuple(nests), Jump((1, 1, 1)))

    def test_imbalance2_needs_an_all_odd_repartition(self):
        nests = (N_TYPE, N_TYPE, ComplexType(NestScheme(PLUS, 0, 2), "n"))
        with pytest.raises(SchemeInvariantError, match="requires an all-odd repartition"):
            CurveType(nests, Jump((1, 2, 1)))

    def test_repartition_groups_exhaust_the_jumped_nest(self):
        # l1 + l3 = 3 against alpha = 2, with neither imbalance 2 nor all odd
        with pytest.raises(SchemeInvariantError, match="must exhaust the jumped nest"):
            CurveType((N_TYPE, N_TYPE, N_TYPE), Jump((1, 2, 2)))

    def test_all_odd_repartition_forces_imbalance(self):
        with pytest.raises(SchemeInvariantError):
            CurveType(
                (
                    ComplexType(NestScheme(MINUS, 1, 1), "n"),
                    ComplexType(NestScheme(MINUS, 1, 1), "n"),
                    ComplexType(NestScheme(PLUS, 1, 1), "n"),
                ),
                Jump((1, 1, 1)),
            )


class TestPairCounts:
    def test_pair_delta_of_balanced_triple_is_zero(self):
        s = NestScheme(MINUS, 3, 3)
        assert pi_delta((s, s, s)) == 0

    def test_pair_delta_of_the_empty_triangle_list_is_four(self):
        # the admissible schemes under four empty triangles
        triple = (
            NestScheme(PLUS, 0, 1),
            NestScheme(MINUS, 1, 0),
            NestScheme(PLUS, 0, 2),
        )
        assert pi_delta(triple) == 4

    def test_total_is_25(self):
        for s in all_canonical_schemes():
            assert sum(s.alpha) + s.beta == EMPTY_OVALS
