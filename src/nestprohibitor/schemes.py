"""Real schemes, nest complex schemes and curve complex types.

The objects here describe the isotopy data of a degree-9 M-curve whose 28
ovals split into three nests (a non-empty oval with alpha_i empty ovals
inside) and beta outer empty ovals, so alpha_1 + alpha_2 + alpha_3 + beta
= 25.  Complex-orientation data is layered on top: each nest gets a sign
for its non-empty oval and a (positive, negative) split of its interior
ovals, and a curve-level record may carry the single admissible "jump" in
one nest's oval chain.

Everything is an immutable value, a named tuple; all operations are pure.
"""

from __future__ import annotations

from collections import namedtuple
from typing import Callable, Optional

DEGREE = 9
GENUS = (DEGREE - 1) * (DEGREE - 2) // 2  # 28
OVALS = GENUS  # an M-curve of odd degree: one pseudo-line plus g ovals
EMPTY_OVALS = OVALS - 3  # 25 empty ovals distributed over nests and outside

PLUS = 1
MINUS = -1


class SchemeError(ValueError):
    """Base class for scheme construction/parsing failures."""


class SchemeSyntaxError(SchemeError):
    """Malformed bracket notation; carries the 0-based offending position."""

    def __init__(self, position: int, message: str):
        super().__init__(f"position {position}: {message}")
        self.position = position


class SchemeArityError(SchemeError):
    """Well-formed text that is not a three-nest depth-2 scheme."""


class SchemeInvariantError(SchemeError):
    """Scheme data violating the oval-count invariants."""


def _sign_str(sign: int) -> str:
    return "+" if sign > 0 else "-"


def _ints(*values) -> bool:
    """True when every value is an int by type: not a bool, nor a float."""
    return all(type(v) is int for v in values)


def _checked(name: str, fields) -> type:
    """The named-tuple base of a value type whose `__new__` checks its
    fields.  `_make`, and so `_replace`, copy, deepcopy and pickle call
    that constructor, so no value skips its checks."""
    base = namedtuple(name, fields)
    base._make = classmethod(lambda cls, iterable: cls(*iterable))
    base.__reduce__ = lambda self: (type(self), tuple(self))
    return base


def _frozen(self, *args):
    """`__setattr__` of a value type that keeps derived fields beside its tuple."""
    raise AttributeError(f"{type(self).__name__} is immutable")


# ---------------------------------------------------------------------------
# Real schemes


class RealScheme(_checked("RealScheme", "alpha beta")):
    """Isotopy type <J + 1<a1> + 1<a2> + 1<a3> + b>, nests in stored order."""

    __slots__ = ()

    def __new__(cls, alpha: tuple[int, int, int], beta: int):
        if type(alpha) is not tuple:  # a value is a tuple, but not of counts
            raise SchemeInvariantError(f"alpha {alpha!r} is not a tuple")
        if len(alpha) != 3:
            raise SchemeArityError("exactly three nests are required")
        if not _ints(*alpha, beta):
            raise SchemeInvariantError("alpha and beta must be ints")
        if any(a < 1 for a in alpha):
            raise SchemeInvariantError("every nest must contain at least one empty oval")
        if beta < 0:
            raise SchemeInvariantError("beta must be non-negative")
        if sum(alpha) + beta != EMPTY_OVALS:
            raise SchemeInvariantError(
                f"alpha_1+alpha_2+alpha_3+beta must be {EMPTY_OVALS}, "
                f"got {sum(alpha) + beta}"
            )
        return tuple.__new__(cls, (alpha, beta))

    @property
    def is_canonical(self) -> bool:
        return self.alpha[0] <= self.alpha[1] <= self.alpha[2]

    def canonical(self) -> "RealScheme":
        return RealScheme(tuple(sorted(self.alpha)), self.beta)

    @property
    def all_even(self) -> bool:
        return all(a % 2 == 0 for a in self.alpha)

    def __str__(self) -> str:
        return format_real_scheme(self)


def format_real_scheme(scheme: RealScheme) -> str:
    """Canonical one-line text for a scheme; inverse of parse_real_scheme."""
    parts = [f"1<{a}>" for a in scheme.alpha]
    if scheme.beta:
        parts.append(str(scheme.beta))
    return "<J + " + " + ".join(parts) + ">"


class _Parser:
    """Reader for the ASCII bracket notation.

    Grammar:  scheme := "<" "J" ("+" item)* ">"
              item   := count | "1" "<" count ("+" count)* ">"
    Counts are positive integers; whitespace is free between tokens.
    A nest inside a nest is rejected at its "<": the reader does not
    recurse, so no depth of input exhausts the stack.
    """

    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, message: str) -> "SchemeSyntaxError":
        return SchemeSyntaxError(self.pos, message)

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        if self.pos >= len(self.text):
            return ""
        return self.text[self.pos]

    def expect(self, char: str) -> None:
        if self.peek() != char:
            got = repr(self.peek()) if self.peek() else "end of input"
            raise self.error(f"expected {char!r}, found {got}")
        self.pos += 1

    def read_count(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos] in "0123456789":
            self.pos += 1
        if self.pos == start:
            raise self.error("expected a positive integer")
        try:
            value = int(self.text[start : self.pos])
        except ValueError:  # more digits than int() converts
            self.pos = start
            raise self.error("count has too many digits") from None
        if value < 1:
            self.pos = start
            raise self.error("counts must be positive")
        return value

    def read_item(self):
        # Returns either an int (bare empty-oval count) or a nest's counts.
        count = self.read_count()
        if self.peek() != "<":
            return count
        if count != 1:
            raise self.error("only a single oval may enclose others")
        self.pos += 1
        contents = [self.read_count()]
        while self.peek() == "+":
            self.pos += 1
            contents.append(self.read_count())
        if self.peek() == "<":  # a count followed by "<" opens a third level
            raise SchemeArityError("nests of depth greater than two are not supported")
        self.expect(">")
        return contents

    def parse(self):
        self.expect("<")
        if self.peek() != "J":
            raise self.error("expected 'J'")
        self.pos += 1
        items = []
        while self.peek() == "+":
            self.pos += 1
            items.append(self.read_item())
        self.expect(">")
        self.skip_ws()
        if self.pos != len(self.text):
            raise self.error("trailing input after scheme")
        return items


def parse_real_scheme(text: str, strict: bool = True) -> RealScheme:
    """Parse bracket notation such as "<J + 1<2> + 1<2> + 1<20> + 1>".

    Nests are kept in written order.  With strict=True (the default) the
    25-oval total is enforced; strict=False skips only that check.
    """
    items = _Parser(text).parse()
    alphas: list[int] = []
    beta = 0
    for item in items:
        if isinstance(item, int):
            beta += item
        else:
            alphas.append(sum(item))
    if len(alphas) != 3:
        raise SchemeArityError(f"expected exactly three nests, found {len(alphas)}")
    total = sum(alphas) + beta
    if strict and total != EMPTY_OVALS:
        raise SchemeInvariantError(
            f"empty ovals must total {EMPTY_OVALS}, got {total}"
        )
    if strict:
        return RealScheme((alphas[0], alphas[1], alphas[2]), beta)
    # The one value built without its constructor's checks: the total is
    # off, and copying the value or calling `_replace` on it raises.
    return tuple.__new__(RealScheme, ((alphas[0], alphas[1], alphas[2]), beta))


def enumerate_three_nest_schemes(
    predicate: Optional[Callable[[RealScheme], bool]] = None,
) -> list[RealScheme]:
    """All canonical schemes (a1 <= a2 <= a3, each >= 1), lexicographic.

    The optional predicate filters on the full scheme (alpha triple and
    beta are both available on it).
    """
    out: list[RealScheme] = []
    for a1 in range(1, EMPTY_OVALS + 1):
        for a2 in range(a1, EMPTY_OVALS + 1):
            rest = EMPTY_OVALS - a1 - a2
            if rest < a2:
                break
            for a3 in range(a2, rest + 1):
                scheme = RealScheme((a1, a2, a3), EMPTY_OVALS - a1 - a2 - a3)
                if predicate is None or predicate(scheme):
                    out.append(scheme)
    return out


# ---------------------------------------------------------------------------
# Nest complex schemes


class NestScheme(_checked("NestScheme", "nu a_plus a_minus")):
    """Complex scheme of one nest: non-empty oval sign and interior split."""

    __slots__ = ()

    def __new__(cls, nu: int, a_plus: int, a_minus: int):
        if not _ints(nu, a_plus, a_minus):
            raise SchemeInvariantError("nu, a_plus and a_minus must be ints")
        if nu not in (PLUS, MINUS):
            raise SchemeInvariantError("nu must be +1 or -1")
        if a_plus < 0 or a_minus < 0:
            raise SchemeInvariantError("interior counts must be non-negative")
        if a_plus + a_minus < 1:
            raise SchemeInvariantError("a nest holds at least one interior oval")
        if abs(a_plus - a_minus) > 2:
            raise SchemeInvariantError("|a_plus - a_minus| must be at most 2")
        return tuple.__new__(cls, (nu, a_plus, a_minus))

    @property
    def alpha(self) -> int:
        return self.a_plus + self.a_minus

    @property
    def diff(self) -> int:
        """Signed interior imbalance a_plus - a_minus."""
        return self.a_plus - self.a_minus

    @property
    def mu(self) -> int:
        """Sign of the imbalance; 0 when balanced."""
        return (self.diff > 0) - (self.diff < 0)

    def available_base_signs(self) -> tuple[int, ...]:
        """Signs an interior oval can carry, hence admissible base-oval signs."""
        signs = []
        if self.a_plus:
            signs.append(PLUS)
        if self.a_minus:
            signs.append(MINUS)
        return tuple(signs)

    def __str__(self) -> str:
        signs = _signs(self)
        return signs[0] if len(signs) == 1 else f"({', '.join(signs)})"


def _signs(scheme: NestScheme) -> list[str]:
    """The short form's signs: nu, then the imbalance sign |diff| times."""
    return [_sign_str(scheme.nu)] + [_sign_str(scheme.diff)] * abs(scheme.diff)


def _parse_short_scheme(text: str) -> NestScheme:
    """Rebuild a nest scheme (minimal interior counts) from its short form."""
    parts = text.strip("()").replace(" ", "").split(",")
    nu = PLUS if parts[0] == "+" else MINUS
    diff = 0
    if len(parts) > 1:
        diff = (1 if parts[1] == "+" else -1) * (len(parts) - 1)
    a_plus = max(diff, 0) + (1 if diff == 0 else 0)
    return NestScheme(nu, a_plus, a_plus - diff)


def enumerate_nest_schemes(alpha: int, jump_allowed: bool) -> list[NestScheme]:
    """All (nu, a_plus, a_minus) with the given interior total.

    Without a jump the imbalance is at most 1 in absolute value; with one
    it may reach 2 (parity with alpha always holds).
    """
    if alpha < 1:
        raise SchemeInvariantError("alpha must be at least 1")
    bound = 2 if jump_allowed else 1
    out = []
    for nu in (PLUS, MINUS):
        for diff in range(bound, -bound - 1, -1):
            if (alpha - diff) % 2:
                continue
            a_plus = (alpha + diff) // 2
            out.append(NestScheme(nu, a_plus, alpha - a_plus))
    return out


# ---------------------------------------------------------------------------
# Complex types

TAGS = ("n", "s", "u", "d")
SEPARATING_TAGS = ("s", "u", "d")


class ComplexType(_checked("ComplexType", "scheme tag")):
    """A nest's complex scheme plus its separating/up/down tag.

    Tags: "n" non-separating (always admissible), "s" separating with an odd
    interior count, "u"/"d" separating with an even interior count, named by
    the sign of the chain extreme that sits on the central-triangle side
    ("u" when that extreme is negative, "d" when it is positive).
    The text of `__str__`, `_text`, is set once, after the check, outside
    equality, hash, order and repr.
    """

    __setattr__ = __delattr__ = _frozen

    def __new__(cls, scheme: NestScheme, tag: str):
        if not isinstance(scheme, NestScheme):
            raise SchemeInvariantError(f"scheme {scheme!r} is not a NestScheme")
        if tag not in TAGS:
            raise SchemeInvariantError(f"unknown tag {tag!r}")
        if tag in ("u", "d"):
            if scheme.alpha % 2:
                raise SchemeInvariantError("tags u/d require an even nest")
            if scheme.diff != 0:
                raise SchemeInvariantError("a separating even nest is balanced")
        if tag == "s":
            if scheme.alpha % 2 == 0:
                raise SchemeInvariantError("tag s requires an odd nest")
            if abs(scheme.diff) != 1:
                raise SchemeInvariantError("a separating odd nest has imbalance 1")
        self = tuple.__new__(cls, (scheme, tag))
        object.__setattr__(self, "_text", f"({', '.join(_signs(scheme) + [tag])})")
        return self

    @property
    def separating(self) -> bool:
        return self.tag in SEPARATING_TAGS

    @property
    def sigma(self) -> int:
        """Sign of the central-side chain extreme for u/d tags."""
        if self.tag == "d":
            return PLUS
        if self.tag == "u":
            return MINUS
        raise SchemeInvariantError(f"tag {self.tag!r} carries no extreme sign")

    def __str__(self) -> str:
        return self._text


def nest_complex_types(alpha: int, jump_allowed: bool = False) -> list[ComplexType]:
    """All complex types a nest of the given size admits (no rule filtering)."""
    out = []
    for s in enumerate_nest_schemes(alpha, jump_allowed):
        out.append(ComplexType(s, "n"))
        if abs(s.diff) == 2:
            continue  # a jumped nest is never separating
        if alpha % 2 == 0 and s.diff == 0:
            out.append(ComplexType(s, "u"))
            out.append(ComplexType(s, "d"))
        if alpha % 2 == 1:
            out.append(ComplexType(s, "s"))
    return out


# ---------------------------------------------------------------------------
# Curve complex types


class Jump(_checked("Jump", "repartition crossing")):
    """The single admissible chain interruption, fixed in nest 3.

    The sweep through the jumped nest meets an interior group, an exterior
    group and a second interior group, with sizes (l1, l2, l3); the interior
    groups exhaust the nest, so l1 + l3 = alpha.  The interior imbalance of
    the jumped nest reaches +-2 exactly when all three sizes are odd.
    crossing=None leaves the crossing/non-crossing alternative open.  Its
    part of a curve type's text, `_text`, is set once, outside equality,
    hash and repr."""

    __setattr__ = __delattr__ = _frozen

    def __new__(cls, repartition: tuple[int, int, int] = (1, 1, 1),
                crossing: Optional[bool] = None):
        r = repartition
        if type(r) is not tuple or len(r) != 3 or not _ints(*r) or min(r) < 1:
            raise SchemeInvariantError("repartition sizes must be three positive ints")
        if not any(crossing is v for v in (None, True, False)):  # by identity: 0 == False
            raise SchemeInvariantError(f"crossing {crossing!r} is not None, True or False")
        self = tuple.__new__(cls, (repartition, crossing))
        object.__setattr__(self, "_text", f" | jump {r} {_CROSSING_WORDS[crossing]}")
        return self

    @property
    def all_odd(self) -> bool:
        return all(l % 2 for l in self.repartition)


# A curve type's text for each value of `Jump.crossing`.
_CROSSING_WORDS = {None: "?", True: "crossing", False: "non-crossing"}


class CurveType(_checked("CurveType", "nests jump")):
    """Complex type of the whole curve: three nest types plus optional jump.

    The search and the rules read the nest schemes of every candidate; the
    enumerator sorts and deduplicates candidates by text, and each trace
    records it.  So the constructor sets both once, after its check, as
    `schemes` and `_text`, outside equality, hash and repr."""

    __setattr__ = __delattr__ = _frozen

    def __new__(cls, nests: tuple[ComplexType, ComplexType, ComplexType],
                jump: Optional[Jump] = None):
        if type(nests) is not tuple:
            raise SchemeInvariantError("the nests of a curve type are a tuple")
        if len(nests) != 3:
            raise SchemeArityError("a curve type lists exactly three nests")
        c1, c2, c3 = nests
        if not (isinstance(c1, ComplexType) and isinstance(c2, ComplexType)
                and isinstance(c3, ComplexType)):
            raise SchemeInvariantError("every nest of a curve type is a ComplexType")
        if jump is not None and not isinstance(jump, Jump):
            raise SchemeInvariantError(f"jump {jump!r} is not None or a Jump")
        schemes = s1, s2, s3 = c1.scheme, c2.scheme, c3.scheme
        # each nest's imbalance a_plus - a_minus, from its fields
        _, p1, m1 = s1
        _, p2, m2 = s2
        _, p3, m3 = s3
        two = p3 - m3 in (2, -2)
        if p1 - m1 in (2, -2) or p2 - m2 in (2, -2) or (two and jump is None):
            raise SchemeInvariantError("imbalance 2 requires the jump to sit in that nest")
        if jump is not None:
            (l1, l2, l3), _ = jump
            odd = l1 & l2 & l3 & 1
            if c3.tag != "n":
                raise SchemeInvariantError("a jumped nest is non-separating")
            if two and not odd:
                raise SchemeInvariantError("imbalance 2 requires an all-odd repartition")
            if l1 + l3 != p3 + m3:
                raise SchemeInvariantError(
                    "interior repartition groups must exhaust the jumped nest"
                )
            if odd and not two:
                raise SchemeInvariantError("an all-odd repartition forces interior imbalance 2")
        self = tuple.__new__(cls, (nests, jump))
        object.__setattr__(self, "schemes", schemes)
        tail = "" if jump is None else jump._text
        object.__setattr__(self, "_text", f"[{c1._text}, {c2._text}, {c3._text}{tail}]")
        return self

    def __str__(self) -> str:
        return self._text


def pi_delta(schemes) -> int:
    """Difference (positive - negative) of injective-pair counts.

    A pair is positive exactly when the two ovals carry opposite signs, so
    each nest contributes nu * (a_minus - a_plus).
    """
    (n1, p1, m1), (n2, p2, m2), (n3, p3, m3) = schemes
    return n1 * (m1 - p1) + n2 * (m2 - p2) + n3 * (m3 - p3)


def total_pairs(scheme: RealScheme) -> int:
    """Every injective pair joins a nest oval with its interior: one per oval."""
    return sum(scheme.alpha)
