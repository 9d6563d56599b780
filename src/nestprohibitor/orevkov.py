"""Per-nest complex-orientation terms and the two formula residuals.

For a depth-2 nest (base oval inside the non-empty oval) the quantities
pi, pi', N, M depend only on the nest's complex scheme; G depends only on
the scheme, and F only on the complex type.  The first formula relates
three depth-2 nests and one empty exterior oval; its residual in the four
placements gives E_0..E_3.  The second formula applies to a separating
nest and yields the residual F_i - G_j - G_k.

F is served from a frozen table that is re-derived from the defining
pair counts on import; any disagreement aborts loudly.
"""

from __future__ import annotations

from .schemes import MINUS, PLUS, ComplexType, NestScheme, _checked


class OrevkovError(ValueError):
    """Raised when an operation's depth/tag preconditions fail."""


class OrevkovTerms(_checked("OrevkovTerms", "pi pi_prime big_n big_m")):
    """Scheme-level terms (pi, pi', N, M) of one depth-2 nest; none of them
    depends on the base-oval sign convention."""

    __slots__ = ()

    def __new__(cls, pi: int, pi_prime: int, big_n: int, big_m: int):
        if big_n + big_m != 1:
            raise OrevkovError("exactly one of N, M is 1")
        if big_n and pi_prime != 0:
            raise OrevkovError("a positive non-empty oval forces pi' = 0")
        if big_m and pi != 0:
            raise OrevkovError("a negative non-empty oval forces pi = 0")
        return tuple.__new__(cls, (pi, pi_prime, big_n, big_m))


def _terms(scheme: NestScheme) -> tuple[int, int, int, int]:
    """(pi, pi', N, M) for one nest, as a plain tuple."""
    nu, a_plus, a_minus = scheme
    if nu == PLUS:
        return a_minus - a_plus, 0, 1, 0
    return 0, a_plus - a_minus, 0, 1


def nest_terms(scheme: NestScheme) -> OrevkovTerms:
    """(pi, pi', N, M) for one nest."""
    return OrevkovTerms(*_terms(scheme))


def g_value(scheme: NestScheme) -> int:
    """G = P^2 - P - Pi for the nest; independent of the base oval's sign."""
    return (1 + scheme.diff) if scheme.nu == PLUS else 0


def _g_from_definition(scheme: NestScheme, base_sign: int) -> int:
    # Pair counts with an explicit base sign, for the independence check.
    p = int(base_sign == PLUS) + int(scheme.nu == PLUS)
    if scheme.nu == PLUS:
        small_plus = scheme.a_plus - int(base_sign == PLUS)
        small_minus = scheme.a_minus - int(base_sign == MINUS)
        pi_l = small_minus - small_plus
    else:
        pi_l = 0
    return p * p - p - pi_l


def e_values(
    s1: NestScheme, s2: NestScheme, s3: NestScheme
) -> tuple[int, int, int, int]:
    """First-formula residuals E_0..E_3 for the four exterior placements.

    E_0 = sum(pi - N); placing the oval in T_i instead trades nest i's
    (pi, N) for its (pi', M), so E_i = E_0 - pi_i + pi'_i + N_i - M_i.
    """
    (pi1, pp1, n1, m1), (pi2, pp2, n2, m2), (pi3, pp3, n3, m3) = map(_terms, (s1, s2, s3))
    e0 = pi1 - n1 + pi2 - n2 + pi3 - n3
    return e0, e0 - pi1 + pp1 + n1 - m1, e0 - pi2 + pp2 + n2 - m2, e0 - pi3 + pp3 + n3 - m3


def allowed_zones(s1: NestScheme, s2: NestScheme, s3: NestScheme) -> tuple[int, ...]:
    """Triangle indices that may hold exterior ovals: those with E_i = 0."""
    return tuple([i for i, e in enumerate(e_values(s1, s2, s3)) if not e])


def first_formula_residual(
    nests: tuple[NestScheme, NestScheme, NestScheme],
    exterior_zone: int,
) -> int:
    """lhs - rhs of the first formula for nest depths (2, 2, 2, 1).

    The depth-1 slot is a single empty exterior oval; placing it in
    triangle i makes the residual E_i.
    """
    if len(nests) != 3:
        raise OrevkovError("exactly three depth-2 nests are required")
    if exterior_zone not in range(4):
        raise OrevkovError("the exterior oval sits in one of the triangles T0..T3")
    return e_values(*nests)[exterior_zone]


# ---------------------------------------------------------------------------
# F values for separating nests

_F_TABLE = {
    (MINUS, "d"): 0,
    (MINUS, "u"): -1,
    (PLUS, "d"): 0,
    (PLUS, "u"): -1,
    (MINUS, -1, "s"): -1,
    (MINUS, 1, "s"): 0,
    (PLUS, -1, "s"): 0,
    (PLUS, 1, "s"): -1,
}


def f_value(complex_type: ComplexType) -> int:
    """Second-formula constant of a separating nest; type-determined."""
    if not complex_type.separating:
        raise OrevkovError("F is defined for separating nests only")
    s = complex_type.scheme
    if complex_type.tag == "s":
        return _F_TABLE[(s.nu, s.mu, "s")]
    return _F_TABLE[(s.nu, complex_type.tag)]


def second_formula_residual(
    sep_type: ComplexType, sj: NestScheme, sk: NestScheme
) -> int:
    """F_i - G_j - G_k; zero is required when nest i is separating."""
    return f_value(sep_type) - g_value(sj) - g_value(sk)


def _chain_signs(complex_type: ComplexType, alpha: int, straddle: int) -> list[int]:
    """Interior-oval signs along the chain, central-side end first.

    For an even separating nest the first `straddle` ovals sit on the
    central-triangle side; the transported orientation alternates with a
    flip across the straddle boundary, and the tag sign is the sign of the
    central-side extreme.  An odd separating nest does not straddle: its
    chain alternates plainly and both extremes carry the imbalance sign.
    """
    if complex_type.tag in ("u", "d"):
        adj1 = -complex_type.sigma
        signs = []
        for p in range(1, alpha + 1):
            adj = adj1 * (-1) ** (p - 1)
            signs.append(-adj if p <= straddle else adj)
        return signs
    mu = complex_type.scheme.mu
    return [mu * (-1) ** (alpha - p) for p in range(1, alpha + 1)]


def _f_from_definition(
    complex_type: ComplexType, alpha: int, straddle: int, a4_pos: int
) -> int:
    """Evaluate F from the tilde pair counts on one concrete chain layout.

    The base oval sits at the chain end opposite the central side; the
    fourth base oval a4 is another interior oval outside the straddle.
    Interior ovals on the central side lie inside the principal triangle,
    the rest outside it.
    """
    nu = complex_type.scheme.nu
    signs = _chain_signs(complex_type, alpha, straddle)
    base_pos = alpha
    if not (straddle < a4_pos < base_pos):
        raise OrevkovError("a4 must be an interior oval on the base-oval side")
    prefix = [signs[p - 1] for p in range(1, straddle + 1)]
    suffix = [
        signs[p - 1]
        for p in range(straddle + 1, alpha + 1)
        if p not in (a4_pos, base_pos)
    ]
    pi_tilde_prime = 0
    if nu == MINUS:
        pi_tilde_prime = sum(1 for s in prefix if s > 0) - sum(
            1 for s in prefix if s < 0
        )
    pi_tilde_4 = 0
    if nu == PLUS:
        pi_tilde_4 = sum(1 for s in suffix if s < 0) - sum(1 for s in suffix if s > 0)
    q_i = int(signs[base_pos - 1] < 0) + int(nu == MINUS)
    p_4 = int(signs[a4_pos - 1] > 0) + int(nu == PLUS)
    nu_v = 1 if nu == MINUS else 0
    return pi_tilde_prime + pi_tilde_4 - (q_i * q_i - 2 * q_i + p_4 * p_4 - p_4 + nu_v)


def _validate_tables() -> None:
    """Re-derive F (and G) from the defining counts; abort on disagreement."""
    for nu in (PLUS, MINUS):
        for tag in ("u", "d"):
            expected = _F_TABLE[(nu, tag)]
            for alpha in (4, 6, 8):
                ct = ComplexType(NestScheme(nu, alpha // 2, alpha // 2), tag)
                for straddle in range(2, alpha - 1, 2):
                    for a4 in range(straddle + 1, alpha):
                        got = _f_from_definition(ct, alpha, straddle, a4)
                        if got != expected:
                            raise RuntimeError(
                                f"F table mismatch for {ct}: table {expected}, "
                                f"derived {got} (alpha={alpha}, straddle={straddle})"
                            )
        for mu in (PLUS, MINUS):
            expected = _F_TABLE[(nu, mu, "s")]
            for alpha in (3, 5, 7):
                a_plus = (alpha + mu) // 2
                ct = ComplexType(NestScheme(nu, a_plus, alpha - a_plus), "s")
                for a4 in range(1, alpha):
                    got = _f_from_definition(ct, alpha, 0, a4)
                    if got != expected:
                        raise RuntimeError(
                            f"F table mismatch for {ct}: table {expected}, "
                            f"derived {got} (alpha={alpha})"
                        )
    for nu in (PLUS, MINUS):
        for a_plus, a_minus in ((2, 2), (3, 2), (2, 3), (3, 1), (1, 3)):
            scheme = NestScheme(nu, a_plus, a_minus)
            for base in scheme.available_base_signs():
                if _g_from_definition(scheme, base) != g_value(scheme):
                    raise RuntimeError(f"G mismatch for {scheme} with base {base}")


_validate_tables()
