"""Integer orientation state of a curve and the identities that bind it.

The ledger records, for a fixed choice of base ovals, the net sign
contributions of the non-principal ovals per zone (four triangles and
three quadrangles cut out by the base lines and the pseudo-line), the six
principal-oval signs, the totals Lambda+/- and Pi+/-, and the zone
populations.  All arithmetic is exact.

Zone order everywhere: T0, Q1, Q2, Q3, T1, T2, T3.
"""

from __future__ import annotations

from .schemes import DEGREE, OVALS, _checked

ZONES = ("T0", "Q1", "Q2", "Q3", "T1", "T2", "T3")

# The fields of a ledger's JSON object, in JSON order (the ledger's field
# order too), each with the ledger attribute it holds and the type of its
# value: a list in JSON is a tuple of ints in the ledger.
_FIELDS = {
    "lambda": ("lam", list),
    "epsilon": ("eps", list),
    "LambdaPlus": ("lambda_plus", int),
    "LambdaMinus": ("lambda_minus", int),
    "PiPlus": ("pi_plus", int),
    "PiMinus": ("pi_minus", int),
    "zonePop": ("zone_pop", list),
}


class LedgerError(ValueError):
    """Raised when a ledger violates its structural invariants."""


class OrientationLedger(_checked("OrientationLedger", [a for a, _ in _FIELDS.values()])):
    """Orientation bookkeeping for one base-oval choice."""

    __slots__ = ()

    def __new__(cls, lam: tuple[int, ...], eps: tuple[int, ...], lambda_plus: int,
                lambda_minus: int, pi_plus: int, pi_minus: int, zone_pop: tuple[int, ...]):
        self = tuple.__new__(cls, (lam, eps, lambda_plus, lambda_minus, pi_plus, pi_minus, zone_pop))
        for (name, (_, kind)), value in zip(_FIELDS.items(), self):
            if kind is list:
                if type(value) is not tuple or any(type(v) is not int for v in value):
                    raise LedgerError(
                        f"field {name!r} must be a list of integers (a tuple here)"
                    )
            elif type(value) is not int:
                raise LedgerError(f"field {name!r} must be an integer")
        if len(lam) != 7 or len(zone_pop) != 7 or len(eps) != 6:
            raise LedgerError("lambda and populations have 7 entries, epsilon 6")
        if any(e not in (1, -1) for e in eps):
            raise LedgerError("epsilon entries are signs")
        return self

    @property
    def lambda_delta(self) -> int:
        return self.lambda_plus - self.lambda_minus

    @property
    def pi_delta(self) -> int:
        return self.pi_plus - self.pi_minus

    def validate(self, total_pairs: int | None = None) -> None:
        """Check the count/parity invariants; raise LedgerError on failure."""
        for z, (l, p) in enumerate(zip(self.lam, self.zone_pop)):
            if p < 0:
                raise LedgerError(f"zone {ZONES[z]} population is negative")
            if abs(l) > p:
                raise LedgerError(
                    f"zone {ZONES[z]}: |lambda|={abs(l)} exceeds population {p}"
                )
            if (l - p) % 2:
                raise LedgerError(f"zone {ZONES[z]}: lambda/population parity mismatch")
        if self.lambda_plus + self.lambda_minus != OVALS:
            raise LedgerError(f"Lambda+ + Lambda- must equal {OVALS}")
        if self.lambda_delta != sum(self.lam) + sum(self.eps):
            raise LedgerError("Lambda+ - Lambda- must equal sum(lambda) + sum(epsilon)")
        if self.pi_plus < 0 or self.pi_minus < 0:
            raise LedgerError("pair counts are non-negative")
        if total_pairs is not None and self.pi_plus + self.pi_minus != total_pairs:
            raise LedgerError(
                f"Pi+ + Pi- must equal the nest-interior total {total_pairs}"
            )

    # -- JSON interchange (field names are fixed for proof traces) ----------

    def to_json_dict(self) -> dict:
        return {
            name: list(getattr(self, attr)) if kind is list else getattr(self, attr)
            for name, (attr, kind) in _FIELDS.items()
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "OrientationLedger":
        """The ledger of a `to_json_dict` object.  A missing field raises
        KeyError; an unknown field raises LedgerError, and so does the
        constructor for a value that is not an int.  A bool is not an int
        here, nor is a float such as 1.0, which a draft-7 validator of
        ledger.schema.json would take for an integer: the engine writes
        ints, and replay rejects -8.0 alike."""
        if type(data) is not dict:
            raise LedgerError("a ledger is a JSON object")
        for name in data:
            if name not in _FIELDS:
                raise LedgerError(f"unknown field {name!r}")
        fields = {attr: data[name] for name, (attr, _) in _FIELDS.items()}
        return cls(**{a: tuple(v) if type(v) is list else v for a, v in fields.items()})


def rokhlin_mishachev_rhs(m: int = DEGREE) -> int:
    """Right-hand side L - 1 - k(k+1) for an M-curve of odd degree m = 2k+1."""
    if m % 2 == 0:
        raise ValueError("the formula applies to odd degrees only")
    k = (m - 1) // 2
    components = (m - 1) * (m - 2) // 2 + 1
    return components - 1 - k * (k + 1)


def rm_residual(ledger: OrientationLedger, m: int = DEGREE) -> int:
    """2(Pi+ - Pi-) + (Lambda+ - Lambda-) minus the degree-m right-hand side."""
    return 2 * ledger.pi_delta + ledger.lambda_delta - rokhlin_mishachev_rhs(m)


def lambda_deficit(ledger: OrientationLedger) -> int:
    """lambda_0 - lambda_4 - lambda_5 - lambda_6."""
    l = ledger.lam
    return l[0] - l[4] - l[5] - l[6]


def lemma10_residuals(ledger: OrientationLedger) -> tuple[int, int, int, int, int]:
    """Signed residuals (lhs - rhs) of the five orientation identities.

    The first four residuals are exact signed integers, so the fourth always
    equals the sum of the first three.  The fifth identity equates the
    deficit with both -Lambda_delta/2 and Pi_delta - 4; its residual is the
    larger absolute violation of the two equalities.
    """
    l = ledger.lam
    e = ledger.eps
    r1 = (l[0] + l[1] - l[4]) + (e[2] + e[5] + e[1] + e[4]) // 2
    r2 = (l[0] + l[2] - l[5]) + (e[2] + e[5] + e[0] + e[3]) // 2
    r3 = (l[0] + l[3] - l[6]) + (e[1] + e[4] + e[0] + e[3]) // 2
    r4 = 3 * l[0] + l[1] + l[2] + l[3] - l[4] - l[5] - l[6] + sum(e)
    deficit = lambda_deficit(ledger)
    v_half = deficit + ledger.lambda_delta // 2
    v_pairs = deficit - (ledger.pi_delta - 4)
    r5 = max(abs(v_half), abs(v_pairs))
    return (r1, r2, r3, r4, r5)
