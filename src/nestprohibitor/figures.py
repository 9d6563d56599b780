"""Reference tables 16..22, regenerated from the calculus on demand.

Every cell is computed from the operations in `orevkov`; nothing numeric
is hard-coded except the published value recorded in table 21's row
annotation, which documents a discrepancy with the computed entry (both
values are nonzero, so nothing downstream depends on the difference).
That value and table 21's rows live in `engine`, beside their analysis,
and so do the table numbers, `FIGURE_IDS`, which the CLI reads without
loading this module.

Renderings are byte-stable: fixed row order, fixed column widths for
text, and tab separation for TSV.
"""

from __future__ import annotations

from collections import namedtuple

from .engine import FIG21_DISCREPANT_ROW, FIG21_PRINTED_VALUE, FIG21_TRIPLES, FIGURE_IDS
from .orevkov import allowed_zones, e_values, f_value, g_value, nest_terms, second_formula_residual
from .schemes import MINUS, PLUS, ComplexType, CurveType, NestScheme


class Figure(namedtuple("Figure", "number title header rows annotations")):
    """A table: its number, title, header, rows of cells, and annotations,
    one dict per figure, so there is no shared default."""

    __slots__ = ()


def _ns(nu: int, a_plus: int, a_minus: int) -> NestScheme:
    return NestScheme(nu, a_plus, a_minus)


# Row orders follow the published tables.
_FIG16_SCHEMES = (
    _ns(MINUS, 1, 1),
    _ns(PLUS, 1, 1),
    _ns(MINUS, 1, 0),
    _ns(PLUS, 0, 1),
    _ns(MINUS, 0, 1),
    _ns(PLUS, 1, 0),
    _ns(MINUS, 2, 0),
    _ns(PLUS, 0, 2),
    _ns(MINUS, 0, 2),
    _ns(PLUS, 2, 0),
)

_FIG17_TYPES = (
    ComplexType(_ns(MINUS, 1, 1), "d"),
    ComplexType(_ns(MINUS, 1, 1), "u"),
    ComplexType(_ns(PLUS, 1, 1), "d"),
    ComplexType(_ns(PLUS, 1, 1), "u"),
    ComplexType(_ns(MINUS, 0, 1), "s"),
    ComplexType(_ns(MINUS, 1, 0), "s"),
    ComplexType(_ns(PLUS, 0, 1), "s"),
    ComplexType(_ns(PLUS, 1, 0), "s"),
)

_FIG18_TRIPLES = (
    (_ns(MINUS, 1, 1), _ns(MINUS, 1, 1), _ns(MINUS, 1, 1)),
    (_ns(MINUS, 1, 1), _ns(MINUS, 1, 1), _ns(PLUS, 1, 1)),
    (_ns(MINUS, 1, 1), _ns(PLUS, 1, 1), _ns(PLUS, 1, 1)),
    (_ns(PLUS, 1, 1), _ns(PLUS, 1, 1), _ns(PLUS, 1, 1)),
)

_FIG19_ROWS = tuple(
    (ComplexType(_ns(nu, 1, 1), tag), companions)
    for nu, tag in ((MINUS, "d"), (MINUS, "u"), (PLUS, "d"), (PLUS, "u"))
    for companions in (
        (_ns(MINUS, 1, 1), _ns(MINUS, 1, 1)),
        (_ns(MINUS, 1, 1), _ns(PLUS, 1, 1)),
        (_ns(PLUS, 1, 1), _ns(PLUS, 1, 1)),
    )
)


def _fig20_types() -> tuple[CurveType, ...]:
    n_min = ComplexType(_ns(MINUS, 1, 1), "n")
    n_plus = ComplexType(_ns(PLUS, 1, 1), "n")
    d_min = ComplexType(_ns(MINUS, 1, 1), "d")
    d_plus = ComplexType(_ns(PLUS, 1, 1), "d")
    return (
        CurveType((n_plus, n_plus, n_plus)),
        CurveType((n_min, n_plus, n_plus)),
        CurveType((n_min, n_min, n_plus)),
        CurveType((n_min, n_min, d_plus)),
        CurveType((n_min, n_min, n_min)),
        CurveType((d_min, n_min, n_min)),
        CurveType((d_min, d_min, n_min)),
        CurveType((d_min, d_min, d_min)),
    )


def _zone_str(zones: tuple[int, ...]) -> str:
    return "(" + ", ".join(str(z) for z in zones) + ")" if zones else "()"


def figure16() -> Figure:
    rows = []
    for s in _FIG16_SCHEMES:
        t = nest_terms(s)
        rows.append(
            (str(s), str(t.pi), str(t.pi_prime), str(t.big_n), str(t.big_m), str(g_value(s)))
        )
    return Figure(16, "per-nest terms", ("S", "pi", "pi'", "N", "M", "G"), tuple(rows), {})


def figure17() -> Figure:
    rows = tuple((str(ct), str(f_value(ct))) for ct in _FIG17_TYPES)
    return Figure(17, "separating-nest constants", ("type", "F"), rows, {})


def figure18() -> Figure:
    rows = []
    for triple in _FIG18_TRIPLES:
        e = e_values(*triple)
        z = allowed_zones(*triple)
        rows.append(
            tuple(str(s) for s in triple)
            + tuple(str(v) for v in e)
            + (_zone_str(z),)
        )
    return Figure(
        18,
        "exterior-placement residuals",
        ("S1", "S2", "S3", "E0", "E1", "E2", "E3", "Z"),
        tuple(rows),
        {},
    )


def figure19() -> Figure:
    rows = []
    for sep, (sj, sk) in _FIG19_ROWS:
        rows.append((str(sep), str(sj), str(sk), str(second_formula_residual(sep, sj, sk))))
    return Figure(
        19, "separating-nest residuals", ("type_i", "S_j", "S_k", "F-G-G"), tuple(rows), {}
    )


def figure20() -> Figure:
    rows = []
    for ct in _fig20_types():
        z = allowed_zones(*ct.schemes)
        rows.append(tuple(str(n) for n in ct.nests) + (_zone_str(z),))
    return Figure(
        20,
        "candidate types for all-even schemes",
        ("type1", "type2", "type3", "Z"),
        tuple(rows),
        {},
    )


def figure21() -> Figure:
    rows = []
    annotations = {}
    for triple in FIG21_TRIPLES:
        e0 = e_values(*triple)[0]
        key = "(" + ", ".join(str(s) for s in triple) + ")"
        note = ""
        if key == FIG21_DISCREPANT_ROW:
            note = f"printed={FIG21_PRINTED_VALUE}"
            annotations[key] = {"computed": e0, "printed": FIG21_PRINTED_VALUE}
        rows.append(tuple(str(s) for s in triple) + (str(e0), note))
    return Figure(
        21,
        "central residuals for the bound-3 analysis",
        ("S1", "S2", "S3", "E0", "note"),
        tuple(rows),
        annotations,
    )


def figure22() -> Figure:
    rows = []
    for triple in FIG21_TRIPLES[:3]:
        e = e_values(*triple)
        rows.append(tuple(str(s) for s in triple) + tuple(str(v) for v in e[1:]))
    return Figure(
        22,
        "corner residuals for the surviving rows",
        ("S1", "S2", "S3", "E1", "E2", "E3"),
        tuple(rows),
        {},
    )


_BUILDERS = {
    16: figure16,
    17: figure17,
    18: figure18,
    19: figure19,
    20: figure20,
    21: figure21,
    22: figure22,
}


def build_figure(number: int) -> Figure:
    if number not in _BUILDERS:
        raise ValueError(f"unknown figure {number}; choose from {FIGURE_IDS}")
    return _BUILDERS[number]()


def render_text(fig: Figure) -> str:
    table = [fig.header] + [tuple(row) for row in fig.rows]
    widths = [max(len(r[c]) for r in table) for c in range(len(fig.header))]
    lines = [f"Figure {fig.number}: {fig.title}"]
    for r, row in enumerate(table):
        lines.append("  ".join(cell.ljust(widths[c]) for c, cell in enumerate(row)).rstrip())
        if r == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines) + "\n"


def render_tsv(fig: Figure) -> str:
    lines = ["\t".join(fig.header)]
    lines.extend("\t".join(row) for row in fig.rows)
    return "\n".join(lines) + "\n"
