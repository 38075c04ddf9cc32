"""Desk-scale workbench for intersecting families of polynomial graphs
over finite fields: field tables, character sums, direction sets, family
constructions and exact clique search, all behind one CLI."""

__version__ = "0.1.0"

from .gf import (
    FieldCtx,
    FieldError,
    FieldSpec,
    make_field,
    make_field_of_order,
    parse_field_spec,
)
from .polyfun import PointAG, PolyK

__all__ = [
    "FieldCtx",
    "FieldError",
    "FieldSpec",
    "PointAG",
    "PolyK",
    "__version__",
    "make_field",
    "make_field_of_order",
    "parse_field_spec",
]
