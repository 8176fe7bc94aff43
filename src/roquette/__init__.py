"""Exact verification engine for the automorphism representation of
the hyperelliptic curve y^2 = x^p - x and its obstruction to lifting.

Everything is computed with exact integer / rational arithmetic over
explicit finite fields; no floating point is used anywhere.
"""

__version__ = "0.1.0"

from .ff import FieldDescriptor, FieldElement, make_field, sqrt  # noqa: E402
from .group import RoquetteGroup, get_group  # noqa: E402
from .character import lefschetz_character  # noqa: E402
from .report import run_pipeline, emit, PipelineOptions  # noqa: E402

__all__ = [
    "FieldDescriptor",
    "FieldElement",
    "make_field",
    "sqrt",
    "RoquetteGroup",
    "get_group",
    "lefschetz_character",
    "run_pipeline",
    "emit",
    "PipelineOptions",
    "__version__",
]
