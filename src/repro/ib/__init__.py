"""The input-boundedness restriction and its checker (Section 3.1)."""

from .checker import (
    check_composition, check_exists_star_rule, check_formula, check_peer,
    check_sentence, is_input_bounded_composition, is_input_bounded_sentence,
    require_input_bounded,
)
from .report import Violation, summarize

__all__ = [
    "Violation", "check_composition", "check_exists_star_rule",
    "check_formula", "check_peer", "check_sentence",
    "is_input_bounded_composition", "is_input_bounded_sentence",
    "require_input_bounded", "summarize",
]
