"""Codes correcting deletions confined to one or several windows.

The systematic part of a codeword is protected by MDS parities over
GF(2^ell); the decoder guesses which adjacent block pair absorbed the
damage and uses the parities to cross-check each guess. With several
windows the parity bits are repetition coded instead of relying on a
marker buffer.
"""

from .analysis import (
    BoundReport,
    MiscorrectionError,
    OracleReport,
    ScopeTooLargeError,
    bound_multi,
    bound_single,
    exhaustive_oracle,
)
from .channel import (
    DeletionPattern,
    InvalidPatternError,
    Window,
    delete_localized,
    pattern_from_text,
    pattern_to_text,
    sample_pattern,
)
from .gf2e import (
    FieldContext,
    NonPrimitivePolynomialError,
    UnsupportedExponentError,
    bits_to_symbols,
)
from .mds import (
    FieldTooSmallError,
    Generator,
    make_generator,
)
from .multi_window import (
    MAX_Z,
    decode_multi,
    encode_multi,
    enumerate_cases,
    max_case_count,
    multi_params,
    repetition_decode,
    repetition_encode,
)
from .sim import SimConfig, TrialReport, TrialRow, report_to_csv, run_trials
from .single_window import (
    FAILURE,
    INVALID_INPUT,
    SUCCESS,
    CodeParams,
    DecodeResult,
    GuessEval,
    InvalidConfigError,
    decode,
    encode,
    evaluate_guess,
    gc_params,
    is_subsequence,
)

__version__ = "0.1.0"

__all__ = [
    "BoundReport", "MiscorrectionError", "OracleReport", "ScopeTooLargeError",
    "bound_multi", "bound_single", "exhaustive_oracle",
    "DeletionPattern", "InvalidPatternError", "Window", "delete_localized",
    "pattern_from_text", "pattern_to_text", "sample_pattern",
    "FieldContext", "NonPrimitivePolynomialError", "UnsupportedExponentError",
    "bits_to_symbols",
    "FieldTooSmallError", "Generator", "make_generator",
    "MAX_Z", "decode_multi", "encode_multi", "enumerate_cases", "max_case_count",
    "multi_params", "repetition_decode", "repetition_encode",
    "SimConfig", "TrialReport", "TrialRow", "report_to_csv", "run_trials",
    "FAILURE", "INVALID_INPUT", "SUCCESS", "CodeParams", "DecodeResult",
    "GuessEval", "InvalidConfigError", "decode", "encode",
    "evaluate_guess", "gc_params", "is_subsequence",
]
