"""Exact integrality gates for support t-designs of extremal binary doubly
even self-dual codes.

Importing the package loads none of its modules: each public name below is
resolved on first access by importing the module that defines it (PEP 562),
so that ``import designgate.families`` or a CLI call pays only for what it
uses.
"""

_EXPORTS = {
    "combinat": ("binom", "elem_sym", "falling", "stirling2", "stirling2_by_formula"),
    "families": (
        "CodeFamily",
        "DesignParams",
        "NonIntegralLambdaError",
        "THEOREM_IDS",
        "admissible_scan",
        "apply_strengthening",
        "block_count",
        "design_params",
        "lambda_at",
        "lambda_vector",
    ),
    "gate": (
        "FAIL_NONINTEGER",
        "PASS",
        "GateResult",
        "IntersectionSolution",
        "MomentVector",
        "NonIntegralMomentError",
        "OffsetSet",
        "annihilator_divisor",
        "integrality_gate",
        "moment_vector",
        "offset_moment_coefficients",
        "offset_product_sum",
        "residual_coefficient",
        "solve_intersection_numbers",
    ),
    "gleason": (
        "LENGTH_CAP",
        "WeightEnumerator",
        "extremal_weight_enumerator",
        "min_weight_count",
        "next_weight_count",
    ),
    "theorems": ("TheoremOutcome", "run_theorem"),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_OWNER)
__version__ = "0.1.0"


def __getattr__(name: str):
    module = _OWNER.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    return getattr(import_module(f"{__name__}.{module}"), name)
