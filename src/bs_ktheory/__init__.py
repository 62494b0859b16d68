"""Exact-arithmetic K-theory bookkeeping for crossed products by Z,
one-relator classifying spaces, and their two-sided comparison.

Importing the package loads none of its modules. Each exported name is
looked up in its defining module on first access (PEP 562), and the value
is then kept in the package namespace, so later lookups are plain
attribute reads. A ``bsk`` call thus imports only what its command runs.
"""

# defining module -> the names the package exports from it
_EXPORTS = {
    "abelian": (
        "FgAbGroup",
        "GroupHom",
        "IntMatrix",
        "SnfDecomposition",
        "element_order",
        "generates",
        "is_isomorphic",
        "smith_normal_form",
        "solve",
    ),
    "bc": ("BcReport", "MatchLine", "bc_compare", "render_report", "report_to_json", "trace_image"),
    "colimit": (
        "AbObject",
        "ColimModule",
        "LadderMap",
        "LocObject",
        "LocalizedInt",
        "coprime_part",
        "ladder_cokernel",
        "ladder_kernel",
        "normalize",
    ),
    "errors": (
        "DepthExceeded",
        "DomainError",
        "InvariantViolation",
        "ParseError",
        "ProperPowerRelator",
        "StabilizationOverflow",
        "UndeclaredGenerator",
        "UnresolvedExtension",
        "UnspecifiedTraceValue",
        "UnsupportedColimitShape",
    ),
    "ledger": ("KClass", "KClassLedger"),
    "presentation": (
        "ComplexHomology",
        "Presentation",
        "Word",
        "bs_presentation",
        "classifying_space_k",
        "exponent_vector",
        "parse",
        "presentation_homology",
    ),
    "pv": ("KInput", "PvSolution", "SeqRecord", "bs_input", "pv_solve"),
    "solenoid": (
        "NadicRational",
        "RationalAngle",
        "SolenoidPoint",
        "dual_shift",
        "duality_check",
        "pairing",
        "random_point",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    from importlib import import_module

    if name in _EXPORTS:  # a submodule, such as bs_ktheory.abelian
        return import_module(f".{name}", __name__)
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS, *__all__})
