"""Exact-arithmetic K-theory bookkeeping for crossed products by Z,
one-relator classifying spaces, and their two-sided comparison."""

from .abelian import (
    FgAbGroup,
    GroupHom,
    IntMatrix,
    SnfDecomposition,
    cokernel,
    element_order,
    generates,
    is_isomorphic,
    kernel,
    smith_normal_form,
    solve,
)
from .bc import BcReport, MatchLine, bc_compare, render_report, report_to_json, trace_image
from .colimit import (
    AbObject,
    ColimModule,
    LadderMap,
    LocObject,
    LocalizedInt,
    coprime_part,
    ladder_cokernel,
    ladder_kernel,
    localized_eq,
    normalize,
)
from .errors import (
    DepthExceeded,
    DomainError,
    InvariantViolation,
    ParseError,
    ProperPowerRelator,
    StabilizationOverflow,
    UndeclaredGenerator,
    UnresolvedExtension,
    UnspecifiedTraceValue,
    UnsupportedColimitShape,
)
from .ledger import KClass, KClassLedger
from .presentation import (
    ComplexHomology,
    Presentation,
    Word,
    abelianization,
    bs_presentation,
    classifying_space_k,
    exponent_vector,
    parse,
    presentation_homology,
    render,
)
from .pv import KInput, PvSolution, SeqRecord, boundary_rule, bs_input, pv_solve
from .solenoid import (
    NadicRational,
    RationalAngle,
    SolenoidPoint,
    dual_shift,
    duality_check,
    pairing,
    random_point,
)

__all__ = [name for name in dir() if not name.startswith("_")]
