"""Rationality of prime cyclic quotient fields, decided by norm equations
in subfields of a cyclotomic field.

The top-level surface re-exports the pipeline (classify_prime / scan), the
norm-equation layer, and the structural helpers they are built from; each
submodule remains importable on its own.
"""
from .abelian import Subgroup, UnitGroup, subgroup_elements, subgroups, unit_group
from .arith import euler_phi, is_prime, is_square, is_squarefree, primes_below
from .criteria import (
    FixtureSets,
    em_criterion_i,
    em_criterion_ii,
    em_tables,
    load_fixtures,
)
from .cyclotomic import (
    CycElement,
    SubfieldDescriptor,
    cyclotomic_polynomial,
    subfield_minpoly,
    subfields,
)
from .normsearch import (
    BACKEND_ENV_VAR,
    BackendClient,
    BackendDecision,
    BackendError,
    BackendProtocolError,
    BackendUnavailableError,
    BackendVerificationError,
    NormProblem,
    certificate_search,
    norm_of,
)
from .quadforms import (
    NormDecision,
    fundamental_discriminant,
    is_fundamental,
    principal_cycle,
    quadratic_subfield_discs,
    solve_norm,
)
from .scanner import (
    CERTIFICATE_DEGREE_LIMIT,
    CrossCheckReport,
    ScanConfig,
    ScanError,
    Verdict,
    classify_prime,
    cross_check,
    scan,
)

__version__ = "0.1.0"

__all__ = [
    "BACKEND_ENV_VAR",
    "BackendClient",
    "BackendDecision",
    "BackendError",
    "BackendProtocolError",
    "BackendUnavailableError",
    "BackendVerificationError",
    "CERTIFICATE_DEGREE_LIMIT",
    "CrossCheckReport",
    "CycElement",
    "FixtureSets",
    "NormDecision",
    "NormProblem",
    "ScanConfig",
    "ScanError",
    "Subgroup",
    "SubfieldDescriptor",
    "UnitGroup",
    "Verdict",
    "certificate_search",
    "classify_prime",
    "cross_check",
    "cyclotomic_polynomial",
    "em_criterion_i",
    "em_criterion_ii",
    "em_tables",
    "euler_phi",
    "fundamental_discriminant",
    "is_fundamental",
    "is_prime",
    "is_square",
    "is_squarefree",
    "load_fixtures",
    "norm_of",
    "primes_below",
    "principal_cycle",
    "quadratic_subfield_discs",
    "scan",
    "solve_norm",
    "subfield_minpoly",
    "subfields",
    "subgroup_elements",
    "subgroups",
    "unit_group",
    "__version__",
]
