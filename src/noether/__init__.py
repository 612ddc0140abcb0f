"""Rationality of prime cyclic quotient fields, decided by norm equations
in subfields of a cyclotomic field.

The top-level surface is the README's library example: the pipeline
(classify_prime / scan and its ScanConfig), the subfield listing and the
degree-2 norm test; everything else is imported from its submodule.
"""
from .cyclotomic import subfields
from .quadforms import solve_norm
from .scanner import ScanConfig, classify_prime, scan

__version__ = "0.1.0"

__all__ = [
    "ScanConfig",
    "classify_prime",
    "scan",
    "solve_norm",
    "subfields",
    "__version__",
]
