"""Unconditionally secure tags for subspace messages over coded networks.

The package splits into a small tower of layers: ``fields`` (prime-power
fields and their extensions, Frobenius), ``linalg`` (exact matrices over
those fields), ``codes`` (linear codes, duals,
coalition forgeability), ``ec`` (elliptic curves and residue codes),
``scheme`` (key generation, tagging, verification), ``network`` (linear
network transmission), ``adversary`` (key counting and forgeries), and a
small CLI on top.
"""

from .codes import CoalitionSpec, LinearCode, rs_code
from .ec import AGCodeSpec, EllipticCurve, ECPoint, classify_coalition, residue_code
from .errors import SubtagError
from .fields import BaseField, ExtField, FieldElement, frobenius
from .linalg import Matrix, solve_all
from .scheme import (
    MasterKey,
    PublicParams,
    TaggedPacket,
    VerifierKey,
    distribute,
    keygen,
    tag_basis,
    tag_payload,
    verify,
)

__version__ = "0.1.0"

__all__ = [
    "AGCodeSpec",
    "BaseField",
    "CoalitionSpec",
    "ECPoint",
    "EllipticCurve",
    "ExtField",
    "FieldElement",
    "LinearCode",
    "MasterKey",
    "Matrix",
    "PublicParams",
    "SubtagError",
    "TaggedPacket",
    "VerifierKey",
    "classify_coalition",
    "distribute",
    "frobenius",
    "keygen",
    "residue_code",
    "rs_code",
    "solve_all",
    "tag_basis",
    "tag_payload",
    "verify",
    "__version__",
]
