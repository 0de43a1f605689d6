"""Exact arithmetic for class-number relations of quadratic forms.

The package computes Hurwitz class numbers, Shimura-curve class-number
functions, genus characters of eligible quadratic forms and the Cohen
coefficients a_n from a divisor sieve, and verifies the resulting
class-number relations with exact rational arithmetic.  See the ``humbert``
command-line tool for the user-facing entry points.
"""

from .arith import factor, fundamental_decomposition, is_squarefree, kronecker, sigma
from .bqf import BQF, class_number, hurwitz, reduce, reduced_forms
from .genus import EligibleForm, eligible_forms, genus_character
from .qseries import cohen_coefficients
from .relations import verify_kronecker, verify_relation
from .shimura import ShimuraLevel, weighted_class_number

__version__ = "0.1.0"

# The quaternion-order module serves only selfcheck; it is imported the first
# time the module or one of these names is asked for (PEP 562).
_QUAT_NAMES = frozenset({"OrderBasis", "Quaternion", "SingularRelation", "build_order"})


def __getattr__(name: str):
    if name == "quat" or name in _QUAT_NAMES:
        from importlib import import_module

        quat = import_module(".quat", __name__)
        return quat if name == "quat" else getattr(quat, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "BQF",
    "EligibleForm",
    "OrderBasis",
    "Quaternion",
    "ShimuraLevel",
    "SingularRelation",
    "build_order",
    "class_number",
    "cohen_coefficients",
    "eligible_forms",
    "factor",
    "fundamental_decomposition",
    "genus_character",
    "hurwitz",
    "is_squarefree",
    "kronecker",
    "reduce",
    "reduced_forms",
    "sigma",
    "verify_kronecker",
    "verify_relation",
    "weighted_class_number",
    "__version__",
]
