"""Exact and certified-numeric calculus on formal manifolds.

The base space is either a finite discrete set or the smooth line; on
top of it live truncated formal directions. The package provides
formal functions and compactly supported densities, distributions and
generalized functions, density-valued differential operators with
their normal form, partitions of unity with certified positivity,
and constructive gluing, decomposition, and extension checks.
"""

from .basedensity import BaseDensity
from .densities import FormalDensity
from .diffops import DensityDiffOp, EndoDiffOp, seminorm
from .distributions import (BaseDistribution, CompactFormalDistribution,
                            FormalDistribution, GeneralizedFunction,
                            PointDistribution, PointTerm, SmoothTerm,
                            cutoff_extend, dist_space_dimension,
                            jet_kernel_check, normalized_monomial,
                            point_basis)
from .errors import (BackendError, CertificateError, DomainMismatchError,
                     FormalcalcError, IncompatibilityError, QuadratureError,
                     ScenarioError, SupportError, TruncationError,
                     UndecidedCertificateError)
from .expr import (Const, Kern, Var, X, add, bump, certify_positive, diff,
                   div, ev, falling_edge, kern, mul, parse_sexpr, pow_,
                   rising_edge, to_sexpr)
from .functions import (FormalFunction, SupportedFormalFunction, cutoff,
                        cutoff_product)
from .multiindex import (degree, enumerate_degree, enumerate_upto, mi,
                         mi_binom, mi_factorial)
from .quadrature import DEFAULT_ABS_TOL, integrate_expr
from .scalars import QC, qc
from .scenario import SCHEMA_VERSION, Scenario
from .sheaf import (Cover, PartitionOfUnity, build_pou, cosheaf_decompose,
                    cosheaf_reassemble, dual_density_family,
                    dual_function_family, flabby_check, functional_residual,
                    functional_zero_residual, mv_phi, mv_psi, mv_split,
                    sheaf_glue)
from .spaces import Discrete, OpenSet, RSet, SmoothLine

__version__ = "0.1.0"

__all__ = [
    "BaseDensity", "FormalDensity", "DensityDiffOp", "EndoDiffOp",
    "seminorm", "BaseDistribution", "CompactFormalDistribution",
    "FormalDistribution", "GeneralizedFunction",
    "PointDistribution", "PointTerm", "SmoothTerm", "cutoff_extend",
    "dist_space_dimension", "jet_kernel_check", "normalized_monomial",
    "point_basis", "BackendError", "CertificateError",
    "DomainMismatchError", "FormalcalcError", "IncompatibilityError",
    "QuadratureError", "ScenarioError", "SupportError", "TruncationError",
    "UndecidedCertificateError",
    "Const", "Kern", "Var", "X", "add", "bump", "certify_positive", "diff",
    "div", "ev", "falling_edge", "kern", "mul", "parse_sexpr", "pow_",
    "rising_edge", "to_sexpr", "FormalFunction", "SupportedFormalFunction",
    "cutoff", "cutoff_product", "degree",
    "enumerate_degree", "enumerate_upto", "mi", "mi_binom", "mi_factorial",
    "DEFAULT_ABS_TOL", "integrate_expr", "QC", "qc", "SCHEMA_VERSION",
    "Scenario", "Cover", "PartitionOfUnity", "build_pou",
    "cosheaf_decompose", "cosheaf_reassemble", "dual_density_family",
    "dual_function_family", "flabby_check", "functional_residual",
    "functional_zero_residual", "mv_phi", "mv_psi", "mv_split", "sheaf_glue",
    "Discrete", "OpenSet", "RSet", "SmoothLine", "__version__",
]
