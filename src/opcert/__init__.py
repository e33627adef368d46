"""Numerical certificates for unital operator spaces: unitary and
isometry defects, hermitian and positive elements, operator-system and
C*-structure detection, ternary closures, ordered units, and sampled
function-space criteria."""

from .certify import certify_coisometry, certify_isometry, certify_unitary
from .cstar import (ProductTable, RecoveredProduct, collect_unitaries,
                    detect_cstar, hermitian_to_unitaries, recover_product,
                    recover_product_left, unitary_span_check)
from .errors import InvalidInputError, PreconditionError, SolverError
from .funcspace import (CatalogEntry, catalog_closure, catalog_entry,
                        catalog_names, catalog_space, g_hermitian_solve,
                        scalar_unitary_check, selfadjoint_unit_check)
from .hermit import (DeltaSpan, delta_span, is_u_hermitian, is_u_positive,
                     operator_system_check)
from .opspace import (ConcreteOpSpace, Element, make_space,
                      space_from_points)
from .order import Cone, cone_equals_delta_plus, cone_membership, \
    norm_order_unit_check
from .report import FAIL, INCONCLUSIVE, PASS, CertificateReport
from .serialize import ParseError, SpaceFile, dumps_canonical, dumps_report
from .solver import SolverConfig, SolveResult, maximize_over_sphere, \
    minimize_over_ball
from .sysdetect import (PartnerSearchResult, RecoveredInvolution,
                        detect_operator_system, find_partner,
                        involution_error_bound, recover_involution,
                        t1_insufficiency_probe)
from .tro import (TroClosure, ambient_system_check, ambient_unitary_check,
                  generate_tro, involution, same_involution_check,
                  transfer_check)

__version__ = "0.1.0"

__all__ = [
    "CatalogEntry", "CertificateReport", "Cone",
    "ConcreteOpSpace", "DeltaSpan", "Element", "FAIL",
    "INCONCLUSIVE", "InvalidInputError", "PASS", "ParseError",
    "PartnerSearchResult", "PreconditionError", "ProductTable",
    "RecoveredInvolution",
    "RecoveredProduct", "SolveResult", "SolverConfig", "SolverError",
    "SpaceFile", "TroClosure", "ambient_system_check",
    "ambient_unitary_check", "catalog_closure",
    "catalog_entry", "catalog_names", "catalog_space",
    "certify_coisometry", "certify_isometry", "certify_unitary",
    "collect_unitaries", "cone_equals_delta_plus",
    "cone_membership", "delta_span", "detect_cstar",
    "detect_operator_system", "dumps_canonical", "dumps_report",
    "find_partner", "g_hermitian_solve", "generate_tro",
    "hermitian_to_unitaries", "involution", "involution_error_bound",
    "is_u_hermitian", "is_u_positive", "make_space", "maximize_over_sphere",
    "minimize_over_ball", "norm_order_unit_check",
    "operator_system_check", "recover_involution", "recover_product",
    "recover_product_left", "same_involution_check",
    "scalar_unitary_check", "selfadjoint_unit_check", "space_from_points",
    "t1_insufficiency_probe", "transfer_check",
    "unitary_span_check",
]
