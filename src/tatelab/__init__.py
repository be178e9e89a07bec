"""Exact homological calculator for graded local rings.

Rings are presented as weighted polynomial quotients over an exact
coefficient field (the rationals, or a prime field).  The package builds
divided-power resolution towers and minimal models degree by degree,
reads off deviations, Betti numbers, Poincare series, and cotangent
homology ranks, and audits structural theorems about those invariants
on concrete instances.  Every computed number carries the homological
and internal-degree bounds it was certified under.
"""

from .audits import (AuditError, AuditReport, build_layer_chain,
                     ci_vanishing_audit, growth_probe, jacobi_zariski_audit,
                     rigidity_audit, verify_regular_witness)
from .extensions import Element, ExtensionTower, TowerError
from .fields import FieldError, PrimeField, QQ, Rationals, field_from_spec
from .invariants import (AqRankTable, BettiTable, CiVerdict, DeviationTable,
                         InsufficientCertification, aq_ranks, betti_numbers,
                         characteristic_window, ci_check, deviations,
                         poincare_from_deviations)
from .presentations import (Presentation, PresentationError, parse_polynomial,
                            parse_presentation)
from .resolution import (ResolutionError, build_acyclic_closure,
                         build_minimal_model, kernel_generators,
                         koszul_complex, koszul_on_minimal_generators,
                         minimal_generators)

__version__ = "0.1.0"

__all__ = [
    "AqRankTable", "AuditError", "AuditReport", "BettiTable", "CiVerdict",
    "DeviationTable", "Element", "ExtensionTower", "FieldError",
    "InsufficientCertification", "Presentation",
    "PresentationError", "PrimeField", "QQ", "Rationals", "ResolutionError",
    "TowerError", "aq_ranks", "betti_numbers", "build_acyclic_closure",
    "build_layer_chain", "build_minimal_model", "characteristic_window",
    "ci_check", "ci_vanishing_audit", "deviations",
    "field_from_spec", "growth_probe", "jacobi_zariski_audit",
    "kernel_generators", "koszul_complex", "koszul_on_minimal_generators",
    "minimal_generators",
    "parse_polynomial", "parse_presentation", "poincare_from_deviations",
    "rigidity_audit", "verify_regular_witness",
]
