"""Finite multivalued algebra with exhaustive axiom audits.

Multigroups, multirings and multifields as explicit tables; constructions
(products, quotients, localizations, Marshall quotients); ideal and ordering
spectra; special groups, real semigroups and sign spaces together with the
functors between them, each verified by round-trip audits on finite instances.
"""

from .core import (
    CARRIER_CAP,
    Carrier,
    CheckReport,
    FiniteMultigroup,
    FiniteMultiring,
    InputError,
    MultiringKind,
    RelationalMultigroup,
    StructureMap,
    StructuralAnomaly,
    Verdict,
    check_morphism,
    check_multigroup,
    check_multiring,
    check_relational_axioms,
    check_relational_lemmas,
    classify,
    embedding_kind,
    find_isomorphism,
    from_relational,
    is_isomorphic,
    krasner,
    multigroup_from_labels,
    multiring_from_labels,
    q2,
    ring_multiring,
    same_tables,
    to_relational,
)

__all__ = [
    "CARRIER_CAP",
    "Carrier",
    "CheckReport",
    "FiniteMultigroup",
    "FiniteMultiring",
    "InputError",
    "MultiringKind",
    "RelationalMultigroup",
    "StructureMap",
    "StructuralAnomaly",
    "Verdict",
    "check_morphism",
    "check_multigroup",
    "check_multiring",
    "check_relational_axioms",
    "check_relational_lemmas",
    "classify",
    "embedding_kind",
    "find_isomorphism",
    "from_relational",
    "is_isomorphic",
    "krasner",
    "multigroup_from_labels",
    "multiring_from_labels",
    "q2",
    "ring_multiring",
    "same_tables",
    "to_relational",
]

__version__ = "0.1.0"
