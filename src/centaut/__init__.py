"""Central automorphism minimality analysis for finite p-groups.

The library answers one question about a nonabelian p-group given as a
Cayley table: does it admit only the central automorphisms it must have
(those induced by its second center), or extra ones?  Structural rules
decide most cases from invariant data; a brute-force enumeration of the
candidate maps provides the ground truth they are verified against.
"""

from .abelian import AbelianBasis, AbelianInvariants, hom_invariants
from .central import (
    DEFAULT_HOM_CAP,
    CentralAutReport,
    central_automorphism_count,
)
from .criteria import (
    MINIMAL,
    NOT_MINIMAL,
    UNDECIDED,
    NecessaryConditions,
    Verdict,
    classify,
    classify_report,
    evaluate_rules,
    necessary_conditions,
    theorem21_predicate,
)
from .errors import CentautError
from .families import builtin, list_builtins, parse_group_spec
from .groupio import (
    Manifest,
    ManifestEntry,
    default_corpus,
    read_group,
    read_manifest,
    resolve_source,
    write_group,
)
from .groups import (
    DEFAULT_ORDER_CAP,
    Group,
    Permutation,
    direct_product,
    group_from_cayley_table,
    group_from_permutations,
)
from .harness import (
    AnalysisRecord,
    VerificationReport,
    analyze_source,
    format_report,
    run_verification,
)
from .structure import (
    StructureReport,
    Subgroup,
    center,
    derived_subgroup,
    quotient,
    structure_report,
)

__version__ = "0.1.0"
