"""Higher-dimensional automata, ST-structures, Chu spaces, and sculptability."""

from .bulk import (Sculpture, bulk_dim, bulk_s, bulk_t, event_equiv_sculpt,
                   make_bulk, sculpture_from_json, sculpture_to_json,
                   sculpture_to_st, sculptures_isomorphic, simplify_sculpture,
                   st_to_sculpture, validate_sculpture)
from .decision import (Covering, Verdict, Witness, brute_force_search,
                       build_embedding, check_proper, decide_sculptable,
                       path_covering, repair_search, verdict_to_json)
from .errors import (CyclicError, HdaError, HeldAtEndError, IllegalPathError,
                     InitialForbiddenError, InvalidStructureError,
                     NonExtensionalError, NotConnectedError,
                     NotConsistentError, NotProperError, NotRegularError,
                     PvSyntaxError, RepeatingEventsError, ResourceLimitError,
                     UnmatchedReleaseError)
from .euclid import (ComplexEmbedding, Cube, EuclideanComplex, Grid,
                     complex_to_hda, complex_to_json, cube, euclidean_complex,
                     grid, grid_to_bulk, make_grid, sculpture_to_complex)
from .events import (EventPartition, UniversalEvents, discrete_partition,
                     has_non_repeating_events, is_consistent, is_ordered,
                     multilabel, partition_of, partition_to_json,
                     symmetric_variant, universal_events,
                     universal_events_to_json)
from .precubical import (Hda, Morphism, Path, PrecubicalSet, Step,
                         ValidationReport, elementary_homotopies, hda,
                         hda_from_json, hda_to_json, homotopy_class,
                         is_acyclic, is_connected, is_non_selflinked,
                         normalize_path, precubical, precubical_from_json,
                         precubical_to_json, rooted_paths, validate_hda,
                         validate_morphism, validate_path,
                         validate_precubical)
from .pv import PvProgram, parse_pv, pv_to_complex
from .st_chu import (ChuSpace3, StConfig, StStructure, check_regular,
                     chu_from_json, chu_to_json, chu_to_st, complete_st,
                     config, is_collapsing, is_separable, quotient_st, st,
                     st_from_json, st_isomorphic, st_to_chu, st_to_json,
                     validate_st_morphism)

__version__ = "0.1.0"
