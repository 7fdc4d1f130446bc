"""Multi-valued network semantics, attractors, and abstraction checking.

The package splits into small layers: ``model`` (value types and
validation), ``modelio`` (text formats and export), ``semantics``
(update rules, state graphs, attractors), ``traces`` (lasso traces and
enumeration), ``abstraction`` (level-compression mappings and candidate
models), ``checker`` (the step-term decision procedure), and ``oracle``
(brute-force verdicts and differential testing).  ``fixtures`` bundles
the phage-lambda and tryptophan example models.
"""

__version__ = "0.1.0"

from .errors import (
    ClassTooLargeError,
    GammaOutOfClassError,
    InfiniteTraceSetError,
    MappingError,
    MappingMismatchError,
    ModelValidationError,
    MvnError,
    NonMonotoneMappingWarning,
    NotClosedError,
    ParseError,
    StructureMismatchError,
    TooManyCandidatesError,
    TooManyTracesError,
    UnsupportedError,
)
from .model import (
    Entity,
    GlobalState,
    Mvn,
    Neighbourhood,
    NextStateTable,
    iter_states,
    require_valid,
    state_space_size,
    validate,
)
from .modelio import (
    export_dot,
    export_report,
    parse_mapping,
    parse_model,
    serialize_mapping,
    serialize_model,
    state_labels,
    write_dot,
    write_report,
)
from .semantics import (
    ASYNC,
    SYNC,
    Attractor,
    AttractorSet,
    StateGraph,
    StateSpace,
    async_next,
    attractors,
    build_state_graph,
    reachable,
    sync_step,
)
from .traces import (
    LassoTrace,
    TraceSet,
    async_traces,
    canonicalize,
    sync_traces,
    trace_set_is_finite,
)
from .abstraction import (
    AbstractionMapping,
    CandidateSet,
    ChoicePoint,
    StateMapping,
    abstract_trace,
    abstract_trace_set,
    check_sync_abstraction,
    enumerate_candidates,
    image_index,
)
from .checker import (
    CheckResult,
    StepTerm,
    StepTermFamily,
    all_step_terms,
    check_asyn_abs,
    concrete_class,
    consec_closure,
    forward_holds,
    make_step_term,
    witness_path,
)
from .oracle import (
    attractor_correspondence,
    differential_suite,
    oracle_check,
    reachability_soundness_suite,
)

__all__ = [name for name in dir() if not name.startswith("_")]
