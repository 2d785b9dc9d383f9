"""SISD: Subjectively Interesting Subgroup Discovery on real-valued targets.

A from-scratch reproduction of Lijffijt et al., "Subjectively Interesting
Subgroup Discovery on Real-valued Targets" (ICDE 2018): the FORSIED
background model over multivariate real targets, location and spread
pattern syntaxes, the SI = IC/DL interestingness measure, beam search
over Cortana-style descriptions, and spread-direction optimization on
the unit sphere.

Quickstart — one declarative spec, one front door::

    from repro import MiningSpec, Workspace

    spec = MiningSpec.build("synthetic", kind="spread", n_iterations=3)
    with Workspace() as ws:
        for iteration in ws.stream(spec):   # yields patterns as mined
            print(iteration.location)
            print(iteration.spread)

The same spec (or its JSON file) drives inline runs (``ws.mine``),
interactive sessions (``ws.session``), and the submit/poll service
(``ws.submit``) with byte-identical results. The pre-spec entry points
(``SubgroupDiscovery``, ``MiningSession``, ``run_job``) remain available
as the execution substrate underneath.
"""

from repro.version import __version__
from repro.errors import (
    ConvergenceError,
    DataError,
    EngineError,
    LanguageError,
    ModelError,
    NotFittedError,
    ReproError,
    SearchError,
)
from repro.datasets import (
    AttributeKind,
    Column,
    Dataset,
    available_datasets,
    load_dataset,
    make_crime,
    make_mammals,
    make_socio,
    make_synthetic,
    make_water,
    from_dataframe,
    to_dataframe,
    read_csv,
    write_csv,
)
from repro.lang import (
    Condition,
    Description,
    EqualsCondition,
    NumericCondition,
    RefinementOperator,
)
from repro.model import (
    BackgroundModel,
    BlockPartition,
    LocationConstraint,
    Prior,
    SpreadConstraint,
    empirical_prior,
)
from repro.stats import Chi2Mixture, subgroup_cov, subgroup_mean, subgroup_spread
from repro.interest import (
    AttributeSurprisal,
    DLParams,
    PatternScore,
    attribute_surprisals,
    description_length,
    location_ic,
    score_location,
    score_spread,
    spread_ic,
)
from repro.search import (
    LocationBeamSearch,
    LocationPatternResult,
    MiningIteration,
    ResultSet,
    ScoredSubgroup,
    SearchConfig,
    SearchResult,
    SpreadObjective,
    SpreadPatternResult,
    SubgroupDiscovery,
    find_spread_direction,
)
from repro.search.branch_bound import (
    BranchAndBoundLocationSearch,
    find_optimal_location,
)
from repro.session import MiningSession
from repro.engine import (
    ArrayStore,
    BeliefCache,
    JobFailure,
    JobResult,
    JobStatus,
    LRUCache,
    MiningService,
    ProcessExecutor,
    SerialExecutor,
    load_dataset_cached,
    resolve_executor,
    run_job,
    run_jobs,
)
from repro.registry import DATASETS, MEASURES, Registry
from repro.spec import (
    DatasetSpec,
    ExecutorSpec,
    InterestSpec,
    LanguageSpec,
    MiningSpec,
    ModelSpec,
    SearchSpec,
)
from repro.errors import DeadlineExpired
from repro.events import (
    CallbackObserver,
    CandidateBatch,
    EventLog,
    MiningObserver,
    SchedulerEvent,
    broadcast,
)
from repro.api import Workspace, build_miner
from repro.server import MiningServer
from repro.client import RemoteWorkspace, ServerRestarted
from repro.store import BeliefStore, JobStore

__all__ = [
    "__version__",
    # errors
    "ReproError",
    "DataError",
    "LanguageError",
    "ModelError",
    "NotFittedError",
    "SearchError",
    "ConvergenceError",
    "EngineError",
    "DeadlineExpired",
    # datasets
    "AttributeKind",
    "Column",
    "Dataset",
    "available_datasets",
    "load_dataset",
    "make_synthetic",
    "make_crime",
    "make_mammals",
    "make_socio",
    "make_water",
    "from_dataframe",
    "to_dataframe",
    "read_csv",
    "write_csv",
    # language
    "Condition",
    "NumericCondition",
    "EqualsCondition",
    "Description",
    "RefinementOperator",
    # model
    "BackgroundModel",
    "BlockPartition",
    "LocationConstraint",
    "SpreadConstraint",
    "Prior",
    "empirical_prior",
    # statistics
    "subgroup_mean",
    "subgroup_cov",
    "subgroup_spread",
    "Chi2Mixture",
    # interestingness
    "DLParams",
    "description_length",
    "location_ic",
    "spread_ic",
    "PatternScore",
    "score_location",
    "score_spread",
    "AttributeSurprisal",
    "attribute_surprisals",
    # search
    "SearchConfig",
    "SubgroupDiscovery",
    "LocationBeamSearch",
    "LocationPatternResult",
    "SpreadPatternResult",
    "MiningIteration",
    "ResultSet",
    "ScoredSubgroup",
    "SearchResult",
    "SpreadObjective",
    "find_spread_direction",
    # extensions (paper's §V future work)
    "BranchAndBoundLocationSearch",
    "find_optimal_location",
    "MiningSession",
    # engine (parallel mining + job service)
    "SerialExecutor",
    "ProcessExecutor",
    "resolve_executor",
    "ArrayStore",
    "LRUCache",
    "BeliefCache",
    "load_dataset_cached",
    "JobResult",
    "JobFailure",
    "run_job",
    "run_jobs",
    "JobStatus",
    "MiningService",
    # registries (pluggable datasets and measures)
    "Registry",
    "DATASETS",
    "MEASURES",
    # unified spec (the one config object)
    "MiningSpec",
    "DatasetSpec",
    "LanguageSpec",
    "ModelSpec",
    "InterestSpec",
    "SearchSpec",
    "ExecutorSpec",
    # events (streaming substrate)
    "MiningObserver",
    "CallbackObserver",
    "CandidateBatch",
    "EventLog",
    "SchedulerEvent",
    "broadcast",
    # the front door
    "Workspace",
    "build_miner",
    # network (the served engine and its client twin)
    "MiningServer",
    "RemoteWorkspace",
    "ServerRestarted",
    # durability (the persistent service substrate)
    "JobStore",
    "BeliefStore",
]
