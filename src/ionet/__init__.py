"""Liveness and structural liveness for immediate-observation-style nets."""

from .nets import (
    Net, Execution, NetError, ParseError, NotEnabled, UnknownNode,
    madd, msub, mleq, mmin, msize, carrier,
    pre_mset, post_mset, enabled, fire, replay, parse_net, serialize_net,
)
from .classify import (
    NetClass, TransitionPresentation, NotBimo, classify, presentation,
    dummy_augment, augment_marking, DUMMY_PLACE,
)
from .structure import (
    Component, SearchResult, relaxed_net, sccs, rich_poor, is_siphon,
    unmarked_siphon, is_self_coverable, is_carrier_maximal,
)
from .liveness import (
    BudgetExceeded, ReachGraph, SubsetCapExceeded, Witness, WitnessReport,
    reach_graph, cover_basis, dead_at, is_live_exact, check_witness, find_witness,
)
from .slp import (
    Bounds, CappedConfig, LivenessVerdict, SlpVerdict,
    bounds_for, cap_value, truncate, capped_config,
    capped_successors, is_nonlive, decide_slp, find_dl_marking,
)
from .ordinarize import (
    OrdinarizeMap, TransferReport, ordinarize, embed_marking, project_marking,
    check_liveness_transfer,
)
from .lba import (
    LbaSpec, ConventionViolated, NonDeterministic, parse_lba, simulate_lba,
    build_stage, reduction_correctness_check, STAGES,
)
from .generate import random_net, random_net_in_row

__version__ = "0.1.0"
