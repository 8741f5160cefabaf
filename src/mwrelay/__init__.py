"""Coding schemes and capacity tools for finite-field multi-way relay
channels with private and pairwise common messages."""

from .capacity import (
    RateTuple,
    fdfp_feasible,
    max_min_downlink,
    region_slice,
)
from .channel import (
    DownlinkSpec,
    UplinkSpec,
    entropy,
    identity_downlink,
    mutual_info,
    sample_downlink,
    sample_uplink_noise,
    uplink_bound,
)
from .codec import (
    BlockCode,
    CandidateSet,
    CapabilityError,
    DownlinkCodebook,
    Scheme,
    build_v,
    candidate_set,
    compile_scheme,
    encode_uplink,
    make_block_codes,
    recover_messages,
    relay_decode_sum,
    relay_word,
    uplink_round,
    user_decode_word,
)
from .gf import Field, LinearSolution, mat_mul, random_matrix, rank, solve_linear
from .rng import stream
from .schedule import (
    MessageRef,
    MessageTable,
    SymbolLengths,
    build_table,
    reindex_users,
    verify_props,
)
from .shuffle import SimplifiedColumn, decode_matrix, run_shuffle, simplify
from .sim import ErrorStats, TrialConfig, run_trials, sum_decode_trials, sweep, wilson_interval

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
