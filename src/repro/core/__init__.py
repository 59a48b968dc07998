"""Sibyl core: features, rewards, replay, the agent, and analyses."""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

if TYPE_CHECKING:  # static readers; at run time a name imports on first access
    from .agent import SibylAgent
    from .explain import PlacementProfile, preference_table, profile_from_stats
    from .features import (
        FEATURE_SETS,
        STATE_ENCODING_BITS,
        FeatureExtractor,
        FeatureSpec,
        linear_bin,
        log2_bin,
    )
    from .hyperparams import SIBYL_DEFAULT, SIBYL_OPT, SibylHyperParams, doe_grid
    from .overhead import OverheadReport, compute_overhead, layer_macs
    from .replay import EXPERIENCE_BITS, Experience, ExperienceBuffer
    from .reward import (
        EnduranceAwareReward,
        EvictionPenaltyReward,
        HitRateReward,
        LatencyReward,
        RewardFunction,
        make_reward,
    )

__all__ = [
    "EXPERIENCE_BITS",
    "EnduranceAwareReward",
    "EvictionPenaltyReward",
    "Experience",
    "ExperienceBuffer",
    "FEATURE_SETS",
    "FeatureExtractor",
    "FeatureSpec",
    "HitRateReward",
    "LatencyReward",
    "OverheadReport",
    "PlacementProfile",
    "RewardFunction",
    "SIBYL_DEFAULT",
    "SIBYL_OPT",
    "STATE_ENCODING_BITS",
    "SibylAgent",
    "SibylHyperParams",
    "compute_overhead",
    "doe_grid",
    "layer_macs",
    "linear_bin",
    "log2_bin",
    "make_reward",
    "preference_table",
    "profile_from_stats",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    ".agent": ["SibylAgent"],
    ".explain": ["PlacementProfile", "preference_table", "profile_from_stats"],
    ".features": ["FEATURE_SETS", "STATE_ENCODING_BITS", "FeatureExtractor",
        "FeatureSpec", "linear_bin", "log2_bin"],
    ".hyperparams": ["SIBYL_DEFAULT", "SIBYL_OPT", "SibylHyperParams",
        "doe_grid"],
    ".overhead": ["OverheadReport", "compute_overhead", "layer_macs"],
    ".replay": ["EXPERIENCE_BITS", "Experience", "ExperienceBuffer"],
    ".reward": ["EnduranceAwareReward", "EvictionPenaltyReward",
        "HitRateReward", "LatencyReward", "RewardFunction", "make_reward"],
})
