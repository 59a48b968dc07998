"""Sibyl core: features, rewards, replay, the agent, and analyses."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
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
