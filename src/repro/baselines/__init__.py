"""Every placement policy the paper evaluates, behind one interface."""

from typing import List

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".archivist": ["ArchivistPolicy"],
    ".base": ["PlacementPolicy"],
    ".cde": ["CDEPolicy"],
    ".extremes": ["FastOnlyPolicy", "SlowOnlyPolicy", "StaticPolicy"],
    ".hps": ["HPSPolicy"],
    ".oracle": ["OraclePolicy"],
    ".rnn_hss": ["RNNHSSPolicy"],
    ".tri_heuristic": ["TriHeuristicPolicy"],
})
__all__ += ["available_policies", "make_policy"]

#: Registry name -> policy class, named so that listing the policies (the
#: CLI's ``--policy`` choices) imports none of them.
_FACTORIES = {
    "slow-only": "SlowOnlyPolicy",
    "fast-only": "FastOnlyPolicy",
    "cde": "CDEPolicy",
    "hps": "HPSPolicy",
    "archivist": "ArchivistPolicy",
    "rnn-hss": "RNNHSSPolicy",
    "oracle": "OraclePolicy",
    "tri-heuristic": "TriHeuristicPolicy",
}


def available_policies() -> List[str]:
    """Names of the built-in baseline policies (Sibyl lives in repro.core)."""
    return sorted(_FACTORIES)


def make_policy(name: str, **kwargs):
    """Instantiate a baseline policy by name."""
    try:
        factory = __getattr__(_FACTORIES[name.lower()])
    except KeyError:
        raise ValueError(
            f"unknown policy {name!r}; available: {available_policies()}"
        ) from None
    return factory(**kwargs)
