"""Routing-signature fingerprinting for sparse Mixture-of-Experts models.

Extracts expert specialization and collaboration signatures from routing
traces, compares them with permutation-invariant Wasserstein-1 distances,
and scores candidate students against a teacher to detect knowledge
distillation. Includes a toy trainable MoE proxy for black-box models and
a synthetic scenario generator with known ground truth.

Importing the package loads no numpy: apart from ``__version__`` and the
error classes, each public name imports its submodule on first use.
"""

import importlib

from moesig.errors import (
    DetectorError,
    MoesigError,
    ScenarioError,
    ShadowMoeError,
    SignatureError,
    TraceError,
    TransportError,
)

__version__ = "0.1.0"

# every other public name -> the submodule that defines it
_LAZY = {
    **dict.fromkeys(("RoutingTraceSet", "ingest_traces", "write_traces"), "routing_trace"),
    **dict.fromkeys(
        ("SpecializationProfile", "CollaborationMatrix", "SignatureBundle", "compute_specialization",
         "compute_collaboration", "signature_bundle"),
        "signatures",
    ),
    **dict.fromkeys(
        ("Permutation", "SignatureDistance", "hungarian", "spec_distance", "collab_distance",
         "heuristic_cost_matrix", "signature_distance"),
        "transport",
    ),
    **dict.fromkeys(
        ("PairVerdict", "BenchmarkReport", "detect_pair", "run_benchmark"),
        "detector",
    ),
    **dict.fromkeys(
        ("ShadowMoeConfig", "ShadowMoeModel", "load_balance_loss", "train_proxy", "export_traces"),
        "shadow_moe",
    ),
    **dict.fromkeys(("ScenarioConfig", "Scenario", "generate_scenario", "sweep"), "synthgen"),
}

__all__ = [
    "__version__",
    *(name for name, value in list(globals().items())
      if isinstance(value, type) and issubclass(value, MoesigError)),
    *_LAZY,
]


def __getattr__(name: str):
    """Resolve a lazy public name (PEP 562) and bind it, so later lookups skip this hook."""
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_LAZY[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
