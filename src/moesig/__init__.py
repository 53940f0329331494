"""Routing-signature fingerprinting for sparse Mixture-of-Experts models.

Extracts expert specialization and collaboration signatures from routing
traces, compares them with permutation-invariant Wasserstein-1 distances,
and scores candidate students against a teacher to detect knowledge
distillation. Includes a toy trainable MoE proxy for black-box models and
a synthetic scenario generator with known ground truth.
"""

__version__ = "0.1.0"

from moesig.errors import (
    DetectorError,
    MoesigError,
    ScenarioError,
    ShadowMoeError,
    SignatureError,
    TraceError,
    TransportError,
)
from moesig.routing_trace import (
    RoutingTraceSet,
    ingest_traces,
    write_traces,
)
from moesig.signatures import (
    CollaborationMatrix,
    SignatureBundle,
    SpecializationProfile,
    compute_collaboration,
    compute_specialization,
    signature_bundle,
)
from moesig.transport import (
    Permutation,
    SignatureDistance,
    collab_distance,
    heuristic_cost_matrix,
    hungarian,
    signature_distance,
    spec_distance,
    wasserstein1_discrete,
)
from moesig.detector import (
    BenchmarkReport,
    DetectionScore,
    PairVerdict,
    detect_pair,
    run_benchmark,
    score_candidate,
)
from moesig.shadow_moe import (
    ShadowMoeConfig,
    ShadowMoeModel,
    export_traces,
    load_balance_loss,
    train_proxy,
)
from moesig.synthgen import (
    Scenario,
    ScenarioConfig,
    generate_scenario,
    sweep,
)

__all__ = [
    "__version__",
    "MoesigError",
    "TraceError",
    "SignatureError",
    "TransportError",
    "DetectorError",
    "ShadowMoeError",
    "ScenarioError",
    "RoutingTraceSet",
    "ingest_traces",
    "write_traces",
    "SpecializationProfile",
    "CollaborationMatrix",
    "SignatureBundle",
    "compute_specialization",
    "compute_collaboration",
    "signature_bundle",
    "Permutation",
    "SignatureDistance",
    "wasserstein1_discrete",
    "hungarian",
    "spec_distance",
    "collab_distance",
    "heuristic_cost_matrix",
    "signature_distance",
    "DetectionScore",
    "PairVerdict",
    "BenchmarkReport",
    "score_candidate",
    "detect_pair",
    "run_benchmark",
    "ShadowMoeConfig",
    "ShadowMoeModel",
    "load_balance_loss",
    "train_proxy",
    "export_traces",
    "ScenarioConfig",
    "Scenario",
    "generate_scenario",
    "sweep",
]
