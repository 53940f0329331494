"""Routing-signature fingerprinting for sparse Mixture-of-Experts models.

Extracts expert specialization and collaboration signatures from routing
traces, compares them with permutation-invariant Wasserstein-1 distances,
and scores candidate students against a teacher to detect knowledge
distillation. Includes a toy trainable MoE proxy for black-box models and
a synthetic scenario generator with known ground truth.

Each public name is imported from the submodule that defines it, for
example ``from moesig.detector import detect_pair``. Importing the package
itself loads no numpy.
"""

__version__ = "0.1.0"
