"""Teacher/candidate scoring, paired verdicts, and benchmark aggregation.

A candidate's score is one function of its :class:`SignatureDistance` to
the teacher, :func:`score`: the negated average of its two signature
distances, so higher scores mean stronger routing similarity and therefore
stronger distillation evidence. The paired protocol picks the
higher-scoring member of a candidate pair; a benchmark repeats that per
domain and reports the fraction of domains where the distilled member wins.
Everything here takes signature bundles, never trace sets: a trace file
becomes a bundle through :func:`moesig.signatures.read_signatures`, and a
benchmark matches all of its candidates in one
:func:`moesig.transport.signature_distances` call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from moesig.errors import DetectorError
from moesig.signatures import LayerPolicy, SignatureBundle
from moesig.transport import SignatureDistance, signature_distances

TIE_EPSILON = 1e-12
KINDS = ("kd", "scratch")  # the members of a benchmark pair, in pair order


@dataclass(frozen=True)
class PairVerdict:
    """Outcome of comparing one candidate pair against the teacher."""

    predicted_index: int  # 1 or 2
    margin: float  # score(chosen) - score(other), >= 0
    tie: bool
    distances: tuple[SignatureDistance, SignatureDistance]


@dataclass(frozen=True)
class BenchmarkRow:
    """Per-domain pair result. ``margin`` is signed: score(kd) - score(scratch); a tie is not correct."""

    domain: str
    d_spec_kd: float
    d_spec_scratch: float
    d_collab_kd: float | None
    d_collab_scratch: float | None
    margin: float
    verdict: str  # "kd" or "scratch"
    tie: bool

    @property
    def correct(self) -> bool:
        return self.verdict == "kd" and not self.tie

    @property
    def spec_reduction_pct(self) -> float | None:
        """Relative specialization-distance change of the distilled member, percent.

        Negative when the distilled member sits closer to the teacher, the
        annotation convention used for per-task bar charts. Undefined when
        the scratch distance is zero.
        """
        if self.d_spec_scratch == 0:
            return None
        return 100.0 * (self.d_spec_kd - self.d_spec_scratch) / self.d_spec_scratch

    @property
    def collab_reduction_pct(self) -> float | None:
        if self.d_collab_kd is None or self.d_collab_scratch in (None, 0):
            return None
        return 100.0 * (self.d_collab_kd - self.d_collab_scratch) / self.d_collab_scratch


@dataclass(frozen=True)
class BenchmarkReport:
    """All per-domain verdicts plus the aggregate pairwise accuracy."""

    rows: tuple[BenchmarkRow, ...]
    layer_policy: str
    mode: str

    @property
    def accuracy(self) -> float:
        if not self.rows:
            raise DetectorError("benchmark has no evaluated domains")
        return sum(1 for r in self.rows if r.correct) / len(self.rows)

    @property
    def mean_margin(self) -> float:
        return sum(r.margin for r in self.rows) / len(self.rows)


def score(distance: SignatureDistance) -> float:
    """Distillation evidence of one candidate: minus the mean of its signature distances to the teacher.

    Falls back to minus the specialization distance alone when both sides
    carry no co-activation mass (the collaboration signal is undefined).
    """
    if distance.d_collab is None:
        return -distance.d_spec
    return -0.5 * (distance.d_spec + distance.d_collab)


def pair_verdict(d1: SignatureDistance, d2: SignatureDistance) -> PairVerdict:
    """The verdict of :func:`detect_pair` on two candidates' distances to the teacher."""
    gap = score(d1) - score(d2)
    tie = abs(gap) < TIE_EPSILON
    return PairVerdict(predicted_index=1 if tie or gap > 0 else 2, margin=abs(gap), tie=tie, distances=(d1, d2))


def detect_pair(
    teacher_sig: SignatureBundle,
    candidate_1_sig: SignatureBundle,
    candidate_2_sig: SignatureBundle,
    mode: str = "auto",
) -> PairVerdict:
    """Pick the candidate whose routing signatures sit closer to the teacher.

    Both candidates are matched in one :func:`signature_distances` call.
    Near-equal scores (within 1e-12) are flagged as a tie and resolved
    deterministically in favor of candidate 1.
    """
    return pair_verdict(*signature_distances(teacher_sig, [candidate_1_sig, candidate_2_sig], mode=mode))


def run_benchmark(
    teacher_sig: SignatureBundle,
    pairs: Mapping[str, tuple[SignatureBundle, SignatureBundle]],
    layer_policy: LayerPolicy = "last",
    mode: str = "auto",
) -> BenchmarkReport:
    """Evaluate per-domain candidate pairs against one teacher.

    ``pairs`` maps a domain name to the (distilled, scratch) candidates'
    signatures, built at ``layer_policy``, which the report records. All
    candidates are matched in one :func:`signature_distances` call, so each
    row is its domain's :func:`detect_pair` bit for bit, and a fault is
    the one the domains taken in order would raise first. Accuracy is the
    fraction of domains whose distilled member was chosen without a tie.
    """
    if not pairs:
        raise DetectorError("benchmark needs at least one candidate pair")
    distances = signature_distances(teacher_sig, [sig for pair in pairs.values() for sig in pair], mode=mode)
    rows = []
    for domain, kd, scratch in zip(pairs, distances[::2], distances[1::2]):
        verdict = pair_verdict(kd, scratch)
        rows.append(
            BenchmarkRow(
                domain=domain,
                d_spec_kd=kd.d_spec,
                d_spec_scratch=scratch.d_spec,
                d_collab_kd=kd.d_collab,
                d_collab_scratch=scratch.d_collab,
                margin=score(kd) - score(scratch),
                verdict=KINDS[verdict.predicted_index - 1],
                tie=verdict.tie,
            )
        )
    return BenchmarkReport(rows=tuple(rows), layer_policy=str(layer_policy), mode=mode)
