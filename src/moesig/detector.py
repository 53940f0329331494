"""Teacher/candidate scoring, paired verdicts, and benchmark aggregation.

A candidate is scored as the negated average of its two signature distances
to the teacher, so higher scores mean stronger routing similarity and
therefore stronger distillation evidence. The paired protocol picks the
higher-scoring member of a candidate pair; a benchmark repeats that per
domain and reports the fraction of domains where the distilled member wins.
Everything here takes signature bundles, never trace sets: a trace file
becomes a bundle through :func:`moesig.signatures.read_signatures`, and a
benchmark scores all of its candidates in one :func:`score_candidates` call.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

from moesig.errors import DetectorError
from moesig.signatures import LayerPolicy, SignatureBundle
from moesig.transport import SignatureDistance, signature_distances

TIE_EPSILON = 1e-12
KINDS = ("kd", "scratch")  # the members of a benchmark pair, in pair order


@dataclass(frozen=True)
class DetectionScore:
    """Distillation-evidence score of one candidate against the teacher."""

    score: float
    d_spec: float
    d_collab: float | None
    distance: SignatureDistance = field(compare=False)
    candidate_id: str = ""


@dataclass(frozen=True)
class PairVerdict:
    """Outcome of comparing one candidate pair against the teacher."""

    predicted_index: int  # 1 or 2
    margin: float  # score(chosen) - score(other), >= 0
    tie: bool
    scores: tuple[DetectionScore, DetectionScore]

    def __post_init__(self) -> None:
        if self.predicted_index not in (1, 2):
            raise DetectorError(f"predicted_index must be 1 or 2, got {self.predicted_index}")
        if self.margin < 0:
            raise DetectorError(f"margin must be nonnegative, got {self.margin}")

    @property
    def chosen(self) -> DetectionScore:
        return self.scores[self.predicted_index - 1]


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


def score_candidates(
    teacher_sig: SignatureBundle,
    student_sigs: Sequence[SignatureBundle],
    mode: str = "auto",
    candidate_ids: Sequence[str] | None = None,
) -> list[DetectionScore]:
    """Score candidates against one teacher: each minus the mean of its signature distances.

    Falls back to minus the specialization distance alone when both sides
    carry no co-activation mass (the collaboration signal is undefined).
    The distances come from one :func:`signature_distances` call, so an
    exact collaboration match scans the teacher's relabelings once for all
    candidates.
    """
    ids = candidate_ids if candidate_ids is not None else [""] * len(student_sigs)
    scores = []
    for dist, candidate_id in zip(signature_distances(teacher_sig, student_sigs, mode=mode), ids, strict=True):
        if dist.d_collab is None:
            score = -dist.d_spec
        else:
            score = -0.5 * (dist.d_spec + dist.d_collab)
        scores.append(DetectionScore(score=score, d_spec=dist.d_spec, d_collab=dist.d_collab,
                                     candidate_id=candidate_id, distance=dist))
    return scores


def pair_verdict(s1: DetectionScore, s2: DetectionScore) -> PairVerdict:
    """The verdict of :func:`detect_pair` on two scored candidates."""
    gap = s1.score - s2.score
    if abs(gap) < TIE_EPSILON:
        return PairVerdict(predicted_index=1, margin=abs(gap), tie=True, scores=(s1, s2))
    predicted = 1 if gap > 0 else 2
    return PairVerdict(predicted_index=predicted, margin=abs(gap), tie=False, scores=(s1, s2))


def detect_pair(
    teacher_sig: SignatureBundle,
    candidate_1_sig: SignatureBundle,
    candidate_2_sig: SignatureBundle,
    mode: str = "auto",
    candidate_ids: tuple[str, str] = ("cand1", "cand2"),
) -> PairVerdict:
    """Pick the candidate whose routing signatures sit closer to the teacher.

    Both candidates are scored in one :func:`score_candidates` call.
    Near-equal scores (within 1e-12) are flagged as a tie and resolved
    deterministically in favor of candidate 1.
    """
    return pair_verdict(*score_candidates(
        teacher_sig, [candidate_1_sig, candidate_2_sig], mode=mode, candidate_ids=candidate_ids))


def run_benchmark(
    teacher_sig: SignatureBundle,
    pairs: Mapping[str, tuple[SignatureBundle, SignatureBundle]],
    layer_policy: LayerPolicy = "last",
    mode: str = "auto",
) -> BenchmarkReport:
    """Evaluate per-domain candidate pairs against one teacher.

    ``pairs`` maps a domain name to the (distilled, scratch) candidates'
    signatures, built at ``layer_policy``, which the report records. All
    candidates are scored in one :func:`score_candidates` call, so each
    row is its domain's :func:`detect_pair` bit for bit, and a fault is
    the one the domains taken in order would raise first. Accuracy is the
    fraction of domains whose distilled member was chosen without a tie.
    """
    if not pairs:
        raise DetectorError("benchmark needs at least one candidate pair")
    scores = score_candidates(teacher_sig, [sig for pair in pairs.values() for sig in pair], mode=mode,
                              candidate_ids=KINDS * len(pairs))
    rows = []
    for domain, s_kd, s_scratch in zip(pairs, scores[::2], scores[1::2]):
        verdict = pair_verdict(s_kd, s_scratch)
        rows.append(
            BenchmarkRow(
                domain=domain,
                d_spec_kd=s_kd.d_spec,
                d_spec_scratch=s_scratch.d_spec,
                d_collab_kd=s_kd.d_collab,
                d_collab_scratch=s_scratch.d_collab,
                margin=s_kd.score - s_scratch.score,
                verdict=KINDS[verdict.predicted_index - 1],
                tie=verdict.tie,
            )
        )
    return BenchmarkReport(rows=tuple(rows), layer_policy=str(layer_policy), mode=mode)
