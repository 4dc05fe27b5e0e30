"""Loop closure decision layer.

Retrieval scores for the current frame are min-max normalised and
thresholded, the surviving candidates are grouped into disjoint time
intervals ("islands") whose extent adapts to the candidate spread, and
the best island's representative becomes the loop candidate.  Islands
overlapping the island selected at the previous frame are preferred, and
after a long enough run of consecutive closures the epipolar check is
skipped entirely.

``LoopDetector.on_frame`` is strictly sequential per instance; distinct
instances are independent.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .geometry import RansacParams, ransac_fundamental, ratio_match
from .imgproc import FeatureSet
from .vocabulary import ScoredImage, Vocabulary, VocabParams

ACCEPTED = "accepted"
REJECTED = "rejected"
SKIPPED = "skipped"

PATH_GEOMETRY = "geometry"
PATH_SHORTCUT = "shortcut"


@dataclass
class DetectorParams:
    """Decision-layer configuration.

    ``buffer_size`` frames are withheld from candidacy (an image becomes
    eligible once it is at least that many frames old).  ``shortcut_after``
    is the consecutive-closure count that must be strictly exceeded before
    a priority-island loop is accepted without geometry.  Putative
    matching uses ``VocabParams.ratio``, the ratio test of word assignment.
    """

    buffer_size: int = 50
    score_threshold: float = 0.3
    island_halfwidth: int = 5
    shortcut_after: float = 20
    min_inliers: int = 24
    ransac: RansacParams = field(default_factory=RansacParams)

    def __post_init__(self):
        if self.buffer_size < 0:
            raise ValueError("buffer_size must be >= 0")
        if not 0.0 <= self.score_threshold < 1.0:
            raise ValueError("score_threshold must be in [0, 1)")
        if self.island_halfwidth < 0:
            raise ValueError("island_halfwidth must be >= 0")
        if self.shortcut_after < 0:
            raise ValueError("shortcut_after must be >= 0")
        if self.min_inliers < 8:
            raise ValueError("min_inliers must be >= 8")


@dataclass
class Island:
    """A group of similar images on the frame interval [start, end].

    The representative is the member with the highest normalised score
    (ties go to the lowest image id); ``score`` is the member score sum
    averaged over the interval length.
    """

    start: int
    end: int
    members: list[tuple[int, float]]
    representative: int = -1
    score: float = 0.0

    def overlaps(self, other: "Island") -> bool:
        return self.start <= other.end and other.start <= self.end


@dataclass
class LoopResult:
    """Outcome of one frame: the decision plus everything needed to trace it.

    ``candidate`` is the island representative the frame was checked
    against; it is set even when geometry rejected the loop, which is what
    lets precision-recall sweeps re-threshold recorded inlier counts
    offline.  ``matched`` is set only on accepted frames.
    """

    frame: int
    status: str
    matched: int | None = None
    candidate: int | None = None
    inliers: int | None = None
    path: str | None = None
    island: Island | None = None
    num_candidates: int = 0


def normalize_scores(scored: list[ScoredImage]) -> list[tuple[int, float]]:
    """Min-max normalise retrieval scores to [0, 1], order preserved.

    A single candidate, or several with identical scores, all map to 1 so
    that a lone strong candidate is not discarded by the filter.
    """
    if not scored:
        raise ValueError("cannot normalise an empty score list")
    values = [s.score for s in scored]
    lo = min(values)
    hi = max(values)
    if hi == lo:
        return [(s.image_id, 1.0) for s in scored]
    span = hi - lo
    return [(s.image_id, (s.score - lo) / span) for s in scored]


def filter_candidates(
    normalized: list[tuple[int, float]], threshold: float
) -> list[tuple[int, float]]:
    """Keep candidates whose normalised score reaches the threshold."""
    return [(i, s) for i, s in normalized if s >= threshold]


def island_score(island: Island) -> float:
    """Average of member scores over the interval length."""
    if not island.members:
        raise ValueError("island has no members")
    return sum(s for _, s in island.members) / (island.end - island.start + 1)


def _clamp(island: Island, max_frame: int | None) -> None:
    island.start = max(island.start, 0)
    if max_frame is not None:
        island.end = min(island.end, max_frame)
        island.start = min(island.start, max_frame)


def build_islands(
    candidates: list[tuple[int, float]], halfwidth: int, max_frame: int | None = None
) -> list[Island]:
    """Group candidate frames into disjoint islands, best-scored first.

    Candidates are processed in list order: a frame strictly inside an
    existing island joins it and widens the interval by ``halfwidth`` on
    each side of the frame; otherwise it seeds a new island of initial
    width ``2 * halfwidth + 1``.  Overlapping islands are then truncated
    at the midpoint of the overlap (the middle frame is assigned to
    neither when the overlap has odd length), members stranded outside
    their island are reassigned to the island containing them, or to the
    nearest island otherwise, and islands left without members are
    dropped.  Intervals are clamped to [0, max_frame].
    """
    b = halfwidth
    islands: list[Island] = []
    for image_id, s in candidates:
        placed = False
        for isl in islands:
            if isl.start < image_id < isl.end:
                isl.members.append((image_id, s))
                isl.start = min(isl.start, image_id - b)
                isl.end = max(isl.end, image_id + b)
                _clamp(isl, max_frame)
                placed = True
                break
        if not placed:
            isl = Island(start=image_id - b, end=image_id + b, members=[(image_id, s)])
            _clamp(isl, max_frame)
            islands.append(isl)

    islands.sort(key=lambda isl: (isl.start, isl.end, isl.members[0][0]))
    kept: list[Island] = []
    orphans: list[tuple[int, float]] = []
    for isl in islands:
        if kept and isl.start <= kept[-1].end:
            prev = kept[-1]
            total = prev.end + isl.start
            prev.end = max((total + 1) // 2 - 1, prev.start)
            isl.start = max(total // 2 + 1, prev.end + 1)
            if isl.start > isl.end:
                orphans.extend(isl.members)
                continue
        kept.append(isl)

    for isl in kept:
        inside = [(i, s) for i, s in isl.members if isl.start <= i <= isl.end]
        orphans.extend((i, s) for i, s in isl.members if not isl.start <= i <= isl.end)
        isl.members = inside

    for image_id, s in sorted(orphans):
        target = None
        for isl in kept:
            if isl.start <= image_id <= isl.end:
                target = isl
                break
        if target is None and kept:
            target = min(
                kept,
                key=lambda isl: (
                    max(isl.start - image_id, image_id - isl.end, 0),
                    isl.start,
                ),
            )
            # Stretch minimally; the frame sits in a gap, so this cannot
            # re-overlap a neighbour.
            if image_id < target.start:
                target.start = image_id
            elif image_id > target.end:
                target.end = image_id
        if target is None:
            target = Island(start=image_id, end=image_id, members=[])
            kept.append(target)
        target.members.append((image_id, s))

    kept = [isl for isl in kept if isl.members]
    for isl in kept:
        isl.representative = min(isl.members, key=lambda m: (-m[1], m[0]))[0]
        isl.score = island_score(isl)
    kept.sort(key=lambda isl: (-isl.score, isl.start))
    return kept


def select_island(islands: list[Island], previous: Island | None) -> Island:
    """Pick the island to verify, preferring overlap with the previous one.

    Islands overlapping the island selected at the previous frame are
    priority islands; the best-scored of them wins.  With no overlap the
    globally best-scored island is returned.  Ties go to the earliest
    interval.
    """
    if not islands:
        raise ValueError("no islands to select from")
    if previous is not None:
        priority = [isl for isl in islands if isl.overlaps(previous)]
        if priority:
            return priority[0]  # islands are sorted by (-score, start)
    return islands[0]


class LoopDetector:
    """Frame-by-frame loop closure detection over an online vocabulary.

    Feed frames in order with :meth:`on_frame`; the first frame seeds the
    vocabulary.  Feature sets of all frames are retained for the epipolar
    check of later candidates.
    """

    def __init__(self, vocab_params: VocabParams, params: DetectorParams):
        self.vocab_params = vocab_params
        self.params = params
        self.vocab: Vocabulary | None = None
        self.frames: list[FeatureSet] = []
        self.previous_island: Island | None = None
        self.consecutive_loops = 0
        self._t = 0

    def _reject(self, frame: int, status: str, num_candidates: int = 0) -> LoopResult:
        self.consecutive_loops = 0
        self.previous_island = None
        return LoopResult(frame=frame, status=status, num_candidates=num_candidates)

    def on_frame(self, features: FeatureSet) -> LoopResult:
        """Process the next frame and decide whether it closes a loop."""
        t = self._t
        self._t += 1
        self.frames.append(features)

        if self.vocab is None:
            # Featureless opening frames are skipped; the vocabulary is
            # seeded by the first frame that actually has descriptors.
            if len(features) == 0:
                return self._reject(t, SKIPPED)
            self.vocab = Vocabulary(features, self.vocab_params, image_id=t)
            return self._reject(t, SKIPPED)

        p = self.params.buffer_size
        # Images stay buffered until they are at least p frames old.
        exclude = range(max(0, t - p + 1), t)
        scored = self.vocab.process_image(features, image_id=t, frame=t, exclude=exclude)

        if t < p:
            return self._reject(t, SKIPPED)
        if not scored:
            return self._reject(t, REJECTED)

        candidates = filter_candidates(normalize_scores(scored), self.params.score_threshold)
        if not candidates:
            return self._reject(t, REJECTED)

        islands = build_islands(candidates, self.params.island_halfwidth, max_frame=t - 1)
        island = select_island(islands, self.previous_island)
        candidate = island.representative
        is_priority = self.previous_island is not None and island.overlaps(self.previous_island)

        if is_priority and self.consecutive_loops > self.params.shortcut_after:
            accepted = True
            inliers = None
            path = PATH_SHORTCUT
        else:
            pa, pb = ratio_match(features, self.frames[candidate], self.vocab_params.ratio)
            ransac = replace(self.params.ransac, seed=self.params.ransac.seed + t)
            _, mask = ransac_fundamental(pa, pb, ransac)
            inliers = int(mask.sum())
            accepted = inliers >= self.params.min_inliers
            path = PATH_GEOMETRY

        if accepted:
            self.consecutive_loops += 1
            self.previous_island = island
            matched = candidate
            status = ACCEPTED
        else:
            self.consecutive_loops = 0
            self.previous_island = None
            matched = None
            status = REJECTED
        return LoopResult(
            frame=t,
            status=status,
            matched=matched,
            candidate=candidate,
            inliers=inliers,
            path=path,
            island=island,
            num_candidates=len(candidates),
        )
