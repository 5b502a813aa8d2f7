"""State discovery by clustering of per-period classification vectors.

Hidden states are cluster centroids in the standardized feature space.
The number of states is chosen automatically: the smallest K from 2 whose
between-cluster share of the total spread reaches a threshold. Short of
it, the search stops once one more K adds less than ``MIN_GAIN`` of the
spread and keeps the K before. Centroids keep adapting after fitting
through running-mean updates.

The implementation is self-contained (one greedy k-means++ seeding per K,
lowest-index tie breaking, deterministic empty-cluster repair) so that
fitted states are reproducible bit for bit across runs. Squared distances
(``_sq_dists``) are (K, n) arrays equal to numpy's last-axis sum of the
(n, K, D) squares bit for bit: below 8 dimensions, where numpy adds in order,
accumulated column by column along the n points; from 8 on that sum itself.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import (ConfigurationError, DegenerateDataError, DimensionError,
                     InputError, ThresholdWarning, warn)
from .estimator import checked_state, float_cells, json_number, serialized, stacked

MAX_ITER = 300   # Lloyd iterations per run, unless the labels settle sooner
MIN_GAIN = 0.02  # short of the threshold, the least share of the spread one more K adds


class OeeBand(enum.Enum):
    OPTIMAL = "Optimal"
    GOOD = "Good"
    IMPROVABLE = "Improvable"
    POOR = "Poor"


def oee_band(oee: float) -> OeeBand:
    """Qualitative band for an overall-effectiveness value."""
    oee = float(oee)
    if not np.isfinite(oee):
        raise InputError(f"overall index must be finite, got {oee!r}")
    if oee > 0.85:
        return OeeBand.OPTIMAL
    if oee > 0.60:
        return OeeBand.GOOD
    if oee > 0.40:
        return OeeBand.IMPROVABLE
    return OeeBand.POOR


@dataclass(frozen=True)
class Standardizer:
    """Column-wise centering and scaling frozen at fit time."""

    mean: np.ndarray
    scale: np.ndarray

    def transform(self, x: np.ndarray) -> np.ndarray:
        return (np.asarray(x, dtype=float) - self.mean) / self.scale

    def inverse(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(x, dtype=float) * self.scale + self.mean

    @classmethod
    def fit(cls, points: np.ndarray) -> "Standardizer":
        mean = points.mean(axis=0)
        std = points.std(axis=0)
        scale = np.where(std > 0.0, std, 1.0)
        return cls(mean=mean, scale=scale)


def _check_points(points) -> np.ndarray:
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[0] < 1:
        raise DimensionError(f"points must be a 2-d array, got shape {pts.shape}")
    finite = np.isfinite(pts).all(axis=1)
    if not finite.all():
        raise InputError(f"classification point {finite.argmin()} contains non-finite values")
    return pts


def _sq_dists(XT: np.ndarray, C: np.ndarray) -> np.ndarray:
    """(K, n) squared distances from the rows of ``C`` (of ``C[j]`` for an ``(n, K, D)``
    stack) to the columns ``j`` of ``XT``: ``((XT.T[:, None] - C) ** 2).sum(axis=2).T``
    bit for bit, the fast form summing one (K, n) column of squares at a time."""
    if len(XT) >= 8:  # numpy sums 8 or more terms pairwise: the plain form
        return ((XT.T.copy()[:, None] - C) ** 2).sum(axis=2).T
    d = XT[:, None] - C.T.reshape(len(XT), C.shape[-2], -1)
    np.square(d, out=d)
    return d.sum(axis=0)  # along the first axis numpy adds in order


def walk_labels(walks) -> None:
    """Label rows ``first..stop-1`` of each walk ``(clusters, X, labels, first, stop)``
    as ``run_online`` does, all walks in lockstep: per row, absorb the row before into a
    copy of the centroids at its label, then label the row by ``nearest``'s distances.
    ``X`` is standardized and finite from ``first - 1`` on. Fewer states pad with
    inf centroids, nearer to no point than a real one."""
    groups: dict = {}  # walks of one dimension, longest first
    for walk in sorted(walks, key=lambda walk: walk[3] - walk[4]):
        if walk[3] < walk[4]:
            groups.setdefault(walk[1].shape[1], []).append(walk)
    for group in groups.values():  # step s reads row first - 1 + s
        points, active = stacked([X[first - 1:stop] for _, X, _, first, stop in group])
        C = np.full((len(group), max(cl.K for cl, *_ in group), points.shape[2]), np.inf)
        counts = np.ones(C.shape[:2])
        for j, (cl, *_) in enumerate(group):
            C[j, :cl.K], counts[j, :cl.K] = cl.centroids, cl.counts
        prev = np.array([labels[first - 1] - 1 for _, _, labels, first, _ in group])
        at, out = np.arange(len(group)), np.zeros((len(points) - 1, len(group)), int)
        for s, n in enumerate(active[1:]):
            moved = at[:n], prev[:n]  # absorbed as ClusterModel.absorb does
            counts[moved] += 1.0
            C[moved] += (points[s, :n] - C[moved]) / counts[moved][:, None]
            prev[:n] = out[s, :n] = _sq_dists(points[s + 1, :n].T, C[:n]).argmin(axis=0)
        for j, (_, _, labels, first, stop) in enumerate(group):
            labels[first:stop] = out[:stop - first, j] + 1


def _plus_plus_seed(X: np.ndarray, K: int, rng: np.random.Generator) -> np.ndarray:
    """Greedy k-means++ (Arthur & Vassilvitskii 2007): each new centre is the
    one of ``2 + int(log K)`` candidates drawn with the D² weights that leaves
    the lowest potential (the first on ties), so one run per K suffices."""
    n, trials = X.shape[0], 2 + int(math.log(K))
    XT = np.ascontiguousarray(X.T)
    centroids = np.empty((K, X.shape[1]))
    centroids[0] = X[rng.integers(n)]
    d2 = _sq_dists(XT, centroids[:1])[0]
    for k in range(1, K):
        cands = rng.choice(n, size=trials, p=d2 / d2.sum())
        reach = np.minimum(d2, _sq_dists(XT, X[cands]))
        best = int(reach.sum(axis=1).argmin())
        centroids[k], d2 = X[cands[best]], reach[best]
    return centroids


def _lloyd(X: np.ndarray, K: int,
           rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray, float]:
    n, D = X.shape
    XT = np.ascontiguousarray(X.T)
    centroids = _plus_plus_seed(X, K, rng)
    prev = None
    for _ in range(MAX_ITER):
        d2 = _sq_dists(XT, centroids)
        assign = d2.argmin(axis=0)
        counts = np.bincount(assign, minlength=K)
        for k in np.flatnonzero(counts == 0):
            # steal the point farthest from its centroid, but never empty
            # another cluster in the process
            own = d2[assign, np.arange(n)]
            movable = counts[assign] > 1
            far = int(np.where(movable, own, -np.inf).argmax())
            counts[assign[far]] -= 1
            assign[far] = k
            counts[k] = 1
            centroids[k] = X[far]
        if prev is not None and np.array_equal(assign, prev):
            break
        prev = assign
        # per-cluster sums in row order, the order of the masked means
        sums = np.bincount((assign[:, None] * D + np.arange(D)).ravel(),
                           weights=X.ravel(), minlength=K * D)
        centroids = sums.reshape(K, D) / counts[:, None]
    wss = float(((X - centroids[assign]) ** 2).sum())
    return centroids, assign, wss


@dataclass
class ClusterModel:
    """Fitted state space: centroids live in standardized coordinates."""

    K: int
    centroids: np.ndarray
    counts: np.ndarray
    standardizer: Standardizer
    gof: float
    reached_threshold: bool

    def assign(self, t) -> int:
        """1-based index of the nearest centroid; ties go to the lowest index."""
        return int(self.nearest(self.standardized(t)[None])[0])

    def update_centroid(self, state: int, t) -> None:
        """Fold one observation into centroid ``state`` as a running mean; the
        label is checked (``checked_state``) before ``t``, so a refusal moves nothing."""
        self.absorb(checked_state(state, self.K), self.standardized(t))

    def standardized(self, t) -> np.ndarray:
        """Checked classification vector in centroid coordinates."""
        t = float_cells(t, "classification vector")
        if t.shape != (self.centroids.shape[1],):
            raise DimensionError(
                f"classification vector must have length {self.centroids.shape[1]}")
        if not all(map(math.isfinite, t.tolist())):
            raise InputError("classification vector contains non-finite values")
        return self.standardizer.transform(t)

    def nearest(self, X: np.ndarray) -> np.ndarray:
        """1-based nearest centroid of each row of ``X``, standardized and
        finite: the trusted core of ``assign``, for callers that checked."""
        return _sq_dists(np.ascontiguousarray(X.T), self.centroids).argmin(axis=0) + 1

    def absorb(self, state: int, x: np.ndarray) -> None:
        """Running-mean step of centroid ``state`` towards a standardized,
        finite ``x``: the trusted core of ``update_centroid``."""
        k = state - 1
        self.counts[k] += 1.0
        self.centroids[k] += (x - self.centroids[k]) / self.counts[k]

    def centroids_original(self) -> np.ndarray:
        return self.standardizer.inverse(self.centroids)

    def to_dict(self) -> dict:
        return {
            "K": self.K,
            "centroids": self.centroids.tolist(),
            "counts": self.counts.tolist(),
            "mean": self.standardizer.mean.tolist(),
            "scale": self.standardizer.scale.tolist(),
            "gof": self.gof,
            "reached_threshold": self.reached_threshold,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "ClusterModel":
        """The model of a ``to_dict`` document; an older one's ``threshold`` is ignored."""
        centroids = np.asarray(doc["centroids"], dtype=float)
        counts = np.asarray(doc["counts"], dtype=float)
        mean = np.asarray(doc["mean"], dtype=float)
        scale = np.asarray(doc["scale"], dtype=float)
        K = serialized(doc, "K", int)
        if centroids.ndim != 2 or centroids.shape[0] != K or counts.shape != (K,):
            raise DimensionError("serialized cluster model is inconsistent")
        if mean.shape != (centroids.shape[1],) or scale.shape != mean.shape:
            raise DimensionError("serialized standardizer is inconsistent")
        # a centroid is the mean of at least one point; a scale divides
        if not (all(np.isfinite(a).all() for a in (centroids, counts, mean, scale))
                and (counts >= 1.0).all() and (scale > 0.0).all()):
            raise InputError("serialized cluster model needs finite values, "
                             "counts >= 1 and scales > 0")
        return cls(K=K, centroids=centroids, counts=counts,
                   standardizer=Standardizer(mean=mean, scale=scale),
                   gof=serialized(doc, "gof"),
                   reached_threshold=serialized(doc, "reached_threshold", bool))


def fit_auto_k(points, threshold: float = 0.8, k_max: int = 12, seed: int = 0) -> ClusterModel:
    """Fit centroids with the smallest K that explains enough spread.

    K runs from 2, the fewest states a count table takes, upward; each K
    gets one Lloyd run from a greedy k-means++ seeding (``_plus_plus_seed``)
    with the generator of ``[seed, K]``.
    The first K whose between-cluster share reaches ``threshold`` wins.
    Short of it, the first K that adds less than ``MIN_GAIN`` to the share
    of K - 1 ends the search with the K - 1 fit; else the largest K is
    used. Either way a warning names the stop.
    """
    if not (json_number(threshold) and 0.0 < threshold <= 1.0):
        raise ConfigurationError(f"threshold must lie in (0, 1], got {threshold!r}")
    if not (json_number(k_max, whole=True) and k_max >= 2):
        raise ConfigurationError(f"need k_max >= 2, got {k_max!r} (a whole number of states)")
    k_max = int(k_max)
    pts = _check_points(points)
    n_distinct = np.unique(pts, axis=0).shape[0]
    if n_distinct < 2:
        raise DegenerateDataError(
            f"only {n_distinct} distinct points; cannot form 2 clusters")

    std = Standardizer.fit(pts)
    X = std.transform(pts)
    tss = float(((X - X.mean(axis=0)) ** 2).sum())
    if tss == 0.0:
        raise DegenerateDataError("classification points have zero spread")

    stop, last = f"K={min(k_max, n_distinct)} is the largest tried", None
    for K in range(2, min(k_max, n_distinct) + 1):
        centroids, assign, wss = _lloyd(X, K, np.random.default_rng([seed, K]))
        gof = 1.0 - wss / tss
        if gof >= threshold:
            break
        if last is not None and gof - last[2] < MIN_GAIN:  # keep the K - 1 fit
            stop = f"K={K} adds {gof - last[2]:.4f} < {MIN_GAIN} of the spread"
            K, (centroids, assign, gof) = K - 1, last
            break
        last = centroids, assign, gof
    reached = gof >= threshold
    if not reached:
        warn(f"cluster-quality threshold {threshold} not reached ({stop}); "
             f"using K={K} (share {gof:.3f})", ThresholdWarning)
    counts = np.bincount(assign, minlength=K).astype(float)
    return ClusterModel(K=K, centroids=centroids, counts=counts, standardizer=std,
                        gof=gof, reached_threshold=reached)
