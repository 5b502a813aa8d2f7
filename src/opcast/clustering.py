"""State discovery by clustering of per-period classification vectors.

Hidden states are cluster centroids in the standardized feature space.
The number of states is chosen automatically: the smallest K whose
between-cluster share of the total spread reaches a threshold. Centroids
keep adapting after fitting through running-mean updates.

The implementation is self-contained (seeded restarts, lowest-index tie
breaking, deterministic empty-cluster repair) so that fitted states are
reproducible bit for bit across runs. Distances are (K, n) arrays, so each
operation runs along the n points, accumulated column by column in numpy's
order for a last-axis sum, so they equal the (n, K, D) reduction bit for bit.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (ConfigurationError, DegenerateDataError, DimensionError,
                     InputError, StateIndexError, ThresholdWarning, warn)
from .estimator import serialized

N_RESTARTS = 10  # seeded k-means runs per K; the lowest within-cluster sum is kept
MAX_ITER = 300   # Lloyd iterations per run, unless the labels settle sooner


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
    if not np.all(np.isfinite(pts)):
        raise InputError("classification points contain non-finite values")
    return pts


def _sq_dists(XT: np.ndarray, C: np.ndarray) -> np.ndarray:
    """(K, n) squared distances from the rows of ``C`` to the columns of ``XT``:
    ``((XT.T[:, None] - C) ** 2).sum(axis=2).T`` bit for bit."""
    if len(XT) > 128:  # past numpy's pairwise block size: the plain form
        return ((XT.T.copy()[:, None] - C) ** 2).sum(axis=2).T
    d = XT[:, None] - C.T[:, :, None]
    np.square(d, out=d)
    blocks = len(d) // 8 * 8
    if blocks:  # numpy's order: eight running sums added as a tree, then the rest
        r = d[:blocks].reshape(-1, 8, *d.shape[1:]).sum(axis=0)
        while len(r) > 1:
            r = r[0::2] + r[1::2]
        d = np.concatenate((r, d[blocks:]))
    return d.sum(axis=0)  # along the first axis numpy adds in order


def _plus_plus_seed(X: np.ndarray, K: int, rng: np.random.Generator) -> np.ndarray:
    n = X.shape[0]
    XT = np.ascontiguousarray(X.T)
    centroids = np.empty((K, X.shape[1]))
    centroids[0] = X[rng.integers(n)]
    d2 = _sq_dists(XT, centroids[:1])[0]
    for k in range(1, K):
        centroids[k] = X[int(rng.choice(n, p=d2 / d2.sum()))]
        d2 = np.minimum(d2, _sq_dists(XT, centroids[k:k + 1])[0])
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
        """Fold one observation into a centroid as a running mean."""
        if not 1 <= int(state) <= self.K:
            raise StateIndexError(f"state {state!r} outside 1..{self.K}")
        self.absorb(int(state), self.standardized(t))

    def standardized(self, t) -> np.ndarray:
        """Checked classification vector in centroid coordinates."""
        t = np.asarray(t, dtype=float).reshape(-1)
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


def fit_auto_k(points, threshold: float = 0.8, k_min: int = 2, k_max: int = 12,
               seed: int = 0) -> ClusterModel:
    """Fit centroids with the smallest K that explains enough spread.

    K runs from ``k_min`` upward; for each K the best of ``N_RESTARTS``
    seeded runs (lowest within-cluster sum, the first on ties) is kept.
    The first K whose between-cluster share reaches ``threshold`` wins. If
    none does, the largest K is used and a warning is emitted.
    """
    if not 0.0 < threshold <= 1.0:
        raise ConfigurationError(f"threshold must lie in (0, 1], got {threshold}")
    if k_min < 2 or k_max < k_min:
        raise ConfigurationError(f"need 2 <= k_min <= k_max, got {k_min}..{k_max}")
    pts = _check_points(points)
    n_distinct = np.unique(pts, axis=0).shape[0]
    if n_distinct < k_min:
        raise DegenerateDataError(
            f"only {n_distinct} distinct points; cannot form {k_min} clusters")

    std = Standardizer.fit(pts)
    X = std.transform(pts)
    tss = float(((X - X.mean(axis=0)) ** 2).sum())
    if tss == 0.0:
        raise DegenerateDataError("classification points have zero spread")

    for K in range(k_min, min(k_max, n_distinct) + 1):
        centroids, assign, wss = min(
            (_lloyd(X, K, np.random.default_rng([seed, K, r])) for r in range(N_RESTARTS)),
            key=lambda fit: fit[2])
        gof = 1.0 - wss / tss
        if gof >= threshold:
            break
    reached = gof >= threshold
    if not reached:
        warn(f"cluster-quality threshold {threshold} not reached by K={K} "
             f"(best share {gof:.3f}); using K={K}", ThresholdWarning)
    counts = np.bincount(assign, minlength=K).astype(float)
    return ClusterModel(K=K, centroids=centroids, counts=counts, standardizer=std,
                        gof=gof, reached_threshold=reached)
