"""State discovery by clustering of per-period classification vectors.

Hidden states are cluster centroids in the standardized feature space.
The number of states is chosen automatically: the smallest K whose
between-cluster share of the total spread reaches a threshold. Centroids
keep adapting after fitting through running-mean updates.

The implementation is self-contained (seeded restarts, lowest-index tie
breaking, deterministic empty-cluster repair) so that fitted states are
reproducible bit for bit across runs.
"""

from __future__ import annotations

import enum
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import (ConfigurationError, DegenerateDataError, DimensionError,
                     InputError, StateIndexError, ThresholdWarning)


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


def _plus_plus_seed(X: np.ndarray, K: int, rng: np.random.Generator) -> np.ndarray:
    n = X.shape[0]
    centroids = np.empty((K, X.shape[1]))
    centroids[0] = X[rng.integers(n)]
    d2 = ((X - centroids[0]) ** 2).sum(axis=1)
    for k in range(1, K):
        total = d2.sum()
        idx = int(rng.choice(n, p=d2 / total))
        centroids[k] = X[idx]
        d2 = np.minimum(d2, ((X - centroids[k]) ** 2).sum(axis=1))
    return centroids


def _lloyd(X: np.ndarray, K: int, rng: np.random.Generator,
           max_iter: int = 300) -> tuple[np.ndarray, np.ndarray, float]:
    n = X.shape[0]
    centroids = _plus_plus_seed(X, K, rng)
    prev = None
    for _ in range(max_iter):
        diff = X[:, None, :] - centroids[None, :, :]
        d2 = np.square(diff, out=diff).sum(axis=2)
        assign = d2.argmin(axis=1)
        counts = np.bincount(assign, minlength=K)
        for k in np.flatnonzero(counts == 0):
            # steal the point farthest from its centroid, but never empty
            # another cluster in the process
            own = d2[np.arange(n), assign]
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
        D = X.shape[1]
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
    threshold: float = 0.8

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
        d2 = ((X[:, None, :] - self.centroids) ** 2).sum(axis=2)
        return d2.argmin(axis=1) + 1

    def absorb(self, state: int, x: np.ndarray) -> None:
        """Running-mean step of centroid ``state`` towards a standardized,
        finite ``x``: the trusted core of ``update_centroid``."""
        k = state - 1
        self.counts[k] += 1.0
        self.centroids[k] += (x - self.centroids[k]) / self.counts[k]

    def centroids_original(self) -> np.ndarray:
        return np.array([self.standardizer.inverse(c) for c in self.centroids])

    def to_dict(self) -> dict:
        return {
            "K": self.K,
            "centroids": self.centroids.tolist(),
            "counts": self.counts.tolist(),
            "mean": self.standardizer.mean.tolist(),
            "scale": self.standardizer.scale.tolist(),
            "gof": self.gof,
            "reached_threshold": self.reached_threshold,
            "threshold": self.threshold,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "ClusterModel":
        centroids = np.asarray(doc["centroids"], dtype=float)
        counts = np.asarray(doc["counts"], dtype=float)
        mean = np.asarray(doc["mean"], dtype=float)
        scale = np.asarray(doc["scale"], dtype=float)
        K = int(doc["K"])
        if centroids.shape[0] != K or counts.shape != (K,):
            raise DimensionError("serialized cluster model is inconsistent")
        if mean.shape != (centroids.shape[1],) or scale.shape != mean.shape:
            raise DimensionError("serialized standardizer is inconsistent")
        return cls(K=K, centroids=centroids, counts=counts,
                   standardizer=Standardizer(mean=mean, scale=scale),
                   gof=float(doc["gof"]),
                   reached_threshold=bool(doc["reached_threshold"]),
                   threshold=float(doc.get("threshold", 0.8)))


def fit_auto_k(points, threshold: float = 0.8, k_min: int = 2, k_max: int = 12,
               seed: int = 0, n_restarts: int = 10,
               max_iter: int = 300) -> ClusterModel:
    """Fit centroids with the smallest K that explains enough spread.

    K runs from ``k_min`` upward; for each K the best of ``n_restarts``
    seeded runs (lowest within-cluster sum) is kept. The first K whose
    between-cluster share reaches ``threshold`` wins. If none does, the
    largest K is used and a warning is emitted.
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

    k_cap = min(k_max, n_distinct)
    chosen = None
    for K in range(k_min, k_cap + 1):
        best = None
        for r in range(n_restarts):
            rng = np.random.default_rng([seed, K, r])
            centroids, assign, wss = _lloyd(X, K, rng, max_iter=max_iter)
            if best is None or wss < best[2]:
                best = (centroids, assign, wss)
        centroids, assign, wss = best
        gof = 1.0 - wss / tss
        chosen = (K, centroids, assign, gof)
        if gof >= threshold:
            break

    K, centroids, assign, gof = chosen
    reached = gof >= threshold
    if not reached:
        warnings.warn(
            f"cluster-quality threshold {threshold} not reached by K={K} "
            f"(best share {gof:.3f}); using K={K}", ThresholdWarning, stacklevel=2)
    counts = np.bincount(assign, minlength=K).astype(float)
    return ClusterModel(K=K, centroids=centroids, counts=counts, standardizer=std,
                        gof=gof, reached_threshold=reached, threshold=threshold)
