"""Subspace approximation with adjusted bias.

A fitted kernel maps neighborhood unions of length D to F response
channels through one affine transform per channel: channel 0 projects
onto the constant (DC) direction, channels 1..F-1 project the
mean-centered DC-removed residual onto its leading principal directions,
estimated from training unions. Every channel shares the same bias
``bias_scale * sqrt(F)``.

Fitting reads the :class:`Moments` (count, mean, centered scatter) of
batches of unions, merges them with the pairwise update of Chan, Golub &
LeVeque (1979) and projects the DC direction out of the merged D x D
statistics at the end, so training unions never need to be materialized
in one matrix. Moments are plain values: they can be computed once, kept
and merged into several fits; a dense matrix is simply the single-batch
case. Projection is one matrix product plus a per-channel offset that
folds in the training mean.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, NamedTuple

import numpy as np

from .errors import DegenerateInputError, DegenerateInputWarning, ShapeMismatchError

# Relative eigenvalue threshold below which residual directions are treated
# as numerically rank-deficient and zero-padded instead of kept. Residual
# variance at or below this share of the total variance counts as none.
RANK_RTOL = 1e-10


@dataclass(frozen=True)
class SaabKernel:
    """One fitted union-to-channels affine transform."""

    dc: np.ndarray        # (D,) constant direction, unit norm
    ac: np.ndarray        # (F-1, D) orthonormal rows; zero rows where padded
    bias: float           # shared additive offset, bias_scale * sqrt(F)
    mean_ac: np.ndarray   # (D,) training mean of the DC-removed unions
    energy: np.ndarray    # (F-1,) per-component explained-variance ratios
    padded: int = 0       # trailing AC rows beyond the training rank (zeros)
    degenerate: bool = False  # training unions had no residual variance

    @property
    def dim(self) -> int:
        return self.dc.shape[0]

    @property
    def channels(self) -> int:
        return self.ac.shape[0] + 1

    @cached_property
    def projection(self) -> tuple[np.ndarray, np.ndarray]:
        """(D, F) matrix and (F,) offset of :func:`apply_saab`, built on
        first use; not a field, so equality and saved bytes ignore it."""
        offset = self.bias - np.concatenate(([0.0], self.ac @ self.mean_ac))
        return np.vstack([self.dc, self.ac]).T, offset


def shared_bias(bias_scale: float, channels: int) -> float:
    """The bias every channel of an F-channel kernel shares:
    ``bias_scale * sqrt(F)``."""
    return float(bias_scale * np.sqrt(channels))


def _as_rows(X) -> np.ndarray:
    """A 2D float64 row matrix of ``X``."""
    rows = np.asarray(X, dtype=np.float64)
    if rows.ndim != 2:
        raise ShapeMismatchError(f"expected a 2D row matrix, got shape {rows.shape}")
    return rows


def _fix_signs(vectors: np.ndarray) -> np.ndarray:
    """Flip each row so its largest-magnitude entry is positive."""
    out = vectors.copy()
    for i, v in enumerate(out):
        j = int(np.argmax(np.abs(v)))
        if v[j] < 0:
            out[i] = -v
    return out


def _descending_order(evals: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """Sort indices by eigenvalue descending; break exact ties by comparing
    the sign-fixed eigenvector entries lexicographically."""
    order = np.argsort(-evals, kind="stable")
    vals = evals[order]
    if vals.size > 1 and np.any(vals[1:] == vals[:-1]):
        keyed = sorted(order, key=lambda i: (-evals[i], tuple(vectors[i])))
        order = np.asarray(keyed)
    return order


class Moments(NamedTuple):
    """Mergeable statistics of a set of unions."""

    count: int
    mean: np.ndarray      # (D,)
    scatter: np.ndarray   # (D, D) sum of outer products of centered rows


def union_moments(rows) -> Moments:
    """(count, mean, centered scatter) of one batch of union rows."""
    rows = _as_rows(rows)
    n, dim = rows.shape
    if n == 0:
        return Moments(0, np.zeros(dim), np.zeros((dim, dim)))
    mean = rows.mean(axis=0)
    centered = rows - mean
    return Moments(n, mean, centered.T @ centered)


def merge_moments(items: Iterable[Moments]) -> Moments:
    """Merge moments in the given order; empty items are skipped.

    Merging a single item into the empty state returns it exactly.
    """
    n = 0
    mean = m2 = None
    for item in items:
        if mean is None:
            dim = item.mean.shape[0]
            mean = np.zeros(dim)
            m2 = np.zeros((dim, dim))
        elif item.mean.shape[0] != mean.shape[0]:
            raise ShapeMismatchError(
                f"batch width {item.mean.shape[0]} != {mean.shape[0]}")
        if item.count == 0:
            continue
        delta = item.mean - mean
        merged = n + item.count
        m2 += item.scatter + np.outer(delta, delta) * (n * item.count / merged)
        mean += delta * (item.count / merged)
        n = merged
    if mean is None:
        return Moments(0, np.zeros(0), np.zeros((0, 0)))
    return Moments(n, mean, m2)


def fit_saab_batches(batches: Iterable[Moments], channels: int,
                     bias_scale: float = 0.0) -> SaabKernel:
    """Fit a kernel from the moments of batches of unions.

    Batch boundaries change the result by nothing beyond summation
    roundoff versus a single dense fit; empty batches are skipped.
    """
    channels = int(channels)
    n, mean, m2 = merge_moments(batches)
    dim = mean.shape[0]
    if n < 2:
        raise DegenerateInputError(f"need at least 2 training unions, got {n}")
    if channels < 1 or channels > dim:
        raise DegenerateInputError(
            f"channels must lie in [1, {dim}], got {channels}")
    dc = np.full(dim, 1.0 / np.sqrt(dim))
    proj = np.eye(dim) - np.outer(dc, dc)
    mean_ac = proj @ mean
    cov = proj @ m2 @ proj / (n - 1)
    cov = (cov + cov.T) / 2

    n_ac = channels - 1
    ac = np.zeros((n_ac, dim))
    energy = np.zeros(n_ac)
    padded = n_ac
    degenerate = False
    evals, evecs = np.linalg.eigh(cov)
    evals = np.clip(evals, 0.0, None)
    total = float(evals.sum())
    if total <= RANK_RTOL * np.trace(m2) / (n - 1):
        degenerate = True
        if n_ac:
            warnings.warn("training unions have no residual variance; "
                          "AC anchors zero-padded", DegenerateInputWarning)
    elif n_ac:
        vectors = _fix_signs(evecs.T)
        order = _descending_order(evals, vectors)
        rank = int(np.count_nonzero(evals > RANK_RTOL * evals.max()))
        keep = min(n_ac, rank)
        sel = order[:keep]
        ac[:keep] = vectors[sel]
        energy[:keep] = evals[sel] / total
        padded = n_ac - keep
        if padded:
            warnings.warn(f"{padded} requested components exceed the training "
                          f"rank {rank}; zero-padded", DegenerateInputWarning)
    return SaabKernel(dc=dc, ac=ac, bias=shared_bias(bias_scale, channels),
                      mean_ac=mean_ac, energy=energy, padded=padded,
                      degenerate=degenerate)


def fit_saab(X, channels: int, bias_scale: float = 0.0) -> SaabKernel:
    """Fit a kernel from one dense union matrix (rows = unions)."""
    return fit_saab_batches((union_moments(X),), channels, bias_scale)


def apply_saab(kernel: SaabKernel, X) -> np.ndarray:
    """Project unions onto the kernel's channels.

    Column 0 is ``dc . x + bias``; column i >= 1 is
    ``ac_i . (x - mean_ac) + bias``.
    """
    rows = _as_rows(X)
    if rows.shape[1] != kernel.dim:
        raise ShapeMismatchError(
            f"union length {rows.shape[1]} != kernel dim {kernel.dim}")
    matrix, offset = kernel.projection
    return rows @ matrix + offset


def energy_curve(kernel: SaabKernel) -> np.ndarray:
    """Cumulative explained-variance ratios of the AC components."""
    return np.cumsum(kernel.energy)
