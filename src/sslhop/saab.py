"""Subspace approximation with adjusted bias.

A fitted kernel maps neighborhood unions of length D to F response
channels through one affine transform per channel: channel 0 projects
onto the constant (DC) direction, channels 1..F-1 project the
mean-centered DC-removed residual onto its leading principal directions,
estimated from training unions. Every channel shares the same bias
``bias_scale * sqrt(F)``.

Fitting reads the :class:`Moments` (count, mean, centered scatter) of
batches of unions, merges them in one closed-form step and projects the
DC direction out of the merged D x D statistics at the end, so training
unions never need to be materialized in one matrix. The pipeline forms a
batch from raw sums over a mean-shifted copy of feature maps (the
shifted-data algorithm of Chan, Golub & LeVeque, 1983), without a
centered copy of the unions: a run of several whole maps of a later
layer is one batch, its Gram matrix summed from the row-and-column lagged
products of its (1, 1, z) partial unions; each layer-1 map, and each map
that runs alone, is a batch of its own, from the row-lagged products of
its (1, w, z) ones: the same products, grouped by position. Moments are
plain values: they can be computed once, kept, stacked and merged into
several fits; a dense matrix is simply the single-batch case, centered
directly.
Projection is one matrix product plus a per-channel offset that folds in
the training mean.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, NamedTuple

import numpy as np

from .errors import (DegenerateInputError, DegenerateInputWarning,
                     ShapeMismatchError, as_integer)

# Relative eigenvalue threshold below which residual directions are treated
# as numerically rank-deficient and zero-padded instead of kept. Residual
# variance at or below this share of the total variance counts as none.
RANK_RTOL = 1e-10


@dataclass(frozen=True)
class SaabKernel:
    """One fitted union-to-channels affine transform."""

    ac: np.ndarray        # (F-1, D) orthonormal rows; zero rows where padded
    bias: float           # shared additive offset, bias_scale * sqrt(F)
    mean_ac: np.ndarray   # (D,) training mean of the DC-removed unions
    energy: np.ndarray    # (F-1,) per-component explained-variance ratios

    @property
    def dim(self) -> int:
        return self.mean_ac.shape[0]

    @property
    def channels(self) -> int:
        return self.ac.shape[0] + 1

    @property
    def dc(self) -> np.ndarray:   # (D,) constant direction, unit norm
        return dc_anchor(self.dim)

    @property
    def padded(self) -> int:
        """Trailing AC rows beyond the training rank: the all-zero ones."""
        return int(np.count_nonzero(~self.ac.any(axis=1)))

    @cached_property
    def projection(self) -> tuple[np.ndarray, np.ndarray]:
        """(D, F) matrix and (F,) offset of :func:`apply_saab`, built on
        first use; not a field, so equality and saved bytes ignore it."""
        offset = self.bias - np.concatenate(([0.0], self.ac @ self.mean_ac))
        return np.vstack([self.dc, self.ac]).T, offset


def dc_anchor(dim: int) -> np.ndarray:
    """The unit-norm constant direction of length-``dim`` unions."""
    return np.full(dim, 1.0 / np.sqrt(dim))


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
    """Mergeable statistics of a set of unions, or of several sets stacked:
    one row of ``mean`` and ``scatter`` per set, and ``count`` per set or
    shared by all."""

    count: int | np.ndarray
    mean: np.ndarray      # (D,), or (k, D) stacked
    scatter: np.ndarray   # (D, D) sum of outer products of centered rows,
                          # or (k, D, D) stacked


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
    """Merge moments, each of one set or a stack of sets, in one closed-form
    step; sets of no unions are skipped. Of sets of n_i unions with means
    m_i and scatters S_i, the union has N = sum n_i unions, mean m = sum
    (n_i/N) m_i, taken as m_1 + sum (n_i/N)(m_i - m_1), and scatter S =
    sum S_i + sum n_i (m_i - m)(m_i - m)^T.

    The scatters are summed as the items come, in their order, so an
    iterable is read once and its scatters are never held together; the
    means are held, one row per set. A stack's scatters are summed over
    its rows first. Merging a single set returns it exactly.
    """
    dim, counts, means, scatter = None, [], [], None
    for item in items:
        width = item.mean.shape[-1]
        if dim is None:
            dim = width
        elif width != dim:
            raise ShapeMismatchError(f"batch width {width} != {dim}")
        count = np.broadcast_to(item.count, item.mean.shape[:-1]).reshape(-1)
        mean = item.mean.reshape(-1, dim)
        part = item.scatter.reshape(-1, dim, dim)
        keep = count > 0
        if not keep.all():
            count, mean, part = count[keep], mean[keep], part[keep]
        if not len(count):
            continue
        counts.append(count)
        means.append(mean)
        # a fresh array: one set's scatter is copied, not taken in place
        part = part.sum(axis=0)
        if scatter is None:
            scatter = part
        else:
            scatter += part
    if not counts:
        dim = 0 if dim is None else dim
        return Moments(0, np.zeros(dim), np.zeros((dim, dim)))
    counts, means = np.concatenate(counts), np.concatenate(means)
    n = int(counts.sum())
    # taken about the first mean, so that equal means merge to exactly
    # theirs and add exactly nothing to the scatter
    mean = means[0] + (counts / n) @ (means - means[0])
    delta = means - mean
    scatter += (delta.T * counts) @ delta
    return Moments(n, mean, scatter)


def fit_saab_batches(batches: Iterable[Moments], channels: int,
                     bias_scale: float = 0.0) -> SaabKernel:
    """Fit a kernel from the moments of batches of unions.

    Batch boundaries change the result by nothing beyond summation
    roundoff versus a single dense fit; empty batches are skipped.
    """
    channels = as_integer("channels", channels)
    n, mean, m2 = merge_moments(batches)
    dim = mean.shape[0]
    if n < 2:
        raise DegenerateInputError(f"need at least 2 training unions, got {n}")
    if channels < 1 or channels > dim:
        raise DegenerateInputError(
            f"channels must lie in [1, {dim}], got {channels}")
    dc = dc_anchor(dim)
    proj = np.eye(dim) - np.outer(dc, dc)
    mean_ac = proj @ mean
    cov = proj @ m2 @ proj / (n - 1)
    cov = (cov + cov.T) / 2

    n_ac = channels - 1
    ac = np.zeros((n_ac, dim))
    energy = np.zeros(n_ac)
    evals, evecs = np.linalg.eigh(cov)
    evals = np.clip(evals, 0.0, None)
    total = float(evals.sum())
    if total <= RANK_RTOL * np.trace(m2) / (n - 1):
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
    return SaabKernel(ac=ac, bias=shared_bias(bias_scale, channels),
                      mean_ac=mean_ac, energy=energy)


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
    out = rows @ matrix
    out += offset
    return out
