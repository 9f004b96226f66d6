"""Subspace approximation with adjusted bias.

A fitted kernel maps neighborhood unions of length D to F response
channels through one affine transform per channel: channel 0 projects
onto the constant (DC) direction, channels 1..F-1 project the
mean-centered DC-removed residual onto its leading principal directions,
estimated from training unions. Every channel shares the same bias
``bias_scale * sqrt(F)``.

Fitting reads row batches once, merging each batch's (count, mean,
centered scatter) with the pairwise update of Chan, Golub & LeVeque (1979)
and projecting the DC direction out of the merged D x D statistics at the
end, so training unions never need to be materialized in one matrix; a
dense matrix is simply the single-batch case. Projection is one matrix
product plus a per-channel offset that folds in the training mean.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Iterable

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


def _as_rows(X) -> np.ndarray:
    """Accept a 2D array or anything with a ``.data`` row matrix."""
    rows = getattr(X, "data", X)
    rows = np.asarray(rows, dtype=np.float64)
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


def fit_saab_batches(batches: Iterable[np.ndarray], channels: int,
                     bias_scale: float = 0.0) -> SaabKernel:
    """Fit a kernel from one pass over an iterable of row batches.

    Batch boundaries only bound memory, changing the result by nothing
    beyond summation roundoff versus a single dense fit; empty batches are
    skipped.
    """
    channels = int(channels)
    n = 0
    dim = None
    for batch in batches:
        rows = _as_rows(batch)
        if dim is None:
            dim = rows.shape[1]
            if channels < 1 or channels > dim:
                raise DegenerateInputError(
                    f"channels must lie in [1, {dim}], got {channels}")
            mean = np.zeros(dim)
            m2 = np.zeros((dim, dim))
        elif rows.shape[1] != dim:
            raise ShapeMismatchError(f"batch width {rows.shape[1]} != {dim}")
        n_b = rows.shape[0]
        if n_b == 0:
            continue
        mean_b = rows.mean(axis=0)
        centered = rows - mean_b
        delta = mean_b - mean
        merged = n + n_b
        m2 += centered.T @ centered + np.outer(delta, delta) * (n * n_b / merged)
        mean += delta * (n_b / merged)
        n = merged
    if dim is None or n < 2:
        raise DegenerateInputError(f"need at least 2 training unions, got {n}")
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
    return SaabKernel(dc=dc, ac=ac, bias=float(bias_scale) * np.sqrt(channels),
                      mean_ac=mean_ac, energy=energy, padded=padded,
                      degenerate=degenerate)


def fit_saab(X, channels: int, bias_scale: float = 0.0) -> SaabKernel:
    """Fit a kernel from one dense union matrix (rows = unions)."""
    return fit_saab_batches((X,), channels, bias_scale)


def apply_saab(kernel: SaabKernel, X) -> np.ndarray:
    """Project unions onto the kernel's channels.

    Column 0 is ``dc . x + bias``; column i >= 1 is
    ``ac_i . (x - mean_ac) + bias``.
    """
    rows = _as_rows(X)
    if rows.shape[1] != kernel.dim:
        raise ShapeMismatchError(
            f"union length {rows.shape[1]} != kernel dim {kernel.dim}")
    offset = kernel.bias - np.concatenate(([0.0], kernel.ac @ kernel.mean_ac))
    return rows @ np.vstack([kernel.dc, kernel.ac]).T + offset


def energy_curve(kernel: SaabKernel) -> np.ndarray:
    """Cumulative explained-variance ratios of the AC components."""
    return np.cumsum(kernel.energy)
