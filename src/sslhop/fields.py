"""Dense displacement-field containers and input assembly.

Layout conventions, fixed across the package:

* raw per-subject fields are direction-major ``(3, H, W, Z)`` arrays,
  one scalar displacement component per direction per voxel;
* two acquisition phases (end-diastole / end-systole) are merged along
  depth, either interlaced (default) or as plain blocks, giving
  ``(3, H, W, 2Z)``; a sample merges one direction's map on demand.

All operations are pure: they never mutate their inputs.
"""

from __future__ import annotations

import numpy as np

from .errors import (NonFiniteValuesError, OutOfBoundsError, ShapeMismatchError,
                     as_int_triple, as_integer)

DIRECTIONS = 3
CONCAT_MODES = ("interlaced", "plain")


def validate_field(field: np.ndarray) -> np.ndarray:
    """Check the (3, H, W, Z) layout and finiteness of a displacement field."""
    arr = np.asarray(field)
    if arr.ndim != 4 or arr.shape[0] != DIRECTIONS:
        raise ShapeMismatchError(f"expected a (3, H, W, Z) field, got shape {arr.shape}")
    if min(arr.shape[1:]) < 1:
        raise ShapeMismatchError(f"field has an empty axis: {arr.shape}")
    if not np.isfinite(arr).all():
        raise NonFiniteValuesError("field contains non-finite values")
    return arr


def validate_phases(ed: np.ndarray,
                    es: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Check both phase fields, and that they share one shape."""
    ed, es = validate_field(ed), validate_field(es)
    if ed.shape != es.shape:
        raise ShapeMismatchError(f"phase shapes differ: {ed.shape} vs {es.shape}")
    return ed, es


def crop_roi(field: np.ndarray, origin: tuple[int, int, int],
             size: tuple[int, int, int]) -> np.ndarray:
    """Copy the (h, w, z) region of interest starting at voxel ``origin``.

    ``origin`` and ``size`` are (y, x, z) / (h, w, z) tuples in voxel
    units; the window must lie entirely inside the field.
    """
    return _crop(validate_field(field), origin, size)


def crop_phases(ed: np.ndarray, es: np.ndarray,
                origin: tuple[int, int, int] | None,
                size: tuple[int, int, int]) -> tuple[np.ndarray, np.ndarray]:
    """Check both phase fields once (:func:`validate_phases`) and copy the
    same region of interest of each, as :func:`crop_roi` does; a ``None``
    origin centers it."""
    ed, es = validate_phases(ed, es)
    if origin is None:
        origin = centered_origin(ed.shape[1:], size)
    return _crop(ed, origin, size), _crop(es, origin, size)


def _crop(arr: np.ndarray, origin, size) -> np.ndarray:
    """The region of interest of a validated field, as a copy."""
    h, w, d = as_int_triple("crop size", size)
    y, x, z = as_int_triple("crop origin", origin)
    if min(h, w, d) < 1:
        raise OutOfBoundsError(f"crop size must be positive, got {size}")
    _, H, W, Z = arr.shape
    if y < 0 or x < 0 or z < 0 or y + h > H or x + w > W or z + d > Z:
        raise OutOfBoundsError(
            f"crop origin {origin} size {size} exceeds field dims {(H, W, Z)}")
    return arr[:, y:y + h, x:x + w, z:z + d].copy()


def centered_origin(dims: tuple[int, int, int],
                    size: tuple[int, int, int]) -> tuple[int, int, int]:
    """Origin that centers a crop window inside ``dims`` (floor on odd gaps)."""
    if any(s > d for s, d in zip(size, dims)):
        raise OutOfBoundsError(f"crop size {size} exceeds field dims {dims}")
    return tuple((d - s) // 2 for d, s in zip(dims, size))


class DeformationSample:
    """One subject's two validated phase fields, the order in which they
    merge along depth, and its class label.

    The assembled float64 (3, H, W, 2Z) stack is not stored: each
    direction's map is built on demand (:meth:`direction`), so a cohort of
    samples holds no more than its phase fields, which stay float32 when
    read from field files. Widening float32 to float64 is exact.
    """

    __slots__ = ("phases", "concat_mode", "label", "subject_id")

    def __init__(self, ed: np.ndarray, es: np.ndarray, concat_mode: str,
                 label: int, subject_id: str) -> None:
        """A sample of two phase fields of one shape, merged in
        ``concat_mode`` (interlaced or plain) whenever a map is built."""
        ed, es = validate_phases(ed, es)
        if concat_mode not in CONCAT_MODES:
            raise ValueError(f"concat_mode must be one of {CONCAT_MODES}")
        label = as_integer("label", label)
        if label < 0:
            raise ShapeMismatchError(f"label must be a non-negative id, got {label}")
        self.phases = (ed, es)
        self.concat_mode = concat_mode
        self.label = label
        self.subject_id = subject_id

    @property
    def dims(self) -> tuple[int, int, int]:
        _, H, W, Z = self.phases[0].shape
        return (H, W, 2 * Z)

    def direction(self, d: int | slice,
                  out: np.ndarray | None = None) -> np.ndarray:
        """The float64 (H, W, 2Z) map of direction ``d``, built on demand,
        in ``out`` when given; a slice ``d`` of directions gives their
        (G, H, W, 2Z) maps, and ``out`` must then have that shape."""
        ed, es = (phase[d] for phase in self.phases)
        if out is None:
            out = np.empty(ed.shape[:-1] + (self.dims[2],))
        # interlaced (ED_k, ES_k, ...): a depth-6 window spans three slice
        # pairs, so the earliest local features already see phase contrast
        if self.concat_mode == "interlaced":
            out[..., 0::2], out[..., 1::2] = ed, es
        else:
            depth = ed.shape[-1]
            out[..., :depth], out[..., depth:] = ed, es
        return out

    @property
    def interlaced(self) -> np.ndarray:
        """The float64 (3, H, W, 2Z) assembled stack, built on demand."""
        return self.direction(slice(None))
