"""Deformation-field plumbing: validation, ROI crops, phase merging."""

import numpy as np
import pytest

from sslhop import (
    DeformationSample,
    centered_origin,
    crop_roi,
    validate_field,
)
from sslhop.errors import OutOfBoundsError, ShapeMismatchError


def _merged(ed, es, mode):
    """The (3, H, W, 2Z) stack a sample of ``ed`` and ``es`` assembles."""
    return DeformationSample(ed, es, mode, 0, "s").interlaced


def _ramp(dims=(4, 5, 6)):
    """Field whose value at (c, y, x, z) is recoverable from the index."""
    H, W, Z = dims
    f = np.zeros((3, H, W, Z))
    f[0] = np.arange(H)[:, None, None]
    f[1] = np.arange(W)[None, :, None]
    f[2] = np.arange(Z)[None, None, :]
    return f


class TestValidate:
    def test_passthrough(self):
        f = _ramp()
        out = validate_field(f)
        assert out.shape == (3, 4, 5, 6)

    def test_rejects_wrong_rank(self):
        with pytest.raises(ShapeMismatchError):
            validate_field(np.zeros((4, 5, 6)))

    def test_rejects_wrong_direction_count(self):
        with pytest.raises(ShapeMismatchError):
            validate_field(np.zeros((2, 4, 5, 6)))


class TestCrop:
    def test_values_follow_origin(self):
        # value along component 0 equals the y index, so a crop starting at
        # y=1 of height 2 must contain exactly {1, 2}
        f = _ramp((4, 4, 4))
        roi = crop_roi(f, origin=(1, 0, 0), size=(2, 4, 4))
        assert roi.shape == (3, 2, 4, 4)
        assert set(np.unique(roi[0])) == {1.0, 2.0}

    def test_full_crop_is_identity(self):
        f = _ramp()
        roi = crop_roi(f, (0, 0, 0), (4, 5, 6))
        np.testing.assert_array_equal(roi, f)

    @pytest.mark.parametrize("origin,size", [
        ((3, 0, 0), (2, 4, 4)),   # runs past y
        ((0, 0, 3), (4, 4, 2)),   # runs past z
        ((-1, 0, 0), (2, 2, 2)),  # negative origin
    ])
    def test_out_of_bounds(self, origin, size):
        with pytest.raises(OutOfBoundsError):
            crop_roi(_ramp((4, 4, 4)), origin, size)

    @pytest.mark.parametrize("origin", [(1.9, 0, 0), (1.0, 0, 0),
                                        (True, 0, 0), (1, 0)],
                             ids=["fraction", "float", "bool", "two"])
    def test_origin_must_be_three_integers(self, origin):
        """Origin 1.9 was taken as 1."""
        with pytest.raises(ValueError, match="crop origin"):
            crop_roi(_ramp((4, 4, 4)), origin, (2, 2, 2))

    def test_centered_origin(self):
        assert centered_origin((100, 100, 128), (100, 100, 64)) == (0, 0, 32)
        assert centered_origin((10, 10, 10), (4, 4, 4)) == (3, 3, 3)


class TestPhaseConcat:
    def test_interlace_slice_placement(self):
        ed = np.full((3, 2, 2, 3), 1.0)
        es = np.full((3, 2, 2, 3), 2.0)
        out = _merged(ed, es, "interlaced")
        assert out.shape == (3, 2, 2, 6)
        np.testing.assert_array_equal(out[..., 0::2], ed)
        np.testing.assert_array_equal(out[..., 1::2], es)

    def test_plain_concat_blocks(self, rng):
        ed = rng.normal(size=(3, 4, 5, 7))
        es = rng.normal(size=(3, 4, 5, 7))
        out = _merged(ed, es, "plain")
        np.testing.assert_array_equal(out[..., :7], ed)
        np.testing.assert_array_equal(out[..., 7:], es)

    def test_phase_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            DeformationSample(np.zeros((3, 4, 4, 4)), np.zeros((3, 4, 4, 5)),
                              "interlaced", 0, "s")

    def test_interlace_differs_from_plain(self, rng):
        """The two layouts agree per-slice only after reordering."""
        ed = rng.normal(size=(3, 2, 2, 2))
        es = rng.normal(size=(3, 2, 2, 2))
        assert not np.array_equal(_merged(ed, es, "interlaced"),
                                  _merged(ed, es, "plain"))


class TestDeformationSample:
    def test_holds_contiguous_float64(self, rng):
        ed, es = rng.normal(size=(2, 3, 4, 4, 3)).astype(np.float32)
        s = DeformationSample(ed, es, "interlaced", label=2, subject_id="s0")
        assert s.interlaced.dtype == np.float64
        assert s.interlaced.flags["C_CONTIGUOUS"]
        assert s.dims == (4, 4, 6)

    @pytest.mark.parametrize("mode,label,error", [
        ("stacked", 0, ValueError), ("plain", -1, ShapeMismatchError)])
    def test_rejects_bad_mode_and_label(self, mode, label, error):
        with pytest.raises(error):
            DeformationSample(np.zeros((3, 4, 4, 2)), np.zeros((3, 4, 4, 2)),
                              mode, label, "s0")

    @pytest.mark.parametrize("label", [0.7, 1.9, 1.0, True, "1", None])
    def test_label_is_an_integer(self, label):
        """Labels 0.7 and 1.9 were taken, and truncated to classes 0 and
        1 by a fit; True was taken too."""
        with pytest.raises(ValueError, match="label"):
            DeformationSample(np.zeros((3, 4, 4, 2)), np.zeros((3, 4, 4, 2)),
                              "plain", label, "s0")

    def test_numpy_integer_label_is_a_python_int(self):
        s = DeformationSample(np.zeros((3, 4, 4, 2)), np.zeros((3, 4, 4, 2)),
                              "plain", np.int64(2), "s0")
        assert type(s.label) is int and s.label == 2
