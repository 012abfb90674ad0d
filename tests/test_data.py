"""Synthetic scene generation, heatmap targets, annotation IO."""

import hashlib
import json

import numpy as np
import pytest

from spt.data import (Annotation, SyntheticSceneConfig, generate_sample,
                      generate_synthetic, load_annotations, render_joint_blob,
                      render_target_heatmaps, save_annotations)
from spt.errors import AnnotationError, ConfigError


def scene(**kw):
    base = dict(seed=5, image_h=64, image_w=64)
    base.update(kw)
    return SyntheticSceneConfig(**base)


class TestGenerator:
    def test_same_seed_is_bit_identical(self):
        a = generate_synthetic(scene(), 4)
        b = generate_synthetic(scene(), 4)
        for (img_a, ann_a), (img_b, ann_b) in zip(a, b):
            assert np.array_equal(img_a, img_b)
            assert np.array_equal(ann_a.joints, ann_b.joints)
            assert ann_a.head_size == ann_b.head_size

    def test_prefix_stability(self):
        # sample i depends only on (seed, i), not on how many are generated
        longer = generate_synthetic(scene(), 6)
        short = generate_synthetic(scene(), 3)
        for (img_a, ann_a), (img_b, ann_b) in zip(short, longer):
            assert np.array_equal(img_a, img_b)
            assert np.array_equal(ann_a.joints, ann_b.joints)

    def test_different_seeds_differ(self):
        a, _ = generate_sample(scene(seed=1), 0)
        b, _ = generate_sample(scene(seed=2), 0)
        assert not np.array_equal(a, b)

    def test_zero_jitter_reproduces_template(self):
        samples = generate_synthetic(scene(jitter=0.0), 3)
        first = samples[0][1].joints
        for _, ann in samples[1:]:
            assert np.array_equal(ann.joints, first)

    def test_annotations_are_valid_and_in_bounds(self):
        for _, ann in generate_synthetic(scene(jitter=10.0), 16):
            assert ann.head_size > 0
            assert ann.visibility.all()
            assert (ann.joints[:, 0] >= 0).all() and (ann.joints[:, 0] <= 63).all()
            assert (ann.joints[:, 1] >= 0).all() and (ann.joints[:, 1] <= 63).all()

    def test_image_range_and_shape(self):
        img, _ = generate_sample(scene(), 0)
        assert img.shape == (64, 64)
        assert img.min() >= 0.0 and img.max() <= 1.0

    def test_isolated_blob_argmax_matches_annotation(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            x = float(rng.uniform(5, 58))
            y = float(rng.uniform(5, 58))
            canvas = np.zeros((64, 64))
            render_joint_blob(canvas, x, y, sigma=1.6)
            row, col = np.unravel_index(np.argmax(canvas), canvas.shape)
            assert col == int(round(x))
            assert row == int(round(y))

    def test_wrong_joint_count_rejected(self):
        with pytest.raises(ConfigError):
            generate_synthetic(scene(joint_count=5), 1)


def sha256_f8(array) -> str:
    return hashlib.sha256(np.ascontiguousarray(array, dtype="<f8").tobytes()).hexdigest()


class TestSceneKnownAnswers:
    """Pin generate_sample's image bytes and annotation for two (seed, index) pairs."""

    @pytest.mark.parametrize("seed, index, image_sha, joints_sha, head_size", [
        (5, 0, "3fdad4bab450f4223c76db5cafe8d4ccee961b8301926358134601bc439eb587",
         "266d8c4d1148d9447cc0a8c2177d6a9b703d2155cd1b0cbe57278fecbbe6f746",
         "0x1.0b3b98cd21554p+4"),
        (11, 3, "148333a806931e7f356cbe700818858bd07f195906fef70497a1cea8e03cf0da",
         "3dd5e853eda9f5ef121d0dab0dd8ac79ee413847d49d4ac96432ef016673063c",
         "0x1.36a7a5b73ab1dp+3"),
    ])
    def test_sample_digests(self, seed, index, image_sha, joints_sha, head_size):
        image, ann = generate_sample(scene(seed=seed), index)
        assert image.shape == (64, 64)
        assert sha256_f8(image) == image_sha
        assert sha256_f8(ann.joints) == joints_sha
        assert ann.head_size.hex() == head_size
        assert ann.visibility.tolist() == [True] * 16
        assert ann.image_ref == (seed, index)


class TestTargetHeatmaps:
    def ann(self, joints, visible=None):
        joints = np.asarray(joints, dtype=np.float64)
        visible = np.ones(len(joints), bool) if visible is None else np.asarray(visible)
        return Annotation(joints, visible, head_size=5.0, image_ref="x")

    def test_invisible_joint_is_zero_map(self):
        ann = self.ann([[10.0, 10.0], [20.0, 20.0]], visible=[True, False])
        maps = render_target_heatmaps(ann, 32, 32, sigma=2.0, image_h=32, image_w=32)
        assert maps[1].max() == 0.0
        assert maps[0].max() > 0.0

    def test_centered_joint_peaks_at_one(self):
        ann = self.ann([[16.0, 16.0]])
        maps = render_target_heatmaps(ann, 32, 32, sigma=2.0, image_h=32, image_w=32)
        assert maps[0, 16, 16] == 1.0
        assert maps[0].argmax() == 16 * 32 + 16

    def test_discrete_mass_near_continuous_integral(self):
        # sum of exp(-r^2 / 2s^2) over the grid ~ 2*pi*s^2 = 25.13 at s=2
        ann = self.ann([[16.0, 16.0]])
        maps = render_target_heatmaps(ann, 32, 32, sigma=2.0, image_h=32, image_w=32)
        assert abs(maps[0].sum() - 2 * np.pi * 4.0) <= 0.02 * 2 * np.pi * 4.0

    def test_peak_is_nearest_pixel_to_scaled_coordinate(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            joint = rng.uniform(8, 56, size=2)
            ann = self.ann([joint])
            maps = render_target_heatmaps(ann, 16, 16, sigma=1.5, image_h=64, image_w=64)
            row, col = np.unravel_index(maps[0].argmax(), maps[0].shape)
            assert col == int(round(joint[0] / 4.0))
            assert row == int(round(joint[1] / 4.0))

    def test_non_positive_sigma_rejected(self):
        with pytest.raises(ConfigError):
            render_target_heatmaps(self.ann([[1.0, 1.0]]), 8, 8, 0.0, 16, 16)


class TestAnnotationIo:
    def test_round_trip_identity(self, tmp_path):
        samples = generate_synthetic(scene(), 5)
        path = tmp_path / "ann.json"
        save_annotations([ann for _, ann in samples], path)
        loaded = load_annotations(path, image_h=64, image_w=64)
        assert len(loaded) == 5
        for (_, original), back in zip(samples, loaded):
            assert np.array_equal(original.joints, back.joints)
            assert np.array_equal(original.visibility, back.visibility)
            assert original.head_size == back.head_size
            assert original.image_ref == back.image_ref

    def test_empty_array(self, tmp_path):
        path = tmp_path / "ann.json"
        path.write_text("[]\n")
        assert load_annotations(path) == []

    def test_zero_head_size_names_record_index(self, tmp_path):
        path = tmp_path / "ann.json"
        records = [
            {"image": "a.pgm", "joints": [[1.0, 1.0]], "visible": [True], "head_size": 2.0},
            {"image": "b.pgm", "joints": [[1.0, 1.0]], "visible": [True], "head_size": 0.0},
        ]
        path.write_text(json.dumps(records))
        with pytest.raises(AnnotationError, match="record 1"):
            load_annotations(path)

    def test_out_of_bounds_visible_joint(self, tmp_path):
        path = tmp_path / "ann.json"
        records = [{"image": "a.pgm", "joints": [[99.0, 1.0]], "visible": [True],
                    "head_size": 2.0}]
        path.write_text(json.dumps(records))
        with pytest.raises(AnnotationError, match="record 0"):
            load_annotations(path, image_h=32, image_w=32)
        # invisible joints may sit outside the frame
        records[0]["visible"] = [False]
        path.write_text(json.dumps(records))
        assert len(load_annotations(path, image_h=32, image_w=32)) == 1

    def test_parse_error_reports_line(self, tmp_path):
        path = tmp_path / "ann.json"
        path.write_text('[{"image": "a"')
        with pytest.raises(AnnotationError, match="line"):
            load_annotations(path)
