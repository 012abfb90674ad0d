"""Skeleton specs, their checks at construction, and joint mask compilation."""

import numpy as np
import pytest

from spt.errors import SkeletonError
from spt.skeleton import (SkeletonSpec, compile_joint_mask, default_skeleton,
                          load_skeleton, save_skeleton)


def random_valid_spec(rng):
    j = int(rng.integers(2, 12))
    candidates = [(a, b) for a in range(j) for b in range(a + 1, j)]
    rng.shuffle(candidates)
    edge_count = int(rng.integers(0, len(candidates) + 1))
    edges = tuple(candidates[:edge_count])
    joints = list(range(j))
    rng.shuffle(joints)
    pairs = []
    while len(joints) >= 2 and rng.uniform() < 0.7:
        pairs.append((joints.pop(), joints.pop()))
    return SkeletonSpec(
        joint_count=j,
        names=tuple(f"j{i}" for i in range(j)),
        edges=edges,
        symmetric_pairs=tuple(pairs),
    )


def violations_of(*fields):
    """The violation list of the ``SkeletonError`` that building ``SkeletonSpec(*fields)`` raises."""
    with pytest.raises(SkeletonError) as err:
        SkeletonSpec(*fields)
    return err.value.violations


class TestValidate:
    def test_default_spec_is_clean(self):
        spec = default_skeleton()  # builds without raising
        assert spec.joint_count == len(spec.names) == 16

    def test_self_edge(self):
        assert violations_of(2, ("a", "b"), ((0, 0),), ()) == ["self-edge at joint 0"]

    def test_duplicate_symmetric_pair(self):
        violations = violations_of(3, ("a", "b", "c"), (), ((0, 1), (1, 0)))
        assert violations == ["duplicate symmetric pair (0,1)"]

    def test_joint_in_two_pairs(self):
        violations = violations_of(3, ("a", "b", "c"), (), ((0, 1), (1, 2)))
        assert violations == ["joint 1 appears in more than one symmetric pair"]

    def test_out_of_range_index(self):
        violations = violations_of(2, ("a", "b"), ((0, 5),), ())
        assert violations == ["edge (0,5) references a joint >= 2"]

    def test_name_count_mismatch(self):
        assert violations_of(3, ("a",), (), ()) == ["expected 3 names, got 1"]

    def test_non_positive_joint_count(self):
        assert violations_of(0, (), (), ()) == ["joint_count must be positive, got 0"]

    def test_joint_count_of_another_type(self):
        assert violations_of("3", ("a", "b", "c"), ((0, 1),), ()) == [
            "joint_count must be an integer, got '3'"]

    @pytest.mark.parametrize("edge", [(0, 1, 2), 5, ("0", 1), (0, True)])
    def test_edge_that_is_not_two_indices(self, edge):
        assert violations_of(3, ("a", "b", "c"), ((0, 1), edge), ((1, 1),)) == [
            f"edge {edge!r} is not two joint indices", "self-symmetric-pair at joint 1"]

    def test_duplicate_edge_in_either_order(self):
        assert violations_of(2, ("a", "b"), ((0, 1), (1, 0)), ()) == ["duplicate edge (0,1)"]


class TestCompile:
    def test_two_joints_one_edge_is_complete(self):
        mask = compile_joint_mask(SkeletonSpec(2, ("a", "b"), ((0, 1),), ()))
        assert np.array_equal(mask.bits, np.ones((2, 2), dtype=np.uint8))

    def test_left_shoulder_row(self):
        # left shoulder keeps: itself, its kinematic neighbors (thorax and
        # left elbow), and its symmetric partner (right shoulder)
        spec = default_skeleton()
        mask = compile_joint_mask(spec)
        ls = spec.names.index("l-shoulder")
        expected = {ls, spec.names.index("l-elbow"), spec.names.index("thorax"),
                    spec.names.index("r-shoulder")}
        assert set(np.flatnonzero(mask.bits[ls]).tolist()) == expected

    def test_default_row_supports_match_recount(self):
        spec = default_skeleton()
        mask = compile_joint_mask(spec)
        for i in range(spec.joint_count):
            degree = sum(1 for a, b in spec.edges if i in (a, b))
            partnered = sum(1 for a, b in spec.symmetric_pairs if i in (a, b))
            assert mask.bits[i].sum() == 1 + degree + partnered

    def test_invalid_spec_raises_with_all_violations(self):
        violations = violations_of(2, ("a", "b"), ((0, 0), (0, 0)), ())
        assert violations == ["self-edge at joint 0", "self-edge at joint 0",
                              "duplicate edge (0,0)"]

    def test_properties_over_random_graphs(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            spec = random_valid_spec(rng)  # builds without raising
            mask = compile_joint_mask(spec)
            assert np.array_equal(mask.bits, mask.bits.T)
            assert (np.diag(mask.bits) == 1).all()
            # recompiling is bit-identical
            assert np.array_equal(mask.bits, compile_joint_mask(spec).bits)
            # sparsity bound, equality iff edges and pairs are disjoint
            bound = spec.joint_count + 2 * len(spec.edges) + 2 * len(spec.symmetric_pairs)
            total = int(mask.bits.sum())
            assert total <= bound
            edge_set = {tuple(sorted(e)) for e in spec.edges}
            pair_set = {tuple(sorted(p)) for p in spec.symmetric_pairs}
            if not edge_set & pair_set:
                assert total == bound


class TestJson:
    def test_round_trip(self, tmp_path):
        spec = default_skeleton()
        path = tmp_path / "skel.json"
        save_skeleton(spec, path)
        back = load_skeleton(path)
        assert back == spec

    def test_invalid_file_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"joint_count": 2, "names": ["a", "b"], '
                        '"edges": [[0, 0]], "symmetric_pairs": []}')
        with pytest.raises(SkeletonError, match="self-edge at joint 0"):
            load_skeleton(path)

    def test_missing_key_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"joint_count": 2}')
        with pytest.raises(SkeletonError):
            load_skeleton(path)
