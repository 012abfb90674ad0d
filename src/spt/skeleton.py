"""Articulated-body skeletons and their compiled joint attention masks.

A skeleton lists kinematic edges and left/right symmetric pairs; the
compiled J x J AttentionMask keeps, for each joint, itself, its adjacent
joints, and its symmetric partner.  The diagonal stays on so a keypoint
token can retain its own state through the residual path (standard for
graph attention; the mask is used as a constant and never trained).

Skeletons live in JSON files (keys: joint_count, names, edges,
symmetric_pairs) so joint conventions are user-definable, never baked in.
Synthetic scenes (``spt.data``) draw ``default_skeleton()``: its edges are
the limbs, and its head-top to upper-neck segment sets a figure's PCKh scale.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import asdict, dataclass

import numpy as np

from .errors import SkeletonError
from .formats import atomic_write
from .masks import AttentionMask
from .schema import from_json, read_json


@dataclass(frozen=True)
class SkeletonSpec:
    """A skeleton; building one with a breach raises one ``SkeletonError`` listing all."""

    joint_count: int
    names: tuple[str, ...]
    edges: tuple[tuple[int, int], ...]            # unordered joint-index pairs, adjacency
    symmetric_pairs: tuple[tuple[int, int], ...]  # left/right pairs, each joint in at most one

    def __post_init__(self):
        violations = []
        j = self.joint_count
        if not _is_index(j):
            violations.append(f"joint_count must be an integer, got {j!r}")
            j = None
        elif j <= 0:
            violations.append(f"joint_count must be positive, got {j}")
        if j is not None and len(self.names) != j:
            violations.append(f"expected {j} names, got {len(self.names)}")
        pairs = {}  # kind -> the listed pairs that are two integers
        for pair_kind, listed in (("edge", self.edges), ("symmetric pair", self.symmetric_pairs)):
            pairs[pair_kind] = []
            for pair in listed:
                try:
                    a, b = pair
                except (TypeError, ValueError):
                    a = b = None
                if not (_is_index(a) and _is_index(b)):
                    violations.append(f"{pair_kind} {pair!r} is not two joint indices")
                    continue
                pairs[pair_kind].append((a, b))
                if j is not None and not (0 <= a < j and 0 <= b < j):
                    violations.append(f"{pair_kind} ({a},{b}) references a joint >= {j}")
                elif a == b:
                    violations.append(f"self-{pair_kind.replace(' ', '-')} at joint {a}")
        seen_edges = set()
        for a, b in pairs["edge"]:
            key = (min(a, b), max(a, b))
            if key in seen_edges:
                violations.append(f"duplicate edge ({key[0]},{key[1]})")
            seen_edges.add(key)
        seen_pairs = set()
        partnered = {}
        for a, b in pairs["symmetric pair"]:
            key = (min(a, b), max(a, b))
            if key in seen_pairs:
                violations.append(f"duplicate symmetric pair ({key[0]},{key[1]})")
            seen_pairs.add(key)
            for joint in (a, b):
                if joint in partnered and partnered[joint] != key:
                    violations.append(f"joint {joint} appears in more than one symmetric pair")
                partnered[joint] = key
        if violations:
            raise SkeletonError(violations)


def _is_index(value) -> bool:
    """An integer that is not a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def compile_joint_mask(spec: SkeletonSpec) -> AttentionMask:
    """Constant J x J mask of one skeleton: diagonal + adjacency + symmetry."""
    j = spec.joint_count
    bits = np.eye(j, dtype=np.uint8)
    for a, b in spec.edges + spec.symmetric_pairs:
        bits[a, b] = 1
        bits[b, a] = 1
    return AttentionMask(bits)


# 16-joint MPII-convention default: community-standard kinematic chain and
# the six left/right pairs.  Index order matches the common annotation order.
MPII_JOINT_NAMES = (
    "r-ankle", "r-knee", "r-hip", "l-hip", "l-knee", "l-ankle",
    "pelvis", "thorax", "upper-neck", "head-top",
    "r-wrist", "r-elbow", "r-shoulder", "l-shoulder", "l-elbow", "l-wrist",
)

_MPII_EDGES = (
    (0, 1), (1, 2), (2, 6),          # right leg to pelvis
    (5, 4), (4, 3), (3, 6),          # left leg to pelvis
    (6, 7), (7, 8), (8, 9),          # spine to head
    (10, 11), (11, 12), (12, 7),     # right arm to thorax
    (15, 14), (14, 13), (13, 7),     # left arm to thorax
)

_MPII_SYMMETRIC_PAIRS = ((0, 5), (1, 4), (2, 3), (10, 15), (11, 14), (12, 13))


def default_skeleton() -> SkeletonSpec:
    return SkeletonSpec(
        joint_count=16,
        names=MPII_JOINT_NAMES,
        edges=_MPII_EDGES,
        symmetric_pairs=_MPII_SYMMETRIC_PAIRS,
    )


def save_skeleton(spec: SkeletonSpec, path) -> None:
    with atomic_write(path) as fh:
        fh.write(json.dumps(asdict(spec), indent=2) + "\n")


def load_skeleton(path) -> SkeletonSpec:
    return from_json(SkeletonSpec, read_json(path, SkeletonError), f"skeleton file {path}",
                     SkeletonError)
