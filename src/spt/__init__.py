"""Sparse-attention pose estimation at desk scale.

A small library built around four ideas: masked multi-head self-attention
whose softmax is restricted to a binary mask, dynamic top-K pruning of the
visual-token attention mask at scheduled layers, a constant skeleton-derived
joint mask for the keypoint-token stage, and PCKh evaluation of the decoded
heatmaps.  Everything runs on a minimal float64 tensor core with taped
reverse-mode differentiation, so toy-scale training needs no framework.
"""

from .errors import (AnnotationError, CheckpointError, ConfigError,
                     DegenerateMaskRowError, FormatError, NonFiniteLossError,
                     NonFiniteValueError, ShapeError, SkeletonError, SptError)
from .masks import AttentionMask
from .tensor import ComputationTape, Tensor, backward
from .attention import AttentionLayerParams, encoder_block, masked_self_attention
from .pruning import (MaskState, PruneSchedule, SparsityStats,
                      apply_prune_schedule, sparsity_report, topk_row_mask)
from .skeleton import (SkeletonSpec, compile_joint_mask, default_skeleton,
                       load_skeleton, save_skeleton, validate_spec)
from .model import (AdamState, Diagnostics, ModelConfig, PoseModelParams,
                    TrainingConfig, forward, full_token_mask, load_checkpoint,
                    loss_mse, patchify_embed, save_checkpoint, train_model, train_step)
from .data import (Annotation, SyntheticSceneConfig, generate_sample,
                   generate_synthetic, load_annotations,
                   render_target_heatmaps, save_annotations)
from .evaluation import (PckhReport, ablation_sweep, decode_heatmaps, evaluate_model,
                         pckh)

__version__ = "0.1.0"
