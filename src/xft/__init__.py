"""Upcycle a dense transformer into a shared-expert MoE, fine-tune it, and
merge it back to a dense model with learnable mixing coefficients."""

from xft.analysis import ExpertLoadReport, expert_load_histogram
from xft.checkpoint import CheckpointError, load_checkpoint, read_checkpoint_config, save_checkpoint
from xft.dataset import DatasetError, load_instruction_dataset, save_instruction_dataset
from xft.invariants import ensemble_identity_check
from xft.merge import (
    DEFAULT_SHARED_RATE,
    EWAConfig,
    MixingCoefficients,
    ewa_beta_at_step,
    ewa_step,
    extract_shared_expert,
    init_mixing_coefficients,
    learn_mixing_coefficients,
    merge_fixed,
    merge_uniform,
    merge_xft,
)
from xft.model import (
    FFNWeights,
    ModelConfig,
    Transformer,
    attention_forward,
    build_dense_model,
    ffn_forward,
    generate_greedy,
    model_forward_loss,
)
from xft.moe import (
    MoEConfig,
    MoELayer,
    RoutingRecord,
    upcycle_dense_to_moe,
)
from xft.tensor import Tensor, backward, finite_diff_check, no_grad
from xft.train import (
    AdamW,
    ByteTokenizer,
    InstructionExample,
    TrainHyper,
    TrainingDiverged,
    dataset_loss,
    lr_at_step,
    sft_train,
    tokenize_and_mask,
)

__version__ = "0.1.0"

__all__ = [
    "AdamW",
    "ByteTokenizer",
    "CheckpointError",
    "DEFAULT_SHARED_RATE",
    "DatasetError",
    "EWAConfig",
    "ExpertLoadReport",
    "FFNWeights",
    "InstructionExample",
    "MixingCoefficients",
    "ModelConfig",
    "MoEConfig",
    "MoELayer",
    "RoutingRecord",
    "Tensor",
    "TrainHyper",
    "TrainingDiverged",
    "Transformer",
    "attention_forward",
    "backward",
    "build_dense_model",
    "dataset_loss",
    "ensemble_identity_check",
    "ewa_beta_at_step",
    "ewa_step",
    "expert_load_histogram",
    "extract_shared_expert",
    "ffn_forward",
    "finite_diff_check",
    "generate_greedy",
    "init_mixing_coefficients",
    "learn_mixing_coefficients",
    "load_checkpoint",
    "load_instruction_dataset",
    "lr_at_step",
    "merge_fixed",
    "merge_uniform",
    "merge_xft",
    "model_forward_loss",
    "no_grad",
    "read_checkpoint_config",
    "save_checkpoint",
    "save_instruction_dataset",
    "sft_train",
    "tokenize_and_mask",
    "upcycle_dense_to_moe",
    "__version__",
]
