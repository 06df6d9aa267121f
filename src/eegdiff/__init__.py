"""EEG-to-latent generation on a desk scale.

Stage 1 trains a channel-attentive signal autoencoder whose latent tokens are
aligned to paired semantic embeddings; stage 2 selectively finetunes a small
conditional denoiser (adapter and cross-attention key/value projections only)
with a v-prediction objective and classifier-free guidance at sampling time.
Everything runs on float64 numpy via a from-scratch reverse-mode autodiff
engine, fully seeded end to end.
"""

from .autodiff import NonFiniteError, ShapeError, Tensor, grad_check, primitive
from .diffusion import (
    ConditionAdapter,
    Denoiser,
    DenoiserConfig,
    NoiseSchedule,
    Stage2Model,
    TrainMask,
    apply_train_mask,
    build_condition,
    build_schedule,
    class_target_latents,
    sample,
    selective_finetune_mask,
    stage2_train_step,
    timestep_embedding,
)
from .encoder import EncoderConfig, SignalAutoencoder, mean_pool_latent
from .evaluate import (
    EvalError,
    GaussianStats,
    RetrievalIndex,
    class_agreement,
    cosine_map,
    export_embeddings,
    fit_gaussian,
    frechet_distance,
    topk_retrieval,
)
from .losses import (
    LossWeights,
    cfg_combine,
    contrastive_loss,
    mse_loss,
    recon_loss,
    sdsc_loss,
    snr_weight,
    stage1_loss_terms,
    text_align_loss,
    v_loss,
    v_target,
)
from .nn import ConfigError
from .signalio import (
    ContainerError,
    DataError,
    Dataset,
    EegWindow,
    bandpass_filter,
    generate_dataset,
    load_checkpoint,
    load_dataset,
    preprocess,
    read_container,
    save_checkpoint,
    write_container,
)
from .training import (
    Adam,
    RunConfig,
    gradient_suite,
    load_stage1_model,
    load_stage2_model,
    train_stage1,
    train_stage2,
)

__version__ = "0.1.0"

__all__ = [
    "Adam",
    "ConditionAdapter",
    "ConfigError",
    "ContainerError",
    "DataError",
    "Dataset",
    "Denoiser",
    "DenoiserConfig",
    "EegWindow",
    "EncoderConfig",
    "EvalError",
    "GaussianStats",
    "LossWeights",
    "NoiseSchedule",
    "NonFiniteError",
    "RetrievalIndex",
    "RunConfig",
    "ShapeError",
    "SignalAutoencoder",
    "Stage2Model",
    "Tensor",
    "TrainMask",
    "apply_train_mask",
    "bandpass_filter",
    "build_condition",
    "build_schedule",
    "cfg_combine",
    "class_agreement",
    "class_target_latents",
    "contrastive_loss",
    "cosine_map",
    "export_embeddings",
    "fit_gaussian",
    "frechet_distance",
    "generate_dataset",
    "grad_check",
    "gradient_suite",
    "load_checkpoint",
    "load_dataset",
    "load_stage1_model",
    "load_stage2_model",
    "mean_pool_latent",
    "mse_loss",
    "preprocess",
    "primitive",
    "read_container",
    "recon_loss",
    "sample",
    "save_checkpoint",
    "sdsc_loss",
    "selective_finetune_mask",
    "snr_weight",
    "stage1_loss_terms",
    "stage2_train_step",
    "text_align_loss",
    "timestep_embedding",
    "topk_retrieval",
    "train_stage1",
    "train_stage2",
    "v_loss",
    "v_target",
    "write_container",
]
