"""EEG-to-latent generation on a desk scale.

Stage 1 trains a channel-attentive signal autoencoder whose latent tokens are
aligned to paired semantic embeddings; stage 2 selectively finetunes a small
conditional denoiser (adapter and cross-attention key/value projections only)
with a v-prediction objective and classifier-free guidance at sampling time.
Everything runs on float64 numpy via a from-scratch reverse-mode autodiff
engine, fully seeded end to end.
"""

__version__ = "0.1.0"
