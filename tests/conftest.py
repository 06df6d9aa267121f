import numpy as np
import pytest

from eegdiff.signalio import generate_dataset
from eegdiff.training import RunConfig, load_data


def tiny_config(out_dir: str = "out", seed: int = 3) -> RunConfig:
    """Smallest config that exercises every code path in seconds."""
    return RunConfig(
        channels=4,
        samples=16,
        latent_tokens=4,
        latent_dim=8,
        temporal_dim=16,
        heads=2,
        depth=1,
        classes=4,
        per_class=12,
        subjects=2,
        fs=250.0,
        low=5.0,
        high=95.0,
        epochs_stage1=2,
        epochs_stage2=2,
        batch_size=4,
        schedule_steps=10,
        grid=(2, 4, 4),
        widths=(4, 8),
        attn_width=4,
        attn_heads=2,
        time_dim=8,
        sample_steps=5,
        num_samples=4,
        seed=seed,
        out_dir=out_dir,
    ).validate()


@pytest.fixture(scope="session")
def tiny_cfg(tmp_path_factory):
    out = tmp_path_factory.mktemp("tiny")
    return tiny_config(out_dir=str(out))


@pytest.fixture(scope="session")
def tiny_data(tiny_cfg):
    generate_dataset(tiny_cfg.resolved_data_dir, tiny_cfg)
    return load_data(tiny_cfg)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def pytest_terminal_summary(terminalreporter):
    # acceptance scoreboard; printed here so default capture cannot swallow it
    try:
        from test_acceptance import SCOREBOARD
    except ImportError:
        return
    if SCOREBOARD:
        terminalreporter.section("acceptance criteria")
        for line in SCOREBOARD:
            terminalreporter.write_line(line)
