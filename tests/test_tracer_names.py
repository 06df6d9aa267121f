"""The benchmark tracer's wrapped names still exist in the package.

The benchmark runs untraced by default, so a change that deletes or renames a
name the tracer patches (``training.stage2_train_step``, say) would otherwise
only fail in the benchmark's own self-test.
"""

import importlib.util
from pathlib import Path

from eegdiff import autodiff, training


def load_tracing():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_on_every_name_and_restores_it():
    add, train_step = autodiff.add, training.stage2_train_step
    tracer = load_tracing().Tracer()
    try:
        tracer.install()  # an AttributeError names a wrapped name that is gone
        assert autodiff.add.__wrapped__ is add
        assert training.stage2_train_step.__wrapped__ is train_step
    finally:
        tracer.uninstall()
    assert autodiff.add is add
    assert training.stage2_train_step is train_step
