"""Shared fixtures for the benchmark harness.

Each benchmark module reproduces one table or figure of the paper; the
fixtures here provide the shared synthetic tasks so expensive dataset
generation happens once per session.  Without the pytest-benchmark plugin
the ``benchmark`` fixture is a plain call, so the paper benches run (and
assert) with only numpy, pytest and hypothesis installed.
"""

import pytest

from repro.data import SyntheticImageDataset


class PlainBenchmark:
    """Stand-in for pytest-benchmark's fixture: runs the function, times nothing."""

    def __call__(self, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def pedantic(self, fn, args=(), kwargs=None, rounds=1, iterations=1):
        for _ in range(rounds * iterations):
            result = fn(*args, **(kwargs or {}))
        return result


class PlainBenchmarkPlugin:
    @pytest.fixture
    def benchmark(self):
        return PlainBenchmark()


def pytest_configure(config):
    if not config.pluginmanager.hasplugin("benchmark"):
        config.pluginmanager.register(PlainBenchmarkPlugin(), "plain-benchmark")


@pytest.fixture(scope="session")
def vision_task():
    """A shared synthetic image-classification task (CIFAR-10 stand-in)."""
    dataset = SyntheticImageDataset(num_samples=320, num_classes=4, image_size=10,
                                    noise=0.55, seed=42)
    return dataset.split(0.8)
