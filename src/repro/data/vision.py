"""Synthetic image-classification datasets.

The paper's vision experiments use CIFAR-10 and ImageNet, which are not
available offline.  These datasets substitute class-conditional synthetic
images: each class has a smooth random prototype pattern (a low-frequency
random field), and samples are noisy, randomly shifted copies of their class
prototype.  Small CNNs reach high accuracy on the task within a few epochs,
while heavy quantization of weights/activations/gradients measurably slows or
degrades learning -- which is the property the paper's format comparisons
need (see DESIGN.md for the substitution rationale).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

__all__ = ["SyntheticImageDataset", "synthetic_cifar", "synthetic_imagenet"]


def _smooth_random_field(rng: np.random.Generator, channels: int, size: int, smoothness: int = 3) -> np.ndarray:
    """A smooth random pattern: random low-resolution field upsampled bilinearly."""
    low_res = max(2, size // (2 ** smoothness) + 1)
    coarse = rng.standard_normal((channels, low_res, low_res))
    # Bilinear upsample to (size, size).
    positions = np.linspace(0, low_res - 1, size)
    x0 = np.floor(positions).astype(int)
    x1 = np.minimum(x0 + 1, low_res - 1)
    frac = positions - x0
    rows = coarse[:, x0, :] * (1 - frac)[None, :, None] + coarse[:, x1, :] * frac[None, :, None]
    field = rows[:, :, x0] * (1 - frac)[None, None, :] + rows[:, :, x1] * frac[None, None, :]
    return field


@dataclass
class SyntheticImageDataset:
    """Class-conditional synthetic images.

    Parameters
    ----------
    num_samples:
        Total number of images.
    num_classes:
        Number of classes (each gets a distinct prototype pattern).
    image_size:
        Spatial resolution (square images).
    channels:
        Number of channels (3 for RGB-like data).
    noise:
        Standard deviation of the additive Gaussian noise; larger values make
        the task harder and more sensitive to quantization error.
    max_shift:
        Maximum circular shift (pixels) applied per sample for variability.
    seed:
        Seed for reproducible generation.
    dtype:
        Floating dtype of the stored images (default float64, the bit-exact
        reference; ``np.float32`` feeds the float32 compute mode without a
        per-batch cast).  Generation always runs in float64 so the pixel
        values are the same stream for every dtype, each rounded once.
    """

    num_samples: int = 512
    num_classes: int = 10
    image_size: int = 16
    channels: int = 3
    noise: float = 0.6
    max_shift: int = 2
    seed: int = 0
    dtype: type = np.float64

    def __post_init__(self):
        rng = np.random.default_rng(self.seed)
        self.prototypes = np.stack([
            _smooth_random_field(rng, self.channels, self.image_size)
            for _ in range(self.num_classes)
        ])
        # Normalize prototypes so classes have comparable energy.
        norms = np.sqrt((self.prototypes ** 2).mean(axis=(1, 2, 3), keepdims=True))
        self.prototypes = self.prototypes / np.maximum(norms, 1e-8)
        self.labels = rng.integers(0, self.num_classes, size=self.num_samples)
        shifts = rng.integers(-self.max_shift, self.max_shift + 1, size=(self.num_samples, 2))
        # One image at a time: the generator's normal stream is the same
        # whether it is drawn whole or per image, and each float64 image is
        # rounded once, straight into the stored array.
        shape = (self.channels, self.image_size, self.image_size)
        self.images = np.empty((self.num_samples,) + shape, dtype=self.dtype)
        for index in range(self.num_samples):
            image = rng.standard_normal(shape)
            image *= self.noise
            image += np.roll(self.prototypes[self.labels[index]],
                             shift=tuple(shifts[index]), axis=(1, 2))
            self.images[index] = image

    def __len__(self) -> int:
        return self.num_samples

    def __getitem__(self, index: int) -> Tuple[np.ndarray, int]:
        return self.images[index], int(self.labels[index])

    def arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """The full dataset as ``(images, labels)`` arrays."""
        return self.images, self.labels

    def split(self, train_fraction: float = 0.8) -> Tuple["SyntheticImageDataset", "SyntheticImageDataset"]:
        """Deterministic train/validation split preserving generation parameters."""
        cut = int(self.num_samples * train_fraction)
        train = _SubsetImageDataset(self, np.arange(0, cut))
        validation = _SubsetImageDataset(self, np.arange(cut, self.num_samples))
        return train, validation


class _SubsetImageDataset:
    """A view of a subset of a :class:`SyntheticImageDataset`."""

    def __init__(self, parent: SyntheticImageDataset, indices: np.ndarray):
        self.parent = parent
        self.indices = indices
        self.images = parent.images[indices]
        self.labels = parent.labels[indices]
        self.num_classes = parent.num_classes
        self.image_size = parent.image_size
        self.channels = parent.channels

    def __len__(self) -> int:
        return len(self.indices)

    def __getitem__(self, index: int):
        return self.images[index], int(self.labels[index])

    def arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        return self.images, self.labels


def synthetic_cifar(num_samples: int = 512, image_size: int = 16, num_classes: int = 10,
                    noise: float = 0.6, seed: int = 0, dtype=np.float64) -> SyntheticImageDataset:
    """A CIFAR-10-like task: 10 classes of small RGB images."""
    return SyntheticImageDataset(num_samples=num_samples, num_classes=num_classes,
                                 image_size=image_size, channels=3, noise=noise, seed=seed,
                                 dtype=dtype)


def synthetic_imagenet(num_samples: int = 512, image_size: int = 24, num_classes: int = 20,
                       noise: float = 0.7, seed: int = 0, dtype=np.float64) -> SyntheticImageDataset:
    """An ImageNet-like task: more classes, slightly larger images, more noise."""
    return SyntheticImageDataset(num_samples=num_samples, num_classes=num_classes,
                                 image_size=image_size, channels=3, noise=noise, seed=seed,
                                 dtype=dtype)
