"""Tests for the synthetic datasets and the data loader."""

import numpy as np
import pytest

from repro.data import (
    BOS,
    EOS,
    PAD,
    DataLoader,
    SyntheticDetectionDataset,
    SyntheticImageDataset,
    SyntheticTranslationDataset,
    synthetic_cifar,
    synthetic_imagenet,
)
from repro.data.vision import _smooth_random_field


def _whole_array_images(num_samples, dtype, seed, num_classes=10, size=16, channels=3,
                        noise=0.6, max_shift=2):
    """``synthetic_cifar``'s images drawn the whole-dataset way: all the
    noise in one float64 array, summed in float64 and cast at the end."""
    rng = np.random.default_rng(seed)
    prototypes = np.stack([_smooth_random_field(rng, channels, size)
                           for _ in range(num_classes)])
    norms = np.sqrt((prototypes ** 2).mean(axis=(1, 2, 3), keepdims=True))
    prototypes = prototypes / np.maximum(norms, 1e-8)
    labels = rng.integers(0, num_classes, size=num_samples)
    shifts = rng.integers(-max_shift, max_shift + 1, size=(num_samples, 2))
    noise_fields = rng.standard_normal((num_samples, channels, size, size)) * noise
    images = np.empty_like(noise_fields)
    for index in range(num_samples):
        shifted = np.roll(prototypes[labels[index]], shift=tuple(shifts[index]), axis=(1, 2))
        images[index] = shifted + noise_fields[index]
    return images.astype(dtype), labels


class TestVisionDataset:
    def test_shapes_and_labels(self):
        dataset = SyntheticImageDataset(num_samples=32, num_classes=5, image_size=12, seed=0)
        image, label = dataset[0]
        assert image.shape == (3, 12, 12)
        assert 0 <= label < 5
        assert len(dataset) == 32

    def test_reproducible_with_seed(self):
        a = SyntheticImageDataset(num_samples=16, seed=7)
        b = SyntheticImageDataset(num_samples=16, seed=7)
        np.testing.assert_array_equal(a.images, b.images)
        np.testing.assert_array_equal(a.labels, b.labels)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("num_samples", [1, 77, 1600])
    def test_per_image_draws_match_whole_array_formula(self, dtype, num_samples):
        dataset = synthetic_cifar(num_samples=num_samples, seed=5, dtype=dtype)
        images, labels = _whole_array_images(num_samples, dtype, seed=5)
        assert dataset.images.dtype == images.dtype and dataset.images.shape == images.shape
        assert dataset.images.tobytes() == images.tobytes()
        np.testing.assert_array_equal(dataset.labels, labels)

    def test_different_seeds_differ(self):
        a = SyntheticImageDataset(num_samples=16, seed=1)
        b = SyntheticImageDataset(num_samples=16, seed=2)
        assert not np.allclose(a.images, b.images)

    def test_classes_are_separable(self):
        """Nearest-prototype classification should beat chance by a wide margin."""
        dataset = SyntheticImageDataset(num_samples=200, num_classes=4, image_size=12,
                                        noise=0.5, max_shift=0, seed=3)
        flattened = dataset.images.reshape(len(dataset), -1)
        prototypes = dataset.prototypes.reshape(4, -1)
        predictions = np.argmax(flattened @ prototypes.T, axis=1)
        accuracy = (predictions == dataset.labels).mean()
        assert accuracy > 0.9

    def test_split_is_disjoint_and_complete(self):
        dataset = SyntheticImageDataset(num_samples=50, seed=0)
        train, validation = dataset.split(0.8)
        assert len(train) == 40
        assert len(validation) == 10
        np.testing.assert_array_equal(np.concatenate([train.labels, validation.labels]),
                                      dataset.labels)

    def test_convenience_constructors(self):
        cifar = synthetic_cifar(num_samples=8)
        imagenet = synthetic_imagenet(num_samples=8)
        assert cifar.num_classes == 10
        assert imagenet.num_classes == 20
        assert imagenet.image_size > cifar.image_size

    def test_arrays_accessor(self):
        dataset = SyntheticImageDataset(num_samples=10, seed=0)
        images, labels = dataset.arrays()
        assert images.shape[0] == labels.shape[0] == 10


class TestTranslationDataset:
    def test_token_layout(self):
        dataset = SyntheticTranslationDataset(num_samples=20, vocab_size=16, seed=0)
        sources, targets_in, targets_out = dataset.arrays()
        assert sources.shape == targets_in.shape == targets_out.shape
        assert np.all(targets_in[:, 0] == BOS)
        # Every target output sequence ends with EOS before padding.
        for row in targets_out:
            non_pad = row[row != PAD]
            assert non_pad[-1] == EOS

    def test_target_is_reverse_and_shift_of_source(self):
        dataset = SyntheticTranslationDataset(num_samples=5, vocab_size=10, seed=1)
        sources, _, targets_out = dataset.arrays()
        content = dataset.vocab_size - 3
        for source, target in zip(sources, targets_out):
            tokens = source[(source != PAD) & (source != EOS)]
            expected = ((tokens[::-1] - 3 + 1) % content) + 3
            np.testing.assert_array_equal(target[:len(tokens)], expected)

    def test_vocab_too_small_rejected(self):
        with pytest.raises(ValueError):
            SyntheticTranslationDataset(vocab_size=3)

    def test_reference_sentences_strip_special_tokens(self):
        dataset = SyntheticTranslationDataset(num_samples=4, seed=0)
        for sentence in dataset.reference_sentences():
            assert PAD not in sentence
            assert EOS not in sentence
            assert len(sentence) >= dataset.min_length

    def test_split(self):
        dataset = SyntheticTranslationDataset(num_samples=20, seed=0)
        train, validation = dataset.split(0.75)
        assert len(train) == 15
        assert len(validation) == 5
        assert validation.vocab_size == dataset.vocab_size


class TestDetectionDataset:
    def test_target_layout(self):
        dataset = SyntheticDetectionDataset(num_samples=10, num_classes=3, image_size=16,
                                            grid_size=4, seed=0)
        image, target = dataset[0]
        assert image.shape == (3, 16, 16)
        assert target.shape == (4, 4, 8)

    def test_object_cells_match_ground_truth_count(self):
        dataset = SyntheticDetectionDataset(num_samples=20, max_objects=1, seed=0)
        _, targets = dataset.arrays()
        for index, boxes in enumerate(dataset.ground_truth_boxes()):
            assert targets[index][..., 4].sum() == len(boxes)

    def test_boxes_within_image(self):
        dataset = SyntheticDetectionDataset(num_samples=20, seed=1)
        for boxes in dataset.ground_truth_boxes():
            for x, y, w, h, class_id in boxes:
                assert 0 <= x - w / 2 and x + w / 2 <= 1.0 + 1e-9
                assert 0 <= y - h / 2 and y + h / 2 <= 1.0 + 1e-9
                assert 0 <= class_id < dataset.num_classes

    def test_object_pixels_brighter_than_background(self):
        dataset = SyntheticDetectionDataset(num_samples=5, noise=0.05, seed=2)
        image, _ = dataset[0]
        box = dataset.ground_truth_boxes()[0][0]
        x0 = int((box[0] - box[2] / 2) * dataset.image_size)
        y0 = int((box[1] - box[3] / 2) * dataset.image_size)
        assert image[:, y0 + 1, x0 + 1].mean() > 0.2

    def test_invalid_grid_rejected(self):
        with pytest.raises(ValueError):
            SyntheticDetectionDataset(image_size=30, grid_size=4)

    def test_split(self):
        dataset = SyntheticDetectionDataset(num_samples=10, seed=0)
        train, validation = dataset.split(0.6)
        assert len(train) == 6
        assert len(validation) == 4
        assert len(validation.ground_truth_boxes()) == 4


class TestDataLoader:
    def test_batches_cover_dataset(self):
        dataset = SyntheticImageDataset(num_samples=37, seed=0)
        loader = DataLoader(dataset, batch_size=8, shuffle=False)
        total = sum(len(labels) for _, labels in loader)
        assert total == 37
        assert len(loader) == 5

    def test_drop_last(self):
        dataset = SyntheticImageDataset(num_samples=37, seed=0)
        loader = DataLoader(dataset, batch_size=8, shuffle=False, drop_last=True)
        sizes = [len(labels) for _, labels in loader]
        assert sizes == [8, 8, 8, 8]
        assert len(loader) == 4

    def test_shuffle_changes_order_between_epochs(self):
        dataset = SyntheticImageDataset(num_samples=64, seed=0)
        loader = DataLoader(dataset, batch_size=64, shuffle=True, seed=3)
        first_epoch = next(iter(loader))[1]
        second_epoch = next(iter(loader))[1]
        assert not np.array_equal(first_epoch, second_epoch)

    def test_tuple_targets_stacked_elementwise(self):
        dataset = SyntheticTranslationDataset(num_samples=12, seed=0)
        loader = DataLoader(dataset, batch_size=4, shuffle=False)
        sources, (decoder_inputs, decoder_targets) = next(iter(loader))
        assert sources.shape[0] == 4
        assert decoder_inputs.shape == decoder_targets.shape

    def test_invalid_batch_size(self):
        with pytest.raises(ValueError):
            DataLoader(SyntheticImageDataset(num_samples=4), batch_size=0)
