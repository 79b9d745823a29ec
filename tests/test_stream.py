import tracemalloc

import numpy as np
import pytest

from cilbench.data import (
    CIFAR_RECORD_BYTES,
    BlobsSpec,
    Dataset,
    StreamSpec,
    load_cifar100,
    make_blobs,
    make_disjoint_stream,
    make_fuzzy_stream,
    pack_cifar_record,
)
from cilbench.errors import ConfigurationError, DataError
from cilbench.learner import as_features


def write_cifar_file(path, records):
    with open(path, "wb") as fh:
        for coarse, fine, pixels in records:
            fh.write(pack_cifar_record(coarse, fine, pixels))


def random_records(n, seed=0, num_fine=100):
    """n records with random coarse labels and pixels; fine labels cycle
    through 0..num_fine-1, so no label below the largest is missing."""
    rng = np.random.default_rng(seed)
    return [
        (int(rng.integers(20)), i % num_fine,
         rng.integers(0, 256, size=3072, dtype=np.uint8).astype(np.uint8))
        for i in range(n)
    ]


class TestCifarLoader:
    def test_record_count_and_size(self, tmp_path):
        path = tmp_path / "train.bin"
        records = random_records(50)
        write_cifar_file(path, records)
        assert path.stat().st_size == 50 * CIFAR_RECORD_BYTES
        ds = load_cifar100(str(path), "train")
        assert len(ds.train) == 50
        # the class count follows the largest fine label in the file
        assert ds.num_classes == 1 + max(fine for _, fine, _ in records)
        assert ds.dim == 3072

    def test_pixel_scaling(self, tmp_path):
        path = tmp_path / "one.bin"
        write_cifar_file(path, [(3, c, np.full(3072, 255, dtype=np.uint8)) for c in range(8)])
        ds = load_cifar100(str(path), "train")
        assert ds.X_train.dtype == np.uint8
        assert np.all(ds.train[7].features == 255)
        assert np.all(as_features(ds.X_train[7:8]) == 1.0)
        assert ds.train[7].label == 7

    def test_as_features_matches_float_scaling(self):
        # every byte value gives the float32 the loader used to store, and
        # its exact widening when float64 is asked for
        byte = np.arange(256, dtype=np.uint8).reshape(16, 16)
        old = byte.astype(np.float32) / 255.0
        new32 = as_features(byte)
        new64 = as_features(byte, np.float64)
        assert new32.dtype == np.float32 and np.array_equal(new32, old)
        assert new64.dtype == np.float64 and np.array_equal(new64, old.astype(np.float64))
        # float rows pass through; float32 rows are widened only on request
        blobs = np.linspace(-1.0, 1.0, 12).reshape(3, 4)
        assert as_features(blobs) is blobs and as_features(blobs, np.float64) is blobs
        assert as_features(old) is old
        assert np.array_equal(as_features(old, np.float64), old.astype(np.float64))

    def test_load_peak_memory_near_file_size(self, tmp_path):
        # the pixel bytes are kept as read: no float copy of the file
        path = tmp_path / "mem.bin"
        write_cifar_file(path, random_records(300, seed=2))
        size = path.stat().st_size
        load_cifar100(str(path), "train")  # numpy imports some modules on first use
        tracemalloc.start()
        try:
            ds = load_cifar100(str(path), "train")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(ds.y_train) == 300
        assert peak < 3 * size, f"peak {peak} bytes for a {size}-byte file"

    def test_truncated_file_rejected(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"\x00" * (CIFAR_RECORD_BYTES - 1))
        with pytest.raises(DataError):
            load_cifar100(str(path), "train")

    def test_corrupt_fine_label_rejected(self, tmp_path):
        path = tmp_path / "corrupt.bin"
        write_cifar_file(path, [(0, 150, np.zeros(3072, dtype=np.uint8))])
        with pytest.raises(DataError):
            load_cifar100(str(path), "train")

    def test_skipped_label_rejected(self, tmp_path):
        path = tmp_path / "gaps.bin"
        write_cifar_file(path, [(0, c, np.zeros(3072, dtype=np.uint8)) for c in (0, 2, 4)])
        with pytest.raises(DataError, match=r"\[1, 3\]"):
            load_cifar100(str(path), "train")
        # a test split may lack classes: it only shrinks the evaluation pool
        assert load_cifar100(str(path), "test").y_test.tolist() == [0, 2, 4]

    def test_round_trip_bytes(self, tmp_path):
        records = random_records(20, seed=5)
        path = tmp_path / "rt.bin"
        write_cifar_file(path, records)
        raw = path.read_bytes()
        ds = load_cifar100(str(path), "train")
        pixels = ds.X_train
        assert pixels.dtype == np.uint8
        # scaling to features and back loses no byte
        assert np.array_equal(np.rint(as_features(pixels, np.float64) * 255.0), pixels)
        for i in range(20):
            original = raw[i * CIFAR_RECORD_BYTES : (i + 1) * CIFAR_RECORD_BYTES]
            # the coarse label is not kept, so it comes from the record
            repacked = pack_cifar_record(original[0], int(ds.y_train[i]), pixels[i])
            assert repacked == original


class TestBlobs:
    def test_split_counts(self):
        ds = make_blobs(BlobsSpec(2, 10, dim=2, spread=1.0, outlier_fraction=0.0), 7)
        assert len(ds.train) == 16 and len(ds.test) == 4

    def test_outlier_count_and_distance(self):
        ds = make_blobs(BlobsSpec(3, 20, dim=2, spread=0.5, outlier_fraction=0.1), 1)
        # per class: 2 outliers, displaced >= 10x spread from the class center
        all_pts = {c: [] for c in range(3)}
        for ex in ds.train + ds.test:
            all_pts[ex.label].append(ex.features)
        for c, pts in all_pts.items():
            pts = np.array(pts)
            inliers = pts[np.linalg.norm(pts - np.median(pts, axis=0), axis=1) < 5 * 0.5]
            center = inliers.mean(axis=0)
            dist = np.linalg.norm(pts - center, axis=1)
            assert np.sum(dist >= 10 * 0.5 * 0.8) == 2

    def test_determinism(self):
        a = make_blobs(BlobsSpec(4, 12, outlier_fraction=0.1), 9)
        b = make_blobs(BlobsSpec(4, 12, outlier_fraction=0.1), 9)
        for xa, xb in zip(a.train + a.test, b.train + b.test):
            assert xa.label == xb.label
            assert np.array_equal(xa.features, xb.features)

    def test_preconditions(self):
        with pytest.raises(ConfigurationError):
            make_blobs(BlobsSpec(1, 10), 0)
        with pytest.raises(ConfigurationError):
            make_blobs(BlobsSpec(3, 10, outlier_fraction=0.6), 0)


class TestDisjointStream:
    def test_partition(self):
        ds = make_blobs(BlobsSpec(10, 10), 0)
        tasks = make_disjoint_stream(ds, StreamSpec("disjoint", 5), 1)
        assert len(tasks) == 2
        union = set()
        for t in tasks:
            assert not (union & t.major_classes)
            union |= t.major_classes
            assert all(c in t.major_classes for c in ds.y_train[t.example_indices])
        assert union == set(range(10))

    def test_all_examples_present(self):
        ds = make_blobs(BlobsSpec(6, 10), 2)
        tasks = make_disjoint_stream(ds, StreamSpec("disjoint", 2), 3)
        idx = sorted(i for t in tasks for i in t.example_indices)
        assert idx == list(range(len(ds.train)))

    def test_divisibility_error(self):
        ds = make_blobs(BlobsSpec(10, 10), 0)
        with pytest.raises(ConfigurationError):
            make_disjoint_stream(ds, StreamSpec("disjoint", 3), 0)

    def test_determinism(self):
        ds = make_blobs(BlobsSpec(6, 10), 2)
        spec = StreamSpec("disjoint", 3)
        a, b = make_disjoint_stream(ds, spec, 11), make_disjoint_stream(ds, spec, 11)
        assert [t.task_index for t in a] == [t.task_index for t in b]
        assert [t.major_classes for t in a] == [t.major_classes for t in b]
        assert all(np.array_equal(x.example_indices, y.example_indices) for x, y in zip(a, b))

    def test_explicit_class_order(self):
        ds = make_blobs(BlobsSpec(4, 10), 2)
        spec = StreamSpec("disjoint", 2, class_order=(3, 1, 0, 2))
        tasks = make_disjoint_stream(ds, spec, 0)
        assert tasks[0].major_classes == {3, 1}
        assert tasks[1].major_classes == {0, 2}


class TestFuzzyStream:
    def test_exact_composition(self):
        # 4 classes, q=2, Z=50: each task half major, half minor
        ds = make_blobs(BlobsSpec(4, 10), 4)  # 8 train per class
        tasks = make_fuzzy_stream(ds, StreamSpec("fuzzy", 2, fuzz_percent=50), 5)
        for t in tasks:
            minor = sum(1 for c in ds.y_train[t.example_indices] if c not in t.major_classes)
            assert len(t.example_indices) == 16 and minor == 8

    def test_fuzzy10_rounding_rule(self):
        ds = make_blobs(BlobsSpec(10, 50), 6)  # 40 train per class, task pool 80
        tasks = make_fuzzy_stream(ds, StreamSpec("fuzzy", 2, fuzz_percent=10), 7)
        for t in tasks:
            minor = sum(1 for c in ds.y_train[t.example_indices] if c not in t.major_classes)
            assert minor == round(0.10 * len(t.example_indices))
            assert minor == 8 and len(t.example_indices) == 80

    def test_each_example_in_one_task(self):
        ds = make_blobs(BlobsSpec(6, 20), 8)
        tasks = make_fuzzy_stream(ds, StreamSpec("fuzzy", 2, fuzz_percent=20), 9)
        if not any(t.warnings for t in tasks):
            idx = [i for t in tasks for i in t.example_indices]
            assert len(idx) == len(set(idx))

    def test_mode_guards(self):
        ds = make_blobs(BlobsSpec(4, 10), 4)
        with pytest.raises(ConfigurationError):
            make_fuzzy_stream(ds, StreamSpec("fuzzy", 2, fuzz_percent=0), 0)
        with pytest.raises(ConfigurationError):
            make_fuzzy_stream(ds, StreamSpec("disjoint", 2), 0)

