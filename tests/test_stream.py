import json

import numpy as np
import pytest

from cilbench.data import (
    CIFAR_RECORD_BYTES,
    Dataset,
    StreamSpec,
    example_to_cifar_record,
    load_cifar100,
    make_blobs,
    make_disjoint_stream,
    make_fuzzy_stream,
    pack_cifar_record,
    parse_cifar_record,
    stream_manifest,
)
from cilbench.errors import ConfigurationError, DataError


def write_cifar_file(path, records):
    with open(path, "wb") as fh:
        for coarse, fine, pixels in records:
            fh.write(pack_cifar_record(coarse, fine, pixels))


def random_records(n, seed=0, num_fine=100):
    rng = np.random.default_rng(seed)
    return [
        (int(rng.integers(20)), int(rng.integers(num_fine)),
         rng.integers(0, 256, size=3072, dtype=np.uint8).astype(np.uint8))
        for _ in range(n)
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
        write_cifar_file(path, [(3, 7, np.full(3072, 255, dtype=np.uint8))])
        ds = load_cifar100(str(path), "train")
        assert np.all(ds.train[0].features == 1.0)
        assert ds.train[0].label == 7

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

    def test_round_trip_bytes(self, tmp_path):
        records = random_records(20, seed=5)
        path = tmp_path / "rt.bin"
        write_cifar_file(path, records)
        raw = path.read_bytes()
        ds = load_cifar100(str(path), "train")
        for i in range(20):
            original = raw[i * CIFAR_RECORD_BYTES : (i + 1) * CIFAR_RECORD_BYTES]
            coarse, fine, pixels = parse_cifar_record(original)
            assert pack_cifar_record(coarse, fine, pixels) == original
            assert example_to_cifar_record(ds.train[i], int(ds.train_coarse[i])) == original


class TestBlobs:
    def test_split_counts(self):
        ds = make_blobs(2, 10, dim=2, spread=1.0, outlier_fraction=0.0, seed=7)
        assert len(ds.train) == 16 and len(ds.test) == 4

    def test_outlier_count_and_distance(self):
        ds = make_blobs(3, 20, dim=2, spread=0.5, outlier_fraction=0.1, seed=1)
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
        a = make_blobs(4, 12, seed=9, outlier_fraction=0.1)
        b = make_blobs(4, 12, seed=9, outlier_fraction=0.1)
        for xa, xb in zip(a.train + a.test, b.train + b.test):
            assert xa.label == xb.label
            assert np.array_equal(xa.features, xb.features)

    def test_preconditions(self):
        with pytest.raises(ConfigurationError):
            make_blobs(1, 10)
        with pytest.raises(ConfigurationError):
            make_blobs(3, 10, outlier_fraction=0.6)


class TestDisjointStream:
    def test_partition(self):
        ds = make_blobs(10, 10, seed=0)
        tasks = make_disjoint_stream(ds, StreamSpec("disjoint", 5, seed=1))
        assert len(tasks) == 2
        union = set()
        for t in tasks:
            assert not (union & t.major_classes)
            union |= t.major_classes
            assert all(c in t.major_classes for c in ds.y_train[t.example_indices])
        assert union == set(range(10))

    def test_all_examples_present(self):
        ds = make_blobs(6, 10, seed=2)
        tasks = make_disjoint_stream(ds, StreamSpec("disjoint", 2, seed=3))
        idx = sorted(i for t in tasks for i in t.example_indices)
        assert idx == list(range(len(ds.train)))

    def test_divisibility_error(self):
        ds = make_blobs(10, 10, seed=0)
        with pytest.raises(ConfigurationError):
            make_disjoint_stream(ds, StreamSpec("disjoint", 3))

    def test_determinism(self):
        ds = make_blobs(6, 10, seed=2)
        spec = StreamSpec("disjoint", 3, seed=11)
        assert stream_manifest(make_disjoint_stream(ds, spec)) == stream_manifest(
            make_disjoint_stream(ds, spec)
        )

    def test_explicit_class_order(self):
        ds = make_blobs(4, 10, seed=2)
        spec = StreamSpec("disjoint", 2, seed=0, class_order=(3, 1, 0, 2))
        tasks = make_disjoint_stream(ds, spec)
        assert tasks[0].major_classes == {3, 1}
        assert tasks[1].major_classes == {0, 2}


class TestFuzzyStream:
    def test_exact_composition(self):
        # 4 classes, q=2, Z=50: each task half major, half minor
        ds = make_blobs(4, 10, seed=4)  # 8 train per class
        tasks = make_fuzzy_stream(ds, StreamSpec("fuzzy", 2, fuzz_percent=50, seed=5))
        for t in tasks:
            minor = sum(1 for c in ds.y_train[t.example_indices] if c not in t.major_classes)
            assert len(t.example_indices) == 16 and minor == 8

    def test_fuzzy10_rounding_rule(self):
        ds = make_blobs(10, 50, seed=6)  # 40 train per class, task pool 80
        tasks = make_fuzzy_stream(ds, StreamSpec("fuzzy", 2, fuzz_percent=10, seed=7))
        for t in tasks:
            minor = sum(1 for c in ds.y_train[t.example_indices] if c not in t.major_classes)
            assert minor == round(0.10 * len(t.example_indices))
            assert minor == 8 and len(t.example_indices) == 80

    def test_each_example_in_one_task(self):
        ds = make_blobs(6, 20, seed=8)
        tasks = make_fuzzy_stream(ds, StreamSpec("fuzzy", 2, fuzz_percent=20, seed=9))
        if not any(t.warnings for t in tasks):
            idx = [i for t in tasks for i in t.example_indices]
            assert len(idx) == len(set(idx))

    def test_mode_guards(self):
        ds = make_blobs(4, 10, seed=4)
        with pytest.raises(ConfigurationError):
            make_fuzzy_stream(ds, StreamSpec("fuzzy", 2, fuzz_percent=0))
        with pytest.raises(ConfigurationError):
            make_fuzzy_stream(ds, StreamSpec("disjoint", 2))

    def test_manifest_schema(self):
        ds = make_blobs(4, 10, seed=4)
        tasks = make_fuzzy_stream(ds, StreamSpec("fuzzy", 2, fuzz_percent=25, seed=1))
        manifest = json.loads(stream_manifest(tasks))
        assert [m["task_index"] for m in manifest] == [0, 1]
        assert set(manifest[0]) == {"task_index", "major_classes", "example_indices"}
