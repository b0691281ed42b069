import tracemalloc

import numpy as np
import pytest

from streampca import (
    EmptyDatasetError,
    MalformedFileError,
    RngState,
    SampleStore,
    dual_pca,
    explained_variance,
    load_pgm_sequence,
    load_raw_volumes,
    read_manifest,
    save_raw_volumes,
    synth,
)


def _write_pgm(path, width, height, maxval, pixels, comment=None):
    header = b"P5\n"
    if comment:
        header += b"# " + comment + b"\n"
    header += f"{width} {height}\n{maxval}\n".encode()
    path.write_bytes(header + bytes(pixels))


class TestRawVolumes:
    def test_u8_byte_enumeration(self, tmp_path):
        (tmp_path / "a.raw").write_bytes(bytes(range(8)))
        store, meta = load_raw_volumes(str(tmp_path / "*.raw"), (2, 2, 2), "u8")
        assert store.count == 1
        assert np.allclose(store[0], np.arange(8) / 255.0, atol=1e-15)
        assert meta.shape == (2, 2, 2)
        assert meta.steps == 1

    def test_size_mismatch_names_file(self, tmp_path):
        (tmp_path / "bad.raw").write_bytes(bytes(range(7)))
        with pytest.raises(MalformedFileError) as err:
            load_raw_volumes(str(tmp_path / "*.raw"), (2, 2, 2), "u8")
        assert "bad.raw" in str(err.value)

    def test_f32_constant_fields(self, tmp_path):
        ones = np.ones(4, dtype="<f4").tobytes()
        (tmp_path / "t0.raw").write_bytes(ones)
        (tmp_path / "t1.raw").write_bytes(ones)
        store, _ = load_raw_volumes(str(tmp_path / "*.raw"), (4,), "f32", "little")
        assert store.count == 2
        assert np.array_equal(store.matrix(), np.ones((4, 2)))

    def test_no_matches(self, tmp_path):
        with pytest.raises(EmptyDatasetError):
            load_raw_volumes(str(tmp_path / "*.raw"), (4,), "u8")

    def test_u16_big_endian(self, tmp_path):
        values = np.array([0, 1, 256, 65535], dtype=">u2")
        (tmp_path / "v.raw").write_bytes(values.tobytes())
        store, _ = load_raw_volumes(str(tmp_path / "*.raw"), (4,), "u16", "big")
        assert np.allclose(store[0], values.astype(float) / 65535.0, atol=1e-15)

    def test_lexicographic_time_order(self, tmp_path):
        for name, val in (("c.raw", 3), ("a.raw", 1), ("b.raw", 2)):
            (tmp_path / name).write_bytes(bytes([val] * 4))
        store, meta = load_raw_volumes(str(tmp_path / "*.raw"), (4,), "u8")
        assert [round(store[j][0] * 255) for j in range(3)] == [1, 2, 3]
        assert [f.endswith(n) for f, n in zip(meta.source["files"], ["a.raw", "b.raw", "c.raw"])]

    def test_manifest_overrides_order(self, tmp_path):
        for name, val in (("a.raw", 1), ("b.raw", 2)):
            (tmp_path / name).write_bytes(bytes([val] * 4))
        manifest = tmp_path / "order.txt"
        manifest.write_text("b.raw\na.raw\n")
        store, _ = load_raw_volumes(
            str(tmp_path / "*.raw"), (4,), "u8", manifest=manifest
        )
        assert [round(store[j][0] * 255) for j in range(2)] == [2, 1]
        assert read_manifest(manifest) == [tmp_path / "b.raw", tmp_path / "a.raw"]

    def test_raw_value_mode(self, tmp_path):
        (tmp_path / "a.raw").write_bytes(bytes([0, 128, 255, 64]))
        store, _ = load_raw_volumes(str(tmp_path / "*.raw"), (4,), "u8", scale=False)
        assert np.array_equal(store[0], [0.0, 128.0, 255.0, 64.0])

    def test_round_trip_f32(self, tmp_path):
        data = RngState(4).gaussian((6, 5)).astype(np.float32).astype(np.float64)
        store = SampleStore.from_matrix(data)
        save_raw_volumes(store, tmp_path / "dump", "f32")
        reloaded, _ = load_raw_volumes(str(tmp_path / "dump" / "*.raw"), (6,), "f32")
        assert np.array_equal(reloaded.matrix(), data)

    def test_round_trip_u8(self, tmp_path):
        raw = np.arange(12, dtype=np.uint8).reshape(4, 3)
        store = SampleStore.from_matrix(raw / 255.0)
        save_raw_volumes(store, tmp_path / "dump", "u8")
        reloaded, _ = load_raw_volumes(str(tmp_path / "dump" / "*.raw"), (4,), "u8")
        assert np.array_equal(reloaded.matrix(), raw / 255.0)


class TestPgmSequence:
    def test_constructed_header(self, tmp_path):
        _write_pgm(tmp_path / "f0.pgm", 2, 2, 255, [0, 255, 0, 255])
        store, meta = load_pgm_sequence(tmp_path)
        assert np.array_equal(store[0], [0.0, 1.0, 0.0, 1.0])
        assert meta.shape == (2, 2)

    def test_comment_lines_skipped(self, tmp_path):
        _write_pgm(tmp_path / "f0.pgm", 2, 1, 255, [10, 20], comment=b"camera 3")
        store, _ = load_pgm_sequence(tmp_path)
        assert np.allclose(store[0], [10 / 255, 20 / 255], atol=1e-15)

    def test_mixed_dimensions(self, tmp_path):
        _write_pgm(tmp_path / "a.pgm", 2, 2, 255, [0, 0, 0, 0])
        _write_pgm(tmp_path / "b.pgm", 2, 1, 255, [0, 0])
        with pytest.raises(MalformedFileError):
            load_pgm_sequence(tmp_path)

    def test_non_p5_magic(self, tmp_path):
        (tmp_path / "a.pgm").write_bytes(b"P2\n2 1\n255\n0 0\n")
        with pytest.raises(MalformedFileError):
            load_pgm_sequence(tmp_path)

    def test_truncated_payload(self, tmp_path):
        _write_pgm(tmp_path / "a.pgm", 2, 2, 255, [0, 0, 0])
        with pytest.raises(MalformedFileError):
            load_pgm_sequence(tmp_path)

    def test_sixteen_bit_frames(self, tmp_path):
        pixels = np.array([0, 300, 65535, 12345], dtype=">u2").tobytes()
        _write_pgm(tmp_path / "a.pgm", 2, 2, 65535, pixels)
        store, meta = load_pgm_sequence(tmp_path)
        assert np.allclose(
            store[0], np.array([0, 300, 65535, 12345]) / 65535.0, atol=1e-15
        )
        assert meta.element_type == "u16"

    def test_lexicographic_time_order(self, tmp_path):
        for name, val in (("c.pgm", 30), ("a.pgm", 10), ("b.pgm", 20)):
            _write_pgm(tmp_path / name, 1, 1, 255, [val])
        store, _ = load_pgm_sequence(tmp_path)
        assert [round(store[j][0] * 255) for j in range(3)] == [10, 20, 30]

    def test_empty_directory(self, tmp_path):
        with pytest.raises(EmptyDatasetError):
            load_pgm_sequence(tmp_path)


class TestSynth:
    def test_lowrank_exact_rank(self):
        store, _ = synth("lowrank", d=50, n=30, params={"rank": 3, "sigma": 0.0}, seed=2)
        space = dual_pca(store)
        curve = explained_variance(space, store)
        assert abs(curve.values[2] - 1.0) <= 1e-9

    def test_traveling_wave_rank_two(self):
        for speed in (0.5, 1.0, 3.7):
            store, _ = synth("traveling_wave", d=64, n=40, params={"speed": speed})
            space = dual_pca(store)
            curve = explained_variance(space, store)
            assert abs(curve.values[min(1, len(curve) - 1)] - 1.0) <= 1e-9

    def test_cascade_concentrates_variance(self):
        store, _ = synth("cascade", d=300, n=80, seed=9)
        space = dual_pca(store)
        curve = explained_variance(space, store)
        assert curve.values[19] >= 0.98

    def test_rotating_blob_shape(self):
        store, meta = synth("rotating_blob", d=49, n=10, seed=1)
        assert meta.shape == (7, 7)
        assert store.dim == 49
        assert store.count == 10
        assert store.matrix().max() <= 1.0

    def test_rotating_blob_needs_square(self):
        with pytest.raises(ValueError):
            synth("rotating_blob", d=50, n=5)

    def test_rotating_blob_holds_at_most_two_copies(self):
        # the generated matrix and at most one converted copy in the store, no frame list besides
        d, n = 1024, 200
        tracemalloc.start()
        try:
            synth("rotating_blob", d=d, n=n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * d * n * 8

    def test_rotating_blob_holds_one_copy(self):
        # the frames are written column-major, so the store adopts the matrix as it is
        d, n = 1024, 200
        tracemalloc.start()
        try:
            synth("rotating_blob", d=d, n=n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * d * n * 8

    def test_bit_reproducible(self):
        for gen, params in (
            ("lowrank", {"rank": 4, "sigma": 0.1}),
            ("traveling_wave", {"speed": 2.0}),
            ("rotating_blob", {}),
            ("cascade", {"rank": 5}),
        ):
            d = 36 if gen == "rotating_blob" else 20
            a, _ = synth(gen, d=d, n=8, params=dict(params), seed=7)
            b, _ = synth(gen, d=d, n=8, params=dict(params), seed=7)
            assert np.array_equal(a.matrix(), b.matrix())
            c, _ = synth(gen, d=d, n=8, params=dict(params), seed=8)
            if gen not in ("traveling_wave", "rotating_blob"):
                assert not np.array_equal(a.matrix(), c.matrix())

    def test_meta_shape_product_equals_dim(self):
        for gen, d in (("lowrank", 24), ("rotating_blob", 25), ("cascade", 30)):
            store, meta = synth(gen, d=d, n=6, seed=3)
            assert int(np.prod(meta.shape)) == store.dim
            assert meta.steps == store.count

    def test_unknown_generator(self):
        with pytest.raises(ValueError):
            synth("fractal", d=10, n=5)

    def test_size_preconditions(self):
        with pytest.raises(ValueError):
            synth("lowrank", d=3, n=10)
        with pytest.raises(ValueError):
            synth("lowrank", d=10, n=2)
