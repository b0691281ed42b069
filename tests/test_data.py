import time
import tracemalloc

import numpy as np
import pytest

import streampca.data as data_module
from streampca import (
    EmptyDatasetError,
    MalformedFileError,
    NonFiniteSampleError,
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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_volume_names_its_time_step(self, tmp_path, bad):
        for t in range(4):
            values = np.full(4, float(t), dtype="<f4")
            if t == 2:
                values[1] = bad
            (tmp_path / f"t{t}.raw").write_bytes(values.tobytes())
        with pytest.raises(NonFiniteSampleError, match="^time-step 3 has NaN or infinite entries$"):
            load_raw_volumes(str(tmp_path / "*.raw"), (4,), "f32")

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

    @pytest.mark.parametrize("scale", [True, False], ids=["scaled", "raw-values"])
    @pytest.mark.parametrize("byte_order", ["little", "big"])
    @pytest.mark.parametrize(
        "element_type, code, maxval",
        [("f32", "f4", None), ("u8", "u1", 255.0), ("u16", "u2", 65535.0)],
    )
    def test_values_widen_and_scale_exactly(
        self, tmp_path, element_type, code, maxval, byte_order, scale
    ):
        dt = np.dtype(("<" if byte_order == "little" else ">") + code)
        columns = []
        for t in range(3):
            if maxval is None:
                payload = RngState(t).gaussian(64).astype(dt).tobytes()
            else:  # every byte value, in a different order at each time-step
                payload = bytes(((np.arange(64 * dt.itemsize) * 97 + 31 * t) % 256).tolist())
            (tmp_path / f"t{t}.raw").write_bytes(payload)
            expected = np.frombuffer(payload, dt).astype(np.float64)
            if scale and maxval is not None:
                expected = expected / maxval
            columns.append(expected)
        store, meta = load_raw_volumes(
            str(tmp_path / "*.raw"), (64,), element_type, byte_order, scale=scale
        )
        assert store.matrix().tobytes(order="F") == np.stack(columns, axis=1).tobytes(order="F")
        assert meta.source["scaled"] is (scale and maxval is not None)


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

    @pytest.mark.parametrize("scale", [True, False], ids=["scaled", "raw-values"])
    @pytest.mark.parametrize("maxval", [255, 1000, 65535])
    def test_pixels_widen_and_scale_exactly(self, tmp_path, maxval, scale):
        dt = np.dtype(np.uint8) if maxval < 256 else np.dtype(">u2")
        columns = []
        for t in range(3):
            pixels = ((np.arange(12) * 97 + 31 * t) % (maxval + 1)).astype(dt).tobytes()
            _write_pgm(tmp_path / f"f{t}.pgm", 4, 3, maxval, pixels, comment=b"frame")
            expected = np.frombuffer(pixels, dt).astype(np.float64)
            columns.append(expected / maxval if scale else expected)
        store, meta = load_pgm_sequence(tmp_path, scale=scale)
        assert store.matrix().tobytes(order="F") == np.stack(columns, axis=1).tobytes(order="F")
        assert meta.shape == (3, 4) and meta.element_type == ("u8" if maxval < 256 else "u16")

    @pytest.mark.parametrize(
        "header",
        [
            b"P5# a comment straight after the magic\n2 1\n255\n",
            b"P5\n2 # the width\n# the height\n1\n# the maxval\n255\n",
            b"P5\r2\r# a comment with a CR line end\r1\r255\r",
            b"P5\r\n# CR LF line ends\r\n2 1\r\n255\n",
        ],
        ids=["after-magic", "between-fields", "cr", "crlf"],
    )
    def test_header_comments_and_line_ends(self, tmp_path, header):
        (tmp_path / "f.pgm").write_bytes(header + bytes([51, 102]))
        store, meta = load_pgm_sequence(tmp_path)
        assert np.array_equal(store[0], [51 / 255, 102 / 255])
        assert meta.shape == (1, 2)

    @pytest.mark.parametrize(
        "payload, message",
        [
            (b"P5\n2#glued\n1\n255\n\x00\x00", r"non-numeric .* \[b'2#glued', b'1', b'255'\]"),
            (b"P5 2 1 255#glued\n\x00\x00", r"non-numeric .* \[b'2', b'1', b'255#glued'\]"),
            (b"P5\n2 1\n", "truncated header"),
            (b"P5\n2 1\n# a comment that never ends", "truncated header"),
            (b"P5 0 1 255\n\x00", "bad dimensions 0x1 maxval 255"),
            (b"P5 1 1 65536\n\x00\x00", "bad dimensions 1x1 maxval 65536"),
            (b"P5 2 1 255", "pixel payload holds 0 bytes, expected 2"),
            (b"P5 2 1 1000\n\x00\x00\x00", "pixel payload holds 3 bytes, expected 4"),
        ],
        ids=[
            "comment-glued-to-width", "comment-glued-to-maxval", "two-fields", "endless-comment",
            "zero-width", "maxval-above-16-bits", "no-pixels", "short-16-bit-pixels",
        ],
    )
    def test_malformed_header_is_rejected(self, tmp_path, payload, message):
        (tmp_path / "f.pgm").write_bytes(payload)
        with pytest.raises(MalformedFileError, match=message):
            load_pgm_sequence(tmp_path)

    def test_megabyte_comment_without_a_line_break_is_rejected_quickly(self, tmp_path):
        (tmp_path / "f.pgm").write_bytes(b"P5" + b"#" * (1 << 20))
        start = time.perf_counter()
        with pytest.raises(MalformedFileError, match="truncated header"):
            load_pgm_sequence(tmp_path)
        assert time.perf_counter() - start < 0.25


class TestOneBuffer:
    @staticmethod
    def _assert_one_buffer(store, expected):
        x = store.matrix()
        assert x is store.matrix() and x.flags.f_contiguous and not x.flags.writeable
        assert all(np.shares_memory(store[j], x) for j in range(store.count))
        assert np.array_equal(x, expected)

    def test_raw_volumes_fill_one_buffer(self, tmp_path):
        data = RngState(2).gaussian((6, 5)).astype(np.float32).astype(np.float64)
        save_raw_volumes(SampleStore.from_matrix(data), tmp_path, "f32")
        store, _ = load_raw_volumes(str(tmp_path / "*.raw"), (6,), "f32")
        self._assert_one_buffer(store, data)

    def test_pgm_frames_fill_one_buffer(self, tmp_path):
        frames = np.arange(4 * 6).reshape(4, 6) * 7 % 256
        for t in range(4):
            _write_pgm(tmp_path / f"f{t}.pgm", 3, 2, 255, frames[t].tolist())
        store, _ = load_pgm_sequence(tmp_path)
        self._assert_one_buffer(store, frames.T / 255.0)


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

    @pytest.mark.parametrize(
        "gen, params, copies",
        [
            # the argument is built in place in the column-major output
            ("traveling_wave", {"speed": 1.3}, 1.5),
            # the noise buffer takes a @ b, and the store makes its one column-major copy
            ("lowrank", {"rank": 5, "sigma": 0.1}, 2.5),
            ("cascade", {}, 2.5),
        ],
    )
    def test_generator_peak_copies(self, gen, params, copies):
        d, n = 1024, 200
        tracemalloc.start()
        try:
            synth(gen, d=d, n=n, params=params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < copies * d * n * 8

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

    @pytest.mark.parametrize(
        "gen, key",
        [("lowrank", "speed"), ("traveling_wave", "rank"), ("rotating_blob", "sigma"), ("cascade", "sigam")],
    )
    def test_rejects_parameter_it_does_not_read(self, monkeypatch, gen, key):
        def no_draw(seed):
            raise AssertionError("the generator drew numbers")

        monkeypatch.setattr(data_module, "RngState", no_draw)
        with pytest.raises(ValueError, match=f"{gen} takes no parameter '{key}'"):
            synth(gen, d=36, n=8, params={key: 1.0})

    def test_size_preconditions(self):
        with pytest.raises(ValueError):
            synth("lowrank", d=3, n=10)
        with pytest.raises(ValueError):
            synth("lowrank", d=10, n=2)
