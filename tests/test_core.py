import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streampca import core
from streampca import (
    DegenerateVectorError,
    DimensionMismatchError,
    OpCounter,
    RngState,
    SampleStore,
    normalize,
    sample_indices,
    synth,
)

as_vector = core._as_vector

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


def next_word(rng):
    """Reference: the next word of ``rng``'s SplitMix64 stream, mixed with Python ints
    one word at a time, advancing ``rng`` as the package's block draw would."""
    rng._state = (rng._state + _GAMMA) & _MASK64
    z = rng._state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def below(rng, bound):
    """Reference: an unbiased integer in [0, bound) by word-by-word rejection. A word at
    or above the largest multiple of ``bound`` that fits in 64 bits is skipped."""
    limit = (_MASK64 + 1) - (_MASK64 + 1) % bound
    while True:
        w = next_word(rng)
        if w < limit:
            return w % bound


def words_taken(rng):
    """How many words ``rng`` has drawn since it was seeded."""
    return ((rng._state - rng.seed) * pow(_GAMMA, -1, _MASK64 + 1)) & _MASK64


class TestNormalize:
    def test_three_four_five(self):
        assert np.allclose(normalize([3, 4]), [0.6, 0.8], atol=1e-15)

    def test_zero_vector(self):
        with pytest.raises(DegenerateVectorError):
            normalize([0.0, 0.0])

    def test_axis_vector(self):
        assert np.allclose(normalize([0, -2, 0]), [0, -1, 0], atol=1e-15)

    def test_rejects_a_matrix(self):
        with pytest.raises(DimensionMismatchError):
            normalize(np.eye(2))

    def test_unit_norm(self):
        v = normalize([1.0, 2.0, 3.0, 4.0])
        assert abs(np.linalg.norm(v) - 1.0) <= 1e-12

    @given(st.lists(finite, min_size=1, max_size=20))
    def test_idempotent(self, values):
        v = np.array(values)
        if np.linalg.norm(v) <= 1e-6:
            return
        once = normalize(v)
        twice = normalize(once)
        assert np.max(np.abs(twice - once)) <= 1e-12


class TestSampleIndices:
    def test_full_set_when_k_exceeds_n(self):
        rng = RngState(0)
        assert list(sample_indices(30, 40, rng)) == list(range(30))

    def test_full_branch_leaves_rng_untouched(self):
        rng = RngState(5)
        sample_indices(10, 10, rng)
        assert words_taken(rng) == 0

    def test_distinct_subset(self):
        picked = sample_indices(100, 40, RngState(3))
        assert len(picked) == 40
        assert len(set(picked.tolist())) == 40
        assert all(0 <= i < 100 for i in picked)

    def test_seeded_determinism(self):
        a = sample_indices(100, 40, RngState(7))
        b = sample_indices(100, 40, RngState(7))
        assert list(a) == list(b)

    def test_sorted_ascending(self):
        picked = sample_indices(50, 12, RngState(11))
        assert list(picked) == sorted(picked)

    def test_uniformity_smoke(self):
        rng = RngState(2024)
        hits = np.zeros(10)
        for _ in range(10000):
            hits[sample_indices(10, 1, rng)[0]] += 1
        freq = hits / 10000
        assert np.all(np.abs(freq - 0.1) <= 0.02)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            sample_indices(0, 1, RngState(0))
        with pytest.raises(ValueError):
            sample_indices(5, 0, RngState(0))

    @settings(max_examples=50)
    @given(st.integers(2, 200), st.integers(1, 199), st.integers(0, 2**32))
    def test_distinct_in_range(self, n, k, seed):
        k = min(k, n - 1)
        picked = sample_indices(n, k, RngState(seed))
        assert len(picked) == k
        assert len(set(picked.tolist())) == k
        assert picked.min() >= 0 and picked.max() < n


def _pool_sample_indices(n, k, rng):
    """Reference: the partial Fisher-Yates shuffle over a materialised range(n)."""
    if k >= n:
        return np.arange(n)
    pool = np.arange(n)
    for i in range(k):
        j = i + below(rng, n - i)
        pool[i], pool[j] = pool[j], pool[i]
    picked = pool[:k]
    picked.sort()
    return picked


class TestSparseSampleIndices:
    def test_matches_the_materialised_shuffle(self):
        cases = RngState(2027)
        for _ in range(1200):
            seed = next_word(cases)
            n = 1 + below(cases, 10 ** (1 + below(cases, 5)))
            k = 1 + below(cases, min(n + 2, 80))
            got_rng, want_rng = RngState(seed), RngState(seed)
            got = sample_indices(n, k, got_rng)
            want = _pool_sample_indices(n, k, want_rng)
            assert got.dtype == want.dtype
            assert np.array_equal(got, want), (seed, n, k)
            assert got_rng._state == want_rng._state

    def test_rejected_words_are_skipped_as_word_by_word(self):
        # a bound just above 2**62 rejects about a quarter of the words, so the draw runs
        # past its block of k words; the index set and the generator state must be those
        # of the rule that draws and rejects one word at a time
        rejected = 0
        for seed in range(200):
            n, k = 2**62 + 1 + seed, 1 + seed % 40
            got_rng, want_rng = RngState(seed), RngState(seed)
            got = sample_indices(n, k, got_rng)
            held = {}  # the materialised pool, held sparsely: range(n) does not fit
            for i in range(k):
                j = i + below(want_rng, n - i)
                held[i], held[j] = held.get(j, j), held.get(i, i)
            want = np.sort([held[i] for i in range(k)])
            assert np.array_equal(got, want), (seed, n, k)
            assert got_rng._state == want_rng._state
            rejected += words_taken(got_rng) - k
        assert rejected > 100

    def test_memory_does_not_grow_with_n(self):
        # the materialised pool at n = 10^7 would be 80 MB
        tracemalloc.start()
        try:
            picked = sample_indices(10**7, 40, RngState(4))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(set(picked.tolist())) == 40
        assert peak <= 64 * 1024


class TestRngState:
    def test_identical_seeds_identical_streams(self):
        a = RngState(123)
        b = RngState(123)
        assert np.array_equal(a.words(50), b.words(50))

    def test_block_matches_scalar_draws(self):
        # blocks of any size continue one stream: that of the scalar reference
        scalar = RngState(9)
        block = RngState(9)
        expected = [next_word(scalar) for _ in range(17)]
        got = [int(w) for m in (1, 5, 0, 11) for w in block.words(m)]
        assert got == expected
        assert block._state == scalar._state

    def test_uniform_is_one_word_each(self):
        words = RngState(2).words(6)
        assert np.array_equal(RngState(2).uniform((2, 3)).ravel(), (words >> 11) * 2.0**-53)

    def test_uniform_range(self):
        u = RngState(1).uniform(1000)
        assert u.min() >= 0.0 and u.max() < 1.0

    def test_gaussian_moments(self):
        z = RngState(4).gaussian(20000)
        assert abs(z.mean()) < 0.03
        assert abs(z.std() - 1.0) < 0.03

    def test_gaussian_reproducible_shapes(self):
        a = RngState(8).gaussian((3, 4))
        b = RngState(8).gaussian(12).reshape(3, 4)
        assert np.array_equal(a, b)

    def test_gaussian_draws_are_frozen(self):
        # the digest of the draws as first released; any change of the stream shows here
        digest = hashlib.sha256()
        for size in [(2000, 300), 1, 7, 8]:
            digest.update(RngState(0).gaussian(size).tobytes())
        digest.update(np.float64(RngState(0).gaussian(1)[0]).tobytes())
        assert digest.hexdigest() == (
            "1c9b08d68bf86e8db0fa064d2a83bb9832321f7c22f5720c614a0c7db52aefa8"
        )

    def test_gaussian_peak_memory(self):
        rng = RngState(0)
        tracemalloc.start()
        try:
            out = rng.gaussian((2000, 300))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * out.nbytes

    def test_below_is_unbiased_smoke(self):
        # one index of range(3) is one rejection draw below 3, the draws of the word-by-word rule
        rng = RngState(77)
        draws = [sample_indices(3, 1, rng)[0] for _ in range(9000)]
        counts = np.bincount(draws, minlength=3) / 9000
        assert np.all(np.abs(counts - 1 / 3) < 0.02)


class TestOpCounter:
    def test_scripted_sequence_totals(self):
        counter = OpCounter()
        # 3 dots in step 1, 5 in step 2: totals must match the script exactly
        counter.charge(1, 3)
        counter.charge(2, 5)
        assert counter.dot_products == 8
        assert counter.per_step_log == [(1, 3), (2, 5)]

    def test_log_sums_to_total(self):
        counter = OpCounter()
        rng = RngState(0)
        for step in range(1, 21):
            counter.charge(step, below(rng, 7))
        assert sum(c for _, c in counter.per_step_log) == counter.dot_products

    def test_monotone(self):
        counter = OpCounter()
        seen = [counter.dot_products]
        for step, k in enumerate((1, 3, 2), start=1):
            counter.charge(step, k)
            seen.append(counter.dot_products)
        assert all(b >= a for a, b in zip(seen, seen[1:]))


class TestSampleStore:
    def test_append_and_dims(self):
        store = SampleStore(3)
        store.append([1, 2, 3])
        store.append(np.array([4.0, 5.0, 6.0]))
        assert store.count == 2
        assert store.dim == 3
        assert np.array_equal(store.matrix(), [[1, 4], [2, 5], [3, 6]])

    def test_rejects_wrong_length(self):
        store = SampleStore(3)
        with pytest.raises(DimensionMismatchError):
            store.append([1, 2])

    def test_rejects_a_dimension_below_one(self):
        with pytest.raises(ValueError):
            SampleStore(0)

    def test_from_matrix_rejects_a_vector(self):
        with pytest.raises(DimensionMismatchError):
            SampleStore.from_matrix(np.ones(3))

    def test_empty_store_matrix(self):
        # no samples: a (dim, 0) array, or ``out`` itself as given
        store = SampleStore(3)
        assert store.matrix().shape == (3, 0)
        out = np.empty((3, 0))
        assert store.matrix(columns=[], out=out) is out

    def test_widens_to_float64(self):
        store = SampleStore(2)
        store.append(np.array([1, 2], dtype=np.float32))
        assert store[0].dtype == np.float64

    def test_insertion_is_time_order(self):
        store = SampleStore(1)
        for j in range(5):
            store.append([float(j)])
        assert [float(store[j][0]) for j in range(5)] == [0.0, 1.0, 2.0, 3.0, 4.0]

    def test_from_matrix_round_trip(self):
        m = RngState(3).gaussian((4, 6))
        store = SampleStore.from_matrix(m)
        assert np.array_equal(store.matrix(), m)

    def test_from_matrix_checks_the_matrix_in_place(self):
        # blob's 4096 x 800 matrix is 26 MB; what the store allocates is its 800 sample views
        m = synth("rotating_blob", d=4096, n=800)[0].matrix()
        tracemalloc.start()
        try:
            store = SampleStore.from_matrix(m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert store.matrix() is m
        assert peak <= 256 * 1024

    def test_matrix_column_selection(self):
        m = RngState(5).gaussian((3, 5))
        store = SampleStore.from_matrix(m)
        assert np.array_equal(store.matrix(columns=[4, 0]), m[:, [4, 0]])

    def test_matrix_fills_out(self):
        store = SampleStore.from_matrix(RngState(5).gaussian((3, 5)))
        rows = np.empty((3, 3))  # a (columns, dim) workspace, filled through its transpose
        out = rows[:2].T
        assert store.matrix(columns=[4, 0], out=out) is out
        assert np.array_equal(out, store.matrix(columns=[4, 0]))

    def test_adopts_a_column_major_float64_matrix(self):
        m = np.asfortranarray(RngState(3).gaussian((4, 6)))
        store = SampleStore.from_matrix(m)
        assert all(np.shares_memory(store[j], m) for j in range(6))
        # adopted, so frozen: the store's samples cannot change under it
        assert not m.flags.writeable
        with pytest.raises(ValueError):
            m[0, 0] = 99.0

    def test_matrix_is_the_adopted_buffer_until_an_append(self):
        m = np.asfortranarray(RngState(3).gaussian((4, 6)))
        store = SampleStore.from_matrix(m)
        assert store.matrix() is m and not store.matrix().flags.writeable
        store.append(np.arange(4.0))
        x = store.matrix()
        assert x.flags.c_contiguous and x.flags.writeable and not np.shares_memory(x, m)
        assert np.array_equal(x, np.column_stack([m, np.arange(4.0)]))

    def test_copies_any_other_matrix_once(self):
        m = RngState(3).gaussian((4, 6))
        kept = m.copy()
        store = SampleStore.from_matrix(m)
        assert m.flags.writeable
        m[:] = 99.0
        assert np.array_equal(store.matrix(), kept)
        assert store[0].base is not None and store[0].base is store[5].base

    def test_append_shares_a_sample_no_writeable_array_reaches(self):
        source = SampleStore.from_matrix(np.asfortranarray(RngState(6).gaussian((3, 4))))
        owned = np.array([1.0, 2.0, 3.0])
        owned.flags.writeable = False
        store = SampleStore(3)
        for sample in [*source, owned]:
            store.append(sample)
        assert all(store[j] is source[j] for j in range(4)) and store[4] is owned

    def test_append_copies_a_read_only_view_of_a_writeable_buffer(self):
        buf = RngState(6).gaussian((4, 3))  # C-order: each row is one contiguous sample
        kept = buf.copy()
        store = SampleStore(3)
        for j in range(4):
            view = buf[j]
            view.flags.writeable = False
            store.append(view)
        buf[:] = 99.0
        assert np.array_equal(store.matrix(), kept.T)

    def test_append_copies_a_strided_read_only_vector(self):
        m = RngState(6).gaussian((3, 4))
        m.flags.writeable = False
        store = SampleStore(3)
        store.append(m[:, 1])  # a column of a C-order matrix: strided
        assert store[0].flags.c_contiguous and not np.shares_memory(store[0], m)
        assert np.array_equal(store[0], m[:, 1])

    @pytest.mark.parametrize("sample", [[1, 2], np.array([1, 2], dtype=np.float32)], ids=["list", "f32"])
    def test_append_freezes_the_vector_it_converts(self, sample, monkeypatch):
        converted = []

        def spy(x):
            converted.append(as_vector(x))
            return converted[-1]

        monkeypatch.setattr(core, "_as_vector", spy)
        store = SampleStore(2)
        store.append(sample)
        assert store[0] is converted[0]
        assert not store[0].flags.writeable

    @pytest.mark.parametrize("build", ["append", "from_matrix"])
    def test_samples_are_read_only(self, build):
        m = RngState(4).gaussian((3, 4))
        if build == "append":
            store = SampleStore(3)
            for j in range(4):
                store.append(m[:, j])
        else:
            store = SampleStore.from_matrix(m)
        with pytest.raises(ValueError):
            store[0][0] = 99.0
        with pytest.raises(ValueError):
            next(iter(store))[1] = 99.0
        assert np.array_equal(store.matrix(), m)


def test_package_prng_is_splitmix64():
    # first outputs for seed 1234567 of the documented generator
    z = int(RngState(1234567).words(1)[0])
    s = (1234567 + 0x9E3779B97F4A7C15) & ((1 << 64) - 1)
    s = ((s ^ (s >> 30)) * 0xBF58476D1CE4E5B9) & ((1 << 64) - 1)
    s = ((s ^ (s >> 27)) * 0x94D049BB133111EB) & ((1 << 64) - 1)
    s ^= s >> 31
    assert z == s
