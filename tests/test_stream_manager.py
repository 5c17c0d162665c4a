"""Buffer admission, eviction, and sampling semantics."""

from collections import deque
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from afafed.stream_manager import (
    DrawSize,
    StreamBuffer,
    admit,
    evict_oldest_if_surplus,
    sample_minibatch,
)


def make_buffer(capacity, minibatch_size, n=1000):
    # row r of the shard is the example tagged r: x = [r], y = r
    tags = np.arange(n, dtype=np.float64)
    return StreamBuffer(tags[:, None], tags, capacity=capacity, minibatch_size=minibatch_size)


def fill(buf, count):
    for _ in range(count):
        admit(buf)


def tags_of(buf):
    return buf.y[buf.rows].astype(int).tolist()


def test_admit_evicts_oldest_when_full():
    buf = make_buffer(capacity=4, minibatch_size=2)
    fill(buf, 4)
    assert tags_of(buf) == [0, 1, 2, 3]
    evicted = admit(buf)
    assert tags_of(buf) == [1, 2, 3, 4]
    assert evicted == 0


def test_admit_returns_none_with_free_space():
    buf = make_buffer(capacity=3, minibatch_size=1)
    assert admit(buf) is None
    assert admit(buf) is None
    assert buf.count == 2


def test_arrival_indices_are_sequential():
    buf = make_buffer(capacity=2, minibatch_size=1)
    fill(buf, 3)
    assert tags_of(buf) == [1, 2]
    assert buf.next_arrival_index == 3


def test_surplus_eviction_never_breaks_readiness():
    buf = make_buffer(capacity=8, minibatch_size=3)
    fill(buf, 5)
    assert evict_oldest_if_surplus(buf) == 0
    assert evict_oldest_if_surplus(buf) == 1
    assert buf.count == 3 and buf.ready
    # exactly one minibatch left: eviction must refuse
    assert evict_oldest_if_surplus(buf) is None
    assert buf.count == 3


def test_sampling_requires_full_minibatch():
    buf = make_buffer(capacity=4, minibatch_size=3)
    rng = np.random.default_rng(0)
    fill(buf, 2)
    assert not buf.ready
    assert sample_minibatch(buf, rng) is None
    admit(buf)
    assert buf.ready
    X, y = sample_minibatch(buf, rng)
    assert X.shape == (3, 1) and y.shape == (3,)


def test_sampling_leaves_buffer_untouched_and_is_without_replacement():
    buf = make_buffer(capacity=5, minibatch_size=3)
    fill(buf, 5)
    rng = np.random.default_rng(3)
    before = tags_of(buf)
    for _ in range(50):
        X, y = sample_minibatch(buf, rng)
        got = sorted(int(v) for v in y)
        assert len(set(got)) == 3          # distinct entries
        assert set(got) <= set(before)
        np.testing.assert_array_equal(X[:, 0], y)
    assert tags_of(buf) == before


def test_pair_frequencies_are_uniform():
    # capacity 4, minibatch 2: six possible pairs, each expected 1/6 of draws
    buf = make_buffer(capacity=4, minibatch_size=2)
    fill(buf, 4)
    rng = np.random.default_rng(1902)
    n = 10_000
    counts = {frozenset(p): 0 for p in combinations([0, 1, 2, 3], 2)}
    for _ in range(n):
        _, y = sample_minibatch(buf, rng)
        counts[frozenset(int(v) for v in y)] += 1
    p = 1.0 / 6.0
    sigma = np.sqrt(p * (1 - p) / n)
    for pair, c in counts.items():
        assert abs(c / n - p) <= 3 * sigma, (pair, c / n)


def test_readiness_is_permanent_under_protocol_operations():
    # the trainer only ever admits or surplus-evicts; once warm, the buffer
    # must be able to serve a minibatch after every such operation
    rng = np.random.default_rng(77)
    buf = make_buffer(capacity=10, minibatch_size=4)
    became_ready = False
    for step in range(2000):
        if rng.random() < 0.5:
            admit(buf)
        else:
            evict_oldest_if_surplus(buf)
        if buf.ready:
            became_ready = True
        if became_ready:
            assert buf.ready
            assert sample_minibatch(buf, rng) is not None


def test_window_holds_only_recent_arrivals():
    # after a long stream, samples come from the newest `capacity` arrivals,
    # unlike a replay over the whole history
    buf = make_buffer(capacity=6, minibatch_size=2)
    fill(buf, 100)
    rng = np.random.default_rng(5)
    seen = set()
    for _ in range(300):
        _, y = sample_minibatch(buf, rng)
        seen.update(int(v) for v in y)
    assert seen == set(range(94, 100))


def test_stream_wraps_around_the_shard():
    # arrival a is row a % n: with a 4-row shard, 6 slots hold rows 2,3,0,1,2,3
    rows = np.arange(4, dtype=np.float64)
    buf = StreamBuffer(rows[:, None], rows, capacity=6, minibatch_size=2)
    fill(buf, 10)
    assert buf.rows.tolist() == [a % 4 for a in range(4, 10)]


def test_constructor_validation():
    with pytest.raises(ValueError):
        make_buffer(capacity=0, minibatch_size=1)
    with pytest.raises(ValueError):
        make_buffer(capacity=4, minibatch_size=5)
    with pytest.raises(ValueError):
        make_buffer(capacity=4, minibatch_size=0)
    with pytest.raises(ValueError):
        make_buffer(capacity=4, minibatch_size=1, n=0)


# ---------------- the window against a reference FIFO ---------------- #


@st.composite
def buffer_runs(draw):
    n = draw(st.integers(1, 9))                     # shard rows
    capacity = draw(st.integers(1, 14))             # may exceed n: repeated rows
    minibatch = draw(st.integers(1, capacity))
    ops = draw(st.lists(st.sampled_from(["admit", "evict", "sample"]), max_size=80))
    return n, capacity, minibatch, ops, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=300, deadline=None)
@given(buffer_runs())
# a 7-slot window over a 3-row shard: repeated rows, straddling the wrap
@example((3, 7, 2, ["admit"] * 11 + ["sample", "evict", "sample", "admit", "sample"], 5))
# a full 7-slot window whose oldest row is the shard's last (first = n - 1):
# the sampled slice ends on the last slot of the shared ring of row numbers
@example((3, 7, 2, ["admit"] * 9 + ["sample"], 6))
def test_window_matches_a_fifo_of_arrivals(run):
    # the reference stores arrival indices in a deque, as the buffer once
    # stored examples; arrival a is row a % n of the shard
    n, capacity, minibatch, ops, seed = run
    rng_data = np.random.default_rng(seed)
    X = rng_data.standard_normal((n, 3))
    y = rng_data.standard_normal(n)
    buf = StreamBuffer(X, y, capacity=capacity, minibatch_size=minibatch)
    ref = deque()
    next_arrival = 0
    rng = np.random.default_rng(seed)
    ref_rng = np.random.default_rng(seed)
    for op in ops:
        if op == "admit":
            evicted = admit(buf)
            want = ref.popleft() if len(ref) >= capacity else None
            ref.append(next_arrival)
            next_arrival += 1
            assert evicted == want
        elif op == "evict":
            evicted = evict_oldest_if_surplus(buf)
            want = ref.popleft() if len(ref) > minibatch else None
            assert evicted == want
        else:
            batch = sample_minibatch(buf, rng)
            if len(ref) < minibatch:
                assert batch is None
            else:
                idx = ref_rng.choice(len(ref), size=minibatch, replace=False)
                rows = [ref[i] % n for i in idx]
                np.testing.assert_array_equal(batch[0], X[rows])
                np.testing.assert_array_equal(batch[1], y[rows])
        assert buf.count == len(ref)
        assert buf.next_arrival_index == next_arrival
        assert buf.rows.tolist() == [a % n for a in ref]
        assert buf.ready == (len(ref) >= minibatch)
        assert rng.bit_generator.state == ref_rng.bit_generator.state


# ---------------- the draw size against a plain int ---------------- #


@st.composite
def draw_windows(draw):
    capacity = draw(st.integers(1, 40))
    n = draw(st.one_of(st.integers(1, capacity), st.integers(capacity, 3 * capacity)))
    count = draw(st.integers(1, capacity))
    minibatch = draw(st.integers(1, count))
    first = draw(st.integers(0, n - 1))             # the window's oldest row
    return n, capacity, count, minibatch, first, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(draw_windows())
# a full window whose oldest row is the shard's last: the ring's last slot
@example((3, 7, 7, 7, 2, 0))
def test_draw_size_draws_what_the_plain_int_draws(window):
    n, capacity, count, minibatch, first, seed = window
    tags = np.arange(n, dtype=np.float64)
    buf = StreamBuffer(tags[:, None], tags, capacity=capacity, minibatch_size=minibatch)
    buf.next_arrival_index, buf.count = first + count, count
    size = buf._draw_size
    assert type(size) is DrawSize and size == minibatch
    assert type(buf.minibatch_size) is int

    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = rng.choice(buf.rows, size=size, replace=False)
    want = ref_rng.choice(buf.rows, size=minibatch, replace=False)
    assert got.dtype == want.dtype and got.shape == want.shape
    np.testing.assert_array_equal(got, want)
    assert rng.bit_generator.state == ref_rng.bit_generator.state

    # the protocol answers np.prod with numpy's own value and type
    for kwargs in ({}, {"dtype": np.intp}):
        answer, numpys = np.prod(size, **kwargs), np.prod(minibatch, **kwargs)
        assert type(answer) is type(numpys) and answer == numpys
    # functions it does not answer see plain ints, also inside a sequence
    for call in (lambda m: np.sum(m), lambda m: np.prod(m, dtype=np.float64),
                 lambda m: np.atleast_1d(m), lambda m: np.stack([m, 2])):
        answer, numpys = call(size), call(minibatch)
        assert type(answer) is type(numpys)
        np.testing.assert_array_equal(answer, numpys)
        assert np.asarray(answer).dtype == np.asarray(numpys).dtype


def test_sample_minibatch_draws_with_the_buffers_one_size_object():
    # built once per buffer, not once per draw
    buf = make_buffer(capacity=8, minibatch_size=5)
    fill(buf, 8)
    sizes = []

    class Recorder:
        def choice(self, rows, size, replace):
            sizes.append(size)
            return np.random.default_rng(0).choice(rows, size=size, replace=replace)

    for _ in range(3):
        sample_minibatch(buf, Recorder())
    assert len(sizes) == 3 and all(size is buf._draw_size for size in sizes)
