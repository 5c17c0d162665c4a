"""random_streams: numpy's SeedSequence streams, seeded in one batch, bit for bit."""

import os
import pickle
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import afafed
from afafed.network_sim import random_streams

WORDS = st.integers(0, 2**32 - 1)
KEYS = st.lists(st.tuples(WORDS, WORDS), min_size=1, max_size=12)
SEED_EDGES = (0, 2**32 - 1, 2**32, 2**63 - 1)


def reference(seed, key):
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


def assert_reference_streams(seed, keys):
    streams = random_streams(seed, keys)
    assert len(streams) == len(keys)
    for key, rng in zip(keys, streams):
        ref = reference(seed, key)
        assert rng.bit_generator.state == ref.bit_generator.state, key
        assert rng.random() == ref.random()


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**63 - 1), keys=KEYS)
@example(seed=0, keys=[(0, 0)])
@example(seed=2**32 - 1, keys=[(2**32 - 1, 0), (0, 2**32 - 1)])
@example(seed=2**32, keys=[(11, 0), (10, 0), (10, 1)])
@example(seed=2**63 - 1, keys=[(3, 7), (3, 7)])
@example(seed=2**64 - 1, keys=[(2**32 - 1, 2**32 - 1)])
def test_every_stream_is_numpys_seed_sequence_stream(seed, keys):
    assert_reference_streams(seed, keys)


@settings(max_examples=5, deadline=None)
@given(seed=st.integers(0, 2**63 - 1) | st.sampled_from(SEED_EDGES))
@pytest.mark.parametrize("n", [1, 400])
def test_a_batch_of_400_keys_and_a_batch_of_one(n, seed):
    # 400 is a K = 100 engine's domains 0 to 3
    assert_reference_streams(seed, [(domain, cid) for domain in range(4) for cid in range(100)][:n])


def test_a_stream_survives_pickling():
    rng = random_streams(5, [(0, 3)])[0]
    rng.random()
    copy = pickle.loads(pickle.dumps(rng))
    assert copy.bit_generator.state == rng.bit_generator.state
    assert copy.random() == rng.random()


def test_an_empty_batch_seeds_nothing():
    assert random_streams(1, []) == []


@pytest.mark.parametrize("seed, keys, message", [
    (-1, [(0, 0)], "seed -1 is outside"),
    (2**64, [(0, 0)], "outside"),
    (1, [(0,)], "pair"),
    (1, [(0, 1, 2)], "pair"),
    (1, [(0, 1), (2,)], "pair"),
    (1, [(0, 1), (2, 3, 4)], "pair"),
    (1, [0, 1], "pair"),
    (1, [(-1, 0)], r"\[0, 2\*\*32\)"),
    (1, [(0, 2**32)], r"\[0, 2\*\*32\)"),
    (1, [(0, 2**64)], r"\[0, 2\*\*32\)"),
    (1, [(0, 1.0)], r"\[0, 2\*\*32\)"),
])
def test_what_numpy_would_pack_into_other_words_is_refused(seed, keys, message):
    # SeedSequence accepts all of these, but not with the 6-word layout mirrored
    with pytest.raises(ValueError, match=message):
        random_streams(seed, keys)


def test_importing_afafed_leaves_numpy_random_unimported():
    # the ISeedSequence subclass is built on first use
    src = os.path.dirname(os.path.dirname(afafed.__file__))
    code = "import sys, afafed, afafed.cli; print('numpy.random' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=60, check=True)
    assert done.stdout.strip() == "False"
