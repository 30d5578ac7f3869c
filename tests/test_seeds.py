"""Bulk seeding: every seed and offset equals numpy's own, entropy by entropy."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from socialcell import harness, radio, seeds
from socialcell.config import ScenarioConfig

#: Ints of one, two and three or more 32-bit words, zero included.
ENTROPY_INTS = st.one_of(st.just(0), st.integers(0, 2**32 - 1),
                         st.integers(2**32, 2**64 - 1), st.integers(2**64, 2**140))
ENTROPIES = st.lists(ENTROPY_INTS, min_size=1, max_size=6)
HIGHS = (1, 2, 3, 16, 1000, 2**31 + 1, 2**32)


def as_batch(entropies: list[list[int]]) -> list:
    """Entropies of one item count as items: object arrays of Python ints."""
    return [np.array([e[i] for e in entropies], dtype=object)
            for i in range(len(entropies[0]))]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(entropy=ENTROPIES, n_words=st.integers(1, 9))
@example(entropy=[0], n_words=1)
@example(entropy=[2**64, 0, 2**32, 1, 5, 2**140], n_words=8)
def test_one_entropy_equals_numpy(entropy, n_words):
    ss = np.random.SeedSequence(entropy)
    for dtype in (np.uint32, np.uint64):
        got = seeds.generate_states(entropy, n_words, dtype)
        assert got.dtype == dtype and got.shape == (1, n_words)
        np.testing.assert_array_equal(got[0], ss.generate_state(n_words, dtype))
    for high in HIGHS:
        assert int(seeds.first_integers(entropy, high)[0]) == \
            int(np.random.default_rng(entropy).integers(high))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(batch=st.integers(1, 6).flatmap(
    lambda n: st.lists(st.lists(ENTROPY_INTS, min_size=n, max_size=n), min_size=1,
                       max_size=40)))
def test_a_batch_equals_numpy_entropy_by_entropy(batch):
    """Entropies of one batch may split into different word counts."""
    items = as_batch(batch)
    states = seeds.generate_states(items, 2, np.uint64)
    for entropy, state in zip(batch, states):
        np.testing.assert_array_equal(
            state, np.random.SeedSequence(entropy).generate_state(2, np.uint64))
    for high in HIGHS:
        want = [int(np.random.default_rng(e).integers(high)) for e in batch]
        assert seeds.first_integers(items, high).tolist() == want


def test_lemire_rejections_fall_back_to_numpy(monkeypatch):
    """At high = 2**31 + 1 about half the first draws are rejected, and each
    rejected one, only, is drawn by numpy."""
    entropies = [[7, k] for k in range(200)]
    want = [int(np.random.default_rng(e).integers(2**31 + 1)) for e in entropies]
    calls = []
    default_rng = np.random.default_rng

    def counted(entropy):
        calls.append(entropy)
        return default_rng(entropy)

    monkeypatch.setattr(np.random, "default_rng", counted)
    got = seeds.first_integers([7, np.arange(200)], 2**31 + 1)
    assert got.tolist() == want
    assert 50 < len(calls) < 150
    monkeypatch.setattr(np.random, "default_rng", default_rng)
    assert seeds.first_integers([7, np.arange(200)], 16).tolist() == \
        [int(np.random.default_rng(e).integers(16)) for e in entropies]


def test_items_broadcast_and_errors_match_numpy():
    got = seeds.generate_states([3, np.arange(4, dtype=np.uint64), 2**40], 1)
    assert got.shape == (4, 1)
    for k in range(4):
        assert got[k, 0] == np.random.SeedSequence([3, k, 2**40]).generate_state(1)[0]
    with pytest.raises(ValueError, match="non-negative"):
        seeds.generate_states([-1], 1)
    with pytest.raises(TypeError):
        seeds.generate_states([1.5], 1)
    with pytest.raises(ValueError):
        seeds.generate_states([1], 1, np.int64)
    # numpy's 64-bit draws above 2**32, and its refusal of an empty range
    assert seeds.first_integers([5, np.arange(3)], 2**33).tolist() == \
        [int(np.random.default_rng([5, k]).integers(2**33)) for k in range(3)]
    with pytest.raises(ValueError):
        seeds.first_integers([5], 0)


def test_an_empty_batch_gives_empty_arrays():
    """A batch of no entropies gives the arrays of numpy's results of none:
    (0, n_words) states, (0,) draws, and no seeds or offsets for no cells."""
    empty = [1, 0, np.array([], dtype=np.int64)]
    for dtype in (np.uint32, np.uint64):
        got = seeds.generate_states(empty, 3, dtype)
        assert got.dtype == dtype and got.shape == (0, 3)
    for high in HIGHS + (2**33,):
        got = seeds.first_integers(empty, high)
        assert got.dtype == np.int64 and got.shape == (0,)
    got = harness.replication_seeds(1, 0, [])
    assert got.dtype == np.uint64 and got.shape == (0, 3)
    assert radio.subcarrier_offsets(got[:, 0], 4, 60, 64).shape == (0, 64)


def test_desk_cells_bulk_seeds_and_offsets_equal_numpy():
    """Every cell of the desk sweep (seed 1, N = 4/8/12/16, M = 60, 40
    replications): its bulk stream seeds equal `replication_seed` and
    numpy's SeedSequence, and its bulk offsets numpy's default_rng."""
    cfg = ScenarioConfig(n_ues=60)
    reps = range(40)
    for point, n_scbs in enumerate((4, 8, 12, 16)):
        bulk = harness.replication_seeds(cfg.seed, point, reps)
        for r in reps:
            for stream in range(3):
                want = int(np.random.SeedSequence([cfg.seed, point, r, stream])
                           .generate_state(1, np.uint64)[0])
                assert int(bulk[r, stream]) == want
                assert harness.replication_seed(cfg.seed, point, r, stream) == want
        topology = bulk[:, harness.STREAM_TOPOLOGY]
        offsets = radio.subcarrier_offsets(topology, n_scbs, cfg.n_ues, cfg.subcarriers)
        nodes = [(0, i) for i in range(n_scbs)] + [(1, m) for m in range(cfg.n_ues)]
        for seed, row in zip(topology.tolist(), offsets):
            assert row.tolist() == [
                int(np.random.default_rng([seed, kind, i]).integers(cfg.subcarriers))
                for kind, i in nodes]
