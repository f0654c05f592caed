"""Batch-schedule realization, the counting identity, and determinism."""

import numpy as np
import pytest
from hypothesis import given, seed, settings, strategies as st

from batchstab import schedule as schedule_mod
from batchstab.errors import ConfigError
from batchstab.schedule import (
    CountingVerdict,
    RealizedSchedule,
    ScheduleSpec,
    check_counting_lemma,
    realize,
)
from batchstab.seeding import substream


def rows(sched):
    """The indices each step selects, 1-based and sorted."""
    return [tuple(sorted(i + 1 for i in row)) for row in sched.batches.tolist()]


def test_full_batch_selects_everything():
    sched = realize(ScheduleSpec("full_batch", n=3, m=3, T=2))
    assert rows(sched) == [(1, 2, 3), (1, 2, 3)]


def test_round_robin_cycles_one_based():
    sched = realize(ScheduleSpec("round_robin", n=3, m=1, T=5))
    assert rows(sched) == [(1,), (2,), (3,), (1,), (2,)]


def test_round_robin_blocks_wrap_and_stay_distinct():
    sched = realize(ScheduleSpec("round_robin", n=5, m=3, T=4))
    for row in sched.batches:
        assert len(set(row.tolist())) == 3
    assert rows(sched)[0] == (1, 2, 3)


@pytest.mark.parametrize("seed", [0, 1, 12345])
def test_random_reshuffle_epochs_partition(seed):
    sched = realize(ScheduleSpec("random_reshuffle", n=4, m=2, T=4, seed=seed))
    steps = rows(sched)
    first = set(steps[0]) | set(steps[1])
    second = set(steps[2]) | set(steps[3])
    assert first == {1, 2, 3, 4}
    assert second == {1, 2, 3, 4}


def test_single_shuffle_reuses_one_permutation():
    sched = realize(ScheduleSpec("single_shuffle", n=6, m=2, T=9, seed=3))
    epoch = sched.batches[:3]
    assert np.array_equal(sched.batches[3:6], epoch)
    assert set(np.concatenate(epoch).tolist()) == set(range(6))


def test_reshuffle_drops_remainder_when_m_does_not_divide_n():
    sched = realize(ScheduleSpec("random_reshuffle", n=5, m=2, T=7, seed=1))
    assert sched.batches.shape == (7, 2)
    for t in range(7):
        assert len(set(sched.batches[t].tolist())) == 2


def test_uniform_random_rows_are_distinct_in_range():
    sched = realize(ScheduleSpec("uniform_random", n=10, m=4, T=50, seed=9))
    assert sched.batches.shape == (50, 4)
    assert sched.batches.min() >= 0 and sched.batches.max() < 10
    for t in range(50):
        assert len(set(sched.batches[t].tolist())) == 4


@pytest.mark.parametrize(
    "kind,m", [("random_reshuffle", 2), ("single_shuffle", 3), ("uniform_random", 2)]
)
def test_stochastic_kinds_deterministic_in_seed(kind, m):
    spec = ScheduleSpec(kind, n=7, m=m, T=11, seed=42)
    assert np.array_equal(realize(spec).batches, realize(spec).batches)
    other = ScheduleSpec(kind, n=7, m=m, T=11, seed=43)
    assert not np.array_equal(realize(spec).batches, realize(other).batches)


def test_seed_irrelevant_for_deterministic_kinds():
    a = realize(ScheduleSpec("full_batch", n=4, m=4, T=3, seed=1))
    b = realize(ScheduleSpec("full_batch", n=4, m=4, T=3, seed=2))
    assert np.array_equal(a.batches, b.batches)
    rows_ = ((2, 1), (3, 4), (1, 4))
    c = ScheduleSpec("custom", n=4, m=2, T=3, seed=5, custom_indices=rows_)
    d = ScheduleSpec("custom", n=4, m=2, T=3, seed=6, custom_indices=rows_)
    assert np.array_equal(realize(c).batches, realize(d).batches)


def test_indicator_row_sums_equal_batch_size():
    for kind, m in (
        ("full_batch", 8),
        ("round_robin", 3),
        ("random_reshuffle", 2),
        ("uniform_random", 5),
    ):
        sched = realize(ScheduleSpec(kind, n=8, m=m, T=13, seed=2))
        indicator = np.zeros((sched.T, sched.n), dtype=int)
        indicator[np.arange(sched.T)[:, None], sched.batches] = 1
        assert (indicator.sum(axis=1) == m).all()
        assert check_counting_lemma(sched).passed


def test_counting_lemma_passes_on_realized_schedules():
    full = realize(ScheduleSpec("full_batch", n=5, m=5, T=3))
    assert check_counting_lemma(full) == CountingVerdict(True, None)
    verdict = check_counting_lemma(realize(ScheduleSpec("round_robin", n=3, m=1, T=5)))
    assert verdict == CountingVerdict(True, None)


def test_counting_lemma_catches_corrupted_matrix():
    batches = np.array([[0, 1], [2, 2], [1, 3]])  # duplicated index in row 2
    verdict = check_counting_lemma(RealizedSchedule(batches=batches, n=4))
    assert isinstance(verdict, CountingVerdict)
    assert not verdict.passed
    assert verdict.first_violation_t == 2


def _counting_verdict_by_rows(sched):
    """The counting verdict one row at a time: the distinct in-range indices
    of each row, by ``np.unique``."""
    counts = tuple(
        int(np.unique(row[(row >= 0) & (row < sched.n)]).size) for row in sched.batches
    )
    bad = [t + 1 for t, c in enumerate(counts) if c != sched.m]
    return CountingVerdict(not bad, bad[0] if bad else None)


@seed(7214903860642835768241332934145088733065536755527097052598939533808951718261379686085006050130627764925372374840539)
@settings(max_examples=300, derandomize=True)
@given(
    n=st.integers(min_value=1, max_value=6),
    T=st.integers(min_value=0, max_value=8),
    m=st.integers(min_value=0, max_value=7),
    data=st.data(),
)
def test_the_counting_lemma_counts_as_the_per_row_loop(n, T, m, data):
    # Entries from -3 to n + 2: repeated and out-of-range indices, either side.
    batches = data.draw(
        st.lists(
            st.lists(st.integers(-3, n + 2), min_size=m, max_size=m),
            min_size=T, max_size=T,
        )
    )
    sched = RealizedSchedule(batches=np.array(batches, dtype=np.int64).reshape(T, m), n=n)
    verdict = check_counting_lemma(sched)
    assert verdict == _counting_verdict_by_rows(sched)
    assert verdict.first_violation_t is None or type(verdict.first_violation_t) is int


def test_round_robin_per_index_totals_over_full_epochs():
    K, n = 4, 6
    sched = realize(ScheduleSpec("round_robin", n=n, m=1, T=K * n))
    assert (np.bincount(sched.batches.ravel(), minlength=n) == K).all()


def test_invalid_specs_raise_config_errors():
    with pytest.raises(ConfigError, match="m must satisfy"):
        ScheduleSpec("uniform_random", n=3, m=4, T=2).validate()
    with pytest.raises(ConfigError, match="full_batch requires m = n"):
        ScheduleSpec("full_batch", n=3, m=2, T=2).validate()
    with pytest.raises(ConfigError, match="distinct"):
        ScheduleSpec(
            "custom", n=3, m=2, T=1, custom_indices=((1, 1),)
        ).validate()
    with pytest.raises(ConfigError, match="outside"):
        ScheduleSpec(
            "custom", n=3, m=2, T=1, custom_indices=((1, 4),)
        ).validate()
    with pytest.raises(ConfigError, match="kind"):
        ScheduleSpec("mystery", n=3, m=1, T=1).validate()


def test_truncated_final_epoch():
    sched = realize(ScheduleSpec("random_reshuffle", n=4, m=2, T=3, seed=0))
    assert sched.batches.shape == (3, 2)



@seed(37401192345043279960453784005127829460116326089880262818474136544487890644798357323556592619478328443611695200044325)
@settings(max_examples=60, derandomize=True)
@given(
    kind=st.sampled_from(
        ["full_batch", "round_robin", "random_reshuffle", "single_shuffle", "uniform_random"]
    ),
    n=st.integers(min_value=1, max_value=12),
    T=st.integers(min_value=0, max_value=25),
    seed=st.integers(min_value=0, max_value=2**31),
    data=st.data(),
)
def test_every_realization_satisfies_the_counting_identity(kind, n, T, seed, data):
    m = n if kind == "full_batch" else data.draw(st.integers(1, n))
    sched = realize(ScheduleSpec(kind, n=n, m=m, T=T, seed=seed))
    assert sched.batches.shape == (T, m)
    assert check_counting_lemma(sched).passed
    if T:
        assert sched.batches.min() >= 0 and sched.batches.max() < n


@pytest.mark.parametrize("n, m, T", [(7, 3, 11), (5, 5, 4), (6, 2, 0), (1, 1, 3)])
@pytest.mark.parametrize("block", [1, 6, 13, 1 << 20])
def test_uniform_random_is_the_same_at_every_block_size(monkeypatch, n, m, T, block):
    spec = ScheduleSpec("uniform_random", n=n, m=m, T=T, seed=19)
    keys = np.random.default_rng(substream(19, 0)).random((T, n))
    one_shot = np.argsort(keys, axis=1)[:, :m]
    monkeypatch.setattr(schedule_mod, "_UNIFORM_BLOCK_ELEMENTS", block)
    sched = realize(spec)
    assert sched.batches.shape == (T, m) and sched.batches.dtype == np.int64
    assert np.array_equal(sched.batches, one_shot)


def test_uniform_random_partition_picks_the_batches_of_a_full_argsort():
    # The partition sorts only the m smallest keys; without a tie among the
    # keys its batches are the first m of their argsort, in the same order.
    rng = np.random.default_rng(23)
    for seed in range(200):
        n = int(rng.integers(1, 300))
        T = int(rng.integers(1, 40))
        for m in sorted({1, n, int(rng.integers(1, n + 1))}):
            keys = np.random.default_rng(substream(seed, 0)).random((T, n))
            expected = np.argsort(keys, axis=1)[:, :m]
            sched = realize(ScheduleSpec("uniform_random", n=n, m=m, T=T, seed=seed))
            assert np.array_equal(sched.batches, expected), (seed, n, m, T)


def _shuffled_epochs(seed, n, m, epochs, T):
    """``epochs`` sequential ``permutation(n)`` draws of the generator of
    ``substream(seed, 0)``, each cut into n // m batches of m, recycled in
    turn and truncated to T steps."""
    rng = np.random.default_rng(substream(seed, 0))
    per = n // m
    chunks = [rng.permutation(n)[: per * m].reshape(per, m) for _ in range(epochs)]
    steps = [chunks[e % epochs] for e in range(-(-T // per))]
    return np.concatenate(steps + [np.empty((0, m), dtype=np.int64)])[:T]


_shuffle_cases = given(
    n=st.integers(min_value=1, max_value=12),
    m_frac=st.floats(min_value=0.0, max_value=1.0),
    T=st.integers(min_value=0, max_value=40),
    seed=st.integers(min_value=0, max_value=2**31),
)


@seed(8818939505327065337215148317371258269532639278523370963970468431899726057358614281280592255169050480965999869731560)
@settings(max_examples=100, derandomize=True)
@_shuffle_cases
def test_reshuffle_epoch_e_is_the_e_th_permutation_of_one_stream(n, m_frac, T, seed):
    m = 1 + int(m_frac * (n - 1))
    sched = realize(ScheduleSpec("random_reshuffle", n=n, m=m, T=T, seed=seed))
    expected = _shuffled_epochs(seed, n, m, max(1, -(-T // (n // m))), T)
    assert sched.batches.dtype == np.int64
    assert np.array_equal(sched.batches, expected)


@seed(26659976839766099656146987682289953644868930725558559417606781075428350392371833447187562189526827160231193159690424)
@settings(max_examples=100, derandomize=True)
@_shuffle_cases
def test_single_shuffle_recycles_the_first_permutation_of_its_stream(n, m_frac, T, seed):
    # single_shuffle's batches as they were before random_reshuffle came to
    # share its stream: its one permutation, recycled every epoch.
    m = 1 + int(m_frac * (n - 1))
    sched = realize(ScheduleSpec("single_shuffle", n=n, m=m, T=T, seed=seed))
    assert sched.batches.dtype == np.int64
    assert np.array_equal(sched.batches, _shuffled_epochs(seed, n, m, 1, T))


@seed(24930718223225659054051447558334961519318998702920762885514089484592928676703185996399037320719248595127819490741095)
@settings(max_examples=100, derandomize=True)
@_shuffle_cases
def test_reshuffles_are_prefix_stable_in_the_horizon(n, m_frac, T, seed):
    m = 1 + int(m_frac * (n - 1))
    long = realize(ScheduleSpec("random_reshuffle", n=n, m=m, T=T + 13, seed=seed))
    for t in (0, T // 2, T):
        short = realize(ScheduleSpec("random_reshuffle", n=n, m=m, T=t, seed=seed))
        assert np.array_equal(short.batches, long.batches[:t])
