import collections
import functools
import inspect
import math
import sys
import threading
import time
import tracemalloc
import types
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

import ibsmae.simulate as sim
from ibsmae.mae import exact_normalized_mae
from ibsmae.simulate import (
    McEstimate,
    RunConfig,
    brute_force_normalized_mae,
    mc_normalized_mae,
)

import reference as ref


BATCH = sim._BATCH_TRIALS

# the (N, p) of the benchmark's monte_carlo workload
MC_CONFIGS = [(5, 0.2), (65, 0.2), (5, 0.01), (65, 0.01), (5, 1e-3)]


def make_rng(seed):
    return np.random.Generator(np.random.PCG64DXSM(seed))


def moments(values):
    """Count, mean and M2 of one series in separate numpy passes: the
    reference for the sampler's one-buffer block summary."""
    values = np.asarray(values, dtype=np.float64)
    mean = float(values.mean())
    return values.size, mean, float(np.square(values - mean).sum())


def reference_block(cfg, block):
    """Block moments of cfg rebuilt from PCG64DXSM(seed).jumped(block), one
    series at a time, in the order _block_moments returns them."""
    size = min(BATCH, cfg.trials - block * BATCH)
    rng = np.random.Generator(np.random.PCG64DXSM(cfg.seed).jumped(block))
    counts = cfg.N + rng.negative_binomial(cfg.N, cfg.p, size)
    p_hat = (cfg.N - 1.0) / (counts - 1.0)
    return moments(np.abs(p_hat - cfg.p) / cfg.p), moments(p_hat), moments(counts)


def run_inverse_binomial(N, p, rng, cap=10**9):
    """Observe Bernoulli(p) draws from rng until the N-th success.

    The literal loop the sampler replaced, kept as its reference: returns
    the index of the trial carrying that success, having consumed exactly
    that many uniforms from the generator.  A run that needs more than cap
    trials raises RuntimeError, as only a broken generator would.
    """
    successes = 0
    trials = 0
    while successes < N:
        if trials >= cap:
            raise RuntimeError(
                f"no {N}-th success within {cap} trials; the generator looks broken"
            )
        trials += 1
        if rng.random() < p:
            successes += 1
    return trials


class TestRunInverseBinomial:
    def test_deterministic_replay(self):
        rng_a, rng_b = make_rng(1234), make_rng(1234)
        seq_a = [run_inverse_binomial(2, 0.5, rng_a) for _ in range(1000)]
        seq_b = [run_inverse_binomial(2, 0.5, rng_b) for _ in range(1000)]
        assert seq_a == seq_b

    def test_stopping_trial_frequency_matches_pmf(self):
        # P(n = 3) at N=2, p=0.5 is 0.25; 4-sigma band over 1e6 runs
        runs = 10**6
        rng = make_rng(42)
        hits = sum(1 for _ in range(runs) if run_inverse_binomial(2, 0.5, rng) == 3)
        sigma = math.sqrt(0.25 * 0.75 / runs)
        assert abs(hits / runs - 0.25) < 4 * sigma

    def test_high_p_stops_almost_immediately(self):
        # P(n = 2) = p**2 = 0.998001 at p = 0.999
        runs = 10**5
        rng = make_rng(7)
        hits = sum(1 for _ in range(runs) if run_inverse_binomial(2, 0.999, rng) == 2)
        sigma = math.sqrt(0.998001 * (1 - 0.998001) / runs)
        assert abs(hits / runs - 0.998001) < 4 * sigma

    def test_returns_at_least_n(self):
        rng = make_rng(0)
        assert all(run_inverse_binomial(4, 0.8, rng) >= 4 for _ in range(200))

    def test_cap_signals_broken_generator(self):
        class StuckGenerator:
            def random(self):
                return 1.0  # never below p

        with pytest.raises(RuntimeError, match="within 50 trials"):
            run_inverse_binomial(2, 0.5, StuckGenerator(), cap=50)


class TestStoppingTrialDraw:
    def test_stopping_trial_frequency_matches_pmf(self):
        # same run count and 4-sigma band as the Bernoulli-loop test above,
        # on the sampler's expression and generator, N plus numpy's
        # negative-binomial failures from a jumped PCG64DXSM stream
        # (test_blocks_draw_from_the_jumped_seed_stream ties _block_moments
        # to exactly this expression)
        runs = 10**6
        rng = np.random.Generator(np.random.PCG64DXSM(42).jumped(3))
        counts = 2 + rng.negative_binomial(2, 0.5, runs)
        assert counts.min() >= 2
        sigma = math.sqrt(0.25 * 0.75 / runs)
        assert abs(np.count_nonzero(counts == 3) / runs - 0.25) < 4 * sigma


class TestMerge:
    # block moments are plain (count, mean, M2) tuples, merged pairwise
    def test_matches_numpy_moments(self):
        values = np.random.default_rng(3).normal(5.0, 2.0, size=1000)
        acc = functools.reduce(sim._merge, (moments(np.array([x])) for x in values))
        count, mean, m2 = acc
        assert count == 1000
        assert mean == pytest.approx(values.mean(), rel=1e-12)
        assert m2 / (count - 1) == pytest.approx(values.var(ddof=1), rel=1e-10)
        assert sim._std_error(acc) == pytest.approx(
            values.std(ddof=1) / math.sqrt(1000), rel=1e-10
        )

    def test_batch_and_merge_agree_with_single_pass(self):
        values = np.random.default_rng(11).exponential(2.0, size=4096)
        whole = moments(values)
        parts = np.split(values, [100, 1000, 2222])
        batched = functools.reduce(sim._merge, map(moments, parts))
        assert batched[0] == whole[0]
        assert batched[1] == pytest.approx(whole[1], rel=1e-13)
        assert batched[2] == pytest.approx(whole[2], rel=1e-11)

    def test_single_sample_edge_cases(self):
        one = moments(np.array([4.0]))
        assert one == (1, 4.0, 0.0)
        assert sim._std_error(one) == 0.0
        two = sim._merge(one, moments(np.array([6.0])))
        assert two == (2, 5.0, 2.0)
        assert sim._std_error(two) == 1.0

    def test_empty_moments_are_an_identity(self):
        # mc_normalized_mae's fold starts from (0, 0.0, 0.0), so merging it
        # into a block's moments must give those moments back bit for bit
        rng = np.random.default_rng(19)
        empty = (0, 0.0, 0.0)
        for _ in range(2000):
            m = (
                int(rng.integers(1, 2**62, endpoint=True)),
                float(10.0 ** rng.uniform(-20, 18)),
                float(10.0 ** rng.uniform(-40, 36)) if rng.random() < 0.9 else 0.0,
            )
            assert repr(sim._merge(empty, m)) == repr(m)
            assert repr(sim._merge(m, empty)) == repr(m)


class TestRunConfig:
    def test_rejects_bad_fields(self):
        with pytest.raises(ValueError):
            RunConfig(N=1, p=0.5, trials=10, seed=0)
        with pytest.raises(ValueError):
            RunConfig(N=2, p=1.0, trials=10, seed=0)
        with pytest.raises(ValueError):
            RunConfig(N=2, p=0.5, trials=0, seed=0)
        with pytest.raises(ValueError):
            RunConfig(N=2, p=0.5, trials=10, seed=0, shards=0)
        with pytest.raises(ValueError):
            RunConfig(N=2, p=0.5, trials=10, seed=-1)
        with pytest.raises(ValueError):
            RunConfig(N=2, p=0.5, trials=10, seed=2**64)

    def test_trial_limit_stays_within_the_no_overlap_bound(self):
        # the blocks' streams provably never overlap up to 2**60 blocks (see
        # test_jumped_block_streams_start_far_apart); the limit is accepted
        # and refused one past it
        assert sim._TRIALS_MAX <= BATCH * 2**60
        assert RunConfig(N=5, p=0.2, trials=sim._TRIALS_MAX, seed=0).trials == sim._TRIALS_MAX
        with pytest.raises(ValueError, match="trials must be <="):
            RunConfig(N=5, p=0.2, trials=sim._TRIALS_MAX + 1, seed=0)

    def test_poisson_ceiling_is_numpys_int64_constant(self):
        int64_max = np.iinfo(np.int64).max
        assert sim._POISSON_LAM_MAX == float(int64_max) - math.sqrt(int64_max) * 10

    @pytest.mark.parametrize(
        "N, above, below, limit",
        [(2, 1.76e-18, 1.74e-18, "1.75e-18"), (65, 1.58e-17, 1.578e-17, "1.579e-17")],
    )
    def test_tiny_p_limit_on_both_sides(self, N, above, below, limit):
        # numpy's negative-binomial sampler works down to ~1.7501e-18 (N=2)
        # and ~1.57884e-17 (N=65) and raises its own error below that
        estimate = mc_normalized_mae(RunConfig(N=N, p=above, trials=100, seed=0, shards=2))
        assert estimate.mean_sample_size > 1e17
        with pytest.raises(ValueError, match=f"limit of about {limit} for N={N}"):
            RunConfig(N=N, p=below, trials=100, seed=0)


class TestMcNormalizedMae:
    def test_concordance_with_closed_form(self):
        cfg = RunConfig(N=2, p=0.5, trials=10**6, seed=7)
        estimate = mc_normalized_mae(cfg)
        exact = exact_normalized_mae(2, 0.5)
        assert abs(estimate.mean_normalized_abs_error - exact) < 4 * estimate.std_error
        assert abs(estimate.mean_sample_size - 4.0) < 4 * estimate.std_error_sample_size

    def test_estimates_are_unbiased(self):
        cfg = RunConfig(N=5, p=0.2, trials=200_000, seed=12)
        estimate = mc_normalized_mae(cfg)
        assert abs(estimate.mean_estimate - 0.2) < 4 * estimate.std_error_estimate

    def test_bit_identical_for_identical_config(self):
        cfg = RunConfig(N=3, p=0.3, trials=50_000, seed=99, shards=4)
        assert mc_normalized_mae(cfg) == mc_normalized_mae(cfg)

    def test_different_seeds_differ(self):
        a = mc_normalized_mae(RunConfig(N=3, p=0.3, trials=20_000, seed=1))
        b = mc_normalized_mae(RunConfig(N=3, p=0.3, trials=20_000, seed=2))
        assert a.mean_normalized_abs_error != b.mean_normalized_abs_error

    def test_blocks_draw_from_the_jumped_seed_stream(self):
        # the documented stream, built the plain way: block b draws from
        # PCG64DXSM(seed).jumped(b), each series is summarised in its own
        # numpy passes, and the blocks merge in block order
        cfg = RunConfig(N=3, p=0.3, trials=2 * BATCH + 5, seed=9)
        blocks = [reference_block(cfg, block) for block in range(3)]
        err, est, nobs = (functools.reduce(sim._merge, column) for column in zip(*blocks))
        want = McEstimate(err[1], sim._std_error(err), nobs[1], est[1], sim._std_error(est),
                          sim._std_error(nobs))
        assert mc_normalized_mae(cfg) == want

    @pytest.mark.parametrize("N, p", MC_CONFIGS)
    @pytest.mark.parametrize("block, trials", [(2, 3 * BATCH), (3, 3 * BATCH + 1)])
    def test_one_buffer_summary_matches_separate_passes(self, N, p, block, trials):
        # a full block, and a one-run tail block whose M2 is 0
        cfg = RunConfig(N=N, p=p, trials=trials, seed=2024)
        got, want = sim._block_moments(cfg, block), reference_block(cfg, block)
        assert len(got) == len(want) == 3
        for (count, mean, m2), (want_count, want_mean, want_m2) in zip(got, want):
            assert count == want_count == trials - block * BATCH
            assert mean == pytest.approx(want_mean, rel=1e-12, abs=0.0)
            assert m2 == pytest.approx(want_m2, rel=1e-12, abs=0.0)
            assert (m2 == 0.0) == (count == 1)

    @pytest.mark.parametrize("N, p", [(5, 0.2), (65, 0.01)])
    def test_z_scores_across_seeds_are_standard_normal(self, N, p):
        # one block for each of 200 seeds: a biased stream shifts the mean
        # of the z-scores and a stream shared or correlated across seeds
        # shrinks their variance, which no single seed's |z| <= 4 can show;
        # both statistics must lie within 4 sigma of N(0, 1)'s
        seeds = 200
        exact = exact_normalized_mae(N, p)
        z = np.array([
            (estimate.mean_normalized_abs_error - exact) / estimate.std_error
            for estimate in (
                mc_normalized_mae(RunConfig(N=N, p=p, trials=BATCH, seed=seed))
                for seed in range(seeds)
            )
        ])
        assert abs(z.mean()) <= 4 / math.sqrt(seeds)
        assert abs(z.var(ddof=1) - 1) <= 4 * math.sqrt(2 / (seeds - 1))

    def test_jumped_block_streams_start_far_apart(self):
        # _JUMP is the step of numpy's jumped(), and the starts of any two of
        # 2**17 blocks (about 1e9 trials) lie more than 2**128 / (3 * 2**17)
        # draws apart, as the docstring argues
        jumped = np.random.PCG64DXSM(5).jumped(3).state
        assert np.random.PCG64DXSM(5).advance(3 * sim._JUMP % 2**128).state == jumped
        period, blocks = 2**128, 2**17
        nearest, offset = period, 0
        for _ in range(1, blocks):
            offset = (offset + sim._JUMP) % period
            nearest = min(nearest, offset, period - offset)
        assert nearest > period // (3 * blocks)

    @pytest.mark.parametrize("trials", [1, 5 * BATCH + 123])
    def test_worker_counts_are_bit_identical(self, monkeypatch, trials):
        # with eight cores claimed, 2, 3 and 8 shards start real threads
        monkeypatch.setattr(sim.os, "cpu_count", lambda: 8)
        estimates = [
            mc_normalized_mae(RunConfig(N=4, p=0.25, trials=trials, seed=5, shards=shards))
            for shards in (1, 2, 3, 8)
        ]
        assert all(estimate == estimates[0] for estimate in estimates)

    def test_more_threads_than_cores_under_fast_switching(self, monkeypatch):
        # eight threads switching as often as the interpreter allows: a block
        # claimed twice, or one skipped, would change the estimate
        monkeypatch.setattr(sim.os, "cpu_count", lambda: 8)
        cfg = RunConfig(N=3, p=0.4, trials=24 * BATCH + 7, seed=11, shards=8)
        want = mc_normalized_mae(replace(cfg, shards=1))
        results = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            runner = threading.Thread(target=lambda: results.append(mc_normalized_mae(cfg)))
            runner.start()
            runner.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not runner.is_alive()
        assert results == [want]

    def test_shards_exceeding_trials(self):
        # five trials make one block, drawn by the calling thread alone
        estimate = mc_normalized_mae(RunConfig(N=2, p=0.6, trials=5, seed=3, shards=8))
        assert estimate == mc_normalized_mae(RunConfig(N=2, p=0.6, trials=5, seed=3, shards=5))

    @pytest.mark.parametrize(
        "cpus, shards, blocks, threads",
        [
            (2, 64, 20, 1),  # capped by the cores
            (8, 64, 3, 2),  # capped by the blocks
            (8, 3, 20, 2),  # capped by the shards
            (None, 8, 20, 0),  # core count unknown
            (8, 8, 1, 0),  # one block
            (8, 1, 20, 0),  # one shard
        ],
    )
    def test_thread_count_is_capped(self, monkeypatch, cpus, shards, blocks, threads):
        # a stand-in for threading.Thread counts the threads asked for and
        # runs each one's work in place, so the test starts no thread
        started = []

        class CountingThread:
            def __init__(self, target):
                self.target = target

            def start(self):
                started.append(self)
                self.target()

            def join(self):
                pass

        monkeypatch.setattr(sim.os, "cpu_count", lambda: cpus)
        monkeypatch.setattr(
            sim, "threading", types.SimpleNamespace(Thread=CountingThread, Event=threading.Event)
        )
        cfg = RunConfig(N=2, p=0.5, trials=blocks * BATCH, seed=4, shards=shards)
        estimate = mc_normalized_mae(cfg)
        assert len(started) == threads
        assert estimate == mc_normalized_mae(replace(cfg, shards=1))

    def test_concordance_at_tiny_p(self):
        cfg = RunConfig(N=5, p=1e-6, trials=10**6, seed=0, shards=2)
        estimate = mc_normalized_mae(cfg)
        exact = exact_normalized_mae(5, 1e-6)
        assert abs(estimate.mean_normalized_abs_error - exact) <= 4 * estimate.std_error
        assert abs(estimate.mean_sample_size - 5e6) <= 4 * estimate.std_error_sample_size

    def test_block_error_propagates(self, monkeypatch):
        # every block raises, in one block on the calling thread alone and
        # in five blocks on two threads; the call raises that error and
        # leaves no thread behind
        def failing(cfg, block):
            raise RuntimeError(f"block {block} failed")

        monkeypatch.setattr(sim, "_block_moments", failing)
        monkeypatch.setattr(sim.os, "cpu_count", lambda: 2)
        before = set(threading.enumerate())
        for trials, shards in ((4096, 1), (5 * BATCH, 2)):
            with pytest.raises(RuntimeError, match="^block 0 failed$"):
                mc_normalized_mae(RunConfig(N=2, p=0.5, trials=trials, seed=0, shards=shards))
            assert set(threading.enumerate()) == before

    def test_error_comes_from_the_lowest_failing_block(self, monkeypatch):
        # blocks 3 and up fail at once and block 2 late, so the first
        # failure in time is not the first in block order
        draw = sim._block_moments

        def failing(cfg, block):
            if block == 2:
                time.sleep(0.05)
            if block >= 2:
                raise RuntimeError(f"block {block}")
            return draw(cfg, block)

        monkeypatch.setattr(sim, "_block_moments", failing)
        monkeypatch.setattr(sim.os, "cpu_count", lambda: 4)
        before = set(threading.enumerate())
        with pytest.raises(RuntimeError, match="^block 2$"):
            mc_normalized_mae(RunConfig(N=2, p=0.5, trials=12 * BATCH, seed=0, shards=4))
        assert set(threading.enumerate()) == before

    def test_interrupt_on_the_calling_thread_stops_every_thread(self, monkeypatch):
        # the calling thread is interrupted on its first block, once the
        # worker has claimed one; the worker finishes that block only after
        # the claims are exhausted, so it draws no other of the 62 left
        draw = sim._block_moments
        drawn = []
        worker_drew = threading.Event()
        exhausted = threading.Event()

        def deque(*args, **kwargs):
            queue = collections.deque(*args, **kwargs)
            if kwargs.get("maxlen") == 0:
                exhausted.set()
            return queue

        def interrupted(cfg, block):
            drawn.append(block)
            if threading.current_thread() is threading.main_thread():
                worker_drew.wait(timeout=10.0)
                raise KeyboardInterrupt
            worker_drew.set()
            exhausted.wait(timeout=10.0)
            return draw(cfg, block)

        monkeypatch.setattr(sim, "collections", types.SimpleNamespace(deque=deque))
        monkeypatch.setattr(sim, "_block_moments", interrupted)
        monkeypatch.setattr(sim.os, "cpu_count", lambda: 2)
        before = set(threading.enumerate())
        with pytest.raises(KeyboardInterrupt):
            mc_normalized_mae(RunConfig(N=2, p=0.5, trials=64 * BATCH, seed=0, shards=2))
        assert set(threading.enumerate()) == before
        assert exhausted.is_set()
        assert len(drawn) == 2

    def test_worker_raising_a_base_exception_stops_every_thread_and_reraises(self, monkeypatch):
        # the worker raises SystemExit on its first block, once the calling
        # thread has claimed one; it stores the error and exhausts the claims,
        # and only then does the calling thread draw, so no other of the 62
        # left is drawn
        draw = sim._block_moments
        drawn = []
        claimed = threading.Event()
        exhausted = threading.Event()
        hooked = []

        def deque(*args, **kwargs):
            queue = collections.deque(*args, **kwargs)
            if kwargs.get("maxlen") == 0:
                exhausted.set()
            return queue

        def exiting(cfg, block):
            drawn.append(block)
            if threading.current_thread() is not threading.main_thread():
                claimed.wait(timeout=10.0)
                raise SystemExit(3)
            if not claimed.is_set():
                claimed.set()
                exhausted.wait(timeout=10.0)
            return draw(cfg, block)

        monkeypatch.setattr(threading, "excepthook", hooked.append)
        monkeypatch.setattr(sim, "collections", types.SimpleNamespace(deque=deque))
        monkeypatch.setattr(sim, "_block_moments", exiting)
        monkeypatch.setattr(sim.os, "cpu_count", lambda: 2)
        before = set(threading.enumerate())
        with pytest.raises(SystemExit) as info:
            mc_normalized_mae(RunConfig(N=2, p=0.5, trials=64 * BATCH, seed=0, shards=2))
        assert info.value.code == 3
        assert set(threading.enumerate()) == before
        assert hooked == []  # no thread died of an unhandled error
        assert len(drawn) == 2

    def test_public_callables_run_on_the_main_thread(self, monkeypatch):
        # a tracer that wraps the public functions keeps one span stack per
        # process, so worker threads may call none of them
        callers = set()

        def record(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                callers.add(threading.current_thread())
                return fn(*args, **kwargs)

            return wrapper

        for name, obj in list(vars(sim).items()):
            if name.startswith("_"):
                continue
            if inspect.isfunction(obj) and obj.__module__.startswith("ibsmae."):
                monkeypatch.setattr(sim, name, record(obj))
            elif inspect.isclass(obj) and obj.__module__ == sim.__name__:
                for attr, member in vars(obj).items():
                    if inspect.isfunction(member) and not attr.startswith("_"):
                        monkeypatch.setattr(obj, attr, record(member))

        # the calling thread waits for a worker's first block, so a worker
        # is sure to draw one
        draw = sim._block_moments
        drawers = set()
        worker_drew = threading.Event()

        def draw_and_record(cfg, block):
            drawers.add(threading.current_thread())
            if threading.current_thread() is threading.main_thread():
                worker_drew.wait(timeout=10.0)
            else:
                worker_drew.set()
            return draw(cfg, block)

        monkeypatch.setattr(sim, "_block_moments", draw_and_record)
        monkeypatch.setattr(sim.os, "cpu_count", lambda: 2)
        sim.mc_normalized_mae(RunConfig(N=5, p=0.2, trials=8 * BATCH, seed=1, shards=2))
        assert len(drawers) == 2
        assert callers == {threading.main_thread()}

    def test_estimate_fields(self):
        estimate = mc_normalized_mae(RunConfig(N=2, p=0.5, trials=1000, seed=0))
        assert isinstance(estimate, McEstimate)
        assert estimate.std_error > 0
        assert estimate.mean_sample_size > 2


    def test_memory_stays_flat(self):
        # 1e7 trials are 80 MB of stopping trials and 1221 blocks; holding
        # either the samples or every block's moments would raise the peak
        # above that of 1e6 trials
        def peak(trials):
            tracemalloc.start()
            try:
                mc_normalized_mae(RunConfig(N=5, p=0.2, trials=trials, seed=1, shards=2))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        mc_normalized_mae(RunConfig(N=5, p=0.2, trials=BATCH, seed=1))  # numpy loaded
        assert abs(peak(10**7) - peak(10**6)) < 0.5 * 2**20


class TestBruteForce:
    def test_recovers_hand_values(self):
        assert brute_force_normalized_mae(2, 0.5, 1e-12) == pytest.approx(0.5, abs=1e-10)
        assert brute_force_normalized_mae(3, 0.5, 1e-12) == pytest.approx(0.375, abs=1e-10)

    def test_monotonic_spot_check(self):
        assert brute_force_normalized_mae(2, 0.9, 1e-12) < brute_force_normalized_mae(
            2, 0.5, 1e-12
        )

    def test_tail_epsilon_validated(self):
        with pytest.raises(ValueError):
            brute_force_normalized_mae(2, 0.5, 0.0)
        with pytest.raises(ValueError):
            brute_force_normalized_mae(2, 0.5, 1e-3)

    @pytest.mark.parametrize("N, p", [(2, 1e-7), (2, 9.99999e-7), (65, 1e-9)])
    def test_refuses_a_mode_beyond_the_limit_at_once(self, N, p):
        # (2, 1e-7) alone would sum about 3e8 terms
        start = time.perf_counter()
        with pytest.raises(ValueError, match=rf"N={N}, p={p!r} .* limit of n0 <= 1000000"):
            brute_force_normalized_mae(N, p, 1e-12)
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize(
        "N, p", [(2, 1e-4), (65, 1e-3), (1000, 0.01), (1000, 0.3), (100000, 0.5)]
    )
    def test_long_sums_against_mpmath(self, N, p):
        # up to 3.2e5 terms; at (1000, 0.3) and (100000, 0.5) p**N
        # underflows.  A tail of 1e-18 keeps truncation far below the
        # tolerance.
        want = ref.normalized_mae(N, p, math.floor((N - 1) / Fraction(p)) + 1)
        got = brute_force_normalized_mae(N, p, 1e-18)
        assert abs(got - want) / want < 1e-14

    def test_down_walk_stops_at_the_first_zero_anchor(self):
        # walking down from n0 = 200,000 the densities underflow to 0 near
        # n = 183,600; the walk ends at the next anchor instead of going on
        # through some 83,000 zero terms to n = N
        N, p = 100000, 0.5
        blocks = list(sim._terms_down(N, p, sim.threshold_n0(N, p) - 1))
        assert all(block[0] > 0.0 and len(block) <= sim._ANCHOR_EVERY for block in blocks)
        terms = [t for block in blocks for t in block]
        nonzero = sum(1 for t in terms if t > 0.0)
        assert all(t > 0.0 for t in terms[:nonzero])
        assert nonzero <= len(terms) <= nonzero + sim._ANCHOR_EVERY

    @pytest.mark.parametrize("tail_epsilon", [1e-6, 1e-8])
    @pytest.mark.parametrize("N, p", [(2, 1e-3), (5, 0.01), (5, 0.2), (65, 0.05), (3, 0.9)])
    def test_neglected_tail_is_below_tail_epsilon(self, N, p, tail_epsilon):
        # every term is positive, so the sum falls short of the closed form
        # by the neglected tail, up to the sum's rounding (~2e-16 relative)
        want = ref.normalized_mae(N, p, math.floor((N - 1) / Fraction(p)) + 1)
        miss = float(want - brute_force_normalized_mae(N, p, tail_epsilon))
        rounding = 1e-15 * float(want)
        assert -rounding <= miss < tail_epsilon + rounding

    def test_memory_stays_flat(self):
        # about 31,000 terms: a list of them alone would take about 1 MB,
        # the streamed sum about 1 kB
        brute_force_normalized_mae(2, 1e-3, 1e-12)
        tracemalloc.start()
        try:
            brute_force_normalized_mae(2, 1e-3, 1e-12)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100_000
