"""Helper threads in the forward, backward and the Adam step: the bits and
contracts of one thread."""

import ast
import functools
import os
import subprocess
import sys
import threading
import time
import weakref
from concurrent import futures
from pathlib import Path

import numpy as np
import pytest

import spt.attention
import spt.model
import spt.tensor as T
from spt.masks import AttentionMask
from spt.model import AdamState, ModelConfig, PoseModelParams, forward, train_step
from spt.pruning import PruneSchedule
from spt.skeleton import compile_joint_mask, default_skeleton
from spt.tensor import Tensor

from test_model import chain_skeleton, tiny_config


def run_inline(monkeypatch):
    """One CPU: every task runs on the calling thread, as serial code."""
    monkeypatch.setattr(T, "_cpus", lambda: 1)


class WaitingPool(futures.ThreadPoolExecutor):
    """A helper pool that takes nothing back: ``cancel`` fails, so
    ``_each_thread`` waits for every helper it offered."""

    def submit(self, *args, **kwargs):
        future = super().submit(*args, **kwargs)
        future.cancel = lambda: False
        return future


def on_a_helper():
    return threading.current_thread().name.startswith("spt-helper")


def run_on_helpers(monkeypatch, cpus=3):
    """``cpus - 1`` helpers, whichever CPUs there are, and every call of a job
    split by ``tensor._each_thread`` runs on one: every offered helper runs
    (``WaitingPool``), and a call the calling thread takes from the queue is
    handed to a pool helper once a helper of the job has started a call.
    Row halves keep their size floor (``_ROW_SPLIT_MIN``), below which a half
    may round differently.

    Returns the split jobs in call order, each as ``(job name, helped,
    runs)``: the ``job_name``, whether the job had a helper of its own and,
    one per call, whether the calling thread handed it over and the name of
    the thread it ran on.
    """
    monkeypatch.setattr(T, "_cpus", lambda: cpus)
    monkeypatch.setattr(T, "_TASK_MIN_WORK", 0)
    pool = WaitingPool(cpus - 1, thread_name_prefix="spt-helper")
    monkeypatch.setattr(T, "_pool", pool)
    each_thread, jobs = T._each_thread, []

    def on_helpers(work, calls):
        calls, runs, helping = list(calls), [], threading.Event()
        helped = min(cpus, len(calls)) > 1  # the job has a helper
        jobs.append((job_name(sys._getframe(1)), helped, runs))

        def run(handed, fn, *args):
            if not on_a_helper():
                assert not helped or helping.wait(timeout=30)
                pool.submit(run, True, fn, *args).result(timeout=60)
                return
            if not handed:
                helping.set()
            runs.append((handed, threading.current_thread().name))
            fn(*args)
        each_thread(work, [(run, False, *call) for call in calls])
    monkeypatch.setattr(T, "_each_thread", on_helpers)
    return jobs


def job_name(frame):
    """The name of an ``_each_thread`` job: the qualified name of the function
    that made it in ``frame``, a pullback as ``<op>.pullback``."""
    return frame.f_code.co_qualname.replace(".<locals>", "")


def ran_on_helpers(jobs, name):
    """The jobs named ``name``: each ran every call on a pool helper, and if
    it had a helper, that helper ran a call it took from the queue itself."""
    named = [(helped, runs) for job, helped, runs in jobs if job == name]
    assert named, name
    for helped, runs in named:
        assert runs and all(thread.startswith("spt-helper") for _, thread in runs), name
        assert not helped or not all(handed for handed, _ in runs), name
    return named


def batch(cfg, seed, size):
    rng = np.random.default_rng(seed)
    samples = [(rng.uniform(size=(cfg.image_h, cfg.image_w)),
                rng.uniform(size=(cfg.joint_count, cfg.heatmap_h, cfg.heatmap_w)),
                np.ones(cfg.joint_count, bool)) for _ in range(size)]
    samples[-1][2][1] = False  # one invisible joint
    return samples


def trained_state(cfg, samples, steps=3):
    """Losses, then (parameter, m, v) bytes by name, after ``steps`` train steps."""
    params = PoseModelParams.init(cfg, seed=31)
    opt = AdamState()
    mask = compile_joint_mask(chain_skeleton(cfg.joint_count))
    losses = [train_step(samples, params, cfg, mask, opt) for _ in range(steps)]
    return losses, {name: (p.data.tobytes(), opt.m[name].tobytes(), opt.v[name].tobytes())
                    for name, p in params.named_parameters()}


PRUNED = dict(encoder_layers=3, schedule=PruneSchedule(update_layers=(1, 2), keep_ratio=0.6))


class TestThreadedEqualsInline:
    @pytest.mark.parametrize("size", [1, 2, 3, 8])
    def test_train_step_bits(self, monkeypatch, size):
        cfg = tiny_config(**PRUNED)
        samples = batch(cfg, 60 + size, size)
        run_inline(monkeypatch)
        inline = trained_state(cfg, samples)
        monkeypatch.undo()
        jobs = run_on_helpers(monkeypatch)
        assert trained_state(cfg, samples) == inline
        for name in ("multi_head_attention", *PULLBACK_JOBS):
            ran_on_helpers(jobs, name)

    # head_w2 of 16 or 17 rows by 4096 updates as two row halves; of 17,
    # the calling thread's half has the odd row.
    @pytest.mark.parametrize("embed_dim, heads", [(16, 2), (17, 1)],
                             ids=["16-rows", "17-rows"])
    def test_split_adam_update_bits(self, monkeypatch, embed_dim, heads):
        cfg = tiny_config(embed_dim=embed_dim, heads=heads, heatmap_h=64, heatmap_w=64,
                          **PRUNED)
        samples = batch(cfg, 70, 2)
        run_inline(monkeypatch)  # no halves
        inline = trained_state(cfg, samples)
        monkeypatch.undo()
        jobs = run_on_helpers(monkeypatch)
        assert trained_state(cfg, samples) == inline
        jobs.clear()
        AdamState().step(PoseModelParams.init(cfg, seed=31))  # Adam's jobs alone
        assert len(ran_on_helpers(jobs, "_by_rows")) == len(jobs) == 1

    @pytest.mark.parametrize("heads", [3, 5])
    @pytest.mark.parametrize("cpus", [2, 3])
    def test_attention_gradient_bits_with_uneven_head_groups(self, monkeypatch, heads, cpus):
        rng = np.random.default_rng(80 + heads)
        n, r, d = 9, 6, 4 * heads
        packed = rng.normal(size=(n, 3 * d))
        bits = (rng.uniform(size=(r, n)) < 0.6).astype(np.uint8)
        bits[np.arange(r), np.arange(r)] = 1
        mask = AttentionMask(bits)
        weights = Tensor(rng.normal(size=(r, d)))

        def packed_grad():
            packed_t = Tensor(packed, requires_grad=True)
            with T.ComputationTape() as tape:
                context, _ = T.multi_head_attention(packed_t, mask, heads)
                loss = T.sum_all(T.mul(context, weights))
            T.backward(loss, tape)
            return packed_t.grad.tobytes()

        run_inline(monkeypatch)
        inline = packed_grad()
        monkeypatch.undo()
        jobs = run_on_helpers(monkeypatch, cpus)
        assert packed_grad() == inline
        ran_on_helpers(jobs, "multi_head_attention")
        ran_on_helpers(jobs, "multi_head_attention.pullback")

    def test_attention_heads_taken_by_more_helpers_than_cores(self, monkeypatch):
        # Every head must be taken exactly once from the shared queues; a
        # head no thread took leaves its context, probabilities or gradient
        # columns unwritten.
        rng = np.random.default_rng(85)
        heads, n, r = 16, 24, 17
        packed = Tensor(rng.normal(size=(n, 3 * 4 * heads)), requires_grad=True)
        mask = AttentionMask((rng.uniform(size=(r, n)) < 0.7) | (np.arange(n) == 0))
        g = rng.normal(size=(r, 4 * heads))

        def packed_grad():
            with T.ComputationTape() as tape:
                context, probs = T.multi_head_attention(packed, mask, heads)
            (grad,) = tape._records[0][1](g)
            return context.data.tobytes(), probs.tobytes(), grad.tobytes()

        cores = T._cpus()
        run_inline(monkeypatch)
        inline = packed_grad()
        monkeypatch.undo()
        pool = futures.ThreadPoolExecutor(2 * cores + 1)
        monkeypatch.setattr(T, "_pool", pool)
        monkeypatch.setattr(T, "_cpus", lambda: 2 * cores + 2)
        monkeypatch.setattr(T, "_TASK_MIN_WORK", 0)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                assert packed_grad() == inline
        finally:
            sys.setswitchinterval(interval)
            pool.shutdown()

    def test_two_calling_threads_share_one_helper(self, monkeypatch):
        # A calling thread never waits on a piece no helper started, so two
        # that train at once cannot wait on each other through the helper.
        cfg = tiny_config(**PRUNED)
        runs = [batch(cfg, 100 + i, 2) for i in range(2)]
        run_inline(monkeypatch)
        serial = [trained_state(cfg, samples, steps=2) for samples in runs]
        monkeypatch.undo()
        monkeypatch.setattr(T, "_cpus", lambda: 2)
        monkeypatch.setattr(T, "_TASK_MIN_WORK", 0)
        pool = futures.ThreadPoolExecutor(1)
        monkeypatch.setattr(T, "_pool", pool)
        results = [None, None]

        def train(i):
            results[i] = trained_state(cfg, runs[i], steps=2)
        threads = [threading.Thread(target=train, args=(i,), daemon=True) for i in range(2)]
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            pool.shutdown(wait=False)
        assert results == serial


def forward_config(shape, keep):
    """The reference config, or a 3-layer one of 241 tokens (odd, so the row
    halves differ by one), dense or pruned at ``keep``."""
    updates = () if keep == 1.0 else (3, 6, 9) if shape == "reference" else (1, 2)
    schedule = PruneSchedule(update_layers=updates, keep_ratio=keep)
    if shape == "reference":
        return ModelConfig(schedule=schedule)
    return ModelConfig(image_h=240, image_w=240, encoder_layers=3, graph_layers=2,
                       schedule=schedule)


@functools.lru_cache(maxsize=1)
def forward_params(shape):
    return PoseModelParams.init(forward_config(shape, 1.0), seed=41)


def forward_state(shape, keep):
    """Heatmap, head-average record and stage-mask bytes of one forward."""
    cfg = forward_config(shape, keep)
    image = np.random.default_rng(42).uniform(size=(cfg.image_h, cfg.image_w))
    heatmaps, diagnostics = forward(image, forward_params(shape), cfg,
                                    compile_joint_mask(default_skeleton()), keep_records=True)
    return (heatmaps.data.tobytes(), [r.tobytes() for r in diagnostics.records],
            [m.bits.tobytes() for m in diagnostics.mask_state.masks])


# Configs too small for any helper to pay: the CLI tests' and a 64x64 one.
SMALL_CONFIGS = {
    "cli-test": ModelConfig(image_h=32, image_w=32, downsample=1, patch_h=8, patch_w=8,
                            embed_dim=16, heads=2, encoder_layers=3, graph_layers=1,
                            heatmap_h=8, heatmap_w=8, mlp_ratio=2,
                            schedule=PruneSchedule(update_layers=(1, 2))),
    "64x64-d32": ModelConfig(image_h=64, image_w=64, downsample=1, embed_dim=32, heads=4,
                             encoder_layers=4, graph_layers=2,
                             schedule=PruneSchedule(update_layers=(2,))),
}


class TestForwardEqualsInline:
    @pytest.mark.parametrize("keep", [1.0, 0.6])
    @pytest.mark.parametrize("shape", ["reference", "odd"])
    def test_forward_bits(self, monkeypatch, shape, keep):
        run_inline(monkeypatch)
        inline = forward_state(shape, keep)
        monkeypatch.undo()
        jobs = run_on_helpers(monkeypatch)
        assert forward_state(shape, keep) == inline
        layers = forward_config(shape, keep).encoder_layers
        assert len(ran_on_helpers(jobs, "_by_rows")) >= 3 * layers  # QKV, output, MLP
        assert len(ran_on_helpers(jobs, "multi_head_attention")) >= layers

    # At each shape the reference or the 241-token forward splits: QKV,
    # output projection and the two MLP products.
    @pytest.mark.parametrize("rows, inner, cols", [
        (272, 192, 576), (272, 192, 192), (272, 576, 192),
        (241, 192, 576), (241, 192, 192), (241, 576, 192)])
    def test_row_halves_give_the_bytes_of_the_whole_product(self, rows, inner, cols):
        # A property of the BLAS, not of floating point: pinned here because
        # the forward's bits depend on it.
        assert rows // 2 * inner * cols >= T._ROW_SPLIT_MIN  # the forward splits it
        rng = np.random.default_rng(rows + inner + cols)
        a, b = rng.normal(size=(rows, inner)), rng.normal(size=(inner, cols))
        h = rows - rows // 2  # the calling thread's half, as in _by_rows
        halves = np.concatenate([a[:h] @ b, a[h:] @ b])
        assert halves.tobytes() == (a @ b).tobytes()

    @pytest.mark.parametrize("cfg", SMALL_CONFIGS.values(), ids=SMALL_CONFIGS.keys())
    def test_small_configs_offer_nothing(self, monkeypatch, cfg):
        offered = count_offers(monkeypatch)
        forward(np.zeros((cfg.image_h, cfg.image_w)), PoseModelParams.init(cfg, seed=3), cfg,
                compile_joint_mask(default_skeleton()))
        assert offered == []

    def test_the_reference_config_offers_halves_and_heads(self, monkeypatch):
        offered = count_offers(monkeypatch)
        forward_state("reference", 1.0)
        assert {"_by_rows", "multi_head_attention"} <= set(offered)


# The jobs a backward makes.
PULLBACK_JOBS = {"matmul.pullback", "mlp.pullback", "multi_head_attention.pullback"}


@pytest.mark.parametrize("cfg, offers", [
    (ModelConfig(), PULLBACK_JOBS), *((cfg, set()) for cfg in SMALL_CONFIGS.values())],
    ids=["reference", *SMALL_CONFIGS])
def test_only_the_reference_backward_offers_its_pullback_jobs(monkeypatch, cfg, offers):
    # The matmul and mlp pairs, run overlapped, save about 100 ms of a
    # reference train step at batch 2.
    offered = count_offers(monkeypatch)
    train_step(batch(cfg, 97, 1), PoseModelParams.init(cfg, seed=3), cfg,
               compile_joint_mask(default_skeleton()), AdamState())
    assert PULLBACK_JOBS & set(offered) == offers


def test_adam_splits_the_parameters_of_2_16_elements_or_more(monkeypatch):
    params = PoseModelParams.init(ModelConfig(), seed=3)
    offered, by_rows, split = count_offers(monkeypatch), T._by_rows, []

    def update(*args):
        offers = len(offered)
        by_rows(*args)
        split.append(len(offered) - offers)
    monkeypatch.setattr(T, "_by_rows", update)
    AdamState().step(params)
    assert offered == ["_by_rows"] * 61  # 20 blocks' QKV and two MLP weights, and head_w2
    names = [name for name, _ in params.named_parameters()]
    assert dict(zip(names, split)) == {
        name: int(p.data.size >= 2 ** 16) for name, p in params.named_parameters()}
    for name in ("positional_encoding", "encoder.0.output_projection", "head_w1"):
        assert split[names.index(name)] == 0, name


class RecordingPool(futures.ThreadPoolExecutor):
    """A one-helper pool that counts what is submitted to it."""

    def __init__(self):
        super().__init__(1)
        self.submitted = 0

    def submit(self, *args, **kwargs):
        self.submitted += 1
        return super().submit(*args, **kwargs)


def count_offers(monkeypatch):
    """With a second CPU and the real size rule, the names (``job_name``) of
    the ``_each_thread`` jobs that offered work to a helper."""
    monkeypatch.setattr(T, "_cpus", lambda: 2)
    pool = RecordingPool()
    monkeypatch.setattr(T, "_pool", pool)
    offered, each_thread = [], T._each_thread

    def job(work, calls):
        submitted = pool.submitted
        each_thread(work, calls)
        if pool.submitted > submitted:
            offered.append(job_name(sys._getframe(1)))
    monkeypatch.setattr(T, "_each_thread", job)
    return offered


# The CPUs this process may run on, as tensor._cpus counts them.
HOST_CPUS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
             else os.cpu_count() or 1)


class TestBlasGate:
    def test_helpers_only_with_one_blas_thread(self, monkeypatch):
        monkeypatch.setattr(T, "_blas_threads", lambda: 2)
        assert T._cpus() == 1
        monkeypatch.setattr(T, "_blas_threads", lambda: 1)
        assert T._cpus() == HOST_CPUS

    def test_without_the_symbol_nothing_is_offered(self, monkeypatch):
        monkeypatch.setattr(T.ctypes, "CDLL", lambda path: object())
        assert T._blas_threads.__wrapped__() is None
        monkeypatch.setattr(T, "_blas_threads", T._blas_threads.__wrapped__)
        assert T._cpus() == 1
        monkeypatch.setattr(T, "_pool", None)  # a job that offers work starts the pool
        T._each_thread(T._TASK_MIN_WORK, [(lambda: None,)] * 2)
        assert T._pool is None

    @pytest.mark.skipif(HOST_CPUS < 2, reason="needs two CPUs")
    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_reads_the_thread_count_openblas_runs(self, threads):
        if T._blas_threads() is None:
            pytest.skip("numpy has no bundled OpenBLAS")
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": str(Path(T.__file__).parents[1])}
        done = subprocess.run(
            [sys.executable, "-c", "import spt.tensor as T; print(T._blas_threads(), T._cpus())"],
            env=env, capture_output=True, text=True, timeout=60, check=True)
        cpus = HOST_CPUS if threads == "1" else 1
        assert done.stdout.split() == [threads, str(cpus)]


def once_helped(pieces, helped, caller_error=None, helper_error=None):
    """``pieces`` calls of an ``_each_thread`` job: the calling thread waits
    until a helper has started a call, then raises ``caller_error`` if given;
    a helper appends its piece to ``helped``, runs on until 50 ms after the
    calling thread's call is over, appends ``("done", piece)`` and raises
    ``helper_error`` if given."""
    caller, helping, helped_on = threading.get_ident(), threading.Event(), threading.Event()

    def body(piece):
        if threading.get_ident() == caller:
            assert helping.wait(timeout=30)
            helped_on.set()
            if caller_error is not None:
                raise caller_error
            return
        helped.append(piece)
        helping.set()
        assert helped_on.wait(timeout=30)
        time.sleep(0.05)  # the calling thread is done with its piece meanwhile
        helped.append(("done", piece))
        if helper_error is not None:
            raise helper_error
    return [(body, piece) for piece in range(pieces)]


class TestFailures:
    def test_waiting_re_raises_a_helper_exception(self, monkeypatch):
        monkeypatch.setattr(T, "_cpus", lambda: 2)
        helped = []
        with pytest.raises(ValueError, match="in a helper"):
            T._each_thread(T._TASK_MIN_WORK,
                           once_helped(2, helped, helper_error=ValueError("in a helper")))
        assert len(helped) == 2

    def test_no_piece_starts_after_each_thread_raises(self, monkeypatch):
        # Six pieces, the calling thread's raising while the helper runs one.
        monkeypatch.setattr(T, "_cpus", lambda: 2)
        helped = []
        with pytest.raises(RuntimeError, match="on the caller"):
            T._each_thread(T._TASK_MIN_WORK,
                           once_helped(6, helped, caller_error=RuntimeError("on the caller")))
        # The helper's piece finished before the raise, and it started no other.
        (piece, done), seen = helped, list(helped)
        assert done == ("done", piece)
        time.sleep(0.2)
        assert helped == seen

    def test_a_helper_exception_is_never_dropped(self, monkeypatch):
        # The calling thread's exception is raised, as a caller that catches
        # its type expects, with the helper's as its cause.
        monkeypatch.setattr(T, "_cpus", lambda: 2)
        calls = once_helped(2, [], ValueError("on the caller"), RuntimeError("in a helper"))
        with pytest.raises(ValueError, match="on the caller") as raised:
            T._each_thread(T._TASK_MIN_WORK, calls)
        assert isinstance(raised.value.__cause__, RuntimeError)
        assert str(raised.value.__cause__) == "in a helper"

    def test_a_task_no_helper_started_runs_on_the_caller(self, monkeypatch):
        # A two-piece job whose helper is busy elsewhere: the calling thread
        # runs both pieces.
        monkeypatch.setattr(T, "_cpus", lambda: 2)
        pool = futures.ThreadPoolExecutor(1)
        monkeypatch.setattr(T, "_pool", pool)
        release, ran_on = threading.Event(), []
        try:
            blocker = pool.submit(release.wait)
            out = np.zeros(3)
            T._each_thread(T._TASK_MIN_WORK,
                           [(lambda a: ran_on.append(threading.get_ident()), out)] * 2)
            assert ran_on == [threading.get_ident()] * 2
            # The cancelled submission still waits in the pool's queue, but
            # no longer holds the job's arrays.
            held = weakref.ref(out)
            out = None
            assert held() is None
        finally:
            release.set()
            blocker.result(timeout=30)
            pool.shutdown()

    def test_pieces_no_helper_started_run_on_the_caller(self, monkeypatch):
        monkeypatch.setattr(T, "_cpus", lambda: 2)
        pool = futures.ThreadPoolExecutor(1)
        monkeypatch.setattr(T, "_pool", pool)
        release, ran = threading.Event(), []
        try:
            blocker = pool.submit(release.wait)
            T._each_thread(T._TASK_MIN_WORK,
                           [(lambda piece: ran.append((piece, threading.get_ident())), piece)
                            for piece in range(4)])
            assert ran == [(piece, threading.get_ident()) for piece in range(4)]
        finally:
            release.set()
            blocker.result(timeout=30)
            pool.shutdown()

    def test_helper_error_in_train_step_rolls_back(self, monkeypatch):
        cfg = tiny_config()
        params = PoseModelParams.init(cfg, seed=33)
        mask = compile_joint_mask(chain_skeleton(4))
        samples = batch(cfg, 34, 3)
        opt = AdamState()
        train_step(samples, params, cfg, mask, opt)
        held = {}
        for name, p in params.named_parameters():
            p.grad = held[name] = np.full(p.shape, 0.5)
        data = {name: p.data.copy() for name, p in params.named_parameters()}
        moments = {name: (opt.m[name].copy(), opt.v[name].copy()) for name in opt.m}

        run_on_helpers(monkeypatch, cpus=2)

        def fail(*args):
            raise MemoryError("helper out of memory")
        monkeypatch.setattr(T, "_attention_head_grad", fail)  # runs on helpers only
        with pytest.raises(MemoryError, match="helper out of memory"):
            train_step(samples, params, cfg, mask, opt)
        for name, p in params.named_parameters():
            assert p.grad is held[name] and np.all(p.grad == 0.5), name
            assert np.array_equal(p.data, data[name]), name
            assert np.array_equal(opt.m[name], moments[name][0]), name
            assert np.array_equal(opt.v[name], moments[name][1]), name
        assert opt.step_count == 1

    def test_forked_child_trains_on_its_own_helpers(self):
        # In a subprocess, so that the warning some Pythons give on fork in a
        # threaded process does not meet this suite's filterwarnings = error.
        script = """
import os, sys
sys.path[:0] = sys.argv[1:]
import spt.tensor as T
from spt.model import AdamState, PoseModelParams, train_step
from spt.skeleton import compile_joint_mask
from test_model import chain_skeleton, tiny_config
from test_threads import batch, once_helped

T._cpus = lambda: 2
T._TASK_MIN_WORK = 0
cfg = tiny_config()
mask = compile_joint_mask(chain_skeleton(4))
samples = batch(cfg, 90, 2)
params = PoseModelParams.init(cfg, seed=91)
train_step(samples, params, cfg, mask, AdamState())
T._each_thread(0, once_helped(2, []))  # a helper took a call
pid = os.fork()
if pid == 0:
    try:
        train_step(samples, params, cfg, mask, AdamState())
        T._each_thread(0, once_helped(2, []))
        os._exit(0)
    except BaseException:
        os._exit(1)
_, status = os.waitpid(pid, 0)
sys.exit(os.waitstatus_to_exitcode(status))
"""
        paths = [str(Path(T.__file__).parents[1]), str(Path(__file__).parent)]
        done = subprocess.run([sys.executable, "-c", script, *paths], timeout=120,
                              capture_output=True, text=True)
        assert done.returncode == 0, done.stderr


# The names a tracing harness wraps to time a run; its span stack assumes they
# are all called on one thread.
TRACED = [(T, name) for name in (
    "matmul", "add", "add_bias", "scale", "gelu", "layer_norm", "rowwise_masked_softmax",
    "reshape", "transpose", "narrow", "concat", "sub", "mul", "add_scalar", "sum_all",
    "avg_pool2d", "mlp", "multi_head_attention", "backward", "_accumulate")] + [
    (spt.model, "forward"), (spt.model, "encoder_block"), (spt.model, "loss_mse"),
    (spt.model.AdamState, "step"), (spt.attention, "masked_self_attention")]


@pytest.mark.parametrize("mode", ["as_scheduled", "on_helpers"])
def test_traced_names_and_gradient_store_stay_on_the_calling_thread(monkeypatch, mode):
    jobs = []
    if mode == "on_helpers":
        jobs = run_on_helpers(monkeypatch)
        monkeypatch.setattr(T, "_ROW_SPLIT_MIN", 0)  # split every product; bits not compared
    threads = {}

    def recorder(name, fn):
        def wrapper(*args, **kwargs):
            threads.setdefault(name, set()).add(threading.get_ident())
            return fn(*args, **kwargs)
        return wrapper
    for owner, name in TRACED:
        monkeypatch.setattr(owner, name, recorder(name, getattr(owner, name)))
    cfg = tiny_config(embed_dim=16, heatmap_h=64, heatmap_w=64, **PRUNED)
    samples = batch(cfg, 95, 2)
    trained_state(cfg, samples, steps=1)
    spt.model.forward(samples[0][0], PoseModelParams.init(cfg, seed=5), cfg,
                      compile_joint_mask(chain_skeleton(cfg.joint_count)))  # no tape
    assert {"backward", "_accumulate", "step", "masked_self_attention", "mlp",
            "multi_head_attention"} <= set(threads)
    assert all(seen == {threading.get_ident()} for seen in threads.values()), threads
    if mode == "on_helpers":
        ran_on_helpers(jobs, "_by_rows")


def mentions(name):
    """``(module, top-level definition)`` of each use of ``name`` in ``src/spt``,
    as a bare name, an attribute or an import, in source order."""
    found = []
    for path in sorted(Path(T.__file__).parent.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            found += [(path.stem, getattr(top, "name", None)) for node in ast.walk(top)
                      if name in (getattr(node, "id", None), getattr(node, "attr", None))
                      or isinstance(node, ast.alias) and node.name == name]
    return found


class TestOneWayOntoTheHelpers:
    def test_only_each_thread_submits_to_the_pool(self):
        assert mentions("submit") == [("tensor", "_each_thread")]

    def test_only_the_dispatcher_reads_the_cpu_count(self):
        assert set(mentions("_cpus")) == {("tensor", "_each_thread"), ("tensor", "_by_rows")}

    @pytest.mark.parametrize("name", ["_each_thread", "_TASK_MIN_WORK"])
    def test_only_tensor_names_the_dispatcher(self, name):
        assert {module for module, _ in mentions(name)} == {"tensor"}



def pullbacks():
    """``(module, line, parameter names)`` of every pullback in ``src/spt``: each
    function named ``pullback`` and each lambda handed to ``_finish``, with the
    pullback arguments of ``_finish`` calls that are neither."""
    found, other = [], []
    for path in sorted(Path(T.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            fn = None
            if isinstance(node, ast.FunctionDef) and node.name == "pullback":
                fn = node
            elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_finish":
                if isinstance(node.args[2], ast.Lambda):
                    fn = node.args[2]
                elif getattr(node.args[2], "id", None) != "pullback":
                    other.append((path.stem, node.lineno))
            if fn is not None:
                a = fn.args
                names = [p.arg for p in (*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg)
                         if p is not None]
                found.append((path.stem, fn.lineno, names))
    return found, other


class TestOneRouterOfGradients:
    """``backward`` alone routes adjoints: a pullback gets the output's adjoint
    and returns its inputs' adjoints, and never sees the gradient store."""

    def test_only_backward_sums_adjoints(self):
        assert mentions("_accumulate") == [("tensor", "backward")]

    def test_every_pullback_takes_only_its_output_adjoint(self):
        found, other = pullbacks()
        assert other == []
        assert len(found) >= 18
        assert [f for f in found if len(f[2]) != 1] == []
