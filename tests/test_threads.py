"""Helper threads in backward and the Adam step: the bits and contracts of one thread."""

import subprocess
import sys
import threading
import time
from concurrent import futures
from pathlib import Path

import numpy as np
import pytest

import spt.attention
import spt.model
import spt.tensor as T
from spt.masks import AttentionMask
from spt.model import AdamState, PoseModelParams, train_step
from spt.pruning import PruneSchedule
from spt.skeleton import compile_joint_mask
from spt.tensor import Tensor

from test_model import chain_skeleton, tiny_config


def run_inline(monkeypatch):
    """One CPU: every task runs on the calling thread, as serial code."""
    monkeypatch.setattr(T, "_cpus", lambda: 1)


def run_on_helpers(monkeypatch, cpus=3):
    """``cpus - 1`` helpers, whichever CPUs there are, and every offered task
    runs on one: the caller waits for it instead of taking it back.  The
    calling thread also leaves every attention head to the helpers.

    Returns the scratch tiles each attention head group was handed.
    """
    monkeypatch.setattr(T, "_cpus", lambda: cpus)
    monkeypatch.setattr(T, "_TASK_MIN_WORK", 0)
    monkeypatch.setattr(T._Task, "wait", lambda task: task.future.result(timeout=60))
    heads, caller, scratch = T._attention_heads, threading.get_ident(), []

    def leave_heads(data, g, mask, s, todo, tiles, grad):
        scratch.append(tiles)
        if threading.get_ident() == caller:
            deadline = time.monotonic() + 30.0
            while todo and time.monotonic() < deadline:
                time.sleep(1e-4)
        heads(data, g, mask, s, todo, tiles, grad)
    monkeypatch.setattr(T, "_attention_heads", leave_heads)
    return scratch


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
        run_on_helpers(monkeypatch)
        assert trained_state(cfg, samples) == inline

    def test_split_adam_update_bits(self, monkeypatch):
        cfg = tiny_config(embed_dim=16, heatmap_h=64, heatmap_w=64, **PRUNED)
        sizes = [p.data.size for _, p in PoseModelParams.init(cfg, seed=31).named_parameters()]
        assert max(sizes) >= spt.model._ADAM_SPLIT_MIN
        samples = batch(cfg, 70, 2)
        run_inline(monkeypatch)
        monkeypatch.setattr(spt.model, "_ADAM_SPLIT_MIN", max(sizes) + 1)  # no halves
        inline = trained_state(cfg, samples)
        monkeypatch.undo()
        run_on_helpers(monkeypatch)
        threads, update = set(), spt.model._adam_update

        def recorded(*args):
            threads.add(threading.get_ident())
            update(*args)
        monkeypatch.setattr(spt.model, "_adam_update", recorded)
        assert trained_state(cfg, samples) == inline
        assert threads - {threading.get_ident()}  # a helper updated a half

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
        scratch = run_on_helpers(monkeypatch, cpus)
        assert packed_grad() == inline
        assert len(scratch) == cpus  # the caller and each helper, with tiles of its own
        assert not any(np.shares_memory(a, b) for i, a in enumerate(scratch)
                       for b in scratch[i + 1:])

    def test_attention_heads_taken_by_more_helpers_than_cores(self, monkeypatch):
        # Every head must be taken exactly once from the shared queue; a
        # head no thread took leaves its gradient columns unwritten.
        rng = np.random.default_rng(85)
        heads, n, r = 16, 24, 17
        packed = Tensor(rng.normal(size=(n, 3 * 4 * heads)), requires_grad=True)
        mask = AttentionMask((rng.uniform(size=(r, n)) < 0.7) | (np.arange(n) == 0))
        g = rng.normal(size=(r, 4 * heads))

        def packed_grad():
            store = {}
            with T.ComputationTape() as tape:
                T.multi_head_attention(packed, mask, heads)
            tape._records[0][1](g, store)
            return store[packed].tobytes()

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


class TestFailures:
    def test_waiting_re_raises_a_helper_exception(self, monkeypatch):
        monkeypatch.setattr(T, "_cpus", lambda: 2)

        def fail():
            raise ValueError("in a helper")
        task = T._Task(fail)
        assert futures.wait([task.future], timeout=30).done
        with pytest.raises(ValueError, match="in a helper"):
            task.wait()

    def test_a_task_no_helper_started_runs_on_the_caller(self, monkeypatch):
        monkeypatch.setattr(T, "_cpus", lambda: 2)
        pool = futures.ThreadPoolExecutor(1)
        monkeypatch.setattr(T, "_pool", pool)
        release, ran_on = threading.Event(), []
        try:
            blocker = pool.submit(release.wait)
            task = T._Task(lambda: ran_on.append(threading.get_ident()))
            task.wait()
            assert ran_on == [threading.get_ident()]
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

        monkeypatch.setattr(T, "_cpus", lambda: 2)
        monkeypatch.setattr(T, "_TASK_MIN_WORK", 0)
        monkeypatch.setattr(T._Task, "wait", lambda task: task.future.result(timeout=60))
        heads, caller = T._attention_heads, threading.get_ident()

        def fail_on_helpers(*args):
            if threading.get_ident() != caller:
                raise MemoryError("helper out of memory")
            heads(*args)
        monkeypatch.setattr(T, "_attention_heads", fail_on_helpers)
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
import os, sys, threading
sys.path[:0] = sys.argv[1:]
import spt.tensor as T
from spt.model import AdamState, PoseModelParams, train_step
from spt.skeleton import compile_joint_mask
from test_model import chain_skeleton, tiny_config
from test_threads import batch

T._cpus = lambda: 2
T._TASK_MIN_WORK = 0
cfg = tiny_config()
mask = compile_joint_mask(chain_skeleton(4))
samples = batch(cfg, 90, 2)
params = PoseModelParams.init(cfg, seed=91)
train_step(samples, params, cfg, mask, AdamState())
ran_on = []
T._Task(lambda: ran_on.append(threading.get_ident())).future.result(timeout=30)
assert ran_on and ran_on != [threading.get_ident()]
pid = os.fork()
if pid == 0:
    try:
        train_step(samples, params, cfg, mask, AdamState())
        T._Task(lambda: ran_on.append(threading.get_ident())).future.result(timeout=30)
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
    "avg_pool2d", "backward", "_accumulate")] + [
    (spt.model, "forward"), (spt.model, "encoder_block"), (spt.model, "loss_mse"),
    (spt.model.AdamState, "step"), (spt.attention, "masked_self_attention")]


@pytest.mark.parametrize("mode", ["as_scheduled", "on_helpers"])
def test_traced_names_and_gradient_store_stay_on_the_calling_thread(monkeypatch, mode):
    if mode == "on_helpers":
        run_on_helpers(monkeypatch)
    threads = {}

    def recorder(name, fn):
        def wrapper(*args, **kwargs):
            threads.setdefault(name, set()).add(threading.get_ident())
            return fn(*args, **kwargs)
        return wrapper
    for owner, name in TRACED:
        monkeypatch.setattr(owner, name, recorder(name, getattr(owner, name)))
    cfg = tiny_config(embed_dim=16, heatmap_h=64, heatmap_w=64, **PRUNED)
    trained_state(cfg, batch(cfg, 95, 2), steps=1)
    assert {"backward", "_accumulate", "step", "masked_self_attention"} <= set(threads)
    assert all(seen == {threading.get_ident()} for seen in threads.values()), threads
