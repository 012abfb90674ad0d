"""The benchmark's workloads: set-up, the closed request loop, output checks, metrics.

Each workload is one client that sends its next request when the previous
one has finished.  Inputs come from the seed only: parameters from
``PoseModelParams.init(config, seed)``, images from ``generate_synthetic``
with that seed.  ``spt`` is driven through its public functions, always
looked up on their modules at call time, so the traced run's wrappers see
every call.

Every request is checked against ``oracle``, an independent float64
implementation, after the timed loop (so its memory and time stay out of
the measurements).
"""

from __future__ import annotations

import os
import platform
import resource
import shutil
import statistics
import time
import traceback
from dataclasses import dataclass, replace

import numpy as np

import oracle
import tracer as tr

WORKLOADS = ("ref_infer_dense", "ref_infer_pruned", "ref_train")
POOL_SIZE = 4          # distinct images per run; requests cycle through them
BATCH_SIZE = 2
SETUP_REPEATS = 3      # setup_s is the median of these
TARGET_SIGMA = 1.5
ALPHAS = (0.5, 0.1)
HEATMAP_ATOL = 1e-12   # float64 agreement with the dense reference
KEYPOINT_ATOL = 1e-9
LOSS_RTOL = 1e-9       # train losses accumulate rounding over the steps
PARAM_ATOL = 1e-9
SELF_TIME_GAP = 0.01   # share of a traced request's wall time its self times may miss
SWEEP_KEEPS = (1.0, 0.6, 0.1)
SWEEP_ROUNDS = 2
STAGES = 4
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "SPT_THREADS")
EVALUATE_WORKERS = 1
FINITE_CHECKS = False  # the library default; the test suite turns it on

clock = time.perf_counter


def base_config(spt, scale: str):
    """The reference config, or the tests' tiny config for the smoke run.

    The tiny config uses 16 joints because synthetic scenes draw the
    16-joint skeleton, and prunes after its first encoder layer.
    """
    M = spt.model
    if scale == "ref":
        return M.ModelConfig()
    if scale == "tiny":
        return M.ModelConfig(
            image_h=16, image_w=16, channels=1, downsample=1, patch_h=4, patch_w=4,
            embed_dim=8, heads=2, encoder_layers=2, graph_layers=1, joint_count=16,
            heatmap_h=4, heatmap_w=4, mlp_ratio=2,
            schedule=spt.pruning.PruneSchedule(update_layers=(1,), keep_ratio=0.6),
        )
    raise ValueError(f"unknown scale {scale!r}")


def workload_config(spt, workload: str, scale: str):
    config = base_config(spt, scale)
    if workload == "ref_infer_dense":
        config = replace(config, schedule=spt.pruning.PruneSchedule(update_layers=()))
    return config.validate()


def environment(spt) -> dict:
    """What two runs must share to be compared."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "thread_env": {name: os.environ.get(name) for name in THREAD_VARS},
        "evaluate_workers": EVALUATE_WORKERS,
        "finite_checks": FINITE_CHECKS,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


# ---------------------------------------------------------------------------
# Set-up and requests
# ---------------------------------------------------------------------------


@dataclass
class State:
    workload: str
    config: object
    params: object
    joint_mask: object
    samples: list
    targets: list | None = None
    optimizer: object = None
    steps: int = 0  # train steps taken, the warm-up included


class OutputTap:
    """Keeps the heatmaps, keypoints and diagnostics of the last evaluate_model call."""

    def __init__(self):
        self.clear()

    def clear(self):
        self.heatmaps = self.keypoints = self.diagnostics = None

    def install(self, spt) -> tr.Patches:
        patches = tr.Patches()
        forward, decode = spt.evaluation.forward, spt.evaluation.decode_heatmaps

        def tapped_forward(*args, **kwargs):
            out = forward(*args, **kwargs)
            self.diagnostics = out[1]
            return out

        def tapped_decode(heatmaps, *args, **kwargs):
            out = decode(heatmaps, *args, **kwargs)
            self.heatmaps, self.keypoints = heatmaps, out
            return out

        patches.set(spt.evaluation, "forward", tapped_forward)
        patches.set(spt.evaluation, "decode_heatmaps", tapped_decode)
        return patches


def train_batch(state: State, step: int) -> list:
    picks = [(BATCH_SIZE * step + b) % len(state.samples) for b in range(BATCH_SIZE)]
    return [(state.samples[i][0], state.targets[i], state.samples[i][1].visibility)
            for i in picks]


def set_up(spt, workload: str, config, seed: int, ckpt_dir) -> State:
    """Everything before the first measured request but the warm-up request.

    The oracle starts from a fresh ``PoseModelParams.init`` later, so a
    checkpoint round trip that changes a parameter fails the output checks.
    """
    M = spt.model
    initial = M.PoseModelParams.init(config, seed=seed)
    scene = spt.data.SyntheticSceneConfig(seed=seed, image_h=config.image_h,
                                          image_w=config.image_w)
    samples = spt.data.generate_synthetic(scene, POOL_SIZE)
    M.save_checkpoint(ckpt_dir, initial, config)
    del initial
    params, loaded_config, _ = M.load_checkpoint(ckpt_dir)
    joint_mask = spt.skeleton.compile_joint_mask(spt.skeleton.default_skeleton())
    state = State(workload, loaded_config, params, joint_mask, samples)
    if workload == "ref_train":
        state.targets = [
            spt.data.render_target_heatmaps(ann, config.heatmap_h, config.heatmap_w,
                                            TARGET_SIGMA, config.image_h, config.image_w)
            for _, ann in samples
        ]
        state.optimizer = M.AdamState()
    return state


def request(spt, state: State, index: int):
    """One request; returns (seconds, output, error)."""
    if state.workload == "ref_train":
        batch = train_batch(state, state.steps)
        state.steps += 1
        call = lambda: spt.model.train_step(batch, state.params, state.config,
                                            state.joint_mask, state.optimizer)
    else:
        sample = state.samples[index % len(state.samples)]
        call = lambda: spt.evaluation.evaluate_model(state.params, state.config,
                                                     state.joint_mask, [sample],
                                                     workers=EVALUATE_WORKERS)
    start = clock()
    try:
        out, error = call(), None
    except Exception as exc:  # a failed request, counted and reported, never a crash
        out, error = None, exc
    return clock() - start, out, error


def record(state: State, index: int, seconds: float, out, error, tap: OutputTap,
           firsts: dict) -> dict:
    """What the output check needs from one request, kept small."""
    rec = {"index": index, "ms": seconds * 1e3}
    if error is not None:
        rec["error"] = "".join(traceback.format_exception_only(type(error), error)).strip()
        return rec
    if state.workload == "ref_train":
        rec["step"] = state.steps - 1
        rec["loss"] = float(out)
        if not np.isfinite(out):
            rec["error"] = "non-finite loss"
        return rec
    image = index % len(state.samples)
    rec["image"] = image
    if tap.heatmaps is None or tap.diagnostics is None:
        rec["error"] = ("outputs not observed: evaluate_model no longer calls "
                        "spt.evaluation.forward and decode_heatmaps")
        return rec
    heatmaps = np.asarray(tap.heatmaps.data)
    if not np.isfinite(heatmaps).all():
        rec["error"] = "non-finite heatmaps"
        return rec
    first = firsts.setdefault(image, heatmaps)
    rec["deviation"] = 0.0 if first is heatmaps else float(np.abs(heatmaps - first).max())
    rec["keypoints"] = np.asarray(tap.keypoints, dtype=np.float64)
    rec["kept"] = [int(h.sum()) for h in tap.diagnostics.mask_state.history]
    rec["rates"] = {a: np.asarray(out.per_joint[a], dtype=np.float64) for a in ALPHAS}
    rec["mean"] = {a: float(out.mean[a]) for a in ALPHAS}
    rec["sample_count"] = out.sample_count
    return rec


# ---------------------------------------------------------------------------
# Output checks against the oracle
# ---------------------------------------------------------------------------


def _param_arrays(params) -> dict:
    arrays = {name: t.data for name, t in params.named_parameters()}
    arrays["positional_encoding"] = params.positional_encoding.data
    return arrays


def check_inference(spt, state: State, records: list, firsts: dict, seed: int) -> None:
    """Mark each record ok or not against the oracle's outputs for its image."""
    config = state.config
    arrays = _param_arrays(spt.model.PoseModelParams.init(config, seed=seed))
    refs = {}
    for image, first in firsts.items():
        sample_image, ann = state.samples[image]
        heatmaps, kept, _ = oracle.forward(sample_image, arrays, config, state.joint_mask.bits)
        keypoints = oracle.decode(heatmaps, config.image_h, config.image_w)
        rates = oracle.pckh_rates(keypoints, ann.joints, ann.visibility, ann.head_size, ALPHAS)
        refs[image] = {
            "error": float(np.abs(first - heatmaps).max()),
            "keypoints": keypoints,
            "kept": kept[1:],
            "rates": rates,
            "mean": {a: float(np.nanmean(r)) for a, r in rates.items()},
        }
    for rec in records:
        if "error" in rec:
            rec["ok"] = False
            continue
        ref = refs[rec["image"]]
        problems = []
        if rec["deviation"] + ref["error"] > HEATMAP_ATOL:
            problems.append(f"heatmaps off by up to {rec['deviation'] + ref['error']:.3g}")
        if np.abs(rec["keypoints"] - ref["keypoints"]).max() > KEYPOINT_ATOL:
            problems.append("decoded keypoints differ")
        if rec["kept"] != ref["kept"]:
            problems.append(f"kept cells {rec['kept']} != {ref['kept']}")
        if rec["sample_count"] != 1 or any(
                not np.array_equal(rec["rates"][a], ref["rates"][a], equal_nan=True)
                or rec["mean"][a] != ref["mean"][a] for a in ALPHAS):
            problems.append("PCKh report differs")
        rec["ok"] = not problems
        if problems:
            rec["error"] = "; ".join(problems)


def check_training(spt, state: State, records: list, seed: int) -> list:
    """Replay the run's steps on the oracle; marks records, returns run-level problems.

    Every set-up's warm-up is a step 0 from fresh parameters; the last one's
    step 0 begins the trajectory that the loop continues.
    """
    initial = spt.model.PoseModelParams.init(state.config, seed=seed)
    ref = oracle.AdamReference(_param_arrays(initial))
    problems = []
    for rec in sorted(records, key=lambda r: r.get("step", -1)):
        if "step" not in rec:
            rec["ok"] = False
            continue
        while ref.steps <= rec["step"]:
            ref_loss = ref.train_step(train_batch(state, ref.steps), state.config,
                                      state.joint_mask.bits)
        rec["reference_loss"] = ref_loss
        rec["ok"] = "error" not in rec and abs(rec["loss"] - ref_loss) <= LOSS_RTOL * abs(ref_loss)
        if not rec["ok"] and "error" not in rec:
            rec["error"] = f"loss {rec['loss']!r} vs reference {ref_loss!r}"
    if ref.steps == state.steps:
        for name, p in state.params.named_parameters():
            gap = float(np.abs(p.data - ref.params[name]).max())
            if not gap <= PARAM_ATOL:
                problems.append(f"parameter {name} off by {gap:.3g} after the last step")
                break
    else:
        problems.append("train steps could not be replayed")
    return problems


# ---------------------------------------------------------------------------
# The run
# ---------------------------------------------------------------------------


def _quartiles(values):
    if len(values) == 1:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[1], q[2]


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class RunResult:
    correct: bool
    attempted: int
    failed: int
    metrics: dict   # name -> (value, unit)
    report: dict    # everything written to the results file


def run_workload(spt, workload: str, seed: int, seconds: float, trace: bool,
                 workdir, scale: str = "ref") -> RunResult:
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    with spt.tensor.finite_checks(FINITE_CHECKS):
        return _run(spt, workload, seed, seconds, trace, workdir, scale)


def _run(spt, workload, seed, seconds, trace, workdir, scale) -> RunResult:
    env = environment(spt)
    config = workload_config(spt, workload, scale)
    stage_bounds = workload_config(spt, "ref_infer_pruned", scale).schedule.update_layers
    tracer = tr.Tracer() if trace else None
    infer = workload != "ref_train"
    tap = OutputTap()
    tap_patches = tap.install(spt) if infer else tr.Patches()
    ckpt_dir = os.path.join(str(workdir), f"ckpt-{os.getpid()}")

    def traced(fn, root):
        patches = tr.install(tracer, spt, config.joint_count, stage_bounds)
        try:
            start = clock()
            with tracer.span(root):
                out = fn()
            return clock() - start, out
        finally:
            patches.undo()

    problems = []
    firsts = {}  # image index -> heatmaps of its first response
    try:
        setups, warmups = [], []
        for rep in range(SETUP_REPEATS):
            def setup():
                state = set_up(spt, workload, config, seed, ckpt_dir)
                tap.clear()
                return state, request(spt, state, 0)
            if trace and rep % 2 == 0:
                seconds_taken, (state, warm) = traced(setup, "bench.setup")
            else:
                start = clock()
                state, warm = setup()
                seconds_taken = clock() - start
            setups.append({"seconds": seconds_taken, "traced": bool(trace and rep % 2 == 0)})
            if state.config != config:
                problems.append("checkpoint round trip changed the config")
            warmups.append(record(state, 0, *warm, tap, firsts))

        records = []
        index = 1
        loop_start = clock()
        deadline = loop_start + seconds
        while clock() < deadline:
            tap.clear()
            is_traced = trace and index % 2 == 0
            if is_traced:
                seconds_taken, (took, out, error) = traced(
                    lambda: request(spt, state, index), "bench.request")
            else:
                took, out, error = request(spt, state, index)
                seconds_taken = took
            rec = record(state, index, took, out, error, tap, firsts)
            rec["traced"] = is_traced
            rec["wall_ms"] = seconds_taken * 1e3
            records.append(rec)
            index += 1
        loop_seconds = clock() - loop_start
        peak_rss = _peak_rss_mb()

        sweep = keep_ratio_sweep(spt, state, stage_bounds, tracer) if trace else None

        if infer:
            check_inference(spt, state, warmups + records, firsts, seed)
        else:
            problems += check_training(spt, state, warmups + records, seed)
    finally:
        tap_patches.undo()
        shutil.rmtree(ckpt_dir, ignore_errors=True)

    for rec in warmups:
        if not rec.get("ok"):
            problems.append(f"warm-up request failed: {rec.get('error', 'mismatch')}")
    failed = sum(1 for r in records if not r["ok"])
    plain = [r for r in records if not r["traced"]]
    samples_per_request = BATCH_SIZE if not infer else 1
    p50, p75 = _quartiles([r["ms"] for r in plain])
    ok_plain = sum(1 for r in plain if r["ok"])
    plain_seconds = sum(r["wall_ms"] for r in plain) / 1e3 if trace else loop_seconds
    end_to_end = {
        "latency_ms_p50": (p50, "ms"),
        "latency_ms_p75": (p75, "ms"),
        "samples_per_s": (ok_plain * samples_per_request / plain_seconds, "1/s"),
        "setup_s": (statistics.median(s["seconds"] for s in setups), "s"),
        "peak_rss_mb": (peak_rss, "MB"),
    }
    report = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": bool(trace),
        "scale": scale, "environment": env, "config": config.to_json_dict(),
        "setups": setups, "problems": problems,
        "loop_seconds": loop_seconds, "requests": len(records), "failed": failed,
        "end_to_end": {k: v[0] for k, v in end_to_end.items()},
        "requests_detail": [_jsonable(r) for r in warmups + records],
    }
    if trace:
        metrics, extra = per_layer_metrics(tracer, records, setups, config, sweep)
        report["per_layer"] = {k: v[0] for k, v in metrics.items()}
        report["trace"] = extra
        report["spans"] = tracer.spans
        problems += extra["problems"]
    else:
        metrics = end_to_end
    correct = failed == 0 and not problems
    return RunResult(correct, len(records), failed, metrics, report)


def _jsonable(value):
    if isinstance(value, np.ndarray):
        return [None if np.isnan(v) else float(v) for v in value.ravel()]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    return value


# ---------------------------------------------------------------------------
# Traced-run reports
# ---------------------------------------------------------------------------


def keep_ratio_sweep(spt, state: State, stage_bounds, tracer) -> dict:
    """Traced evaluate_model requests at the dense schedule and each sweep keep ratio."""
    PruneSchedule = spt.pruning.PruneSchedule
    base = state.config
    configs = [("dense", replace(base, schedule=PruneSchedule(update_layers=())))]
    configs += [(f"keep{k}", replace(base, schedule=PruneSchedule(
        update_layers=stage_bounds, keep_ratio=k))) for k in SWEEP_KEEPS]
    for r in range(SWEEP_ROUNDS):
        sample = state.samples[r % len(state.samples)]
        for label, config in configs:
            patches = tr.install(tracer, spt, config.joint_count, stage_bounds)
            try:
                with tracer.span(f"bench.sweep.{label}"):
                    spt.evaluation.evaluate_model(state.params, config, state.joint_mask,
                                                  [sample], workers=EVALUATE_WORKERS)
            finally:
                patches.undo()
    rows = {}
    n = base.num_patches
    for label, config in configs:
        roots = tr.totals_by_root(tracer.spans, f"bench.sweep.{label}")
        count = max(1, len(roots))
        row = {
            f"stage{s}.encoder_ms": 1e3 * sum(acc[f"attention.encoder_block.stage{s}"][1]
                                              for acc in roots.values()) / count
            for s in range(STAGES)
        }
        row["softmax_ms"] = 1e3 * sum(
            acc["tensor.rowwise_masked_softmax:rowwise_masked_softmax"][0]
            for acc in roots.values()) / count
        fwd = _forward_values(tracer.spans, f"bench.sweep.{label}")
        kept = fwd[0]["kept"] if fwd else []
        for s in range(1, STAGES):
            row[f"stage{s}.kept_fraction"] = (kept[s - 1] if s <= len(kept) else n * n) / (n * n)
        row["mac_ratio"] = fwd[0]["mac_ratio"] if fwd else 1.0
        rows[label] = row
    return rows


def _forward_values(spans, root_name) -> list:
    root = tr.roots_of(spans)
    return [s[tr.VALUE] for i, s in enumerate(spans)
            if s[tr.NAME] == "model.forward" and spans[root[i]][tr.NAME] == root_name]


REQUEST_SPANS = {
    "attention.graph_block.self_ms": "attention.graph_block",
    "attention.masked_self_attention.self_ms": "attention.masked_self_attention",
    "attention.project_qkv.self_ms": "attention.project_qkv",
    "pruning.apply_prune_schedule.self_ms": "pruning.apply_prune_schedule",
    "pruning.topk_row_mask.self_ms": "pruning.topk_row_mask",
    "model.patchify_embed.self_ms": "model.patchify_embed",
    "model.full_token_mask.self_ms": "model.full_token_mask",
    "model.forward.self_ms": "model.forward",
    "model.loss_mse.self_ms": "model.loss_mse",
    "model.adam_step.self_ms": "model.adam_step",
    "model.train_step.self_ms": "model.train_step",
    "tensor.backward.self_ms": "tensor.backward",
    "evaluation.evaluate_model.self_ms": "evaluation.evaluate_model",
    "evaluation.decode_heatmaps.self_ms": "evaluation.decode_heatmaps",
    "evaluation.pckh.self_ms": "evaluation.pckh",
    "bench.request.self_ms": "bench.request",
}

SETUP_SPANS = {
    "model.load_checkpoint.self_ms": "model.load_checkpoint",
    "model.save_checkpoint.self_ms": "model.save_checkpoint",
    "formats.load_tensor.self_ms": "formats.load_tensor",
    "data.generate_synthetic.self_ms": "data.generate_synthetic",
    "data.render_target_heatmaps.self_ms": "data.render_target_heatmaps",
    "skeleton.compile_joint_mask.self_ms": "skeleton.compile_joint_mask",
}

TENSOR_GROUPS = ("gelu", "matmul", "layer_norm", "add_bias", "add", "scale", "shape_ops",
                 "rowwise_masked_softmax", "other")


def per_layer_metrics(tracer, records, setups, config, sweep):
    """Per-request (per image or per train step) and per-setup numbers from the spans."""
    spans = tracer.spans
    requests = tr.totals_by_root(spans, "bench.request")
    setup_roots = tr.totals_by_root(spans, "bench.setup")
    nreq, nsetup = max(1, len(requests)), max(1, len(setup_roots))

    def per(roots, count, name, column):
        return sum(acc[name][column] for acc in roots.values() if name in acc) / count

    m = {}
    group_self, calls, out_bytes = dict.fromkeys(TENSOR_GROUPS, 0.0), 0, 0
    for acc in requests.values():
        for name, (own, _, n, value) in acc.items():
            if name.startswith("tensor.") and ":" in name:
                group_self[name.split(":")[1]] += own
                calls += n
                out_bytes += value
    for group in TENSOR_GROUPS:
        m[f"tensor.{group}.self_ms"] = (1e3 * group_self[group] / nreq, "ms")
    m["tensor.calls"] = (calls / nreq, "count")
    m["tensor.out_mb"] = (out_bytes / 1e6 / nreq, "MB")
    m["tensor.tape_len"] = (per(requests, nreq, "tensor.backward", 3), "count")
    for s in range(STAGES):
        name = f"attention.encoder_block.stage{s}"
        m[f"attention.encoder_block.self_ms.stage{s}"] = (1e3 * per(requests, nreq, name, 0), "ms")
        m[f"attention.encoder_block.ms.stage{s}"] = (1e3 * per(requests, nreq, name, 1), "ms")
    for metric, name in REQUEST_SPANS.items():
        m[metric] = (1e3 * per(requests, nreq, name, 0), "ms")
    for metric, name in SETUP_SPANS.items():
        m[metric] = (1e3 * per(setup_roots, nsetup, name, 0), "ms")
    m["formats.load_tensor.mb"] = (per(setup_roots, nsetup, "formats.load_tensor", 3) / 1e6, "MB")

    forwards = _forward_values(spans, "bench.request")
    n_cells = config.num_patches ** 2
    for s in range(1, STAGES):
        kept = [f["kept"][s - 1] if s <= len(f["kept"]) else n_cells for f in forwards]
        m[f"pruning.kept_cells.stage{s}"] = (sum(kept) / max(1, len(kept)), "count")
    m["pruning.mac_ratio"] = (forwards[0]["mac_ratio"] if forwards else 1.0, "ratio")
    dense_softmax = sweep["dense"]["softmax_ms"]
    m["attention.softmax_ms_ratio"] = (
        sweep["keep0.6"]["softmax_ms"] / dense_softmax if dense_softmax else 0.0, "ratio")
    for label, row in sweep.items():
        for key, value in row.items():
            unit = "ms" if key.endswith("_ms") else "ratio"
            m[f"sweep.{label}.{key}"] = (value, unit)

    # Tracing overhead and the self-time account of each traced request.
    traced = [r for r in records if r["traced"]]
    plain = [r for r in records if not r["traced"]]
    traced_setup = [s["seconds"] for s in setups if s["traced"]]
    plain_setup = [s["seconds"] for s in setups if not s["traced"]]
    problems = []
    max_gap, unaccounted = 0.0, 0
    for acc, rec in zip(requests.values(), traced):
        wall = rec["wall_ms"] / 1e3
        gap = abs(wall - sum(entry[0] for entry in acc.values()))
        max_gap = max(max_gap, gap / wall)
        # The root span opens just inside the wall-clock interval; the fixed
        # 0.5 ms allowance keeps the smoke run's tiny requests from failing on that.
        unaccounted += gap > SELF_TIME_GAP * wall + 5e-4
    nesting = tr.nesting_errors(spans)
    if nesting:
        problems.append(f"{nesting} spans are not nested inside their parents")
    if unaccounted:
        problems.append(f"self times miss over {SELF_TIME_GAP:.0%} of the wall time "
                        f"of {unaccounted} traced requests")
    m["trace.self_time_gap_ratio"] = (max_gap, "ratio")
    m["trace.latency_overhead_ratio"] = (
        statistics.median(r["ms"] for r in traced) / statistics.median(r["ms"] for r in plain) - 1.0
        if traced and plain else 0.0, "ratio")
    m["trace.setup_overhead_ratio"] = (
        statistics.median(traced_setup) / statistics.median(plain_setup) - 1.0
        if traced_setup and plain_setup else 0.0, "ratio")
    m["trace.spans_per_request"] = (
        sum(entry[2] for acc in requests.values() for entry in acc.values()) / nreq, "count")
    m["trace.traced_requests"] = (len(requests), "count")
    return m, {"problems": problems, "self_time_gap_ratio": max_gap,
               "nesting_errors": nesting, "sweep": sweep}


def format_sweep(sweep: dict) -> str:
    """The keep-ratio table: encoder time per stage next to kept fraction and mac_ratio."""
    lines = ["schedule   " + "  ".join(f"stage{s}_ms" for s in range(STAGES))
             + "  " + "  ".join(f"kept{s}" for s in range(1, STAGES)) + "  mac_ratio  softmax_ms"]
    for label, row in sweep.items():
        lines.append(f"{label:<9}  " + "  ".join(f"{row[f'stage{s}.encoder_ms']:9.2f}"
                                                 for s in range(STAGES))
                     + "  " + "  ".join(f"{row[f'stage{s}.kept_fraction']:5.3f}"
                                        for s in range(1, STAGES))
                     + f"  {row['mac_ratio']:9.4f}  {row['softmax_ms']:10.2f}")
    return "\n".join(lines)
