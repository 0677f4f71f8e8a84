"""Spans for the traced run, and the per-layer accounting built from them.

Spans are recorded from the benchmark's own files: the traced run wraps
module functions of the engine (the same public entry points and the
callables the engine hands to Ray tasks) in timing wrappers, in the
driver and, through Ray's ``worker_process_setup_hook``, in every worker
process. No engine file changes.

Spans stay in memory. The driver keeps its own until the run ends; a
worker process has no end the benchmark can observe, so it appends its
buffer to ``<span dir>/<worker id>.jsonl`` whenever its outermost span
closes (once or a few times per task).

A layer's self time is the duration of its spans minus the part their
child spans cover. Task phases (deserialize arguments, execute, store
outputs) come from ``ray.timeline()``: the argument and output phases
are transfer time (the exchange's for its own tasks, Ray Data's for the
rest), and the part of an execute phase that no span covers is
``ray.uncovered_s``. That part is left out of ``trace.accounted_frac``,
so the fraction tells how much of the wall the layers' spans, the
transfers and ``ray.residual_s`` explain. Actor methods are left out:
they run in other processes, beside the tasks.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time

SPAN_DIR_ENV = "PERFBENCH_SPAN_DIR"
ENGINE = "versatiles_rs_ray"

# driver layers that are the driver's own computation, and the metric of
# each; every other driver span is wall time that waits on tasks
DRIVER_SELF_LAYERS = {"stages.pyramid.tail": "stages.pyramid.tail_s",
                      "stages.join.knn.finish": "stages.join.knn.finish_s",
                      "state.manifest": "state.manifest.self_s"}


def _rows_bytes(args, out):
    return {"rows": out.num_rows, "bytes": out.nbytes}


def _rows_in_out(args, out):
    return {"rows_in": args[0].num_rows, "rows_out": out.num_rows}


def _split_bytes(args, out):
    return {"part_bytes": [t.nbytes for t in out]}


def _rows(args, out):
    return {"rows": out.num_rows}


def _records(args, out):
    return {"records": len(out)}


# (module, attribute path, layer, counter, role)
PATCHES = [
    ("sources.docs", "_read_shard", "sources.docs", _rows_bytes, "worker"),
    ("stages.assign", "AssignTiles.__call__", "stages.assign", None, "worker"),
    ("stages.pyramid", "partial_multilevel_agg", "stages.pyramid.partial", _rows_in_out, "worker"),
    ("stages.pyramid", "_subtree_combine", "stages.pyramid.reduce", None, "worker"),
    ("stages.pyramid", "combine_tile_stats_block", "stages.pyramid.reduce", None, "worker"),
    ("stages.pyramid", "partial_levels_from_tiles", "stages.pyramid.reduce", None, "worker"),
    ("stages.exchange", "_split_block", "stages.exchange.split", _split_bytes, "worker"),
    ("stages.exchange", "_reduce_partition", "stages.exchange.merge", None, "worker"),
    ("stages.join", "TileSetPIPJoin.__call__", "stages.join.pip", None, "worker"),
    ("stages.join", "KnnPartial.__call__", "stages.join.knn.partial", _rows, "worker"),
    ("pipelines.pyramid", "finalize_level", "pipelines.pyramid.finalize", None, "worker"),
    ("stages.pyramid", "partial_levels_from_tiles", "stages.pyramid.tail", None, "driver"),
    ("stages.join", "_batch_topk", "stages.join.knn.finish", None, "driver"),
    ("state.manifest", "Manifest.load", "state.manifest", _records, "driver"),
    ("state.manifest", "Manifest.invalidate_stale", "state.manifest", None, "driver"),
    ("state.manifest", "Manifest.begin", "state.manifest", None, "driver"),
    ("state.manifest", "Manifest.commit", "state.manifest", None, "driver"),
    ("pipelines.pyramid", "_write_level", "pipelines.pyramid.level_write", None, "driver"),
]


class Recorder:
    """In-memory span buffer for one process."""

    def __init__(self, sink: str | None = None):
        self.spans = []  # [layer, start_us, end_us, counts]
        self.sink = sink
        self._depth = 0

    def wrap(self, fn, layer: str, counter=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._depth += 1
            t0 = time.time_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                self._depth -= 1
            t1 = time.time_ns()
            counts = counter(args, out) if counter else None
            self.spans.append([layer, t0 / 1e3, t1 / 1e3, counts])
            if self._depth == 0 and self.sink is not None:
                self.flush()
            return out

        return traced

    def flush(self):
        with open(self.sink, "a") as f:
            for s in self.spans:
                f.write(json.dumps(s) + "\n")
        self.spans = []


def install(recorder: Recorder, role: str):
    """Replace the engine attributes listed for ``role`` with wrappers."""
    for mod_name, attr, layer, counter, r in PATCHES:
        if r != role:
            continue
        mod = importlib.import_module(f"{ENGINE}.{mod_name}")
        owner, name = mod, attr
        if "." in attr:
            cls_name, name = attr.split(".")
            owner = getattr(mod, cls_name)
        setattr(owner, name, recorder.wrap(getattr(owner, name), layer, counter))


def worker_setup():
    """Ray worker_process_setup_hook: trace this worker's engine calls."""
    import ray

    span_dir = os.environ[SPAN_DIR_ENV]
    worker_id = ray.get_runtime_context().get_worker_id()
    install(Recorder(os.path.join(span_dir, f"{worker_id}.jsonl")), "worker")


def load_worker_spans(span_dir: str) -> dict:
    """worker id -> list of spans, read from the per-worker files."""
    out = {}
    for name in os.listdir(span_dir):
        if name.endswith(".jsonl"):
            with open(os.path.join(span_dir, name)) as f:
                out[name[:-6]] = [json.loads(line) for line in f if line.strip()]
    return out


def _self_times(spans):
    """[(layer, start, end, counts)] of one process -> per span self time
    (duration minus direct children), and the top-level spans."""
    spans = sorted(spans, key=lambda s: (s[1], -s[2]))
    self_t = [s[2] - s[1] for s in spans]
    top, stack = [], []
    for i, s in enumerate(spans):
        while stack and spans[stack[-1]][2] <= s[1]:
            stack.pop()
        if stack and s[2] <= spans[stack[-1]][2]:
            self_t[stack[-1]] -= s[2] - s[1]
        else:
            top.append(i)
        stack.append(i)
    return spans, self_t, top


def _union_length(intervals):
    total, end = 0.0, float("-inf")
    for a, b in sorted(intervals):
        if b > end:
            total += b - max(a, end)
            end = b
    return total


def _clip(a, b, lo, hi):
    return max(a, lo), min(b, hi)


def account(timeline, worker_spans: dict, driver_spans: list, t0_us: float, t1_us: float) -> dict:
    """Per-layer metrics for the window [t0_us, t1_us] (one traced pass)."""
    m = {}

    def add(key, v):
        m[key] = m.get(key, 0.0) + v

    wall = (t1_us - t0_us) / 1e6
    intervals = []

    # worker spans in the window: self times per layer, plus counts
    tops_by_worker = {}
    for wid, spans in worker_spans.items():
        spans = [s for s in spans if s[1] >= t0_us and s[2] <= t1_us]
        spans, self_t, top = _self_times(spans)
        tops_by_worker[wid] = [spans[i] for i in top]
        for s, st in zip(spans, self_t):
            layer, counts = s[0], s[3] or {}
            add(f"{layer}.self_s", st / 1e6)
            if layer == "sources.docs":
                add("sources.docs.rows", counts["rows"])
                add("sources.docs.bytes", counts["bytes"])
            elif layer == "stages.pyramid.partial":
                add("stages.pyramid.partial.rows_in", counts["rows_in"])
                add("stages.pyramid.partial.rows_out", counts["rows_out"])
            elif layer == "stages.exchange.split":
                pb = counts["part_bytes"]
                prev = m.get("_part_bytes", [0] * len(pb))
                m["_part_bytes"] = [a + b for a, b in zip(prev, pb)] if len(prev) == len(pb) else pb
                add("stages.exchange.refs", len(pb))
                add("stages.exchange.bytes", sum(pb))
            elif layer == "stages.join.knn.partial":
                add("stages.join.knn.partial_rows", counts["rows"])

    # task phases from the timeline
    phases = {}
    for e in timeline:
        if e.get("cat") in ("task:execute", "task:deserialize_arguments", "task:store_outputs"):
            phases.setdefault(e["tid"], []).append((e["cat"], e["ts"], e["ts"] + e["dur"]))
    n_tasks = 0
    for e in timeline:
        if not str(e.get("cat", "")).startswith("task::"):
            continue
        a, b = _clip(e["ts"], e["ts"] + e["dur"], t0_us, t1_us)
        if b <= a or e["args"]["task_id"][16:40] != "f" * 24:
            # outside the window, or a method of one of Ray Data's
            # bookkeeping actors (their task ids carry the actor id),
            # which runs in its own process beside the tasks
            continue
        n_tasks += 1
        name = e.get("name", "")
        exchange = name.startswith(f"{ENGINE}.stages.exchange.")
        wid = e["tid"].split(":", 1)[-1]
        for cat, pa_, pb_ in phases.get(e["tid"], []):
            if pa_ < e["ts"] or pb_ > e["ts"] + e["dur"]:
                continue
            pa_, pb_ = _clip(pa_, pb_, t0_us, t1_us)
            if pb_ <= pa_:
                continue
            intervals.append((pa_, pb_))
            dur = (pb_ - pa_) / 1e6
            if cat != "task:execute":
                add("stages.exchange.transfer_s" if exchange else "ray.data.self_s", dur)
                continue
            covered = sum(s[2] - s[1] for s in tops_by_worker.get(wid, [])
                          if s[1] >= pa_ and s[2] <= pb_) / 1e6
            add("ray.uncovered_s", dur - covered)
    m["ray.tasks"] = n_tasks

    # driver spans: own computation is counted; the rest is wall time
    spans = [s for s in driver_spans if s[1] >= t0_us and s[2] <= t1_us]
    spans, self_t, _ = _self_times(spans)
    for s, st in zip(spans, self_t):
        layer = s[0]
        if layer in DRIVER_SELF_LAYERS:
            intervals.append((s[1], s[2]))
            add(DRIVER_SELF_LAYERS[layer], st / 1e6)
        elif layer == "pipelines.pyramid.level_write":
            add("pipelines.pyramid.level_write_s", (s[2] - s[1]) / 1e6)
            add("pipelines.pyramid.levels_written", 1)
        if layer == "state.manifest" and s[3]:
            add("state.manifest.partitions_skipped", s[3]["records"])

    pb = m.pop("_part_bytes", None)
    if pb:
        pb = sorted(pb)
        med = pb[len(pb) // 2]
        m["stages.exchange.partition_skew"] = pb[-1] / med if med else 0.0
    rows = m.pop("sources.docs.rows", 0)
    nbytes = m.pop("sources.docs.bytes", 0)
    m["sources.docs.bytes_out_per_doc"] = nbytes / rows if rows else 0.0
    m["ray.residual_s"] = wall - _union_length(intervals) / 1e6
    m["trace.wall_s"] = wall
    self_keys = [k for k in m if k.endswith(("self_s", "transfer_s", "tail_s", "finish_s"))]
    m["trace.accounted_frac"] = (sum(m[k] for k in self_keys) + m["ray.residual_s"]) / wall
    return m
