"""One benchmark run: ``python3 perfbench/run.py --workload <name> --seed <n>
--seconds <s> --trace <0|1>`` from the root of a checkout of the repo.

The run writes its seeded input table, computes the numpy oracles, sets
Ray up on one core (one driver process), and then
runs the workload as a closed loop of passes for ``--seconds`` seconds,
checking every pass against the oracles. The last line of standard
output is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` the run measures untraced passes
in one Ray session and traced passes in a second, and reports the
per-layer metrics. The line before the result records the run
conditions. Everything the run writes stays in ``perfbench/.work`` and
``.rt`` (Ray's session directory) under the checkout.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import shutil
import statistics
import sys
import threading
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)
WORK = os.path.join(ROOT, "perfbench", ".work")
# temporary files of this process and of every process it starts (Ray's
# included) stay in the checkout; set before anything asks for the
# temp dir, which Python computes once
os.environ["TMPDIR"] = os.path.join(WORK, "tmp")
os.makedirs(os.environ["TMPDIR"], exist_ok=True)

import versatiles_rs_ray  # noqa: E402,F401  (fails fast without the engine)

from perfbench import trace  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

SETUP_REPEATS = 3
# one core: the box this benchmark was sized on gives one (nproc is 1),
# and a fixed figure keeps runs comparable wherever they run
NUM_CPUS = 1
# a fixed object store, far above what a pass keeps in it, so that runs
# do not depend on how much memory the machine has free
OBJECT_STORE_BYTES = 1_000_000_000
RAY_INIT_ATTEMPTS = 3
# Ray puts AF_UNIX sockets under <temp dir>/session_<date>_<pid>/sockets/;
# such a path may hold at most 107 bytes
RAY_SOCKET_SUFFIX = len("/session_2026-01-01_00-00-00_000000_0000000/sockets/plasma_store")


def _cpu_stat():
    """(busy, steal) jiffies of the whole machine from /proc/stat."""
    with open("/proc/stat") as f:
        v = list(map(int, f.readline().split()[1:]))
    return sum(v) - v[3] - v[4], v[7]


class Unstolen:
    """Times a section as wall time minus the hypervisor's steal.

    On a shared host the hypervisor runs other guests on this machine's
    CPUs for a share of the time that moves from ~0 to over half within
    minutes, and a pass's wall time moves with it. ``steal`` is that
    share of the CPU time the machine wanted during the section (steal
    over busy jiffies, all CPUs), and ``seconds`` is the wall time scaled
    by ``1 - steal``: the time the section would take on the same
    machine with no other guest.
    """

    def __init__(self):
        self._stat = _cpu_stat()
        self._t0 = time.perf_counter()

    def stop(self) -> "Unstolen":
        self.wall = time.perf_counter() - self._t0
        busy, steal = (b - a for a, b in zip(self._stat, _cpu_stat()))
        self.steal = steal / busy if busy > 0 else 0.0
        self.seconds = self.wall * (1.0 - self.steal)
        return self


def _membw_gbps() -> float:
    """Single-thread copy bandwidth (read + write), best of 3 copies of
    128 MiB; the same probe as bench.py at a quarter of its size."""
    import numpy as np

    a = np.ones(128 * 1024 * 1024 // 8)
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        b = a.copy()
        best = min(best, time.perf_counter() - t0)
        del b
    return 2 * a.nbytes / best / 1e9


class Sampler:
    """Samples the driver's own resident memory (while ``active``) and
    the size of Ray's spill directory, every 10 ms, on a background
    thread. Own memory is the resident set less its shared pages: the
    object store pages the driver maps are left out, since how many of
    them it has touched depends on where the store placed each pass's
    objects."""

    def __init__(self, spill_dir: str):
        self.spill_dir = spill_dir
        self.active = False
        self.peak_rss = 0
        self.peak_spill = 0
        self._stop = threading.Event()
        self._page = os.sysconf("SC_PAGE_SIZE")
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _loop(self):
        n = 0
        while not self._stop.wait(0.01):
            if self.active:
                with open("/proc/self/statm") as f:
                    _, resident, shared = map(int, f.read().split()[:3])
                self.peak_rss = max(self.peak_rss, (resident - shared) * self._page)
            n += 1
            if n % 10 == 0:
                self.peak_spill = max(self.peak_spill, self._spilled())

    def _spilled(self) -> int:
        total = 0
        for base, _, files in os.walk(self.spill_dir):
            for name in files:
                try:
                    total += os.path.getsize(os.path.join(base, name))
                except FileNotFoundError:
                    pass  # an object was restored and its file removed
        return total

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join(timeout=5)
        self.peak_spill = max(self.peak_spill, self._spilled())


class RaySession:
    """ray.init / ray.shutdown with the benchmark's settings."""

    def __init__(self, temp_dir: str, spill_dir: str, span_dir: str | None = None):
        self.temp_dir = temp_dir
        self.spill_dir = spill_dir
        self.span_dir = span_dir

    def __enter__(self):
        import ray

        os.environ["PYTHONPATH"] = os.pathsep.join(
            p for p in (ROOT, os.environ.get("PYTHONPATH")) if p)
        runtime_env = None
        if self.span_dir is not None:
            runtime_env = {"worker_process_setup_hook": "perfbench.trace.worker_setup",
                           "env_vars": {trace.SPAN_DIR_ENV: self.span_dir}}
        spilling = {"type": "filesystem", "params": {"directory_path": self.spill_dir}}
        for attempt in range(RAY_INIT_ATTEMPTS):
            try:
                ray.init(address="local", num_cpus=NUM_CPUS, include_dashboard=False,
                         object_store_memory=OBJECT_STORE_BYTES,
                         logging_level="ERROR", log_to_driver=False,
                         _temp_dir=self.temp_dir, runtime_env=runtime_env,
                         _system_config={"object_spilling_config": json.dumps(spilling)})
                break
            except Exception:
                # a start that fails (a port taken meanwhile, a timeout on a
                # loaded machine) is retried; the engine has not run yet
                traceback.print_exc(file=sys.stderr)
                ray.shutdown()
                if attempt == RAY_INIT_ATTEMPTS - 1:
                    raise
                time.sleep(1)
        import ray.data

        ctx = ray.data.DataContext.get_current()
        ctx.enable_progress_bars = False
        ctx.execution_options.verbose_progress = False
        # Ray Data logs each execution at INFO on standard output
        logging.getLogger("ray.data").setLevel(logging.WARNING)
        return self

    def __exit__(self, *exc):
        import ray

        ray.shutdown()


def _ray_temp_dir() -> str:
    """Ray's session directory, ``.rt`` in the checkout. When Ray's socket
    paths would not fit under its absolute path, the directory is named
    through ``/proc/self/cwd``: the run and every process Ray starts work
    in the checkout root."""
    inside = os.path.join(ROOT, ".rt")
    os.makedirs(inside, exist_ok=True)
    if len(inside) + RAY_SOCKET_SUFFIX <= 107:
        return inside
    os.chdir(ROOT)
    return "/proc/self/cwd/.rt"


def measure(workload, seconds: float, sampler: Sampler | None, on_pass=None):
    """Closed loop of passes for ``seconds``; -> (pass seconds, figures,
    attempted, failed, [(pass wall, steal)]). Pass seconds are the pass
    walls less the steal of the pass's whole call (see ``Unstolen``)."""
    walls, figures, attempted, failed, raw = [], [], 0, 0, []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        if sampler is not None:
            sampler.active = True
        clock = Unstolen()
        try:
            wall, figs, checks = workload.run_pass()
            clock.stop()
        except Exception:  # a failed pass counts as a failed operation
            traceback.print_exc(file=sys.stderr)
            attempted += 1
            failed += 1
            continue
        finally:
            if sampler is not None:
                sampler.active = False
        walls.append(wall * (1.0 - clock.steal))
        raw.append((wall, clock.steal))
        figures.append(figs)
        attempted += len(checks)
        failed += sum(1 for _, ok in checks if not ok)
        for name, ok in checks:
            if not ok:
                print(f"check failed: {workload.name} {name}", file=sys.stderr)
        if on_pass is not None:
            on_pass(*workload.window)
    if not walls:
        raise RuntimeError(f"no pass of {workload.name} completed")
    return walls, figures, attempted, failed, raw


def _median_dict(dicts: list) -> dict:
    keys = {k for d in dicts for k in d}
    return {k: statistics.median(d.get(k, 0.0) for d in dicts) for k in sorted(keys)}


def untraced_run(workload, seconds, temp_dir, spill_dir):
    setup = []
    with Sampler(spill_dir) as sampler:
        for i in range(SETUP_REPEATS):
            clock = Unstolen()
            with RaySession(temp_dir, spill_dir):
                workload.warm()
                setup.append(clock.stop())
                if i == SETUP_REPEATS - 1:
                    membw = _membw_gbps()
                    busy0, steal0 = _cpu_stat()
                    walls, figures, attempted, failed, raw = measure(workload, seconds, sampler)
                    busy1, steal1 = _cpu_stat()
    values = {
        "setup_s": statistics.median(c.seconds for c in setup),
        "docs_per_s": statistics.median(workload.n_docs / w for w in walls),
        "driver_peak_rss_mb": sampler.peak_rss / 1e6,
    }
    steal_pct = 100.0 * (steal1 - steal0) / max(busy1 - busy0, 1)
    detail = dict(_median_dict(figures), pass_s=walls, pass_wall_s=[w for w, _ in raw],
                  pass_steal=[f for _, f in raw], setup_s=[c.seconds for c in setup],
                  setup_wall_s=[c.wall for c in setup], spilled_mb=sampler.peak_spill / 1e6)
    return values, attempted, failed, {"steal_pct": steal_pct, "membw_gbps": membw}, detail


def traced_run(workload, seconds, temp_dir, spill_dir):
    # session A: untraced passes, the reference for the tracing overhead
    with Sampler(spill_dir) as sampler, RaySession(temp_dir, spill_dir):
        workload.warm()
        membw = _membw_gbps()
        busy0, steal0 = _cpu_stat()
        walls_a, figures, attempted, failed, _ = measure(workload, seconds, None)
    # session B: traced passes
    span_dir = os.path.join(WORK, "spans")
    shutil.rmtree(span_dir, ignore_errors=True)
    os.makedirs(span_dir)
    import ray

    windows = []
    driver = trace.Recorder()
    with Sampler(spill_dir) as sampler_b, RaySession(temp_dir, spill_dir, span_dir):
        trace.install(driver, "driver")
        workload.warm()
        walls_b, _, att_b, fail_b, _ = measure(workload, seconds, None,
                                               on_pass=lambda a, b: windows.append((a, b)))
        timeline = ray.timeline()
    busy1, steal1 = _cpu_stat()
    attempted += att_b
    failed += fail_b
    worker_spans = trace.load_worker_spans(span_dir)
    per_pass = [trace.account(timeline, worker_spans, driver.spans, a, b) for a, b in windows]
    with open(os.path.join(WORK, f"trace-{workload.name}-{workload.seed}.json"), "w") as f:
        json.dump({"driver": driver.spans, "workers": worker_spans, "windows": windows}, f)
    layer = _median_dict(per_pass)
    layer["trace.overhead_s"] = statistics.median(walls_b) - statistics.median(walls_a)
    layer["ray.spilled_mb"] = max(sampler.peak_spill, sampler_b.peak_spill) / 1e6
    layer.update(_median_dict(figures))
    if workload.name in ("pyramid", "spatial_join"):
        # layer self times plus ray.residual_s must add up to the pass wall
        for p in per_pass:
            attempted += 1
            if abs(p["trace.accounted_frac"] - 1.0) > 0.10:
                failed += 1
                print(f"accounting off: {p['trace.accounted_frac']:.3f} of wall", file=sys.stderr)
    steal_pct = 100.0 * (steal1 - steal0) / max(busy1 - busy0, 1)
    detail = {"pass_s": walls_a, "traced_pass_s": walls_b}
    return layer, attempted, failed, {"steal_pct": steal_pct, "membw_gbps": membw}, detail


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full",
                    help="input size; tiny is for the smoke test")
    ap.add_argument("--corrupt", action="store_true",
                    help="drop one output row before checking (smoke test)")
    args = ap.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)["per_layer" if args.trace else "end_to_end"]

    os.makedirs(WORK, exist_ok=True)
    sf_dir = os.path.join(WORK, f"input-{args.workload}")
    spill_dir = os.path.join(WORK, "spill")
    from perfbench import inputs

    inputs.write_documents(sf_dir, args.seed)
    workload = WORKLOADS[args.workload](sf_dir, WORK, args.seed, args.scale, args.corrupt)
    workload.prepare()

    run = traced_run if args.trace else untraced_run
    values, attempted, failed, probes, detail = run(
        workload, args.seconds, _ray_temp_dir(), spill_dir)

    import ray

    conditions = dict(
        workload=args.workload, seed=args.seed, trace=args.trace, scale=args.scale,
        nproc=int(os.environ.get("OMP_NUM_THREADS") or len(os.sched_getaffinity(0))),
        cpu_count=os.cpu_count(), ray_num_cpus=NUM_CPUS, ray_version=ray.__version__,
        n_docs=workload.n_docs, steal_pct=round(probes["steal_pct"], 3),
        membw_gbps=round(probes["membw_gbps"], 2),
        steal_flag=probes["steal_pct"] > 1.0)
    print("conditions " + json.dumps(conditions))
    print("detail " + json.dumps(detail))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
                    for m in spec},
    }))


if __name__ == "__main__":
    main()
