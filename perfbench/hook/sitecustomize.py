"""
Loaded at interpreter start when perfbench/run.py puts this directory on
PYTHONPATH, which it does only for the `python -m posetmorse crosscheck`
subprocess of the cached-parallel-sweep workload.  It does nothing unless
PERFBENCH_STAMP names a file.

It wraps the run_crosscheck bound in posetmorse.cli so that the file gets
the monotonic time at which set-up ends, a speed probe (speed.py), the
monotonic time and CPU seconds (this process plus reaped workers) at entry
and exit of the interval work, a second speed probe, and the work's wall
and CPU time at the reference speed.  The pool workers measure the speed:
each call of crosscheck._worker runs under a speed.Sampler and writes its
segment to a file in PERFBENCH_SPEED_DIR.  With no worker segments (a
serial run) the two probes give the speed instead.
With PERFBENCH_PROBE set it exits after the first probe, having timed
set-up only.
With PERFBENCH_TRACE naming a directory it first installs the tracer and
dumps the trace there at exit.
"""

import os

if os.environ.get("PERFBENCH_STAMP"):
    import atexit
    import functools
    import glob
    import json
    import resource
    import sys
    import time

    from posetmorse import cli, crosscheck

    sys.path.append(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    import speed

    def _cpu() -> float:
        return speed.cpu_seconds() + speed.cpu_seconds(resource.RUSAGE_CHILDREN)

    def _write(stamp: dict) -> None:
        with open(os.environ["PERFBENCH_STAMP"], "w", encoding="utf-8") as fh:
            json.dump(stamp, fh)

    if os.environ.get("PERFBENCH_TRACE"):
        import tracing

        atexit.register(tracing.install(os.environ["PERFBENCH_TRACE"]).dump)

    SPEED_DIR = os.environ.get("PERFBENCH_SPEED_DIR")
    _run_crosscheck = cli.run_crosscheck
    _worker = crosscheck._worker
    _worker_calls = [0]

    @functools.wraps(_worker)
    def _sampled_worker(args):
        sampler = speed.Sampler()
        sampler.start()
        try:
            return _worker(args)
        finally:
            segment = sampler.stop()
            _worker_calls[0] += 1
            path = os.path.join(SPEED_DIR, f"{os.getpid()}-{_worker_calls[0]}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(segment, fh)

    def _scaled(stamp: dict) -> None:
        """The interval work's wall and CPU time at the reference speed."""
        wall = stamp["exit"] - stamp["entry"]
        cpu = stamp["exit_cpu"] - stamp["entry_cpu"]
        segments = [json.loads(open(path, encoding="utf-8").read())
                    for path in glob.glob(os.path.join(SPEED_DIR or "", "*.json"))]
        if segments:
            worker_wall = sum(seg["wall_s"] for seg in segments)
            factor = sum(seg["ref_wall_s"] for seg in segments) / worker_wall
            wall -= max(seg["overhead_s"] for seg in segments)
            cpu -= sum(seg["overhead_s"] for seg in segments)
        else:
            factor = speed.scale(stamp["probe_before"], stamp["probe_after"])
        stamp.update(wall_s=wall, cpu_s=cpu, ref_wall_s=wall * factor,
                     ref_cpu_s=cpu * factor, worker_segments=len(segments))

    def _stamped_run_crosscheck(*args, **kwargs):
        stamp = {"setup_end": time.monotonic()}
        stamp["probe_before"] = speed.probe()
        if os.environ.get("PERFBENCH_PROBE"):
            _write(stamp)
            os._exit(0)
        stamp.update(entry=time.monotonic(), entry_cpu=_cpu())
        try:
            return _run_crosscheck(*args, **kwargs)
        finally:
            stamp.update(exit=time.monotonic(), exit_cpu=_cpu())
            stamp["probe_after"] = speed.probe()
            _scaled(stamp)
            _write(stamp)

    if SPEED_DIR:
        crosscheck._worker = _sampled_worker
    cli.run_crosscheck = _stamped_run_crosscheck
