"""RL004 corpus: emitted metric names against a small METRICS registry."""

FILES = {
    "corpus/repro/obs/__init__.py": '''\
METRICS: dict[str, tuple[str, str]] = {
    "autocomp.cycles": ("counter", "Cycles run."),
    "autocomp.locks.acquired": ("counter", "Locks taken."),
    "autocomp.locks.reclaimed": ("counter", "Stale locks reclaimed."),
    "autocomp.hist.cycle_wall_s": ("histogram", "Cycle wall time."),
    "autocomp.never": ("counter", "Emitted by nothing."),
}
''',
    "corpus/repro/core/emit.py": '''\
from repro.obs.tracing import timed


def run(tracer, telemetry, event):
    telemetry.increment("autocomp.cycles")
    telemetry.increment(f"autocomp.locks.{event}")
    telemetry.increment("autocomp.bogus")
    telemetry.record("autocomp." + event, 1.0)
    telemetry.observe(f"autocomp.ghosts.{event}", 2.0)
    with timed(tracer, "cycle", "autocomp.hist.cycle_wall_s", telemetry):
        pass
    with timed(tracer, "act", "autocomp.act_wall", telemetry):
        pass
    with timed(None, "lock", histogram="autocomp.lock_wait"):
        pass
    with timed(tracer, "observe"):
        pass
    hook = lambda: telemetry.increment("autocomp.in_lambda")  # noqa: E731
    return hook
''',
}
