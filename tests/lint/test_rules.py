"""Per-rule good/bad fixtures: every rule fires on its bad fixture and
stays quiet on the good one.  Fixture files are written under tmp_path
with path shapes that satisfy each rule's ``applies_to`` filter (RL005
needs ``repro/replay/``, RL004 needs a ``repro/``-rooted product path)."""

from __future__ import annotations

import textwrap

from repro.lint import run_lint
from repro.lint.rules.rl004_metrics import DEFAULT_REGISTRY, MetricsRegistryRule, load_registry


def lint_source(tmp_path, relpath, source, **kwargs):
    """Write ``source`` at ``tmp_path/relpath`` and lint just that file."""
    target = tmp_path / relpath
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(textwrap.dedent(source), encoding="utf-8")
    findings, _ = run_lint([target], **kwargs)
    return findings


def ids(findings):
    return [f.rule_id for f in findings]


class TestRL001LockDiscipline:
    def test_unlocked_read_of_guarded_attribute_fires(self, tmp_path):
        findings = lint_source(
            tmp_path,
            "mod.py",
            """
            import threading

            class Counter:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.total = 0

                def bump(self):
                    with self._lock:
                        self.total += 1

                def peek(self):
                    return self.total
            """,
            select=["RL001"],
        )
        assert ids(findings) == ["RL001"]
        assert "Counter.total" in findings[0].message
        assert "peek" in findings[0].message

    def test_fully_locked_class_is_clean(self, tmp_path):
        findings = lint_source(
            tmp_path,
            "mod.py",
            """
            import threading

            class Counter:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.total = 0

                def bump(self):
                    with self._lock:
                        self.total += 1

                def peek(self):
                    with self._lock:
                        return self.total
            """,
            select=["RL001"],
        )
        assert findings == []

    def test_constructor_only_helper_is_safe(self, tmp_path):
        # _scan writes guarded state unlocked, but construction
        # happens-before publication — the safe-context fixpoint covers it.
        findings = lint_source(
            tmp_path,
            "mod.py",
            """
            import threading

            class Machine:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._states = {}
                    self._scan()

                def _scan(self):
                    self._states["boot"] = 1

                def set(self, key):
                    with self._lock:
                        self._states[key] = 1
            """,
            select=["RL001"],
        )
        assert findings == []

    def test_lambda_inherits_the_enclosing_lock(self, tmp_path):
        # A sort key runs inside the locked block; nested defs do not.
        findings = lint_source(
            tmp_path,
            "mod.py",
            """
            import threading

            class Queue:
                def __init__(self):
                    self._mutex = threading.Lock()
                    self._deficit = {}

                def admit(self, names):
                    with self._mutex:
                        self._deficit["x"] = 1
                        return sorted(names, key=lambda n: self._deficit.get(n, 0))
            """,
            select=["RL001"],
        )
        assert findings == []

    def test_nested_def_does_not_inherit_the_lock(self, tmp_path):
        findings = lint_source(
            tmp_path,
            "mod.py",
            """
            import threading

            class Queue:
                def __init__(self):
                    self._mutex = threading.Lock()
                    self._deficit = {}

                def admit(self):
                    with self._mutex:
                        self._deficit["x"] = 1

                        def later():
                            return self._deficit["x"]
                        return later
            """,
            select=["RL001"],
        )
        assert ids(findings) == ["RL001"]


class TestRL002AtomicWrites:
    def test_bare_open_w_on_durable_file_fires(self, tmp_path):
        findings = lint_source(
            tmp_path,
            "mod.py",
            """
            import json

            def save(state, root):
                with open(root + "/active.json", "w") as stream:
                    json.dump(state, stream)
            """,
            select=["RL002"],
        )
        assert ids(findings) == ["RL002"]
        assert "active.json" in findings[0].message

    def test_write_text_on_durable_file_fires(self, tmp_path):
        findings = lint_source(
            tmp_path,
            "mod.py",
            """
            def save(state, path):
                path = path + "/state.json"
                path.write_text(state)
            """,
            select=["RL002"],
        )
        assert ids(findings) == ["RL002"]

    def test_function_name_links_the_write_to_durable_state(self, tmp_path):
        findings = lint_source(
            tmp_path,
            "mod.py",
            """
            import json

            def write_baseline(payload, path):
                with open(path, "w") as stream:
                    json.dump(payload, stream)
            """,
            select=["RL002"],
        )
        assert ids(findings) == ["RL002"]

    def test_tmp_plus_replace_is_clean(self, tmp_path):
        findings = lint_source(
            tmp_path,
            "mod.py",
            """
            import json
            import os

            def save(state, root):
                path = root + "/active.json"
                tmp = path + ".tmp"
                with open(tmp, "w") as stream:
                    json.dump(state, stream)
                os.replace(tmp, path)
            """,
            select=["RL002"],
        )
        assert findings == []

    def test_o_append_record_append_is_clean(self, tmp_path):
        findings = lint_source(
            tmp_path,
            "mod.py",
            """
            import os

            def append_audit(record, root):
                fd = os.open(
                    root + "/audit.jsonl",
                    os.O_CREAT | os.O_WRONLY | os.O_APPEND,
                )
                try:
                    os.write(fd, record)
                finally:
                    os.close(fd)
            """,
            select=["RL002"],
        )
        assert findings == []

    APPEND_OPENS = """
        import io
        import os

        def append_record(record, path):
            fd = os.open(path, os.O_CREAT | os.O_WRONLY | os.O_APPEND, 0o644)
            try:
                os.write(fd, record)
            finally:
                os.close(fd)

        def append_text(record, path):
            with open(path, "a") as stream:
                stream.write(record)

        def append_file(path):
            return io.FileIO(path, "a")
        """

    def test_append_open_in_product_code_fires(self, tmp_path):
        findings = lint_source(
            tmp_path, "repro/core/mod.py", self.APPEND_OPENS, select=["RL002"]
        )
        assert ids(findings) == ["RL002"] * 3
        assert all("outside repro.durable" in f.message for f in findings)
        assert [f.line for f in findings] == [6, 13, 17]

    def test_append_open_inside_repro_durable_is_clean(self, tmp_path):
        findings = lint_source(
            tmp_path, "repro/durable.py", self.APPEND_OPENS, select=["RL002"]
        )
        assert findings == []

    def test_non_durable_writes_are_ignored(self, tmp_path):
        findings = lint_source(
            tmp_path,
            "mod.py",
            """
            def save(data, path):
                with open(path + "/scratch.txt", "w") as stream:
                    stream.write(data)
            """,
            select=["RL002"],
        )
        assert findings == []


REGISTRY_FIXTURE = """
METRICS = {
    "autocomp.cycles": ("counter", "Cycles run."),
    "autocomp.locks.acquired": ("counter", "Locks taken."),
    "autocomp.locks.reclaimed": ("counter", "Stale locks reclaimed."),
}
"""


class TestRL004MetricsRegistry:
    def _registry(self, tmp_path):
        registry = tmp_path / "repro" / "obs" / "__init__.py"
        registry.parent.mkdir(parents=True, exist_ok=True)
        registry.write_text(REGISTRY_FIXTURE, encoding="utf-8")
        return registry

    def test_unregistered_literal_fires(self, tmp_path):
        registry = self._registry(tmp_path)
        findings = lint_source(
            tmp_path,
            "repro/core/mod.py",
            """
            def run(telemetry):
                telemetry.increment("autocomp.bogus")
            """,
            select=["RL004"],
            metrics_registry_path=registry,
        )
        assert ids(findings) == ["RL004"]
        assert "autocomp.bogus" in findings[0].message

    def test_registered_literal_and_prefix_are_clean(self, tmp_path):
        registry = self._registry(tmp_path)
        findings = lint_source(
            tmp_path,
            "repro/core/mod.py",
            """
            def run(telemetry, event):
                telemetry.increment("autocomp.cycles")
                telemetry.increment(f"autocomp.locks.{event}")
            """,
            select=["RL004"],
            metrics_registry_path=registry,
        )
        assert findings == []

    def test_dynamic_prefix_matching_nothing_fires(self, tmp_path):
        registry = self._registry(tmp_path)
        findings = lint_source(
            tmp_path,
            "repro/core/mod.py",
            """
            def run(telemetry, event):
                telemetry.increment(f"autocomp.ghosts.{event}")
            """,
            select=["RL004"],
            metrics_registry_path=registry,
        )
        assert ids(findings) == ["RL004"]
        assert "autocomp.ghosts." in findings[0].message

    def test_dead_registry_entry_fires_when_registry_is_scanned(self, tmp_path):
        registry = self._registry(tmp_path)
        emitter = tmp_path / "repro" / "core" / "mod.py"
        emitter.parent.mkdir(parents=True, exist_ok=True)
        emitter.write_text(
            textwrap.dedent(
                """
                def run(telemetry, event):
                    telemetry.increment("autocomp.cycles")
                    telemetry.increment(f"autocomp.locks.{event}")
                """
            ),
            encoding="utf-8",
        )
        # Registry included in the scan, but nothing emits a third metric.
        third = REGISTRY_FIXTURE.replace(
            '"autocomp.cycles": ("counter", "Cycles run."),',
            '"autocomp.cycles": ("counter", "Cycles run."),\n'
            '    "autocomp.never": ("counter", "Dead."),',
        )
        registry.write_text(third, encoding="utf-8")
        findings, _ = run_lint(
            [emitter, registry],
            select=["RL004"],
            metrics_registry_path=registry,
        )
        assert ids(findings) == ["RL004"]
        assert "autocomp.never" in findings[0].message

    def test_no_dead_entry_report_on_partial_scans(self, tmp_path):
        registry = self._registry(tmp_path)
        findings = lint_source(
            tmp_path,
            "repro/core/mod.py",
            """
            def run(telemetry):
                telemetry.increment("autocomp.cycles")
            """,
            select=["RL004"],
            metrics_registry_path=registry,
        )
        # locks.* entries are unreferenced here, but the registry file was
        # not part of the scan, so no dead-entry findings appear.
        assert findings == []

    def test_annotated_registry_is_loaded(self, tmp_path):
        # The real registry is declared `METRICS: dict[...] = {...}`.
        registry = self._registry(tmp_path)
        registry.write_text(
            REGISTRY_FIXTURE.replace(
                "METRICS = {", "METRICS: dict[str, tuple[str, str]] = {"
            ),
            encoding="utf-8",
        )
        findings = lint_source(
            tmp_path,
            "repro/core/mod.py",
            """
            def run(telemetry):
                telemetry.increment("autocomp.bogus")
            """,
            select=["RL004"],
            metrics_registry_path=registry,
        )
        assert ids(findings) == ["RL004"]
        assert "autocomp.bogus" in findings[0].message

    def test_real_registry_is_loaded(self):
        registry = load_registry(DEFAULT_REGISTRY)
        assert registry is not None
        assert "autocomp.hist.cycle_wall_s" in registry

    def test_spans_dropped_is_registered_and_emitted(self):
        rule = MetricsRegistryRule()
        findings, _ = run_lint([DEFAULT_REGISTRY.parents[2]], rules=[rule])  # all of src
        assert findings == [], [f.render() for f in findings]
        assert "autocomp.obs.spans_dropped" in load_registry(DEFAULT_REGISTRY)
        assert "autocomp.obs.spans_dropped" in rule._used_literals

    def test_timed_histogram_is_a_metric_write(self, tmp_path):
        registry = self._registry(tmp_path)
        findings = lint_source(
            tmp_path,
            "repro/core/mod.py",
            """
            from repro.obs.tracing import timed

            def run(tracer, telemetry):
                with timed(tracer, "cycle", "autocomp.cycles", telemetry):
                    pass
                with timed(tracer, "act", "autocomp.act_wall", telemetry):
                    pass
                with timed(None, "lock", histogram="autocomp.lock_wait"):
                    pass
                with timed(tracer, "observe"):
                    pass
            """,
            select=["RL004"],
            metrics_registry_path=registry,
        )
        assert ids(findings) == ["RL004", "RL004"]
        messages = " ".join(f.message for f in findings)
        assert "autocomp.act_wall" in messages
        assert "autocomp.lock_wait" in messages

    def test_timed_histogram_counts_as_emitted(self, tmp_path):
        registry = self._registry(tmp_path)
        emitter = tmp_path / "repro" / "core" / "mod.py"
        emitter.parent.mkdir(parents=True, exist_ok=True)
        emitter.write_text(
            textwrap.dedent(
                """
                def run(tracer, telemetry, event):
                    with timed(tracer, "cycle", "autocomp.cycles", telemetry):
                        telemetry.increment(f"autocomp.locks.{event}")
                """
            ),
            encoding="utf-8",
        )
        findings, _ = run_lint(
            [emitter, registry],
            select=["RL004"],
            metrics_registry_path=registry,
        )
        assert findings == []


class TestRL005ReplayDeterminism:
    def test_ambient_time_and_randomness_fire(self, tmp_path):
        findings = lint_source(
            tmp_path,
            "repro/replay/bad.py",
            """
            import random
            import time

            def decide():
                started = time.time()
                jitter = random.random()
                return started + jitter
            """,
            select=["RL005"],
        )
        assert ids(findings) == ["RL005", "RL005"]
        messages = " ".join(f.message for f in findings)
        assert "time.time" in messages
        assert "random.random" in messages

    def test_set_iteration_fires(self, tmp_path):
        findings = lint_source(
            tmp_path,
            "repro/replay/bad.py",
            """
            def order(keys):
                out = []
                for key in set(keys):
                    out.append(key)
                return [k for k in {1, 2, 3}]
            """,
            select=["RL005"],
        )
        assert len(findings) == 2
        assert all(f.rule_id == "RL005" for f in findings)

    def test_injected_seams_are_clean(self, tmp_path):
        findings = lint_source(
            tmp_path,
            "repro/replay/good.py",
            """
            import random
            import time

            def decide(clock, seed, keys):
                started = time.perf_counter()  # telemetry-only: allowed
                rng = random.Random(seed)
                now = clock()
                for key in sorted(set(keys)):
                    rng.shuffle
                return started, now
            """,
            select=["RL005"],
        )
        assert findings == []

    def test_rule_is_scoped_to_replay_paths(self, tmp_path):
        findings = lint_source(
            tmp_path,
            "repro/core/elsewhere.py",
            """
            import time

            def now():
                return time.time()
            """,
            select=["RL005"],
        )
        assert findings == []


class TestRL006ResourceLifecycle:
    def test_class_owner_without_teardown_fires(self, tmp_path):
        findings = lint_source(
            tmp_path,
            "mod.py",
            """
            from concurrent.futures import ThreadPoolExecutor

            class Runner:
                def start(self):
                    self._pool = ThreadPoolExecutor(max_workers=2)
            """,
            select=["RL006"],
        )
        assert ids(findings) == ["RL006"]
        assert "ThreadPoolExecutor" in findings[0].message

    def test_class_owner_with_close_is_clean(self, tmp_path):
        findings = lint_source(
            tmp_path,
            "mod.py",
            """
            from concurrent.futures import ThreadPoolExecutor

            class Runner:
                def start(self):
                    self._pool = ThreadPoolExecutor(max_workers=2)

                def close(self):
                    self._pool.shutdown()
            """,
            select=["RL006"],
        )
        assert findings == []

    def test_unreleased_local_resource_fires(self, tmp_path):
        findings = lint_source(
            tmp_path,
            "mod.py",
            """
            from multiprocessing.shared_memory import SharedMemory

            def leak():
                segment = SharedMemory(create=True, size=64)
                return segment.name
            """,
            select=["RL006"],
        )
        assert ids(findings) == ["RL006"]
        assert "SharedMemory" in findings[0].message

    def test_context_manager_close_and_transfer_are_clean(self, tmp_path):
        findings = lint_source(
            tmp_path,
            "mod.py",
            """
            from concurrent.futures import ThreadPoolExecutor
            from multiprocessing.shared_memory import SharedMemory

            def managed():
                with ThreadPoolExecutor(max_workers=2) as pool:
                    pool.submit(print)

            def closed():
                segment = SharedMemory(create=True, size=64)
                try:
                    return bytes(segment.buf[:1])
                finally:
                    segment.close()

            def handed_over(stack):
                segment = SharedMemory(create=True, size=64)
                stack.callback(segment)
                return segment

            def factory():
                segment = SharedMemory(create=True, size=64)
                return segment
            """,
            select=["RL006"],
        )
        assert findings == []


class TestRL000ParseErrors:
    def test_unparseable_file_reports_rl000(self, tmp_path):
        findings = lint_source(tmp_path, "broken.py", "def broken(:\n")
        assert ids(findings) == ["RL000"]
        assert findings[0].severity == "error"
