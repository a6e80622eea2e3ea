"""Tests for the exporter, the strict Prometheus checker, the HTTP status
surface and the ``repro.obs.status`` CLI."""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import urllib.error
import urllib.request
from pathlib import Path

import pytest

import repro.obs.exporter as exporter_module
import repro.obs.tracing as tracing_module
from repro.obs import METRICS
from repro.obs.exporter import MetricsExporter, prom_name, render_prometheus
from repro.obs.http import StatusServer
from repro.obs.promcheck import check_exposition
from repro.obs.promcheck import main as promcheck_main
from repro.obs.status import format_status, load_status_dir, log_lines
from repro.obs.status import main as status_main
from repro.obs.tracing import Tracer, timed
from repro.simulation import Telemetry
from repro.simulation.telemetry import COUNT_BOUNDS

SRC = Path(__file__).resolve().parents[2] / "src"


def populated_telemetry() -> Telemetry:
    telemetry = Telemetry()
    telemetry.increment("autocomp.cycles", 3)
    telemetry.increment("autocomp.shard00.locks.acquired", 2)
    telemetry.record("autocomp.fleet.files", 10.0, 42.0)
    telemetry.observe("autocomp.hist.cycle_wall_s", 0.01)
    telemetry.observe("autocomp.hist.cycle_wall_s", 0.2)
    telemetry.observe("autocomp.hist.rewrite_bytes", 5e8)
    return telemetry


class TestPromName:
    def test_dots_become_underscores(self):
        assert prom_name("autocomp.hist.cycle_wall_s") == "autocomp_hist_cycle_wall_s"

    def test_leading_digit_gets_prefixed(self):
        assert prom_name("9lives") == "_9lives"


class TestRenderPrometheus:
    def test_round_trips_through_strict_checker(self):
        text = render_prometheus(populated_telemetry())
        assert check_exposition(text) == []

    def test_counter_series_histogram_families(self):
        text = render_prometheus(populated_telemetry())
        assert "# TYPE autocomp_cycles counter" in text
        assert "autocomp_cycles 3" in text
        assert "# TYPE autocomp_fleet_files gauge" in text
        assert "autocomp_fleet_files 42" in text
        assert "# TYPE autocomp_hist_cycle_wall_s histogram" in text
        assert 'autocomp_hist_cycle_wall_s_bucket{le="+Inf"} 2' in text
        assert "autocomp_hist_cycle_wall_s_count 2" in text

    def test_registry_help_text_is_used(self):
        telemetry = Telemetry()
        name = "autocomp.hist.cycle_wall_s"
        assert name in METRICS  # the registry must document the metric
        telemetry.observe(name, 0.01)
        text = render_prometheus(telemetry)
        assert f"# HELP {prom_name(name)} {METRICS[name][1]}" in text

    def test_name_collisions_are_skipped_not_emitted(self):
        telemetry = Telemetry()
        telemetry.increment("a.b", 1)
        telemetry.increment("a_b", 2)  # sanitises to the same prom name
        text = render_prometheus(telemetry)
        assert text.count("# TYPE a_b counter") == 1
        assert "skipped duplicate metric name a_b" in text
        assert check_exposition(text) == []

    def test_empty_sink_renders_valid_empty_exposition(self):
        text = render_prometheus(Telemetry())
        assert check_exposition(text) == []

    def test_nan_gauge_renders_and_validates(self):
        telemetry = Telemetry()
        telemetry.record("empty.series", 0.0, math.nan)
        text = render_prometheus(telemetry)
        assert "empty_series NaN" in text
        assert check_exposition(text) == []


class TestPromcheckNegative:
    def test_bad_metric_name(self):
        assert check_exposition("9bad{} 1\n")

    def test_bad_sample_value(self):
        errors = check_exposition("# TYPE m counter\nm one\n")
        assert any("invalid sample value" in e for e in errors)

    def test_duplicate_sample(self):
        errors = check_exposition("# TYPE m counter\nm 1\nm 2\n")
        assert any("duplicate sample" in e for e in errors)

    def test_type_after_samples(self):
        errors = check_exposition("m 1\n# TYPE m counter\n")
        assert any("after its samples" in e for e in errors)

    def test_unknown_type(self):
        errors = check_exposition("# TYPE m wibble\n")
        assert any("unknown TYPE" in e for e in errors)

    def test_histogram_missing_inf_bucket(self):
        text = (
            "# TYPE h histogram\n"
            'h_bucket{le="1"} 1\n'
            "h_sum 0.5\n"
            "h_count 1\n"
        )
        errors = check_exposition(text)
        assert any("+Inf" in e for e in errors)

    def test_histogram_non_cumulative_buckets(self):
        text = (
            "# TYPE h histogram\n"
            'h_bucket{le="1"} 5\n'
            'h_bucket{le="+Inf"} 3\n'
            "h_sum 0.5\n"
            "h_count 3\n"
        )
        errors = check_exposition(text)
        assert any("not cumulative" in e for e in errors)

    def test_histogram_count_mismatch(self):
        text = (
            "# TYPE h histogram\n"
            'h_bucket{le="+Inf"} 3\n'
            "h_sum 0.5\n"
            "h_count 4\n"
        )
        errors = check_exposition(text)
        assert any("_count" in e for e in errors)

    def test_histogram_missing_sum_and_count(self):
        errors = check_exposition('# TYPE h histogram\nh_bucket{le="+Inf"} 0\n')
        assert any("missing _sum" in e for e in errors)
        assert any("missing _count" in e for e in errors)

    def test_malformed_labels(self):
        errors = check_exposition("# TYPE m counter\nm{le=unquoted} 1\n")
        assert any("malformed label" in e for e in errors)

    def test_cli_exit_codes(self, tmp_path, capsys):
        good = tmp_path / "good.prom"
        good.write_text(render_prometheus(populated_telemetry()))
        bad = tmp_path / "bad.prom"
        bad.write_text("m 1\nm 2\n")
        assert promcheck_main([str(good)]) == 0
        assert "OK" in capsys.readouterr().out
        assert promcheck_main([str(good), str(bad)]) == 1
        assert promcheck_main([str(tmp_path / "missing.prom")]) == 1


class TestMetricsExporter:
    def test_export_once_writes_all_files(self, tmp_path):
        tracer = Tracer()
        with timed(tracer, "cycle"):
            pass
        exporter = MetricsExporter(
            populated_telemetry(),
            str(tmp_path / "obs"),
            tracer=tracer,
            status_fn=lambda: {"running": True, "nan": math.nan},
        )
        written = exporter.export_once()
        assert set(written) == {"prom", "jsonl", "trace_jsonl", "status"}
        for path in written.values():
            assert os.path.exists(path)
        with open(exporter.prom_path, encoding="utf-8") as stream:
            assert check_exposition(stream.read()) == []
        with open(exporter.status_path, encoding="utf-8") as stream:
            status = json.load(stream)
        assert status == {"running": True, "nan": None}  # NaN → JSON null
        assert exporter.exports == 1

    def test_without_tracer_or_status_fn_writes_core_files(self, tmp_path):
        exporter = MetricsExporter(populated_telemetry(), str(tmp_path))
        written = exporter.export_once()
        assert set(written) == {"prom", "jsonl"}

    def test_jsonl_ring_accumulates_snapshots(self, tmp_path):
        clock = iter(range(100)).__next__
        exporter = MetricsExporter(
            populated_telemetry(), str(tmp_path), clock=lambda: float(clock())
        )
        exporter.export_once()
        exporter.export_once()
        with open(exporter.jsonl_path, encoding="utf-8") as stream:
            entries = [json.loads(line) for line in stream if line.strip()]
        assert len(entries) == 2
        assert entries[0]["ts"] < entries[1]["ts"]
        assert entries[-1]["counters"]["autocomp.cycles"] == 3.0
        assert entries[-1]["histograms"]["autocomp.hist.cycle_wall_s"]["count"] == 2.0

    def test_metrics_jsonl_rolls_at_the_snapshot_ring(self, tmp_path, monkeypatch):
        monkeypatch.setattr(exporter_module, "SNAPSHOT_RING", 3)
        clock = iter(range(100)).__next__
        exporter = MetricsExporter(
            populated_telemetry(), str(tmp_path), clock=lambda: float(clock())
        )
        for _ in range(4):
            exporter.export_once()

        def stamps(path):
            with open(path, encoding="utf-8") as stream:
                return [json.loads(line)["ts"] for line in stream]

        assert stamps(exporter.jsonl_path + ".1") == [0.0, 1.0, 2.0]
        assert stamps(exporter.jsonl_path) == [3.0]

    def test_spans_dropped_is_published(self, tmp_path, monkeypatch):
        monkeypatch.setattr(tracing_module, "SPAN_RING", 2)
        telemetry, tracer = Telemetry(), Tracer()
        exporter = MetricsExporter(telemetry, str(tmp_path), tracer=tracer)
        exporter.export_once()
        assert "autocomp.obs.spans_dropped" not in telemetry.snapshot()["counters"]
        for _ in range(5):  # five undumped spans, three evicted
            with timed(tracer, "cycle"):
                pass
        exporter.export_once()
        exporter.export_once()  # published once, not again
        assert telemetry.counter("autocomp.obs.spans_dropped") == 3
        with open(exporter.prom_path, encoding="utf-8") as stream:
            assert "autocomp_obs_spans_dropped 3" in stream.read()

    def test_a_collision_whose_winner_changes_renders_the_winners_buckets(self, tmp_path):
        # The exporter caches bucket labels across exports: when a later
        # histogram takes a colliding name, its own layout must render.
        telemetry = Telemetry()
        telemetry.observe("autocomp.a.b", 0.01)
        exporter = MetricsExporter(telemetry, str(tmp_path))
        exporter.export_once()
        telemetry.observe("autocomp.a-b", 3.0, COUNT_BOUNDS)  # sorts first: wins a_b
        exporter.export_once()
        with open(exporter.prom_path, encoding="utf-8") as stream:
            text = stream.read()
        assert text == render_prometheus(telemetry)
        assert 'autocomp_a_b_bucket{le="1024"} 1' in text
        assert 'le="0.0005"' not in text
        assert "skipped duplicate metric name autocomp_a_b (from autocomp.a.b)" in text

    def test_no_leftover_temp_files(self, tmp_path):
        exporter = MetricsExporter(populated_telemetry(), str(tmp_path))
        exporter.export_once()
        assert not [n for n in os.listdir(tmp_path) if ".tmp." in n]

    def test_start_stop_final_export(self, tmp_path):
        telemetry = populated_telemetry()
        exporter = MetricsExporter(telemetry, str(tmp_path), interval_s=30.0)
        exporter.start()
        exporter.start()  # idempotent
        telemetry.increment("late.counter")
        exporter.stop()  # must flush the post-start increment
        assert exporter.exports >= 1
        with open(exporter.prom_path, encoding="utf-8") as stream:
            assert "late_counter 1" in stream.read()

    def test_invalid_interval_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            MetricsExporter(Telemetry(), str(tmp_path), interval_s=0.0)


class TestStatusServer:
    def _get(self, address, path):
        host, port = address
        with urllib.request.urlopen(f"http://{host}:{port}{path}") as response:
            return response.status, response.read().decode("utf-8")

    def test_endpoints(self):
        telemetry = populated_telemetry()
        server = StatusServer(
            status_fn=lambda: {"running": True, "bad": math.inf},
            metrics_fn=lambda: render_prometheus(telemetry),
        )
        with server:
            address = server.address
            code, body = self._get(address, "/healthz")
            assert (code, body) == (200, "ok\n")
            code, body = self._get(address, "/status")
            assert code == 200
            assert json.loads(body) == {"running": True, "bad": None}
            code, body = self._get(address, "/metrics")
            assert code == 200
            assert check_exposition(body) == []
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                self._get(address, "/nope")
            excinfo.value.close()  # the error holds the response's socket
            assert excinfo.value.code == 404
        assert server.address is None

    def test_metrics_404_without_metrics_fn(self):
        with StatusServer(status_fn=dict) as server:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                self._get(server.address, "/metrics")
            excinfo.value.close()  # the error holds the response's socket
            assert excinfo.value.code == 404

    def test_status_fn_exception_returns_500(self):
        def broken():
            raise RuntimeError("boom")

        with StatusServer(status_fn=broken) as server:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                self._get(server.address, "/status")
            excinfo.value.close()  # the error holds the response's socket
            assert excinfo.value.code == 500


class TestStatusCLI:
    def _export_dir(self, tmp_path):
        tracer = Tracer()
        with timed(tracer, "cycle"):
            pass
        exporter = MetricsExporter(
            populated_telemetry(),
            str(tmp_path / "obs"),
            tracer=tracer,
            status_fn=lambda: {
                "owner": "alpha",
                "running": True,
                "cycles_run": 7,
                "held_locks": [],
                "histograms": {"autocomp.hist.cycle_wall_s": {"count": 2.0}},
            },
        )
        exporter.export_once()
        return exporter.out_dir

    def test_load_status_dir(self, tmp_path):
        loaded = load_status_dir(self._export_dir(tmp_path))
        assert loaded["status"]["owner"] == "alpha"
        assert loaded["snapshots"] == 1
        assert loaded["trace_spans"] == 1
        assert loaded["metrics_prom"] > 0
        assert loaded["errors"] == []

    def test_format_status_report(self, tmp_path):
        report = format_status(load_status_dir(self._export_dir(tmp_path)))
        assert "owner: alpha" in report
        assert "cycles_run: 7" in report
        assert "held_locks: (none)" in report
        assert "autocomp.hist.cycle_wall_s" in report
        assert "1 trace spans" in report

    def test_main_json_and_exit_codes(self, tmp_path, capsys):
        obs_dir = self._export_dir(tmp_path)
        assert status_main([obs_dir, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["status"]["cycles_run"] == 7

        empty = tmp_path / "empty"
        empty.mkdir()
        assert status_main([str(empty)]) == 1
        assert "missing" in capsys.readouterr().out

    def test_missing_dir_exits_nonzero(self, tmp_path, capsys):
        assert status_main([str(tmp_path / "nope")]) == 1
        capsys.readouterr()

    def test_clis_run_clean_with_warnings_as_errors(self, tmp_path):
        obs_dir = self._export_dir(tmp_path)
        for argv in (
            ["repro.obs.status", obs_dir],
            ["repro.obs.status", obs_dir, "--chrome", str(tmp_path / "trace.chrome.json")],
            ["repro.obs.promcheck", os.path.join(obs_dir, "metrics.prom")],
        ):
            result = subprocess.run(
                [sys.executable, "-W", "error", "-m", *argv],
                capture_output=True,
                text=True,
                env={"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin"},
            )
            assert (result.returncode, result.stderr) == (0, ""), argv

    def append(self, path, text):
        with open(path, "a", encoding="utf-8") as stream:
            stream.write(text)

    def test_torn_trailing_lines_are_skipped_silently(self, tmp_path):
        obs_dir = self._export_dir(tmp_path)
        before = load_status_dir(obs_dir)
        self.append(os.path.join(obs_dir, "metrics.jsonl"), '{"ts": 9')
        self.append(os.path.join(obs_dir, "trace.jsonl"), '{"name": "cyc')
        loaded = load_status_dir(obs_dir)
        assert loaded["snapshots"] == 1
        assert loaded["last_snapshot"] == before["last_snapshot"]
        assert loaded["trace_spans"] == 1
        assert loaded["errors"] == []

    def test_a_whole_corrupt_line_is_reported(self, tmp_path):
        obs_dir = self._export_dir(tmp_path)
        self.append(os.path.join(obs_dir, "metrics.jsonl"), '{"ts": 9\n')
        loaded = load_status_dir(obs_dir)
        assert loaded["snapshots"] == 2
        assert loaded["last_snapshot"] is None
        assert len(loaded["errors"]) == 1
        assert "corrupt last line" in loaded["errors"][0]

    def test_rolled_segments_are_counted(self, tmp_path):
        obs_dir = self._export_dir(tmp_path)
        for name in ("metrics.jsonl", "trace.jsonl"):
            path = os.path.join(obs_dir, name)
            with open(path, encoding="utf-8") as stream:
                line = stream.read()
            self.append(path + ".1", line * 3)
        loaded = load_status_dir(obs_dir)
        assert (loaded["snapshots"], loaded["trace_spans"]) == (4, 4)
        assert log_lines(os.path.join(obs_dir, "trace.jsonl")) == [line] * 4

    def test_last_snapshot_falls_back_to_the_rolled_segment(self, tmp_path):
        obs_dir = self._export_dir(tmp_path)
        path = os.path.join(obs_dir, "metrics.jsonl")
        os.replace(path, path + ".1")  # just after a roll, before the append
        loaded = load_status_dir(obs_dir)
        assert loaded["snapshots"] == 1
        assert loaded["last_snapshot"]["counters"]["autocomp.cycles"] == 3.0
        assert loaded["errors"] == []
        open(path, "w", encoding="utf-8").close()
        assert load_status_dir(obs_dir)["last_snapshot"] == loaded["last_snapshot"]

    def test_chrome_render_holds_one_event_per_span_line(self, tmp_path, capsys):
        tracer = Tracer()
        exporter = MetricsExporter(Telemetry(), str(tmp_path / "obs"), tracer=tracer)
        for i in range(3):
            with timed(tracer, "cycle", index=i):
                with timed(tracer, "observe"):
                    pass
            exporter.export_once()
        out = str(tmp_path / "trace.chrome.json")
        assert status_main([exporter.out_dir, "--chrome", out]) == 0
        assert "wrote 6 trace events" in capsys.readouterr().out
        with open(out, encoding="utf-8") as stream:
            payload = json.load(stream)
        assert payload["displayTimeUnit"] == "ms"
        assert payload["traceEvents"] == [s.to_chrome_event() for s in tracer.finished()]
        # Tracer.dump_chrome renders the same document from the held spans.
        with open(tracer.dump_chrome(str(tmp_path / "held.json")), encoding="utf-8") as stream:
            assert json.load(stream) == payload

    def test_chrome_render_exit_codes(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert status_main([str(empty), "--chrome", str(tmp_path / "a.json")]) == 1
        obs_dir = self._export_dir(tmp_path)
        self.append(os.path.join(obs_dir, "trace.jsonl"), "not json\n")
        assert status_main([obs_dir, "--chrome", str(tmp_path / "b.json")]) == 1
        assert "corrupt span line 2" in capsys.readouterr().out
        with open(tmp_path / "b.json", encoding="utf-8") as stream:
            assert len(json.load(stream)["traceEvents"]) == 1
