"""Prometheus exposition and structured-logging tests."""

import io
import json

import pytest

import repro.telemetry.logging as rlog
from repro.telemetry import prometheus


@pytest.fixture(autouse=True)
def _reset_log_mode():
    """Leave the process-wide log format pristine (lazy env read)."""
    yield
    rlog._JSON_MODE = None


class TestPrometheus:
    def test_sanitize(self):
        assert prometheus.sanitize("service.jobs.accepted") == \
            "repro_service_jobs_accepted"
        assert prometheus.sanitize("a-b c") == "repro_a_b_c"
        assert prometheus.sanitize("9lives") == "repro__9lives"

    def test_render_parse_round_trip(self):
        text = prometheus.render_exposition(
            {"service.jobs.accepted": 2, "cycles.dynamic.issued_full": 10},
            {"service.queue.depth": 1.5},
            {"service.job.queue_wait_s": [0.004, 0.2, 7.0]},
        )
        assert text.endswith("\n")
        families = prometheus.parse_exposition(text)
        accepted = families["repro_service_jobs_accepted"]
        assert accepted["type"] == "counter"
        assert accepted["samples"]["repro_service_jobs_accepted"] == 2
        gauge = families["repro_service_queue_depth"]
        assert gauge["type"] == "gauge"
        assert gauge["samples"]["repro_service_queue_depth"] == 1.5
        hist = families["repro_service_job_queue_wait_s_seconds"]
        assert hist["type"] == "histogram"
        prefix = "repro_service_job_queue_wait_s_seconds"
        assert hist["samples"][prefix + "_count"] == 3
        assert hist["samples"][prefix + "_sum"] == pytest.approx(7.204)
        assert hist["samples"][prefix + '_bucket{le="+Inf"}'] == 3

    def test_histogram_buckets_are_cumulative(self):
        lines = prometheus.render_histogram(
            "x", [0.002, 0.002, 100.0], buckets=(0.001, 0.01, 1.0)
        )
        text = "\n".join(lines) + "\n"
        samples = prometheus.parse_exposition(text)[
            "repro_x_seconds"]["samples"]
        assert samples['repro_x_seconds_bucket{le="0.001"}'] == 0
        assert samples['repro_x_seconds_bucket{le="0.01"}'] == 2
        assert samples['repro_x_seconds_bucket{le="1"}'] == 2
        assert samples['repro_x_seconds_bucket{le="+Inf"}'] == 3
        assert samples["repro_x_seconds_count"] == 3

    def test_empty_exposition_is_valid(self):
        text = prometheus.render_exposition({}, {}, {})
        assert text == "\n"
        assert prometheus.parse_exposition(text) == {}

    def test_parse_rejects_malformed_lines(self):
        with pytest.raises(ValueError):
            prometheus.parse_exposition("this is not a sample line\n")


class TestStructuredLogger:
    def test_json_mode_emits_one_object_per_line(self):
        stream = io.StringIO()
        rlog.configure(True)
        logger = rlog.StructuredLogger("svc", stream=stream)
        logger.bind(job_id="j-1").info("job_accepted", points=40,
                                       note="two words")
        record = json.loads(stream.getvalue())
        assert record["level"] == "info"
        assert record["component"] == "svc"
        assert record["event"] == "job_accepted"
        assert record["job_id"] == "j-1"
        assert record["points"] == 40
        assert record["note"] == "two words"
        assert isinstance(record["ts"], float)

    def test_human_mode_format(self):
        stream = io.StringIO()
        rlog.configure(False)
        logger = rlog.StructuredLogger("svc", stream=stream)
        logger.warning("queue_full", depth=3, note="two words")
        line = stream.getvalue().strip()
        assert line.startswith("WARNING svc: queue_full")
        assert "depth=3" in line
        assert 'note="two words"' in line

    def test_bind_does_not_mutate_parent(self):
        parent = rlog.get_logger("p")
        child = parent.bind(x=1)
        grandchild = child.bind(y=2)
        assert parent.context == {}
        assert child.context == {"x": 1}
        assert grandchild.context == {"x": 1, "y": 2}

    def test_env_variable_controls_mode(self, monkeypatch):
        monkeypatch.setenv("REPRO_LOG_JSON", "1")
        assert rlog.configure(None) is True
        monkeypatch.setenv("REPRO_LOG_JSON", "false")
        assert rlog.configure(None) is False
        monkeypatch.delenv("REPRO_LOG_JSON")
        assert rlog.configure(None) is False

    def test_broken_stream_never_raises(self):
        class Broken(io.StringIO):
            def write(self, *_args):
                raise ValueError("I/O operation on closed file")

        rlog.configure(False)
        logger = rlog.StructuredLogger("svc", stream=Broken())
        logger.error("still_fine")  # must not raise
