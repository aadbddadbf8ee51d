"""Tests for the crash-safe file writes (repro.files).

:func:`~repro.files.atomic_write` must never leave a torn file, even
when its writer is killed with SIGKILL.  The JSONL appender's open
modes and the reader's edge cases are here; its round trip and torn
tail are covered with the emission series in ``test_emission.py``.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time

import math

import pytest

from repro.files import (
    CorruptFileError,
    JsonlAppender,
    atomic_write,
    read_jsonl,
)


class TestAtomicWrite:
    def test_creates_file_with_exact_bytes(self, tmp_path):
        path = tmp_path / "out.bin"
        atomic_write(path, b"payload")
        assert path.read_bytes() == b"payload"

    def test_replaces_existing_content(self, tmp_path):
        path = tmp_path / "out.bin"
        path.write_bytes(b"old")
        atomic_write(path, b"new")
        assert path.read_bytes() == b"new"

    def test_accepts_a_str_path(self, tmp_path):
        path = tmp_path / "out.bin"
        atomic_write(str(path), b"payload")
        assert path.read_bytes() == b"payload"

    def test_missing_directory_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            atomic_write(tmp_path / "absent" / "out.bin", b"payload")
        assert os.listdir(tmp_path) == []

    def test_failed_write_keeps_old_content_and_no_litter(
        self, tmp_path, monkeypatch
    ):
        """A failure before the rename must leave the destination's old
        bytes untouched and clean up its temp file."""
        path = tmp_path / "out.bin"
        path.write_bytes(b"old")

        def boom(src, dst):
            raise OSError("disk detached")

        monkeypatch.setattr(os, "replace", boom)
        with pytest.raises(OSError, match="disk detached"):
            atomic_write(path, b"new")
        assert path.read_bytes() == b"old"
        assert os.listdir(tmp_path) == ["out.bin"]

    def test_sigkill_never_tears_the_file(self, tmp_path):
        """Kill -9 a writer loop at a random moment: the destination must
        hold one *complete* payload, never a prefix or a mix."""
        path = tmp_path / "torn.bin"
        writer = (
            "import sys, itertools\n"
            "from repro.files import atomic_write\n"
            "payloads = [bytes([65 + i]) * 4096 for i in range(4)]\n"
            "for i in itertools.count():\n"
            "    atomic_write(sys.argv[1], payloads[i % 4])\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (
                os.path.join(os.path.dirname(__file__), "..", "..", "src"),
                env.get("PYTHONPATH", ""),
            ) if p
        )
        proc = subprocess.Popen(
            [sys.executable, "-c", writer, str(path)], env=env
        )
        try:
            deadline = time.monotonic() + 10.0
            while not path.exists() and time.monotonic() < deadline:
                time.sleep(0.01)
            assert path.exists(), "writer never produced the file"
            time.sleep(0.2)
        finally:
            proc.kill()
            proc.wait()
        data = path.read_bytes()
        assert len(data) == 4096
        assert data in {bytes([65 + i]) * 4096 for i in range(4)}


class TestJsonlAppenderModes:
    def test_write_mode_truncates(self, tmp_path):
        path = tmp_path / "records.jsonl"
        path.write_text('{"old": true}\n')
        appender = JsonlAppender(path)
        appender.write({"new": True})
        appender.close()
        assert read_jsonl(path) == [{"new": True}]

    def test_each_record_is_on_disk_before_close(self, tmp_path):
        path = tmp_path / "records.jsonl"
        appender = JsonlAppender(path)
        appender.write({"a": 1})
        appender.write({"b": 2})
        assert read_jsonl(path) == [{"a": 1}, {"b": 2}]
        assert appender.written == 2
        appender.close()

    def test_close_is_idempotent(self, tmp_path):
        appender = JsonlAppender(tmp_path / "records.jsonl")
        appender.close()
        appender.close()

    def test_floats_round_trip_exactly(self, tmp_path):
        path = tmp_path / "records.jsonl"
        values = [0.1, 1.0 / 3.0, 1e-300, 2.0 ** 60 + 0.5, -0.0]
        appender = JsonlAppender(path)
        appender.write({"values": values, "missing": math.nan})
        appender.close()
        [record] = read_jsonl(path)
        assert record["values"] == values
        assert math.copysign(1.0, record["values"][-1]) == -1.0
        assert math.isnan(record["missing"])


class TestReadJsonl:
    def test_empty_file_has_no_records(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert read_jsonl(path) == []

    def test_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "records.jsonl"
        path.write_text('\n{"a": 1}\n\n  \n{"b": 2}\n\n')
        assert read_jsonl(path) == [{"a": 1}, {"b": 2}]

    def test_missing_file_raises_file_not_found(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            read_jsonl(tmp_path / "absent.jsonl")

    def test_corruption_error_names_the_file(self, tmp_path):
        path = tmp_path / "records.jsonl"
        path.write_text('not json\n{"a": 1}\n')
        with pytest.raises(CorruptFileError, match="records.jsonl"):
            read_jsonl(path)
