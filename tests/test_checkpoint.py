"""The WAL checkpoint file contract, driven through compact/recover.

``BlockJournal.compact`` writes the checkpoint atomically (temp file,
fsync, rename, directory fsync) and ``BlockJournal.recover`` reads it
back.  A missing checkpoint recovers to an empty history; any file
that is present but unreadable raises :class:`WalCorruptionError`
rather than loading a partial history.
"""

import gzip
import json

import pytest

from repro.core.audit import stream_blocks
from repro.service.wal import BlockJournal, WalCorruptionError, encode_entry


@pytest.fixture(scope="module")
def wal_entries(small_dataset_a):
    feed = list(stream_blocks(small_dataset_a))[:12]
    return [encode_entry(h, p, b) for h, p, b in feed]


def _compacted(tmp_path, entries):
    journal = BlockJournal(tmp_path)
    journal.compact(entries)
    journal.close()
    return journal


class TestCheckpointIO:
    def test_roundtrip(self, tmp_path, wal_entries):
        _compacted(tmp_path, wal_entries)
        assert BlockJournal(tmp_path).recover() == wal_entries

    def test_missing_file_returns_none(self, tmp_path):
        journal = BlockJournal(tmp_path)
        assert not journal.checkpoint_path.exists()
        assert journal.recover() == []

    def test_write_leaves_no_temp_file(self, tmp_path, wal_entries):
        journal = _compacted(tmp_path, wal_entries)
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            [journal.checkpoint_path.name, journal.wal_path.name]
        )

    def test_write_replaces_atomically(self, tmp_path, wal_entries):
        journal = BlockJournal(tmp_path)
        journal.compact(wal_entries[:4])
        journal.compact(wal_entries)
        journal.close()
        assert BlockJournal(tmp_path).recover() == wal_entries

    def test_truncated_checkpoint_raises(self, tmp_path, wal_entries):
        journal = _compacted(tmp_path, wal_entries)
        data = journal.checkpoint_path.read_bytes()
        journal.checkpoint_path.write_bytes(data[:40])
        with pytest.raises(WalCorruptionError, match="unreadable"):
            BlockJournal(tmp_path).recover()

    def test_non_gzip_garbage_raises(self, tmp_path):
        journal = BlockJournal(tmp_path)
        journal.checkpoint_path.write_bytes(b"this is not a checkpoint")
        with pytest.raises(WalCorruptionError, match="unreadable"):
            journal.recover()

    def test_non_dict_payload_raises(self, tmp_path):
        journal = BlockJournal(tmp_path)
        with gzip.open(journal.checkpoint_path, "wt", encoding="utf-8") as f:
            json.dump([1, 2, 3], f)
        with pytest.raises(WalCorruptionError, match="not a JSON object"):
            journal.recover()

    def test_fsync_write_roundtrips_and_is_atomic(
        self, tmp_path, wal_entries
    ):
        """Compaction fsyncs; the checkpoint alone recovers every entry."""
        journal = _compacted(tmp_path, wal_entries)
        journal.wal_path.unlink()
        assert [p for p in tmp_path.iterdir()] == [journal.checkpoint_path]
        assert BlockJournal(tmp_path).recover() == wal_entries

    def test_crash_mid_write_preserves_previous_checkpoint(
        self, tmp_path, wal_entries
    ):
        """A torn ``.tmp`` from a mid-write crash must not be loaded.

        The crash leaves the *previous* checkpoint untouched and the
        half-written bytes under the temp name; the next compaction
        simply replaces the leftovers.
        """
        journal = BlockJournal(tmp_path)
        journal.compact(wal_entries[:4])
        tmp = journal.checkpoint_path.with_name(
            journal.checkpoint_path.name + ".tmp"
        )
        tmp.write_bytes(b"\x1f\x8b half a gzip stream")
        assert BlockJournal(tmp_path).recover() == wal_entries[:4]
        journal.compact(wal_entries)
        journal.close()
        assert BlockJournal(tmp_path).recover() == wal_entries
        assert not tmp.exists()

    def test_truncated_checkpoint_rejected_not_half_loaded(
        self, tmp_path, wal_entries
    ):
        """Every truncation point fails loudly — never a partial list."""
        journal = _compacted(tmp_path, wal_entries)
        data = journal.checkpoint_path.read_bytes()
        for cut in (1, 10, len(data) // 2, len(data) - 1):
            journal.checkpoint_path.write_bytes(data[:cut])
            with pytest.raises(WalCorruptionError):
                BlockJournal(tmp_path).recover()
