"""Unit tests for dataset persistence (gzip-JSON round trips)."""

import gzip
import json

import pytest

from repro.datasets.io import (
    DatasetCorruptionError,
    dataset_from_dict,
    dataset_path,
    dataset_to_dict,
    load_dataset,
    save_dataset,
)
from repro.datasets.columnar import load_dataset_file

from test_records_dataset import build_small_dataset
from conftest import TxFactory


@pytest.fixture
def txf():
    return TxFactory("dataset")


class TestRoundTrip:
    def test_dict_round_trip_preserves_chain(self, txf):
        dataset, *_ = build_small_dataset(txf)
        restored = dataset_from_dict(dataset_to_dict(dataset))
        assert restored.block_count == dataset.block_count
        assert restored.chain.tip_hash == dataset.chain.tip_hash
        for original, copy in zip(dataset.chain, restored.chain):
            assert original.block_hash == copy.block_hash
            assert [t.txid for t in original] == [t.txid for t in copy]

    def test_round_trip_preserves_records(self, txf):
        dataset, wallet_tx, *_ = build_small_dataset(txf)
        restored = dataset_from_dict(dataset_to_dict(dataset))
        original = dataset.tx_records[wallet_tx.txid]
        copy = restored.tx_records[wallet_tx.txid]
        assert copy == original

    def test_round_trip_preserves_pools_and_wallets(self, txf):
        dataset, *_ = build_small_dataset(txf)
        restored = dataset_from_dict(dataset_to_dict(dataset))
        assert restored.block_pools == dataset.block_pools
        assert restored.pool_wallets == dataset.pool_wallets

    def test_file_round_trip(self, txf, tmp_path):
        dataset, *_ = build_small_dataset(txf)
        path = save_dataset(dataset, tmp_path / "ds.json.gz")
        restored = load_dataset(path)
        assert restored.name == dataset.name
        assert restored.tx_count == dataset.tx_count

    def test_unknown_version_rejected(self, txf):
        dataset, *_ = build_small_dataset(txf)
        payload = dataset_to_dict(dataset)
        payload["version"] = 99
        with pytest.raises(ValueError):
            dataset_from_dict(payload)

    def test_load_dataset_file_without_a_twin(self, txf, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_dataset_file(tmp_path / "missing.json.gz")
        dataset, *_ = build_small_dataset(txf)
        path = save_dataset(dataset, tmp_path / "ds.json.gz")
        loaded = load_dataset_file(path)
        assert loaded.columnar is None
        assert dataset_to_dict(loaded) == dataset_to_dict(dataset)

    def test_dataset_path_layout(self, tmp_path):
        path = dataset_path(tmp_path, "dataset-A", 42)
        assert path.name == "dataset-A-seed42.json.gz"

    def test_corrupted_linkage_fails_validation(self, txf):
        dataset, *_ = build_small_dataset(txf)
        payload = dataset_to_dict(dataset)
        # Swap block order: heights/linkage no longer validate.
        payload["blocks"] = payload["blocks"][::-1]
        with pytest.raises(Exception):
            dataset_from_dict(payload)

    def test_snapshot_and_series_round_trip(self, small_dataset_a):
        payload = dataset_to_dict(small_dataset_a)
        restored = dataset_from_dict(payload)
        assert len(restored.snapshots) == len(small_dataset_a.snapshots)
        assert restored.size_series is not None
        assert restored.size_series.sizes() == small_dataset_a.size_series.sizes()


class TestRobustPersistence:
    def test_save_is_atomic_and_leaves_no_temp_file(self, txf, tmp_path):
        dataset, *_ = build_small_dataset(txf)
        path = save_dataset(dataset, tmp_path / "ds.json.gz")
        assert [p for p in tmp_path.iterdir()] == [path]

    def test_save_is_byte_deterministic(self, txf, tmp_path):
        dataset, *_ = build_small_dataset(txf)
        first = save_dataset(dataset, tmp_path / "one.json.gz").read_bytes()
        second = save_dataset(dataset, tmp_path / "two.json.gz").read_bytes()
        assert first == second

    def test_payload_is_the_compact_json_document(
        self, txf, tmp_path, small_dataset_a
    ):
        """Pins the decompressed interchange bytes, not the compression."""
        small, *_ = build_small_dataset(txf)
        for dataset in (small, small_dataset_a):
            path = save_dataset(dataset, tmp_path / "ds.json.gz")
            expected = json.dumps(
                dataset_to_dict(dataset), separators=(",", ":")
            ).encode()
            assert gzip.decompress(path.read_bytes()) == expected

    def test_missing_file_still_raises_file_not_found(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_dataset(tmp_path / "absent.json.gz")

    def test_truncated_gzip_raises_corruption_error(self, txf, tmp_path):
        dataset, *_ = build_small_dataset(txf)
        path = save_dataset(dataset, tmp_path / "ds.json.gz")
        path.write_bytes(path.read_bytes()[:50])
        with pytest.raises(DatasetCorruptionError) as excinfo:
            load_dataset(path)
        assert str(path) in str(excinfo.value)

    def test_non_gzip_bytes_raise_corruption_error(self, tmp_path):
        path = tmp_path / "ds.json.gz"
        path.write_bytes(b"plainly not gzip data")
        with pytest.raises(DatasetCorruptionError):
            load_dataset(path)

    def test_malformed_json_reports_offset(self, tmp_path):
        import gzip

        path = tmp_path / "ds.json.gz"
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            handle.write('{"version": 1, "oops..')
        with pytest.raises(DatasetCorruptionError) as excinfo:
            load_dataset(path)
        assert excinfo.value.offset is not None
        assert "offset" in str(excinfo.value)

    def test_structurally_invalid_payload_raises_corruption_error(
        self, txf, tmp_path
    ):
        import gzip
        import json

        dataset, *_ = build_small_dataset(txf)
        payload = dataset_to_dict(dataset)
        del payload["blocks"]
        path = tmp_path / "ds.json.gz"
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            json.dump(payload, handle)
        with pytest.raises(DatasetCorruptionError) as excinfo:
            load_dataset(path)
        assert "invalid structure" in excinfo.value.reason

    def test_corruption_error_is_a_value_error(self):
        assert issubclass(DatasetCorruptionError, ValueError)

    def test_csv_export_leaves_no_temp_files(self, small_dataset_a, tmp_path):
        from repro.datasets.export import export_csv

        counts = export_csv(small_dataset_a, tmp_path)
        assert counts
        leftovers = [p for p in tmp_path.iterdir() if not p.suffix == ".csv"]
        assert leftovers == []
