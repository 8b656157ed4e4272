"""Checkpoint format compatibility.

``tests/fixtures/pre_flat_core_snapshot.bin`` was produced by
``tests/fixtures/gen_pre_flat_core.py`` on the tree *before* the
flat-core overhaul replaced ``Bank``'s dict-of-atoms pickle with the
paged ``_storage_v2`` codec; ``tests/fixtures/storage_v2_snapshot.bin``
(``gen_storage_v2.py``) was produced while ``_storage_v2`` was still
the written format, before the compact per-bank codec replaced it;
``tests/fixtures/compact_4k_snapshot.bin`` (``gen_compact_4k.py``) was
produced by the compact codec while pages still held 4 KiB.  Restoring
any of them on the current tree and replaying the recorded continuation
must reproduce the committed observables bit-for-bit: old blobs load
into the array-backed storage and resume identically.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.core.bank import ATOM_BYTES, Bank
from repro.core.checkpoint import restore_bundle
from tests.fixtures import gen_compact_4k, gen_storage_v2
from tests.fixtures.gen_pre_flat_core import (
    BLOB_PATH,
    EXPECT_PATH,
    run_continuation,
    storage_fingerprint,
)


def _load(blob_path, expect_path):
    if not (os.path.exists(blob_path) and os.path.exists(expect_path)):
        pytest.skip(f"fixture {os.path.basename(blob_path)} not present")
    with open(blob_path, "rb") as fh:
        blob = fh.read()
    with open(expect_path) as fh:
        expect = json.load(fh)
    return blob, expect


@pytest.fixture(scope="module")
def fixture_blob():
    return _load(BLOB_PATH, EXPECT_PATH)


@pytest.fixture(scope="module")
def v2_blob():
    return _load(gen_storage_v2.BLOB_PATH, gen_storage_v2.EXPECT_PATH)


@pytest.fixture(scope="module")
def compact_4k_blob():
    return _load(gen_compact_4k.BLOB_PATH, gen_compact_4k.EXPECT_PATH)


def _banks(sim):
    return [bank for dev in sim.devices for vault in dev.vaults
            for bank in vault.banks]


def _assert_continuation(blob, expect):
    sim, (host,) = restore_bundle(blob)
    got = run_continuation(sim, host)
    for key, want in expect.items():
        # Keys describing the snapshot itself, not the continuation,
        # are covered by the per-fixture restore tests.
        if key in ("blob_bytes", "snapshot_cycle", "snapshot_storage_sha256"):
            continue
        assert got[key] == want, key


class TestPreFlatCoreBlob:
    def test_blob_is_the_committed_artifact(self, fixture_blob):
        blob, expect = fixture_blob
        assert len(blob) == expect["blob_bytes"]
        # The committed blob predates _storage_v2; if a regenerated
        # (new-format) blob ever replaces it, this test stops proving
        # anything — fail loudly instead.
        assert b"_storage_v2" not in blob
        assert b"_blocks" in blob

    def test_restores_into_paged_storage(self, fixture_blob):
        blob, expect = fixture_blob
        sim, hosts = restore_bundle(blob)
        assert sim.clock_value == expect["snapshot_cycle"]
        banks = _banks(sim)
        assert all(isinstance(b, Bank) for b in banks)
        # Phase A was write-heavy: restored content must be non-empty
        # and live in the paged arrays, not a legacy dict.
        assert any(b._pages for b in banks)
        assert not any(hasattr(b, "_blocks") for b in banks)
        touched = sum(len(b.touched_atoms()) for b in banks)
        assert touched > 0

    def test_continuation_replays_bit_identically(self, fixture_blob):
        _assert_continuation(*fixture_blob)


class TestStorageV2Blob:
    def test_blob_is_the_committed_artifact(self, v2_blob):
        blob, expect = v2_blob
        assert len(blob) == expect["blob_bytes"]
        # Must stay a v2 blob (DRAM leaves pickled as objects); a
        # regenerated compact-codec blob would prove nothing here.
        assert b"_storage_v2" in blob
        assert b"DRAM" in blob

    def test_restores_cycle_and_bank_digest(self, v2_blob):
        blob, expect = v2_blob
        sim, _ = restore_bundle(blob)
        assert sim.clock_value == expect["snapshot_cycle"]
        assert storage_fingerprint(sim) == expect["snapshot_storage_sha256"]
        for dev in sim.devices:
            for vault in dev.vaults:
                for bank in vault.banks:
                    assert all(d.bank is bank for d in bank.drams)

    def test_continuation_replays_bit_identically(self, v2_blob):
        _assert_continuation(*v2_blob)


class TestCompact4kBlob:
    def test_blob_is_the_committed_artifact(self, compact_4k_blob):
        blob, expect = compact_4k_blob
        assert len(blob) == expect["blob_bytes"]
        # A compact-codec blob: neither older codec's markers appear.
        for marker in (b"_storage_v2", b"_blocks", b"DRAM"):
            assert marker not in blob, marker

    def test_restores_cycle_and_bank_digest(self, compact_4k_blob):
        blob, expect = compact_4k_blob
        sim, _ = restore_bundle(blob)
        assert sim.clock_value == expect["snapshot_cycle"]
        assert storage_fingerprint(sim) == expect["snapshot_storage_sha256"]
        banks = _banks(sim)
        # Restored banks keep the page length their blob recorded; a
        # regenerated (current-layout) blob would prove nothing here.
        assert {b._page_words for b in banks} == {gen_compact_4k.PAGE_WORDS}
        assert any(b._rows for b in banks)

    def test_continuation_replays_bit_identically(self, compact_4k_blob):
        _assert_continuation(*compact_4k_blob)

    def test_export_imports_into_fresh_bank(self, compact_4k_blob):
        sim, _ = restore_bundle(compact_4k_blob[0])
        written = [b for b in _banks(sim) if b._rows]
        assert written
        for old in written:
            fresh = Bank(old.bank_id, old.capacity_bytes)
            fresh.import_storage(old.export_storage())
            assert fresh.touched_atoms() == old.touched_atoms()
            for atom in old.touched_atoms():
                assert fresh.atom_words(atom) == old.atom_words(atom)
                block = atom * ATOM_BYTES // 128 * 128
                assert fresh.read(block, 128) == old.read(block, 128)
