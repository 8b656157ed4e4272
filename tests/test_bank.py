"""Unit tests for banks and DRAMs (repro.core.bank)."""

import pickle

import numpy as np
import pytest

from repro.core.bank import (
    ATOM_BYTES,
    COLUMN_FETCH_BYTES,
    DRAM,
    PAGE_ATOMS,
    Bank,
)


@pytest.fixture
def bank():
    return Bank(bank_id=0, capacity_bytes=1 << 20, num_drams=8)


class TestConstruction:
    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            Bank(0, 0)
        with pytest.raises(ValueError):
            Bank(0, 24)  # not a multiple of 16

    def test_dram_slices(self, bank):
        assert len(bank.drams) == 8
        assert all(isinstance(d, DRAM) for d in bank.drams)
        assert [d.dram_id for d in bank.drams] == list(range(8))


class TestDataPath:
    def test_unwritten_reads_zero(self, bank):
        assert bank.read(0, 64) == [0] * 8

    def test_write_read_round_trip(self, bank):
        words = list(range(1, 9))
        bank.write(0x40, words)
        assert bank.read(0x40, 64) == words

    def test_partial_overlap(self, bank):
        bank.write(0, [1, 2, 3, 4])  # two atoms at 0x00, 0x10
        bank.write(16, [9, 9])       # overwrite second atom
        assert bank.read(0, 32) == [1, 2, 9, 9]

    def test_words_are_masked_to_64_bits(self, bank):
        bank.write(0, [1 << 64, -1 & ((1 << 65) - 1)])
        lo, hi = bank.read(0, 16)
        assert lo == 0
        assert hi == (1 << 64) - 1

    def test_alignment_enforced(self, bank):
        with pytest.raises(ValueError):
            bank.read(8, 16)
        with pytest.raises(ValueError):
            bank.read(0, 24)
        with pytest.raises(ValueError):
            bank.write(4, [1, 2])

    def test_bounds_enforced(self, bank):
        with pytest.raises(ValueError):
            bank.read(bank.capacity_bytes - 16, 32)
        with pytest.raises(ValueError):
            bank.read(-16, 16)

    def test_write_requires_whole_atoms(self, bank):
        with pytest.raises(ValueError):
            bank.write(0, [1])

    def test_sparse_storage(self, bank):
        bank.write(0x1000, [5, 6])
        assert bank.touched_bytes == ATOM_BYTES
        bank.read(0x2000, 64)  # reads do not materialise blocks
        assert bank.touched_bytes == ATOM_BYTES


class TestAtomics:
    def test_add16_returns_old_value(self, bank):
        bank.write(0, [10, 20])
        old = bank.atomic_add16(0, [1, 2])
        assert old == [10, 20]
        assert bank.read(0, 16) == [11, 22]

    def test_add16_wraps_64_bits(self, bank):
        bank.write(0, [(1 << 64) - 1, 0])
        bank.atomic_add16(0, [1, 0])
        assert bank.read(0, 16) == [0, 0]

    def test_add16_operand_arity(self, bank):
        with pytest.raises(ValueError):
            bank.atomic_add16(0, [1])

    def test_2add8_counts_as_atomic(self, bank):
        bank.atomic_2add8(0, [3, 4])
        assert bank.atomics == 1
        assert bank.read(0, 16) == [3, 4]


class TestBusyWindow:
    def test_busy_tracking(self, bank):
        assert not bank.is_busy(0)
        bank.occupy(cycle=10, busy_cycles=3)
        assert bank.is_busy(10)
        assert bank.is_busy(12)
        assert not bank.is_busy(13)

    def test_zero_busy_cycles(self, bank):
        bank.occupy(cycle=5, busy_cycles=0)
        assert not bank.is_busy(5)


class TestAccounting:
    def test_access_counters(self, bank):
        bank.write(0, [1, 2])
        bank.read(0, 16)
        bank.atomic_add16(0, [1, 1])
        assert (bank.reads, bank.writes, bank.atomics) == (1, 1, 1)
        assert bank.total_accesses == 3

    def test_column_fetch_counting(self, bank):
        """Paper III.A: accesses are performed in 32-byte column fetches."""
        bank.read(0, 64)
        assert bank.column_fetches == 64 // COLUMN_FETCH_BYTES
        bank.read(0, 16)  # one atom still needs a full fetch
        assert bank.column_fetches == 2 + 1

    def test_dram_slices_participate(self, bank):
        bank.read(0, 16)
        assert all(d.accesses == 1 for d in bank.drams)

    def test_reset(self, bank):
        bank.write(0, [1, 2])
        bank.occupy(0, 10)
        bank.reset()
        assert bank.read(0, 16) == [0, 0]
        assert bank.writes == 0  # reset cleared, the read above re-counts
        assert not bank.is_busy(0)


def _storage_bytes(bank):
    """Bytes held by the bank's word and touched arrays."""
    return sum(a.nbytes for a in (bank._words, bank._touched) if a is not None)


class TestArenaStorage:
    def test_storage_scales_with_pages_written(self):
        # Uniform random 64 B writes, as in the paper's harness: nearly
        # every write lands on a fresh page, and the doubling arena
        # holds at most twice the rows in use.
        capacity = 16 << 20
        bank = Bank(0, capacity)
        rng = np.random.default_rng(5)
        for block in rng.integers(0, capacity // 64, size=4096):
            bank.write(int(block) * 64, [1] * 8)
        pages = len(bank._pages)
        page_bytes = PAGE_ATOMS * ATOM_BYTES
        assert 0 < _storage_bytes(bank) <= 2 * pages * (page_bytes + PAGE_ATOMS)

    def test_fresh_bank_allocates_nothing(self):
        assert _storage_bytes(Bank(0, 1 << 20)) == 0

    def test_reset_releases_storage(self, bank):
        bank.write(0, [1, 2])
        bank.write(1 << 19, [3, 4])
        assert _storage_bytes(bank) > 0
        bank.reset()
        assert _storage_bytes(bank) == 0
        assert bank.export_storage() == [] and bank.touched_atoms() == []

    def test_import_adopts_image_page_length(self, bank):
        # An export from a bank with 512-word (4 KiB) pages, the layout
        # older checkpoints restore with.
        pw = 512
        words = np.arange(2 * pw, dtype=np.uint64).reshape(2, pw)
        touched = np.zeros((2, pw // 2), dtype=bool)
        touched[0, 3] = touched[1, 0] = True
        image = [(0, words[0], touched[0]), (5, words[1], touched[1])]
        bank.import_storage(image)
        assert bank.touched_atoms() == [3, 5 * 256]
        assert bank.atom_words(3) == (6, 7)
        assert bank.read(5 * 4096, 32) == [512, 513, 514, 515]
        got = bank.export_storage()
        assert [pg for pg, _, _ in got] == [0, 5]
        for (_, w0, t0), (_, w1, t1) in zip(image, got):
            assert np.array_equal(w0, w1) and np.array_equal(t0, t1)
        bank.write(5 * 4096 + 16, [9, 9])     # adopted page
        bank.write(9 * 4096, [8, 8])          # fresh page, same length
        assert bank.read(5 * 4096, 32) == [512, 513, 9, 9]
        assert bank.atom_words(9 * 256) == (8, 8)

    @pytest.mark.parametrize("image", [
        [(0, np.zeros(16, np.uint64), np.zeros(8, bool)),
         (1, np.zeros(512, np.uint64), np.zeros(256, bool))],
        [(0, np.zeros(16, np.uint64), np.zeros(16, bool))],
        [(0, np.zeros(3, np.uint64), np.zeros(1, bool))],
    ], ids=["mixed_lengths", "touched_length", "partial_atom"])
    def test_import_rejects_malformed_pages(self, bank, image):
        bank.write(0, [1, 2])
        with pytest.raises(ValueError):
            bank.import_storage(image)
        assert bank.atom_words(0) == (1, 2)


#: Slots holding storage (compared via the public storage views; arena
#: row order is not preserved across a round trip) or the DRAM leaves
#: (compared leaf by leaf).
_NON_COUNTER_SLOTS = ("drams", "_rows", "_words", "_touched", "_image")


def _written_bank():
    bank = Bank(bank_id=3, capacity_bytes=1 << 20, num_drams=8)
    bank.write(0, [1, 2, 3, 4])
    bank.write(5000 * ATOM_BYTES, [0, 0])          # zero write still touches
    bank.write(255 * ATOM_BYTES, [5, 6, 7, 8])     # page-crossing write
    bank.masked_write(300 * ATOM_BYTES + 8, 0xAB, 0x01)
    bank.atomic_add16(40_000 * ATOM_BYTES, [9, 10])
    bank.read(0, 64)
    bank.occupy(cycle=17, busy_cycles=6)
    bank.access_busy_cycles(4, 6, open_policy=True, hit_cycles=2,
                            miss_cycles=9)
    bank.conflicts = 2
    return bank


def _sub_page_bank():
    # Smaller than one page, with a 13-atom touched map (not a whole
    # number of bytes once bit-packed).
    bank = Bank(bank_id=2, capacity_bytes=13 * ATOM_BYTES, num_drams=4)
    bank.write(2 * ATOM_BYTES, [11, 12])
    bank.read(2 * ATOM_BYTES, 16)
    return bank


class TestPickleCodec:
    @pytest.mark.parametrize("make", [
        _written_bank,
        lambda: Bank(bank_id=1, capacity_bytes=1 << 20),        # empty
        _sub_page_bank,
    ], ids=["written", "empty", "sub_page"])
    def test_round_trip(self, make):
        bank = make()
        blob = pickle.dumps(bank, protocol=pickle.HIGHEST_PROTOCOL)
        assert b"DRAM" not in blob
        got = pickle.loads(blob)

        assert len(got.drams) == len(bank.drams)
        assert [d.dram_id for d in got.drams] == \
            [d.dram_id for d in bank.drams]
        assert all(d.bank is got for d in got.drams)
        assert all(d.accesses == got.dram_access_count for d in got.drams)
        assert got.touched_atoms() == bank.touched_atoms()
        want, have = bank.export_storage(), got.export_storage()
        assert [pg for pg, _, _ in have] == [pg for pg, _, _ in want]
        for (_, w0, t0), (_, w1, t1) in zip(want, have):
            assert w1.dtype == np.uint64 and t1.dtype == bool
            assert np.array_equal(w0, w1) and np.array_equal(t0, t1)
        for name in Bank.__slots__:
            if name not in _NON_COUNTER_SLOTS:
                assert getattr(got, name) == getattr(bank, name), name

    def test_restored_bank_keeps_working(self):
        bank = _written_bank()
        got = pickle.loads(pickle.dumps(bank))
        for b in (bank, got):
            b.write(16, [21, 22])                     # restored page
            b.write(60_000 * ATOM_BYTES, [23, 24])    # fresh page
        assert got.read(0, 64) == bank.read(0, 64)
        assert got.atom_words(60_000) == (23, 24)
        assert got.touched_atoms() == bank.touched_atoms()



#: Every storage mutator, applied to a ``_written_bank``.  Each changes
#: stored contents, so each must drop the bank's cached image.
_MUTATORS = {
    "write": lambda b: b.write(16, [7, 8]),
    "masked_write": lambda b: b.masked_write(8, 0xABCD, 0x02),
    "atomic_add16": lambda b: b.atomic_add16(0, [1, 1]),
    "set_atom_words": lambda b: b.set_atom_words(60_000, 3, 4),
    "import_storage": lambda b: b.import_storage(b.export_storage()[1:]),
    "reset": lambda b: b.reset(),
}


def _dumps(bank):
    return pickle.dumps(bank, protocol=pickle.HIGHEST_PROTOCOL)


def _storage(bank):
    return [(pg, w.tolist(), t.tolist())
            for pg, w, t in bank.export_storage()]


class TestCachedImage:
    @pytest.mark.parametrize("mutate", list(_MUTATORS.values()),
                             ids=list(_MUTATORS))
    def test_mutator_invalidates_image(self, mutate):
        bank = _written_bank()
        before = _dumps(bank)
        want_before = _storage(bank)
        mutate(bank)
        after = _dumps(bank)
        assert after != before
        assert _storage(pickle.loads(before)) == want_before
        # The second blob carries the mutation: the image was rebuilt,
        # not served stale from the first dump.
        assert _storage(pickle.loads(after)) == _storage(bank)
        assert _storage(bank) != want_before

    def test_reads_keep_image(self):
        bank = _written_bank()
        _dumps(bank)
        image = bank._image
        bank.read(0, 64)
        bank.occupy(cycle=40, busy_cycles=3)
        _dumps(bank)
        assert bank._image is image

    @pytest.mark.parametrize("make", [_written_bank, _sub_page_bank],
                             ids=["written", "sub_page"])
    def test_seeded_image_matches_re_encoding(self, make):
        got = pickle.loads(_dumps(make()))
        seeded = [bytes(b) for b in got._image]
        got._image = None
        _dumps(got)
        assert [bytes(b) for b in got._image] == seeded

    def test_default_protocol_pickles_plain_bytes(self):
        # Below protocol 5 the cached PickleBuffers unwrap to bytes.
        bank = _written_bank()
        _dumps(bank)
        got = pickle.loads(pickle.dumps(bank, protocol=4))
        assert _storage(got) == _storage(bank)

    def test_out_of_band_round_trip_with_pickle_buffers(self):
        # A plain pickle round trip hands PickleBuffers (not bytes) back
        # to __setstate__; the seeded image must still re-pickle.
        bank = _written_bank()
        buffers = []
        blob = pickle.dumps(bank, protocol=5, buffer_callback=buffers.append)
        got = pickle.loads(blob, buffers=buffers)
        assert type(got._image[1].raw().obj) is bytes
        for protocol in (4, 5):
            again = pickle.loads(pickle.dumps(got, protocol=protocol))
            assert _storage(again) == _storage(bank)
