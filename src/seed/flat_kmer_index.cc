#include "seed/flat_kmer_index.hh"

#include <algorithm>
#include <bit>
#include <cstddef>
#include <type_traits>

#include "common/check.hh"

namespace genax {

// The entry array is serialized into (and aliased out of) on-disk
// snapshots verbatim; any layout drift silently invalidates every
// existing snapshot, so pin it at compile time.
static_assert(sizeof(FlatKmerIndex::Entry) == 16);
static_assert(std::is_trivially_copyable_v<FlatKmerIndex::Entry>);
static_assert(offsetof(FlatKmerIndex::Entry, key) == 0);
static_assert(offsetof(FlatKmerIndex::Entry, offset) == 8);
static_assert(offsetof(FlatKmerIndex::Entry, count) == 12);

FlatKmerIndex::FlatKmerIndex(const Seq &ref, u32 k)
    : _k(k), _segLen(ref.size())
{
    GENAX_CHECK(k >= 1 && k <= 13, "k out of supported range: ", k);
    if (ref.size() < k) {
        // Even the empty table needs one probe-able slot.
        _table.assign(2, Entry{});
        _mask = 1;
        _filter = presenceFilterFor(0, k);
        bindOwned();
        return;
    }
    const u64 kmers = ref.size() - k + 1;

    // <= 50% load so linear probe chains stay short; the table is
    // sized for the worst case (every k-mer distinct) to keep the
    // build single-pass over the upserts.
    const u64 slots = std::bit_ceil(std::max<u64>(16, 2 * kmers));
    _table.assign(slots, Entry{});
    _mask = slots - 1;

    auto first_key = [&]() {
        u64 key = 0;
        for (u32 i = 0; i < k; ++i)
            key |= static_cast<u64>(ref[i] & 3) << (2 * i);
        return key;
    };
    auto roll = [&](u64 key, u64 next_pos) {
        return (key >> 2) |
               (static_cast<u64>(ref[next_pos] & 3) << (2 * (k - 1)));
    };

    // Pass 1: count occurrences per distinct key.
    u64 key = first_key();
    for (u64 p = 0; p < kmers; ++p) {
        u64 slot = slotOf(key);
        for (;;) {
            Entry &e = _table[slot];
            if (e.key == key) {
                ++e.count;
                break;
            }
            if (e.key == kEmptyKey) {
                e.key = key;
                e.count = 1;
                ++_distinct;
                break;
            }
            slot = (slot + 1) & _mask;
        }
        if (p + 1 < kmers)
            key = roll(key, p + k);
    }

    // Assign postings extents in ascending key order, so the layout
    // (and hence any iteration the tests do) is independent of the
    // hash function and table size. The sort runs over packed
    // (key << 32 | slot) words — a key spans at most 2*13 = 26 bits
    // and slots are u32-indexed, and keys are distinct across
    // occupied slots, so this orders exactly like the old indirect
    // sort while the comparisons stay out of the table.
    // The same walk fills the presence filter.
    _filter = presenceFilterFor(_distinct, k);
    std::vector<u64> occupied;
    occupied.reserve(_distinct);
    for (u32 s = 0; s < _table.size(); ++s) {
        if (_table[s].key == kEmptyKey)
            continue;
        occupied.push_back(_table[s].key << 32 | s);
        if (!_filter.empty())
            presenceFilterAdd(_filter, _table[s].key);
    }
    std::sort(occupied.begin(), occupied.end());
    u32 offset = 0;
    for (const u64 packed : occupied) {
        Entry &e = _table[static_cast<u32>(packed)];
        e.offset = offset;
        offset += e.count;
        _maxHits = std::max(_maxHits, e.count);
        e.count = 0; // reused as the fill cursor in pass 2
    }

    // Pass 2: fill in ascending position order so each key's postings
    // are sorted (required for the binary-search fallback), exactly
    // as the dense CSR layout reports them.
    _positions.assign(kmers, 0);
    key = first_key();
    for (u64 p = 0; p < kmers; ++p) {
        u64 slot = slotOf(key);
        while (_table[slot].key != key)
            slot = (slot + 1) & _mask;
        Entry &e = _table[slot];
        _positions[e.offset + e.count++] = static_cast<u32>(p);
        if (p + 1 < kmers)
            key = roll(key, p + k);
    }
    bindOwned();
}

FlatKmerIndex::FlatKmerIndex(const FlatKmerIndex &other)
    : _k(other._k), _segLen(other._segLen), _maxHits(other._maxHits),
      _distinct(other._distinct), _mask(other._mask),
      _table(other._table), _positions(other._positions),
      _filter(other._filter), _tablePtr(other._tablePtr),
      _slots(other._slots), _posPtr(other._posPtr),
      _posCount(other._posCount), _filterPtr(other._filterPtr),
      _filterMask(other._filterMask)
{
    if (!other.borrowed())
        bindOwned();
}

FlatKmerIndex &
FlatKmerIndex::operator=(const FlatKmerIndex &other)
{
    if (this != &other) {
        _k = other._k;
        _segLen = other._segLen;
        _maxHits = other._maxHits;
        _distinct = other._distinct;
        _mask = other._mask;
        _table = other._table;
        _positions = other._positions;
        _filter = other._filter;
        _tablePtr = other._tablePtr;
        _slots = other._slots;
        _posPtr = other._posPtr;
        _posCount = other._posCount;
        _filterPtr = other._filterPtr;
        _filterMask = other._filterMask;
        if (!other.borrowed())
            bindOwned();
    }
    return *this;
}

FlatKmerIndex
FlatKmerIndex::view(std::span<const Entry> table,
                    std::span<const u32> positions, u32 k, u64 seg_len,
                    u32 max_hits, u64 distinct,
                    std::span<const u64> filter)
{
    GENAX_CHECK(k >= 1 && k <= 13, "k out of supported range: ", k);
    GENAX_CHECK(table.size() >= 2 && std::has_single_bit(table.size()),
                "view table size must be a power of two >= 2, got ",
                table.size());
    GENAX_CHECK(filter.empty() || std::has_single_bit(filter.size()),
                "presence filter size must be a power of two, got ",
                filter.size());
    FlatKmerIndex idx;
    idx._k = k;
    idx._segLen = seg_len;
    idx._maxHits = max_hits;
    idx._distinct = distinct;
    idx._mask = table.size() - 1;
    idx._tablePtr = table.data();
    idx._slots = table.size();
    idx._posPtr = positions.data();
    idx._posCount = positions.size();
    idx.bindFilter(filter);
    return idx;
}

std::vector<u64>
FlatKmerIndex::presenceFilterFor(u64 distinct, u32 k)
{
    // Selectivity rule: the filter pays only where most probes miss.
    // A dense index (a whole 4 Mbp genome at k = 12) would carry
    // megabytes of filter for no speed.
    if (8 * distinct > (u64{1} << (2 * k)))
        return {};
    // 8 bits per distinct key: distinct / 8 words of 64 bits.
    const u64 words = std::max<u64>(1, (distinct + 7) / 8);
    return std::vector<u64>(std::bit_ceil(words), 0);
}

} // namespace genax
