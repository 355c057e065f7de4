#include "seed/flat_kmer_index.hh"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstddef>
#include <type_traits>
#include <utility>

#include "common/check.hh"
#include "common/parallel.hh"

namespace genax {

// The entry array is serialized into (and aliased out of) on-disk
// snapshots verbatim; any layout drift silently invalidates every
// existing snapshot, so pin it at compile time.
static_assert(sizeof(FlatKmerIndex::Entry) == 16);
static_assert(std::is_trivially_copyable_v<FlatKmerIndex::Entry>);
static_assert(offsetof(FlatKmerIndex::Entry, key) == 0);
static_assert(offsetof(FlatKmerIndex::Entry, offset) == 8);
static_assert(offsetof(FlatKmerIndex::Entry, count) == 12);

namespace {

/** Below this many k-mers the build runs inline on the caller: a
 *  pool hand-off costs more than the work (a 15 kbp segment). */
constexpr u64 kInlineBuildKmers = u64{1} << 16;

/** Top key bits that partition the positions into buckets. */
constexpr u32 kBucketBits = 10;

/** Table slots per first-touch and canonicalisation task. */
constexpr u64 kRangeSlots = u64{1} << 14;

/** Items ahead whose line the bucket loops prefetch: a position's
 *  bases when packing keys, a key's home slot when inserting. */
constexpr u64 kPrefetchAhead = 16;

/**
 * Stable LSD radix sort of one bucket's `key << 32 | pos` words on
 * the key bits below the bucket bits. The words arrive in ascending
 * position order, so stability leaves positions ascending within a
 * key.
 */
void
sortBucket(u64 *first, u64 *last, u32 key_bits, std::vector<u64> &tmp)
{
    const u64 n = static_cast<u64>(last - first);
    if (n < 2 || key_bits == 0)
        return;
    tmp.resize(n);
    const u32 passes = (key_bits + 7) / 8;
    const u32 digit = (key_bits + passes - 1) / passes;
    u64 *src = first;
    u64 *dst = tmp.data();
    for (u32 pass = 0; pass < passes; ++pass) {
        const u32 lo = 32 + pass * digit;
        const u32 bits = std::min(digit, key_bits - pass * digit);
        const u64 mask = (u64{1} << bits) - 1;
        u64 start[257] = {};
        for (u64 i = 0; i < n; ++i)
            ++start[((src[i] >> lo) & mask) + 1];
        for (u64 d = 1; d <= mask + 1; ++d)
            start[d] += start[d - 1];
        for (u64 i = 0; i < n; ++i)
            dst[start[(src[i] >> lo) & mask]++] = src[i];
        std::swap(src, dst);
    }
    if (src != first)
        std::copy(src, src + n, first);
}

/** Prefetch the cache line at `p`, for writing when `Write`. */
template <bool Write>
void
prefetchLine(const void *p)
{
#if defined(__GNUC__) || defined(__clang__)
    __builtin_prefetch(p, Write ? 1 : 0, 3);
#else
    (void)p;
#endif
}

/** Between the insert and canonicalisation steps a slot's key word
 *  holds `first occurrence << 32 | key`: never kEmptyKey (keys use at
 *  most 26 bits), and it orders a cluster's keys by first occurrence.
 *  This mask recovers the key. */
constexpr u64 kKeyMask = 0xffffffffULL;

// Key words are claimed by CAS during the parallel insert and
// rewritten during canonicalisation while neighbouring tasks scan
// them for cluster boundaries, so every key-word access in those
// steps goes through these. A slot's offset and count are touched
// only by the one task that owns its key (insert) or its cluster
// (canonicalisation), so they stay plain.
u64
loadKey(FlatKmerIndex::Entry &e)
{
    return std::atomic_ref<u64>(e.key).load(std::memory_order_relaxed);
}

void
storeKey(FlatKmerIndex::Entry &e, u64 key)
{
    std::atomic_ref<u64>(e.key).store(key, std::memory_order_relaxed);
}

bool
claimSlot(FlatKmerIndex::Entry &e, u64 key)
{
    u64 expected = FlatKmerIndex::kEmptyKey;
    return loadKey(e) == FlatKmerIndex::kEmptyKey &&
           std::atomic_ref<u64>(e.key).compare_exchange_strong(
               expected, key, std::memory_order_relaxed);
}

} // namespace

FlatKmerIndex::FlatKmerIndex(const Seq &ref, u32 k, unsigned threads)
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
    const unsigned width = kmers < kInlineBuildKmers
                               ? 1
                               : ThreadPool::resolveWidth(threads);

    // 1. Partition the positions by their k-mer's top key bits. Each
    //    chunk of positions rolls its own k-mers (packing its first
    //    one itself) twice: once to count its buckets, once to scatter
    //    its positions into them. A bucket's positions land chunk by
    //    chunk, so they stay ascending within it.
    const u32 bucket_bits = std::min(2 * k, kBucketBits);
    const u32 low_bits = 2 * k - bucket_bits;
    const u64 buckets = u64{1} << bucket_bits;
    const u64 chunks = width == 1 ? 1 : u64{4} * width;
    const u64 chunk_len = (kmers + chunks - 1) / chunks;
    const auto for_each_kmer = [&](u64 c, auto &&fn) {
        const u64 lo = c * chunk_len;
        const u64 hi = std::min(kmers, lo + chunk_len);
        if (lo >= hi)
            return;
        u64 key = packKmer(ref, lo);
        for (u64 p = lo;;) {
            fn(key, p);
            if (++p == hi)
                break;
            key = (key >> 2) |
                  (static_cast<u64>(ref[p + k - 1] & 3) << (2 * (k - 1)));
        }
    };
    // Per-chunk bucket counts, then each chunk's scatter cursors.
    std::vector<u64> cursor(chunks * buckets, 0);
    parallelFor(chunks, width, [&](u64 lo, u64 hi) {
        for (u64 c = lo; c < hi; ++c) {
            u64 *count = &cursor[c * buckets];
            for_each_kmer(c,
                          [&](u64 key, u64) { ++count[key >> low_bits]; });
        }
    });
    std::vector<u64> bucket_start(buckets + 1);
    u64 at = 0;
    for (u64 b = 0; b < buckets; ++b) {
        bucket_start[b] = at;
        for (u64 c = 0; c < chunks; ++c)
            at += std::exchange(cursor[c * buckets + b], at);
    }
    bucket_start[buckets] = at;
    _positions.resize(kmers);
    parallelFor(chunks, width, [&](u64 lo, u64 hi) {
        for (u64 c = lo; c < hi; ++c) {
            u64 *next = &cursor[c * buckets];
            for_each_kmer(c, [&](u64 key, u64 p) {
                _positions[next[key >> low_bits]++] = static_cast<u32>(p);
            });
        }
    });

    // 2. The table, first touched by the workers. <= 50% load keeps
    //    linear probe chains short; sizing by k-mers rather than
    //    distinct keys keeps the table, and so every snapshot, the
    //    size it has always been.
    const u64 slots = std::bit_ceil(std::max<u64>(16, 2 * kmers));
    const u64 ranges = (slots + kRangeSlots - 1) / kRangeSlots;
    _mask = slots - 1;
    _table.resize(slots);
    parallelFor(ranges, width, [&](u64 lo, u64 hi) {
        std::fill(_table.begin() + lo * kRangeSlots,
                  _table.begin() + std::min(slots, hi * kRangeSlots),
                  Entry{});
    });

    // 3-4. Sort each bucket by key and insert its keys. The sorted
    //    bucket is its stretch of the postings, so keys ascend across
    //    the array (offsets in ascending key order, as the dense CSR
    //    layout has them) and positions ascend within a key. Each
    //    distinct key then CAS-claims one slot; keys are distinct, so
    //    each is owned by the one task that inserts it, which writes
    //    its extent. Only a bucket's worth of scratch is live per
    //    task, so the build's footprint is the table and postings.
    std::vector<u64> bucket_distinct(buckets, 0);
    std::vector<u32> bucket_max(buckets, 0);
    parallelFor(buckets, width, [&](u64 lo, u64 hi) {
        std::vector<u64> words, tmp;
        std::vector<u32> runs; // index of each key's first word
        for (u64 b = lo; b < hi; ++b) {
            const u64 begin = bucket_start[b];
            const u64 n = bucket_start[b + 1] - begin;
            words.resize(n);
            for (u64 i = 0; i < n; ++i) {
                if (i + kPrefetchAhead < n)
                    prefetchLine<false>(
                        &ref[_positions[begin + i + kPrefetchAhead]]);
                const u32 p = _positions[begin + i];
                words[i] = packKmer(ref, p) << 32 | p;
            }
            sortBucket(words.data(), words.data() + n, low_bits, tmp);
            runs.clear();
            for (u64 i = 0; i < n; ++i) {
                _positions[begin + i] = static_cast<u32>(words[i]);
                if (i == 0 || words[i] >> 32 != words[i - 1] >> 32)
                    runs.push_back(static_cast<u32>(i));
            }
            runs.push_back(static_cast<u32>(n));
            const u64 distinct = runs.size() - 1;
            u32 max_hits = 0;
            for (u64 r = 0; r < distinct; ++r) {
                if (r + kPrefetchAhead < distinct)
                    prefetchLine<true>(&_table[slotOf(
                        words[runs[r + kPrefetchAhead]] >> 32)]);
                const u64 key = words[runs[r]] >> 32;
                const u64 first = static_cast<u32>(words[runs[r]]);
                u64 slot = slotOf(key);
                while (!claimSlot(_table[slot], first << 32 | key))
                    slot = (slot + 1) & _mask;
                const u32 count = runs[r + 1] - runs[r];
                _table[slot].offset = static_cast<u32>(begin + runs[r]);
                _table[slot].count = count;
                max_hits = std::max(max_hits, count);
            }
            bucket_distinct[b] = distinct;
            bucket_max[b] = max_hits;
        }
    });
    for (u64 b = 0; b < buckets; ++b) {
        _distinct += bucket_distinct[b];
        _maxHits = std::max(_maxHits, bucket_max[b]);
    }
    _filter = presenceFilterFor(_distinct, k);

    // 5. Canonicalise every probe cluster (a maximal run of occupied
    //    slots). Linear probing fills the same set of slots whatever
    //    the insertion order, and a key's probe path never leaves its
    //    final cluster, so keys of different clusters never interact.
    //    Re-inserting each cluster's keys in first-occurrence order
    //    therefore lays every cluster out exactly as the serial
    //    first-occurrence insert does; the same pass strips the first
    //    occurrences from the key words and fills the presence filter
    //    (its size needs the distinct count). A task owns the clusters that
    //    start in its slot range; it may scan key words past the range,
    //    which their owner rewrites but never empties.
    const auto occupied = [&](u64 s) {
        return loadKey(_table[s & _mask]) != kEmptyKey;
    };
    const auto add_to_filter = [&](u64 key) {
        if (_filter.empty())
            return;
        const u64 h = key * kPresenceHashMul;
        std::atomic_ref<u64>(_filter[filterWord(h, _filter.size() - 1)])
            .fetch_or(filterBits(h), std::memory_order_relaxed);
    };
    parallelFor(ranges, width, [&](u64 lo, u64 hi) {
        std::vector<Entry> order, cluster;
        for (u64 r = lo; r < hi; ++r) {
            const u64 end = std::min(slots, (r + 1) * kRangeSlots);
            u64 s = r * kRangeSlots;
            // Skip the tail of a cluster that starts before the range.
            if (occupied(s + _mask))
                while (s < end && occupied(s))
                    ++s;
            while (s < end) {
                if (!occupied(s)) {
                    ++s;
                    continue;
                }
                u64 len = 1;
                while (occupied(s + len))
                    ++len;
                if (len == 1) {
                    const u64 key = loadKey(_table[s]) & kKeyMask;
                    storeKey(_table[s], key);
                    add_to_filter(key);
                    s += 1;
                    continue;
                }
                // Lay the cluster out in a private buffer: emptying its
                // slots in place would split it for a neighbouring
                // task's boundary scan.
                order.clear();
                for (u64 i = 0; i < len; ++i)
                    order.push_back(_table[(s + i) & _mask]);
                std::sort(order.begin(), order.end(),
                          [](const Entry &a, const Entry &b) {
                              return a.key < b.key;
                          });
                cluster.assign(len, Entry{});
                for (const Entry &e : order) {
                    const u64 key = e.key & kKeyMask;
                    u64 i = (slotOf(key) - s) & _mask;
                    while (cluster[i].key != kEmptyKey) {
                        ++i;
                        GENAX_DCHECK(i < len, "probe left its cluster");
                    }
                    cluster[i] = Entry{key, e.offset, e.count};
                    add_to_filter(key);
                }
                for (u64 i = 0; i < len; ++i) {
                    Entry &e = _table[(s + i) & _mask];
                    storeKey(e, cluster[i].key);
                    e.offset = cluster[i].offset;
                    e.count = cluster[i].count;
                }
                s += len;
            }
        }
    });
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
