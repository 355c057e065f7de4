#include "seed/smem_engine.hh"

#include <algorithm>
#include <bit>

#include "common/check.hh"

namespace genax {

SmemEngine::SmemEngine(const SeedIndex &index, const SeedingConfig &cfg)
    : _index(index), _cfg(cfg),
      _cam(cfg.camSize, cfg.binarySearchFallback)
{
}

void
SmemEngine::resetStats()
{
    _stats = {};
    _cam.resetStats();
}

PosList
SmemEngine::primeCandidates(std::span<const u32> hits, u32 offset)
{
    PosList out{ArenaAllocator<u32>(&_arena)};
    out.reserve(hits.size());
    for (u32 h : hits)
        if (h >= offset)
            out.push_back(h - offset);
    return out;
}

template <bool kFiltered>
PosList
SmemEngine::tryExactMatch(const Seq &read, std::span<const u64> keys)
{
    const u32 k = _index.k();
    const u32 len = static_cast<u32>(read.size());

    // k-mers spanning the whole read: offsets 0, k, 2k, ... plus a
    // final overlapping k-mer ending at the last base.
    ArenaVector<u32> offsets{ArenaAllocator<u32>(&_arena)};
    offsets.reserve(len / k + 2);
    for (u32 off = 0; off + k <= len; off += k)
        offsets.push_back(off);
    if (offsets.back() + k != len)
        offsets.push_back(len - k);

    // Batched offset loop: prefetch every key's probe line up front,
    // so the dependent table loads of consecutive lookups overlap
    // instead of serializing on cache misses.
    for (u32 off : offsets)
        if (!kFiltered || _index.mayContain(keys[off]))
            _index.lookupPrefetch(keys[off]);

    struct Lookup
    {
        u32 offset;
        std::span<const u32> hits;
    };
    ArenaVector<Lookup> lookups{ArenaAllocator<Lookup>(&_arena)};
    lookups.reserve(offsets.size());
    for (u32 off : offsets) {
        const auto hits = find<kFiltered>(keys[off]);
        ++_stats.indexLookups;
        if (hits.empty())
            return PosList{
                ArenaAllocator<u32>(&_arena)}; // some k-mer absent
        lookups.push_back({off, hits});
    }

    // Start from the smallest hit set, intersect in ascending size.
    std::sort(lookups.begin(), lookups.end(),
              [](const Lookup &a, const Lookup &b) {
                  return a.hits.size() < b.hits.size();
              });
    PosList cand =
        primeCandidates(lookups[0].hits, lookups[0].offset);
    PosList next{ArenaAllocator<u32>(&_arena)};
    for (size_t i = 1; i < lookups.size() && !cand.empty(); ++i) {
        _cam.intersectInto(cand, lookups[i].hits, lookups[i].offset,
                           next);
        cand.swap(next);
    }
    return cand;
}

template <bool kFiltered>
std::pair<u32, std::span<const u32>>
SmemEngine::rmem(const Seq &read, u32 pivot, std::span<const u64> keys)
{
    const u32 k = _index.k();
    const u32 len = static_cast<u32>(read.size());
    const u32 max_len = len - pivot; // longest possible RMEM

    const auto first = find<kFiltered>(keys[pivot]);
    ++_stats.indexLookups;
    if (first.empty())
        return {0, {}};

    // Pivot-normalizing the first hit list (offset 0) is the
    // identity, so the candidate set starts as a zero-copy view of
    // the postings array; intersections ping-pong between two arena
    // buffers and the view tracks the latest result.
    std::span<const u32> cand = first;
    PosList buf_a{ArenaAllocator<u32>(&_arena)};
    PosList buf_b{ArenaAllocator<u32>(&_arena)};
    PosList *next = &buf_a;
    u32 length = k;

    // Extension by an overlapping or abutting k-mer at read offset
    // pivot + t certifies length t + k.
    auto try_extend_hits = [&](u32 t, std::span<const u32> hits) {
        _cam.intersectInto(cand, hits, t, *next);
        if (next->empty())
            return false;
        cand = *next;
        next = next == &buf_a ? &buf_b : &buf_a;
        length = t + k;
        return true;
    };
    auto try_extend = [&](u32 t) {
        const auto hits = find<kFiltered>(keys[pivot + t]);
        ++_stats.indexLookups;
        return try_extend_hits(t, hits);
    };

    // Probing optimization: the expensive case is intersecting the
    // first two k-mers when the second one has a pathological hit
    // list (poly-A etc.). If the stride-k second k-mer overflows the
    // CAM, probe lower strides and start from the smallest list.
    bool probed_failure = false;
    if (_cfg.probing && length + k <= max_len) {
        const u32 t0 = length; // the standard stride-k second k-mer
        auto hits0 = find<kFiltered>(keys[pivot + t0]);
        ++_stats.indexLookups;
        u32 best_t = t0;
        auto best_hits = hits0;
        if (hits0.size() > _cfg.probeThreshold) {
            for (u32 s = k / 2; s >= 1; s /= 2) {
                const u32 t = length - k + s;
                const auto hits = find<kFiltered>(keys[pivot + t]);
                ++_stats.indexLookups;
                if (hits.size() < best_hits.size()) {
                    best_hits = hits;
                    best_t = t;
                }
                if (s == 1)
                    break;
            }
        }
        probed_failure = !try_extend_hits(best_t, best_hits);
    }

    // Phase A: stride by k while the intersection stays non-empty.
    if (!probed_failure) {
        bool failed = false;
        while (length + k <= max_len) {
            if (!try_extend(length)) {
                failed = true;
                break;
            }
        }
        // Boundary: a final overlapping k-mer can certify the whole
        // remaining read (only sound when it overlaps the certified
        // prefix, i.e. when phase A ran out of room, not when it
        // failed mid-read).
        if (!failed && length < max_len && max_len <= length + k) {
            if (try_extend(max_len - k))
                GENAX_CHECK(length == max_len, "boundary extension");
        }
    }

    // Phase B: binary stride refinement of the final extension. The
    // strides must be powers of two (not k/2, k/4, ... which for
    // non-power-of-two k cannot compose every remainder: with k = 12
    // the set {6, 3, 1} has no subset summing to 2), so that any
    // residual extension in [0, k-1] is reachable.
    if (_cfg.strideRefinement && k >= 2) {
        for (u32 s = std::bit_floor(k - 1); s >= 1; s /= 2) {
            if (length + s <= max_len)
                try_extend(length + s - k);
            if (s == 1)
                break;
        }
    }
    return {length, cand};
}

std::vector<Smem>
SmemEngine::seed(const Seq &read)
{
    return _index.hasPresenceFilter() ? seedWith<true>(read)
                                      : seedWith<false>(read);
}

template <bool kFiltered>
std::vector<Smem>
SmemEngine::seedWith(const Seq &read)
{
    // Recycle the previous read's position lists and scratch; see
    // the lifetime note in the header.
    _arena.reset();

    const u32 k = _index.k();
    const u32 len = static_cast<u32>(read.size());
    ++_stats.reads;
    if (len < k)
        return {};

    // One rolling pass packs the k-mer key of every read offset —
    // O(len) total instead of O(k) per pivot — and both the
    // exact-match path and every rmem() extension index into it.
    const u32 pivots = len - k + 1;
    ArenaVector<u64> keys{ArenaAllocator<u64>(&_arena)};
    keys.reserve(pivots);
    u64 key = _index.packKmer(read, 0);
    keys.push_back(key);
    const u32 top_shift = 2 * (k - 1);
    for (u32 p = 1; p < pivots; ++p) {
        key = (key >> 2) |
              (static_cast<u64>(read[p + k - 1] & 3) << top_shift);
        keys.push_back(key);
    }

    if (_cfg.exactMatchFastPath) {
        auto cand = tryExactMatch<kFiltered>(read, keys);
        if (!cand.empty()) {
            ++_stats.exactMatchReads;
            ++_stats.smems;
            _stats.hitsReported += cand.size();
            Smem smem;
            smem.qryBegin = 0;
            smem.qryEnd = len;
            smem.positions = std::move(cand);
            _stats.cam += _cam.stats();
            _cam.resetStats();
            std::vector<Smem> out;
            out.push_back(std::move(smem));
            return out;
        }
    }

    // Without a filter (the whole-genome software index, where most
    // pivot k-mers occur) prefetch the pivots' probe lines a fixed
    // distance ahead: the first lookup of each pivot is the one
    // predictable table access, and overlapping its cache miss with
    // the previous pivots' work takes it off the critical path. With
    // a filter most pivots never reach the table, and the lookahead
    // measured no gain.
    constexpr u32 kLookahead = 8;
    if constexpr (!kFiltered)
        for (u32 p = 0; p < std::min(pivots, kLookahead); ++p)
            _index.lookupPrefetch(keys[p]);

    std::vector<Smem> out;
    u32 max_end = 0;
    for (u32 pivot = 0; pivot + k <= len; ++pivot) {
        if constexpr (kFiltered) {
            // A pivot whose first k-mer the presence filter rules
            // out has no RMEM; the model still charges its one
            // lookup, as rmem() would.
            if (!_index.mayContain(keys[pivot])) {
                ++_stats.indexLookups;
                continue;
            }
        } else if (pivot + kLookahead < pivots) {
            _index.lookupPrefetch(keys[pivot + kLookahead]);
        }
        auto [length, cand] = rmem<kFiltered>(read, pivot, keys);
        if (length == 0)
            continue;
        // SMEM interval sanity: an RMEM certifies at least one whole
        // k-mer, never runs past the read, and always carries the
        // reference positions that witnessed it (sorted, so the CAM
        // and downstream anchoring can merge them).
        GENAX_CHECK(length >= k && pivot + length <= len,
                    "RMEM interval corrupt: pivot=", pivot,
                    " length=", length, " read=", len);
        GENAX_CHECK(!cand.empty(),
                    "RMEM of length ", length, " with no positions");
        GENAX_DCHECK(std::is_sorted(cand.begin(), cand.end()),
                     "RMEM hit positions not sorted");
        const u32 end = pivot + length;
        if (_cfg.smemFilter && end <= max_end)
            continue; // contained in an earlier SMEM
        max_end = std::max(max_end, end);
        ++_stats.smems;
        _stats.hitsReported += cand.size();
        Smem smem;
        smem.qryBegin = pivot;
        smem.qryEnd = end;
        // Materialize the surviving candidate view (rmem()'s span
        // dies at its next call); contained RMEMs — the overwhelming
        // majority — were dropped above without a copy.
        smem.positions = PosList{ArenaAllocator<u32>(&_arena)};
        smem.positions.assign(cand.begin(), cand.end());
        out.push_back(std::move(smem));
    }
    _stats.cam += _cam.stats();
    _cam.resetStats();
    return out;
}

} // namespace genax
