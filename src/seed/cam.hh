/**
 * @file
 * Model of the per-lane 512-entry CAM used for hit-set intersection
 * (Section V), with operation accounting for the Figure 16 bench.
 *
 * The new k-mer's (normalized) hit list is loaded into the CAM and
 * the candidate set streams through it, one search per candidate.
 * When the hit list exceeds the CAM capacity, the baseline design
 * loads it in ceil(|list| / capacity) passes and re-streams the
 * candidates each pass; the optimized design instead binary-searches
 * each candidate in the sorted position-table list, which costs
 * |candidates| * ceil(log2 |list|) probe steps — a large win on the
 * pathological k-mers (poly-A etc.) whose hit lists are huge.
 */

#ifndef GENAX_SEED_CAM_HH
#define GENAX_SEED_CAM_HH

#include <algorithm>
#include <bit>
#include <span>
#include <vector>

#include "common/check.hh"
#include "common/faultinject.hh"
#include "common/types.hh"

namespace genax {

/** Operation counts accumulated by the CAM model. */
struct CamStats
{
    u64 loads = 0;        //!< CAM entry writes
    u64 searches = 0;     //!< CAM search operations
    u64 binarySteps = 0;  //!< binary-search probe steps
    u64 overflowFallbacks = 0; //!< intersections that used the fallback

    /** The paper's Figure 16b metric: CAM search operations plus
     *  binary-search probes. Entry writes (loads) stream from SRAM
     *  at full bandwidth and are tracked separately. */
    u64 lookups() const { return searches + binarySteps; }

    void
    operator+=(const CamStats &o)
    {
        loads += o.loads;
        searches += o.searches;
        binarySteps += o.binarySteps;
        overflowFallbacks += o.overflowFallbacks;
    }
};

/** 512-entry CAM intersection unit (capacity configurable). */
class CamModel
{
  public:
    explicit CamModel(u32 capacity = 512, bool binary_fallback = true)
        : _capacity(capacity), _binaryFallback(binary_fallback)
    {
        GENAX_CHECK(capacity > 0, "CAM with zero capacity");
    }

    /**
     * Intersect the candidate set with a hit list, where each hit is
     * first normalized by subtracting `offset` (hits below `offset`
     * cannot correspond to the pivot and are dropped).
     *
     * Candidates must be sorted ascending; the result is sorted.
     *
     * @param candidates current candidate positions (pivot-normalized)
     * @param hits       position-table list for the new k-mer (sorted)
     * @param offset     read offset of the new k-mer relative to pivot
     */
    std::vector<u32> intersect(const std::vector<u32> &candidates,
                               std::span<const u32> hits, u32 offset);

    /**
     * Same intersection, writing into a caller-owned output vector
     * (cleared first) — the allocation-free form the arena-backed
     * seeding hot path uses. `out` must not alias `candidates`.
     * Accounting and results are identical to intersect().
     */
    template <typename OutVec>
    void
    intersectInto(std::span<const u32> candidates,
                  std::span<const u32> hits, u32 offset, OutVec &out)
    {
        GENAX_DCHECK(
            std::is_sorted(candidates.begin(), candidates.end()),
            "CAM candidate set not sorted");
        GENAX_DCHECK(std::is_sorted(hits.begin(), hits.end()),
                     "CAM hit list not sorted");
        // Cost accounting first (the functional result is identical
        // on all paths). The controller knows both set sizes up
        // front, so with the fallback enabled it picks the cheaper
        // datapath. An injected seed.cam.overflow fault forces the
        // capacity-overflow handling so chaos tests can drive the
        // fallback datapath with ordinary-sized hit lists.
        const bool forced_overflow = faultFires(fault::kCamOverflow);
        const u64 passes = (hits.size() + _capacity - 1) / _capacity;
        const u64 cam_cost = passes * candidates.size();
        const u64 bin_cost =
            candidates.size() *
            std::bit_width(static_cast<u64>(hits.size()));
        if (_binaryFallback &&
            (forced_overflow ||
             (hits.size() > _capacity && bin_cost < cam_cost))) {
            // Binary-search each candidate in the sorted position
            // table.
            _stats.binarySteps += bin_cost;
            ++_stats.overflowFallbacks;
        } else {
            // Stream the hit list into the CAM (multi-pass when it
            // exceeds capacity) and search every candidate per pass.
            _stats.loads += hits.size();
            _stats.searches += passes * candidates.size();
        }

        // Two-pointer merge over the sorted inputs.
        out.clear();
        if (hits.empty())
            return; // accounted above, like any other intersection
        out.reserve(std::min(candidates.size(), hits.size()));
        size_t ci = 0, hi = 0;
        while (ci < candidates.size() && hi < hits.size()) {
            if (hits[hi] < offset) {
                ++hi;
                continue;
            }
            const u32 norm = hits[hi] - offset;
            if (candidates[ci] < norm) {
                ++ci;
            } else if (norm < candidates[ci]) {
                ++hi;
            } else {
                out.push_back(norm);
                ++ci;
                ++hi;
            }
        }
    }

    const CamStats &stats() const { return _stats; }
    void resetStats() { _stats = {}; }
    u32 capacity() const { return _capacity; }

  private:
    u32 _capacity;
    bool _binaryFallback;
    CamStats _stats;
};

} // namespace genax

#endif // GENAX_SEED_CAM_HH
