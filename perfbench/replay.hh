/**
 * @file
 * Phase replay of the software engine for the traced run (see
 * replay.cc).
 */

#ifndef PERFBENCH_REPLAY_HH
#define PERFBENCH_REPLAY_HH

#include "bench.hh"
#include "swbase/bwamem_like.hh"
#include "trace.hh"

namespace perfbench {

/** Busy time and counts of the software engine's layers, summed over
 *  the batches one traced pass replayed. Busy seconds are summed over
 *  engine workers (CPU-seconds), like GenAxHostProfile's extension
 *  time. */
struct SoftwareReplay
{
    double smemBusy = 0;      //!< SmemEngine::seed, both strands
    double windowsBusy = 0;   //!< makeAnchors + makeExtendWindows
    double tracebackBusy = 0; //!< extendWithScoreHint on the winners
    u64 reads = 0;
    u64 candidates = 0;
    u64 jobs = 0;  //!< extension scoring jobs
    u64 cells = 0; //!< banded DP cells scored: rows x (2 band + 1)
    genax::SeedingStats seeding;
};

/**
 * Replay BwaMemLike::alignAll's three phases on `reads` (against
 * the aligner's reference `ref`) through the
 * layers' public functions, with spans around each phase. A
 * measurement only: every output is discarded.
 */
void replaySoftwareBatch(const genax::BwaMemLike &aligner,
                         const genax::Seq &ref,
                         const std::vector<genax::Seq> &reads,
                         Tracer &tracer, u64 id, SoftwareReplay &acc);

/** Per-layer metrics of the software engine from a replay and the
 *  spans recorded between two Tracer::totals() snapshots. */
void addSoftwareLayerMetrics(const SoftwareReplay &r,
                             const Tracer::Totals &after,
                             const Tracer::Totals &before, Metrics &m);

} // namespace perfbench

#endif // PERFBENCH_REPLAY_HH
