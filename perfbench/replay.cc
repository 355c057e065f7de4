/**
 * @file
 * Phase replay of the software engine for the traced run.
 *
 * BwaMemLike::alignAll runs three phases per batch: (1) seed both
 * strands and build every candidate's extension windows, in parallel;
 * (2) score every extension of the batch in one SIMD batch, serially;
 * (3) pick each read's winner and trace it back, in parallel. The
 * replay makes the same calls through the layers' public functions
 * (SmemEngine::seed, makeAnchors, makeExtendWindows,
 * simd::scoreCandidateBatch, extendWithScoreHint) at the engine's
 * width, so each layer's cost is measured where the work happens.
 * Its outputs are discarded; the pipeline's own alignAll result is
 * what the traced run emits.
 */

#include "replay.hh"

#include <algorithm>

#include "align/simd/batch_score.hh"
#include "common/threadpool.hh"

namespace perfbench {

using namespace genax;

namespace {

struct Candidate
{
    Anchor anchor;
    ExtendWindows win;
    BandedExtendScore left;
    BandedExtendScore right;
};

/** Per-worker accumulators (one slot per pool runner). */
struct WorkerAcc
{
    double smemBusy = 0;
    double windowsBusy = 0;
    double tracebackBusy = 0;
    SeedingStats seeding;
};

void
addSeeding(SeedingStats &into, const SeedingStats &s)
{
    into.reads += s.reads;
    into.exactMatchReads += s.exactMatchReads;
    into.indexLookups += s.indexLookups;
    into.smems += s.smems;
    into.hitsReported += s.hitsReported;
    into.cam += s.cam;
}

} // namespace

void
replaySoftwareBatch(const BwaMemLike &aligner, const Seq &ref,
                    const std::vector<Seq> &reads, Tracer &tracer, u64 id,
                    SoftwareReplay &acc)
{
    const AlignerConfig &cfg = aligner.config();
    const unsigned width = ThreadPool::resolveWidth(cfg.threads);
    std::vector<WorkerAcc> workers(width);
    std::vector<std::vector<Candidate>> cands(reads.size());

    const Tracer::Span whole(tracer, "swbase.replay", id);
    {
        const Tracer::Span phase(tracer, "swbase.replay.seed_windows", id);
        ThreadPool::global().parallelFor(
            reads.size(), width, [&](unsigned slot, u64 lo, u64 hi) {
                WorkerAcc &w = workers[slot];
                for (u64 i = lo; i < hi; ++i) {
                    // One engine per read, as the aligner does.
                    SmemEngine engine(aligner.index(), cfg.seeding);
                    for (const bool reverse : {false, true}) {
                        const Seq oriented = reverse
                                                 ? reverseComplement(reads[i])
                                                 : reads[i];
                        const auto t0 = Clock::now();
                        const auto smems = engine.seed(oriented);
                        const auto t1 = Clock::now();
                        const auto anchors =
                            makeAnchors(smems, 0, reverse, cfg.anchors);
                        for (const Anchor &a : anchors) {
                            Candidate c;
                            c.anchor = a;
                            c.win = makeExtendWindows(ref, oriented, a,
                                                      cfg.band);
                            cands[i].push_back(std::move(c));
                        }
                        const auto t2 = Clock::now();
                        w.smemBusy +=
                            std::chrono::duration<double>(t1 - t0).count();
                        w.windowsBusy +=
                            std::chrono::duration<double>(t2 - t1).count();
                    }
                    addSeeding(w.seeding, engine.stats());
                }
            });
    }

    std::vector<simd::ExtendJob> jobs;
    std::vector<BandedExtendScore *> slots;
    for (auto &read_cands : cands) {
        acc.candidates += read_cands.size();
        for (Candidate &c : read_cands) {
            if (c.win.hasRight) {
                jobs.push_back({&c.win.right, &c.win.rightQry});
                slots.push_back(&c.right);
            }
            if (c.win.hasLeft) {
                jobs.push_back({&c.win.left, &c.win.leftQry});
                slots.push_back(&c.left);
            }
        }
    }
    for (const simd::ExtendJob &j : jobs)
        acc.cells += j.qry->size() * (2 * u64{cfg.band} + 1);
    acc.jobs += jobs.size();
    {
        const Tracer::Span phase(tracer, "align.score", id);
        const auto scores =
            simd::scoreCandidateBatch(jobs, cfg.scoring, cfg.band);
        for (size_t s = 0; s < scores.size(); ++s)
            *slots[s] = scores[s];
    }

    {
        const Tracer::Span phase(tracer, "swbase.replay.traceback", id);
        ThreadPool::global().parallelFor(
            reads.size(), width, [&](unsigned slot, u64 lo, u64 hi) {
                WorkerAcc &w = workers[slot];
                for (u64 i = lo; i < hi; ++i) {
                    const auto &rc = cands[i];
                    if (rc.empty())
                        continue;
                    const auto score = [&](const Candidate &c) {
                        return static_cast<i32>(c.anchor.seedLen()) *
                                   cfg.scoring.match +
                               c.left.score + c.right.score;
                    };
                    const Candidate &top = *std::max_element(
                        rc.begin(), rc.end(),
                        [&](const Candidate &a, const Candidate &b) {
                            return score(a) < score(b);
                        });
                    const auto t0 = Clock::now();
                    if (top.win.hasRight)
                        (void)extendWithScoreHint(top.win.right,
                                                  top.win.rightQry,
                                                  cfg.scoring, cfg.band,
                                                  top.right);
                    if (top.win.hasLeft)
                        (void)extendWithScoreHint(top.win.left,
                                                  top.win.leftQry,
                                                  cfg.scoring, cfg.band,
                                                  top.left);
                    w.tracebackBusy += std::chrono::duration<double>(
                                           Clock::now() - t0)
                                           .count();
                }
            });
    }

    acc.reads += reads.size();
    for (const WorkerAcc &w : workers) {
        acc.smemBusy += w.smemBusy;
        acc.windowsBusy += w.windowsBusy;
        acc.tracebackBusy += w.tracebackBusy;
        addSeeding(acc.seeding, w.seeding);
    }
}

void
addSoftwareLayerMetrics(const SoftwareReplay &r, const Tracer::Totals &after,
                        const Tracer::Totals &before, Metrics &m)
{
    const auto span = [&](const char *name) {
        return Tracer::delta(after, before, name);
    };
    const auto per_read = [&](u64 count) {
        return perRead(static_cast<double>(count), r.reads);
    };
    const double score_s = span("align.score");
    // What alignAll spent outside the three replayed phases (the
    // replay runs them at the same width, so walls compare).
    const double attributed = span("swbase.replay.seed_windows") +
                              score_s + span("swbase.replay.traceback");
    m["seed.index_build_s"] = {span("seed.index_build"), "s"};
    m["seed.smem_s"] = {r.smemBusy, "s"};
    m["seed.index_lookups_per_read"] = {per_read(r.seeding.indexLookups),
                                        "count"};
    m["seed.smems_per_read"] = {per_read(r.seeding.smems), "count"};
    m["seed.hits_per_read"] = {per_read(r.seeding.hitsReported), "count"};
    m["swbase.align_batch_s"] = {span("swbase.align_batch"), "s"};
    m["swbase.windows_s"] = {r.windowsBusy, "s"};
    m["swbase.candidates_per_read"] = {per_read(r.candidates), "count"};
    m["swbase.replay_unattributed_s"] = {
        span("swbase.align_batch") - attributed, "s"};
    m["align.score_s"] = {score_s, "s"};
    m["align.score_jobs_per_read"] = {per_read(r.jobs), "count"};
    m["align.score_cells"] = {static_cast<double>(r.cells), "count"};
    m["align.score_ns_per_cell"] = {
        r.cells ? score_s * 1e9 / static_cast<double>(r.cells) : 0.0, "ns"};
    m["align.traceback_s"] = {r.tracebackBusy, "s"};
}

} // namespace perfbench
