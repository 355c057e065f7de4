/**
 * @file
 * End-to-end determinism tests for the sharded batch engine: the SAM
 * byte stream, the PipelineResult outcome ledger, and the modelled
 * GenAxPerf numbers must be identical at every host thread count AND
 * at every kernel dispatch tier — with and without an armed
 * fault-injection plan. This is the user-visible contract behind
 * `genax_align --threads N` and `genax_align --kernel TIER`, and it
 * holds for paired-end runs (`--reads2`) as it does for single-end.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "align/simd/dispatch.hh"
#include "common/faultinject.hh"
#include "genax/pipeline.hh"
#include "readsim/readsim.hh"
#include "readsim/refgen.hh"
#include "serve/batcher.hh"
#include "serve/client.hh"
#include "serve/server.hh"
#include "serve/service.hh"
#include "swbase/paired.hh"

namespace genax {
namespace {

struct Workload
{
    std::vector<FastaRecord> ref;
    std::vector<FastqRecord> reads;
};

Workload
makeWorkload()
{
    RefGenConfig rcfg;
    rcfg.length = 30000;
    rcfg.seed = 1234;
    const Seq ref = generateReference(rcfg);

    ReadSimConfig rs;
    rs.numReads = 150;
    rs.seed = 5678;
    const auto sim = simulateReads(ref, rs);

    Workload w;
    w.ref.resize(1);
    w.ref[0].name = "det_ref";
    w.ref[0].seq = ref;
    w.reads.resize(sim.size());
    for (size_t i = 0; i < sim.size(); ++i) {
        w.reads[i].name = "r" + std::to_string(i);
        w.reads[i].seq = sim[i].seq;
        w.reads[i].qual = sim[i].qual;
    }
    return w;
}

struct RunOutput
{
    std::string sam;
    PipelineResult res;
};

/**
 * One pipeline run; the fault plan (if any) is re-armed fresh so
 * every run sees identical injector state. batch_reads > 0 routes
 * through the streaming path (alignStreamToSam) instead of the
 * load-all path — the two must be indistinguishable from out here.
 */
RunOutput
runOnce(const Workload &w, PipelineOptions::Engine engine,
        unsigned threads, bool inject, u64 batch_reads = 0)
{
    PipelineOptions opts;
    opts.engine = engine;
    opts.segments = 6;
    opts.threads = threads;
    opts.batchReads = batch_reads;

    FaultInjector &fi = FaultInjector::instance();
    fi.reset();
    if (inject) {
        fi.arm(fault::kLaneIssue, {.probability = 0.2, .seed = 21});
        fi.arm(fault::kCamOverflow, {.probability = 0.1, .seed = 22});
        fi.arm(fault::kPipelineRead, {.probability = 0.05, .seed = 23});
        fi.arm(fault::kDramStream, {.probability = 0.3, .seed = 24});
    }

    std::ostringstream sink;
    const auto res = [&]() -> StatusOr<PipelineResult> {
        if (batch_reads > 0) {
            std::ostringstream fastq;
            GENAX_TRY(writeFastq(fastq, w.reads));
            std::istringstream in(fastq.str());
            FastqReader reader(in);
            return alignStreamToSam(w.ref, reader, sink, opts);
        }
        return alignToSam(w.ref, w.reads, sink, opts);
    }();
    fi.reset();
    EXPECT_TRUE(res.ok()) << res.status().str();
    RunOutput out;
    out.sam = sink.str();
    out.res = res.ok() ? *res : PipelineResult{};
    return out;
}

void
expectSameOutcome(const RunOutput &a, const RunOutput &b,
                  const std::string &what)
{
    // Byte-identical SAM, not merely equivalent records.
    EXPECT_EQ(a.sam, b.sam) << what;

    // Identical outcome ledger.
    EXPECT_EQ(a.res.reads, b.res.reads) << what;
    EXPECT_EQ(a.res.mapped, b.res.mapped) << what;
    EXPECT_EQ(a.res.unmapped, b.res.unmapped) << what;
    EXPECT_EQ(a.res.degraded, b.res.degraded) << what;
    EXPECT_EQ(a.res.failed, b.res.failed) << what;
    EXPECT_EQ(a.res.skippedMalformed, b.res.skippedMalformed) << what;
    EXPECT_TRUE(a.res.ledgerBalanced()) << what;

    // Bit-identical modelled performance: counters are u64 sums
    // reduced in slot order, and every derived double is computed
    // from those sums, so even floating-point results must match
    // exactly.
    const GenAxPerf &pa = a.res.perf;
    const GenAxPerf &pb = b.res.perf;
    EXPECT_EQ(pa.reads, pb.reads) << what;
    EXPECT_EQ(pa.segments, pb.segments) << what;
    EXPECT_EQ(pa.extensionJobs, pb.extensionJobs) << what;
    EXPECT_EQ(pa.exactReads, pb.exactReads) << what;
    EXPECT_EQ(pa.degradedJobs, pb.degradedJobs) << what;
    EXPECT_EQ(pa.laneFaults, pb.laneFaults) << what;
    EXPECT_EQ(pa.dramFaults, pb.dramFaults) << what;
    EXPECT_EQ(pa.seedingSeconds, pb.seedingSeconds) << what;
    EXPECT_EQ(pa.extensionSeconds, pb.extensionSeconds) << what;
    EXPECT_EQ(pa.dramSeconds, pb.dramSeconds) << what;
    EXPECT_EQ(pa.totalSeconds, pb.totalSeconds) << what;
    EXPECT_EQ(pa.seeding.reads, pb.seeding.reads) << what;
    EXPECT_EQ(pa.seeding.exactMatchReads, pb.seeding.exactMatchReads)
        << what;
    EXPECT_EQ(pa.seeding.indexLookups, pb.seeding.indexLookups) << what;
    EXPECT_EQ(pa.seeding.smems, pb.seeding.smems) << what;
    EXPECT_EQ(pa.seeding.hitsReported, pb.seeding.hitsReported) << what;
    EXPECT_EQ(pa.seeding.cam.loads, pb.seeding.cam.loads) << what;
    EXPECT_EQ(pa.seeding.cam.searches, pb.seeding.cam.searches) << what;
    EXPECT_EQ(pa.seeding.cam.binarySteps, pb.seeding.cam.binarySteps)
        << what;
    EXPECT_EQ(pa.seeding.cam.overflowFallbacks,
              pb.seeding.cam.overflowFallbacks)
        << what;
    EXPECT_EQ(pa.lanes.jobs, pb.lanes.jobs) << what;
    EXPECT_EQ(pa.lanes.streamCycles, pb.lanes.streamCycles) << what;
    EXPECT_EQ(pa.lanes.reduceCycles, pb.lanes.reduceCycles) << what;
    EXPECT_EQ(pa.lanes.collectCycles, pb.lanes.collectCycles) << what;
    EXPECT_EQ(pa.lanes.rerunCycles, pb.lanes.rerunCycles) << what;
    EXPECT_EQ(pa.lanes.jobsWithRerun, pb.lanes.jobsWithRerun) << what;
    EXPECT_EQ(pa.lanes.reruns, pb.lanes.reruns) << what;
    EXPECT_EQ(pa.lanes.issueFaults, pb.lanes.issueFaults) << what;
}

TEST(Determinism, GenAxIdenticalAtAnyThreadCount)
{
    const Workload w = makeWorkload();
    const RunOutput serial =
        runOnce(w, PipelineOptions::Engine::GenAx, 1, false);
    EXPECT_GT(serial.res.mapped, 0u);
    for (const unsigned threads : {2u, 8u, 0u}) {
        const RunOutput mt =
            runOnce(w, PipelineOptions::Engine::GenAx, threads, false);
        expectSameOutcome(serial, mt,
                          "threads=" + std::to_string(threads));
    }
}

TEST(Determinism, GenAxIdenticalUnderFaultInjection)
{
    // The stronger claim: an armed fault plan (lane refusals, CAM
    // overflow forcing, pipeline read loss, DRAM stream degradation)
    // fires on the same reads at every thread count, so even the
    // degraded/failed ledger and the SAM placeholders replay exactly.
    const Workload w = makeWorkload();
    const RunOutput serial =
        runOnce(w, PipelineOptions::Engine::GenAx, 1, true);
    EXPECT_GT(serial.res.degraded + serial.res.failed, 0u)
        << "fault plan should visibly perturb the run";
    for (const unsigned threads : {2u, 8u}) {
        const RunOutput mt =
            runOnce(w, PipelineOptions::Engine::GenAx, threads, true);
        expectSameOutcome(serial, mt,
                          "inject threads=" + std::to_string(threads));
    }
}

TEST(Determinism, SoftwareEngineIdenticalAtAnyThreadCount)
{
    const Workload w = makeWorkload();
    const RunOutput serial =
        runOnce(w, PipelineOptions::Engine::Software, 1, false);
    EXPECT_GT(serial.res.mapped, 0u);
    const RunOutput mt =
        runOnce(w, PipelineOptions::Engine::Software, 8, false);
    expectSameOutcome(serial, mt, "software threads=8");
}

TEST(Determinism, StreamingIdenticalAtAnyBatchSize)
{
    // The `--batch-reads` contract: batch size (and with it, the
    // parse/align/emit overlap) is a memory/latency choice only. The
    // streaming path must reproduce the load-all run byte for byte —
    // SAM stream, ledger, and the full modelled perf report — at any
    // batch size crossed with any thread count, on both engines.
    const Workload w = makeWorkload();
    for (const auto engine : {PipelineOptions::Engine::GenAx,
                              PipelineOptions::Engine::Software}) {
        const std::string ename =
            engine == PipelineOptions::Engine::GenAx ? "genax" : "sw";
        const RunOutput loadall = runOnce(w, engine, 1, false);
        EXPECT_GT(loadall.res.mapped, 0u);
        for (const u64 batch : {u64{7}, u64{64}, u64{100000}}) {
            for (const unsigned threads : {1u, 8u}) {
                const RunOutput run =
                    runOnce(w, engine, threads, false, batch);
                expectSameOutcome(loadall, run,
                                  ename + " batch=" +
                                      std::to_string(batch) +
                                      " threads=" +
                                      std::to_string(threads));
            }
        }
    }
}

TEST(Determinism, StreamingIdenticalUnderFaultInjection)
{
    // Armed faults must replay identically through the streaming
    // path: per-read keyed sites see the same global read index, the
    // admission and DRAM-stream sites see the same per-site ordinal
    // sequence, whatever the batch size.
    const Workload w = makeWorkload();
    const RunOutput loadall =
        runOnce(w, PipelineOptions::Engine::GenAx, 1, true);
    EXPECT_GT(loadall.res.degraded + loadall.res.failed, 0u)
        << "fault plan should visibly perturb the run";
    for (const u64 batch : {u64{7}, u64{64}, u64{100000}}) {
        for (const unsigned threads : {1u, 8u}) {
            const RunOutput run = runOnce(
                w, PipelineOptions::Engine::GenAx, threads, true, batch);
            expectSameOutcome(loadall, run,
                              "inject batch=" + std::to_string(batch) +
                                  " threads=" +
                                  std::to_string(threads));
        }
    }
}

/** Every kernel tier the host can run, scalar always included. */
std::vector<simd::KernelTier>
supportedTiers()
{
    std::vector<simd::KernelTier> tiers{simd::KernelTier::Scalar};
    for (const auto t :
         {simd::KernelTier::Sse41, simd::KernelTier::Avx2})
        if (simd::kernelTierSupported(t))
            tiers.push_back(t);
    return tiers;
}

TEST(Determinism, IdenticalAtEveryKernelTier)
{
    // The `--kernel` contract: dispatch tier is a speed choice only.
    // Both engines (the software path batch-scores extensions through
    // the SIMD kernels; the GenAx path routes lane-fault fallbacks
    // through them) must produce byte-identical SAM and ledgers at
    // every tier, serial and sharded alike.
    const Workload w = makeWorkload();
    for (const auto engine : {PipelineOptions::Engine::Software,
                              PipelineOptions::Engine::GenAx}) {
        simd::clearKernelTierOverride();
        ASSERT_EQ(simd::setKernelTier(simd::KernelTier::Scalar).ok(),
                  true);
        const RunOutput baseline = runOnce(w, engine, 1, false);
        EXPECT_GT(baseline.res.mapped, 0u);
        for (const auto tier : supportedTiers()) {
            ASSERT_TRUE(simd::setKernelTier(tier).ok());
            for (const unsigned threads : {1u, 8u}) {
                const RunOutput run = runOnce(w, engine, threads, false);
                expectSameOutcome(
                    baseline, run,
                    std::string("tier=") + kernelTierName(tier) +
                        " threads=" + std::to_string(threads) +
                        " engine=" +
                        (engine == PipelineOptions::Engine::GenAx
                             ? "genax"
                             : "software"));
            }
        }
        simd::clearKernelTierOverride();
    }
}

TEST(Determinism, FaultFallbackIdenticalAtEveryKernelTier)
{
    // Lane-fault degradation re-runs jobs on the software kernel via
    // the SIMD score pass; the degraded reads and their SAM records
    // must not depend on which tier scored them.
    const Workload w = makeWorkload();
    ASSERT_TRUE(simd::setKernelTier(simd::KernelTier::Scalar).ok());
    const RunOutput baseline =
        runOnce(w, PipelineOptions::Engine::GenAx, 1, true);
    EXPECT_GT(baseline.res.degraded + baseline.res.failed, 0u);
    for (const auto tier : supportedTiers()) {
        ASSERT_TRUE(simd::setKernelTier(tier).ok());
        const RunOutput run =
            runOnce(w, PipelineOptions::Engine::GenAx, 1, true);
        expectSameOutcome(baseline, run,
                          std::string("inject tier=") +
                              kernelTierName(tier));
    }
    simd::clearKernelTierOverride();
}

TEST(Determinism, ServedSamMatchesOfflineAtAnyBatchAndThreads)
{
    // The serving layer's byte-identity contract (see
    // src/serve/service.hh): a client that writes samHeader() plus
    // the lines from its align() calls reproduces, byte for byte,
    // what an offline genax_align run over exactly its reads would
    // have written — no matter how the daemon's continuous batcher
    // interleaved it with other tenants' reads, what the flush
    // threshold was, or how many engine threads served the batch.
    const Workload w = makeWorkload();

    constexpr size_t kClients = 4;
    std::vector<std::vector<FastqRecord>> slices(kClients);
    const size_t per = (w.reads.size() + kClients - 1) / kClients;
    for (size_t i = 0; i < w.reads.size(); ++i)
        slices[i / per].push_back(w.reads[i]);

    // Offline expectation: one single-client pipeline run per slice.
    std::vector<std::string> expected(kClients);
    for (size_t c = 0; c < kClients; ++c) {
        PipelineOptions opts;
        opts.segments = 6;
        std::ostringstream sink;
        const auto res = alignToSam(w.ref, slices[c], sink, opts);
        ASSERT_TRUE(res.ok()) << res.status().str();
        expected[c] = sink.str();
    }

    for (const u64 batch : {u64{1}, u64{7}, u64{64}}) {
        for (const unsigned engine_threads : {1u, 3u}) {
            const std::string what =
                "batch=" + std::to_string(batch) +
                " threads=" + std::to_string(engine_threads);

            ServiceConfig scfg;
            scfg.segments = 6;
            scfg.threads = engine_threads;
            auto svc = AlignService::create(w.ref, scfg);
            ASSERT_TRUE(svc.ok()) << svc.status().str();
            BatcherConfig bcfg;
            bcfg.batchReads = batch;
            Batcher batcher(**svc, bcfg);
            Server server(**svc, batcher);
            const auto ep = Endpoint::parse("tcp:0");
            ASSERT_TRUE(ep.ok());
            ASSERT_TRUE(server.start(*ep).ok());

            std::vector<std::string> served(kClients);
            std::vector<std::thread> clients;
            for (size_t c = 0; c < kClients; ++c) {
                clients.emplace_back([&, c] {
                    auto conn = ServeClient::connect(
                        server.boundEndpoint(),
                        "c" + std::to_string(c));
                    ASSERT_TRUE(conn.ok()) << conn.status().str();
                    std::string sam = conn->samHeader();
                    // 5-read requests so every request straddles
                    // batch boundaries at each flush threshold.
                    const auto &mine = slices[c];
                    for (size_t i = 0; i < mine.size(); i += 5) {
                        const size_t n =
                            std::min<size_t>(5, mine.size() - i);
                        auto lines =
                            conn->align(std::vector<FastqRecord>(
                                mine.begin() + static_cast<long>(i),
                                mine.begin() +
                                    static_cast<long>(i + n)));
                        ASSERT_TRUE(lines.ok())
                            << lines.status().str();
                        for (const auto &line : *lines)
                            sam += line;
                    }
                    conn.value().close();
                    served[c] = std::move(sam);
                });
            }
            for (auto &t : clients)
                t.join();
            server.stop();
            (*svc)->finish();

            for (size_t c = 0; c < kClients; ++c)
                EXPECT_EQ(served[c], expected[c])
                    << what << " client=" << c;
        }
    }
}

// ------------------------------------------------------- paired-end

/** Mate files over a two-contig reference: simulated FR pairs, with
 *  every ninth R2 replaced by a read from elsewhere so improper and
 *  cross-contig pairs occur, and every thirteenth by junk. */
struct PairedWorkload
{
    std::vector<FastaRecord> ref;
    std::vector<FastqRecord> reads1, reads2;
};

PairedWorkload
makePairedWorkload()
{
    PairedWorkload w;
    RefGenConfig rcfg;
    rcfg.length = 20000;
    rcfg.seed = 2468;
    w.ref.push_back({"pe_a", generateReference(rcfg)});
    rcfg.length = 12000;
    rcfg.seed = 1357;
    w.ref.push_back({"pe_b", generateReference(rcfg)});
    const ContigMap map(w.ref);
    const Seq &cat = map.sequence();

    ReadSimConfig rs;
    rs.numReads = 70;
    rs.seed = 97531;
    const auto pairs = simulatePairs(cat, rs);
    for (size_t i = 0; i < pairs.size(); ++i) {
        const std::string name = "t" + std::to_string(i);
        w.reads1.push_back({name, pairs[i].r1.seq, pairs[i].r1.qual});
        Seq r2 = pairs[i].r2.seq;
        if (i % 9 == 4) {
            const u64 at = (i * 7919) % (cat.size() - r2.size());
            r2.assign(cat.begin() + static_cast<i64>(at),
                      cat.begin() + static_cast<i64>(at + r2.size()));
        } else if (i % 13 == 6) {
            for (size_t j = 0; j < r2.size(); ++j)
                r2[j] = j % 2 ? kBaseC : kBaseA;
        }
        w.reads2.push_back({name, std::move(r2), pairs[i].r2.qual});
    }
    return w;
}

/**
 * One paired run: batch_reads > 0 streams both mate files
 * (alignPairStreamToSam), 0 is the load-all alignPairsToSam. The
 * fault plan, if armed, arms admission loss and lane refusals.
 */
RunOutput
runPairedOnce(const PairedWorkload &w, PipelineOptions::Engine engine,
              unsigned threads, u64 batch_reads, bool inject = false,
              const std::string &snapshot = "")
{
    PipelineOptions opts;
    opts.engine = engine;
    opts.segments = 6;
    opts.threads = threads;
    opts.batchReads = batch_reads;
    opts.indexSnapshot = snapshot;

    FaultInjector &fi = FaultInjector::instance();
    fi.reset();
    if (inject) {
        fi.arm(fault::kPipelineRead, {.probability = 0.08, .seed = 31});
        fi.arm(fault::kLaneIssue, {.probability = 0.2, .seed = 32});
    }

    std::ostringstream sink;
    const auto res = [&]() -> StatusOr<PipelineResult> {
        if (batch_reads > 0) {
            std::ostringstream fq1, fq2;
            GENAX_TRY(writeFastq(fq1, w.reads1));
            GENAX_TRY(writeFastq(fq2, w.reads2));
            std::istringstream in1(fq1.str()), in2(fq2.str());
            FastqReader reader1(in1), reader2(in2);
            return alignPairStreamToSam(w.ref, reader1, reader2, sink,
                                        opts);
        }
        return alignPairsToSam(w.ref, w.reads1, w.reads2, sink, opts);
    }();
    fi.reset();
    EXPECT_TRUE(res.ok()) << res.status().str();
    RunOutput out;
    out.sam = sink.str();
    out.res = res.ok() ? *res : PipelineResult{};
    return out;
}

const char *
engineName(PipelineOptions::Engine engine)
{
    return engine == PipelineOptions::Engine::GenAx ? "genax" : "sw";
}

TEST(Determinism, PairedIdenticalAtAnyBatchAndThreads)
{
    // `--reads2` runs on the same streaming core as single-end mode:
    // the mate batch size and the worker width are resource knobs
    // only, on either engine.
    const PairedWorkload w = makePairedWorkload();
    for (const auto engine : {PipelineOptions::Engine::Software,
                              PipelineOptions::Engine::GenAx}) {
        const RunOutput base = runPairedOnce(w, engine, 1, 0);
        EXPECT_EQ(base.res.reads, 2 * w.reads1.size());
        EXPECT_GT(base.res.mapped, w.reads1.size());
        for (const unsigned threads : {1u, 4u}) {
            for (const u64 batch : {u64{0}, u64{1}, u64{7}, u64{64}}) {
                expectSameOutcome(
                    base, runPairedOnce(w, engine, threads, batch),
                    std::string(engineName(engine)) +
                        " threads=" + std::to_string(threads) +
                        " batch=" + std::to_string(batch));
            }
        }
    }
}

TEST(Determinism, PairedIdenticalUnderFaultInjection)
{
    // Template admission (genax.pipeline.read, one ordinal per
    // template) and lane refusals (keyed by each mate's stream index,
    // 2 * admitted template + mate) replay identically at any split.
    const PairedWorkload w = makePairedWorkload();
    for (const auto engine : {PipelineOptions::Engine::Software,
                              PipelineOptions::Engine::GenAx}) {
        const RunOutput base = runPairedOnce(w, engine, 1, 0, true);
        EXPECT_GT(base.res.failed, 0u) << engineName(engine);
        if (engine == PipelineOptions::Engine::GenAx) {
            EXPECT_GT(base.res.degraded, 0u);
        }
        for (const unsigned threads : {1u, 4u}) {
            for (const u64 batch : {u64{0}, u64{1}, u64{7}, u64{64}}) {
                expectSameOutcome(
                    base, runPairedOnce(w, engine, threads, batch, true),
                    std::string("inject ") + engineName(engine) +
                        " threads=" + std::to_string(threads) +
                        " batch=" + std::to_string(batch));
            }
        }
    }
}

/** FASTQ text of mate `mate` (1 or 2) for templates t1..t14 of the
 *  paired workload, named `t<i>/<mate>`, with a quality string one
 *  base short (a malformed record the reader skips) at template
 *  `bad`. */
std::string
mateFastq(const std::vector<FastqRecord> &reads, int mate, u64 bad)
{
    std::string text;
    for (u64 t = 1; t <= 14; ++t) {
        const FastqRecord &r = reads[t - 1];
        std::string qual(r.seq.size(), 'I');
        if (t == bad)
            qual.pop_back();
        text += "@t" + std::to_string(t) + "/" + std::to_string(mate) +
                "\n" + decode(r.seq) + "\n+\n" + qual + "\n";
    }
    return text;
}

// One skipped record in each mate file, at different templates, keeps
// the counts equal but shifts every template in between onto its
// neighbour's mate. The run must be refused at the first mismatched
// template, with the same status at every batch split.
TEST(Determinism, PairedMateNameMismatchRefusedAtAnyBatch)
{
    const PairedWorkload w = makePairedWorkload();
    const std::string fq1 = mateFastq(w.reads1, 1, 5);
    const std::string fq2 = mateFastq(w.reads2, 2, 10);
    ReaderOptions ropts;
    ropts.maxMalformed = 10;
    for (const auto engine : {PipelineOptions::Engine::Software,
                              PipelineOptions::Engine::GenAx}) {
        for (const unsigned threads : {1u, 4u}) {
            for (const u64 batch : {0u, 1u, 7u, 64u}) {
                SCOPED_TRACE(std::string(engineName(engine)) +
                             " threads " + std::to_string(threads) +
                             " batch " + std::to_string(batch));
                PipelineOptions opts;
                opts.engine = engine;
                opts.segments = 6;
                opts.threads = threads;
                opts.batchReads = batch;
                std::istringstream in1(fq1), in2(fq2);
                FastqReader reader1(in1, ropts), reader2(in2, ropts);
                std::ostringstream sink;
                const auto res = [&]() -> StatusOr<PipelineResult> {
                    if (batch > 0)
                        return alignPairStreamToSam(w.ref, reader1, reader2,
                                                    sink, opts);
                    GENAX_TRY_ASSIGN(const auto r1,
                                     reader1.nextBatch(~u64{0}));
                    GENAX_TRY_ASSIGN(const auto r2,
                                     reader2.nextBatch(~u64{0}));
                    return alignPairsToSam(w.ref, r1, r2, sink, opts);
                }();
                ASSERT_FALSE(res.ok());
                EXPECT_EQ(res.status().code(), StatusCode::InvalidInput);
                EXPECT_EQ(res.status().message(),
                          "mate names differ at template 5: 't6/1' vs "
                          "'t5/2' (skipped malformed records can "
                          "desynchronize mates)");
                EXPECT_EQ(sink.str().find("t6/1"), std::string::npos);
                EXPECT_EQ(sink.str().find("t5/2"), std::string::npos);
            }
        }
    }
}

TEST(Determinism, PairedSnapshotMatchesRebuild)
{
    // A paired GenAx run attached to an index snapshot is the rebuild
    // run, byte for byte.
    const PairedWorkload w = makePairedWorkload();
    namespace fs = std::filesystem;
    const fs::path dir =
        fs::temp_directory_path() / "genax_det_paired_snap";
    fs::remove_all(dir);
    fs::create_directories(dir);
    const std::string snap = (dir / "ref.gxs").string();
    const ContigMap map(w.ref);
    std::vector<SnapshotContig> contigs;
    for (const auto &c : map.contigs())
        contigs.push_back({c.name, c.start, c.length});
    SegmentConfig scfg;
    scfg.k = PipelineOptions{}.k;
    scfg.segmentCount = 6;
    scfg.overlap = PipelineOptions{}.segmentOverlap;
    ASSERT_TRUE(
        IndexSnapshot::build(snap, map.sequence(), contigs, scfg).ok());

    const auto genax = PipelineOptions::Engine::GenAx;
    const RunOutput rebuilt = runPairedOnce(w, genax, 1, 0);
    for (const unsigned threads : {1u, 4u}) {
        for (const u64 batch : {u64{0}, u64{7}}) {
            const RunOutput run =
                runPairedOnce(w, genax, threads, batch, false, snap);
#if !defined(GENAX_KMER_INDEX_ORACLE)
            EXPECT_TRUE(run.res.indexFromSnapshot);
#endif
            expectSameOutcome(rebuilt, run,
                              "snapshot threads=" +
                                  std::to_string(threads) +
                                  " batch=" + std::to_string(batch));
        }
    }
    fs::remove_all(dir);
}

TEST(Determinism, SoftwarePairedSamMatchesCandidatePairing)
{
    // Reference algorithm: each template's two candidate lists from
    // the software aligner into resolvePair, a proper pair across
    // contigs demoted, and both mates written as paired records.
    const PairedWorkload w = makePairedWorkload();
    const PipelineOptions opts;
    const ContigMap contigs(w.ref);
    AlignerConfig acfg;
    acfg.k = opts.k;
    acfg.band = opts.band;
    const BwaMemLike aligner(contigs.sequence(), acfg);
    const PairedConfig pcfg;

    std::vector<SamRefSeq> header;
    for (const auto &c : contigs.contigs())
        header.push_back({c.name, c.length});
    std::ostringstream want;
    SamWriter sam(want, header);
    const auto mateRecord = [&](const FastqRecord &read,
                                const Mapping &self, const Mapping &mate,
                                const PairMapping &pm, bool is_read1) {
        SamRecord rec = pipelineSamRecord(contigs, read, self);
        rec.flag |= kSamPaired | (is_read1 ? kSamRead1 : kSamRead2);
        if (pm.proper)
            rec.flag |= kSamProperPair;
        if (!mate.mapped)
            rec.flag |= kSamMateUnmapped;
        else if (mate.reverse)
            rec.flag |= kSamMateReverse;
        if (mate.mapped) {
            const auto [mci, mlocal] = contigs.locate(mate.pos);
            rec.rnext = self.mapped &&
                                contigs.locate(self.pos).first == mci
                            ? "="
                            : contigs.contigs()[mci].name;
            rec.pnext = mlocal;
        }
        if (pm.proper)
            rec.tlen = self.pos <= mate.pos ? pm.templateLen
                                            : -pm.templateLen;
        return rec;
    };
    u64 improper = 0;
    for (size_t i = 0; i < w.reads1.size(); ++i) {
        PairMapping pm = resolvePair(
            aligner.candidates(w.reads1[i].seq, pcfg.candidatesPerMate),
            aligner.candidates(w.reads2[i].seq, pcfg.candidatesPerMate),
            pcfg);
        if (pm.proper && contigs.locate(pm.r1.pos).first !=
                             contigs.locate(pm.r2.pos).first) {
            pm.proper = false;
            pm.templateLen = 0;
        }
        improper += !pm.proper;
        sam.write(mateRecord(w.reads1[i], pm.r1, pm.r2, pm, true));
        sam.write(mateRecord(w.reads2[i], pm.r2, pm.r1, pm, false));
    }
    EXPECT_GT(improper, 0u) << "workload should hold improper pairs";

    for (const u64 batch : {u64{0}, u64{7}}) {
        const RunOutput run = runPairedOnce(
            w, PipelineOptions::Engine::Software, 4, batch);
        EXPECT_EQ(run.sam, want.str()) << "batch=" << batch;
    }
}

} // namespace
} // namespace genax
