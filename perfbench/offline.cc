/**
 * @file
 * Offline workloads (offline-sw, offline-genax): file-to-file
 * streaming runs (alignStreamToSam, as alignFiles drives it, over
 * timestamping stream buffers), and the traced pass that makes the
 * same layer calls in the pipeline's order.
 */

#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>

#include "bench.hh"
#include "common/faultinject.hh"
#include "io/sam.hh"
#include "replay.hh"

namespace perfbench {

using namespace genax;

namespace {

using Engine = PipelineOptions::Engine;

PipelineOptions
pipelineOptions(const WorkloadSpec &spec, const Inputs &in)
{
    PipelineOptions o;
    o.engine = spec.engine;
    o.k = kK;
    o.band = kBand;
    o.segments = kSegments;
    o.segmentOverlap = kSegmentOverlap;
    o.threads = kEngineWidth;
    o.batchReads = kBatchReads;
    o.indexSnapshot = in.snapshotPath;
    return o;
}

/** Every modelled counter and modelled time, printed exactly (hex
 *  floats), so two runs compare bit for bit. */
std::string
modelSignature(const GenAxPerf &p)
{
    std::ostringstream os;
    os << std::hexfloat << p.reads << ' ' << p.segments << ' '
       << p.extensionJobs << ' ' << p.exactReads << ' '
       << p.degradedJobs << ' ' << p.laneFaults << ' ' << p.dramFaults
       << ' ' << p.seedingSeconds << ' ' << p.extensionSeconds << ' '
       << p.dramSeconds << ' ' << p.totalSeconds << ' '
       << p.seeding.indexLookups << ' ' << p.seeding.smems << ' '
       << p.seeding.hitsReported << ' ' << p.seeding.cam.lookups() << ' '
       << p.seeding.cam.overflowFallbacks << ' ' << p.lanes.jobs << ' '
       << p.lanes.totalCycles() << ' ' << p.lanes.reruns;
    return os.str();
}

/** Model-side counters of the GenAx engine (deterministic). */
void
addModelMetrics(const GenAxPerf &p, Metrics &m)
{
    const double reads = static_cast<double>(p.reads);
    m["genax.model_seeding_s"] = {p.seedingSeconds, "s"};
    m["genax.model_extension_s"] = {p.extensionSeconds, "s"};
    m["genax.model_dram_s"] = {p.dramSeconds, "s"};
    m["genax.model_total_s"] = {p.totalSeconds, "s"};
    m["genax.model_reads_per_s"] = {p.readsPerSecond(), "reads/s"};
    m["genax.extension_jobs_per_read"] = {
        perRead(static_cast<double>(p.extensionJobs), p.reads), "count"};
    m["genax.exact_reads_frac"] = {
        reads ? static_cast<double>(p.exactReads) / reads : 0.0,
        "fraction"};
    m["genax.degraded_jobs"] = {static_cast<double>(p.degradedJobs),
                                "count"};
    m["seed.index_lookups_per_read"] = {
        perRead(static_cast<double>(p.seeding.indexLookups), p.reads),
        "count"};
    m["seed.smems_per_read"] = {
        perRead(static_cast<double>(p.seeding.smems), p.reads), "count"};
    m["seed.hits_per_read"] = {
        perRead(static_cast<double>(p.seeding.hitsReported), p.reads),
        "count"};
    m["seed.cam_lookups_per_read"] = {
        perRead(static_cast<double>(p.seeding.cam.lookups()), p.reads),
        "count"};
    m["seed.cam_overflow_frac"] = {
        p.seeding.cam.searches
            ? static_cast<double>(p.seeding.cam.overflowFallbacks) /
                  static_cast<double>(p.seeding.cam.searches)
            : 0.0,
        "fraction"};
    m["sillax.cycles_per_job"] = {p.lanes.cyclesPerJob(), "cycles"};
    m["sillax.rerun_frac"] = {
        p.lanes.jobs ? static_cast<double>(p.lanes.jobsWithRerun) /
                           static_cast<double>(p.lanes.jobs)
                     : 0.0,
        "fraction"};
}

std::vector<SamRecord>
readSamRecords(const std::string &path, Checks &checks)
{
    std::ifstream in(path);
    auto sam = readSam(in);
    checks.expect(sam.ok(), "SAM output parses: " +
                                (sam.ok() ? std::string("ok")
                                          : sam.status().str()));
    return sam.ok() ? std::move(sam->records) : std::vector<SamRecord>{};
}

std::string
hex(u64 v)
{
    char buf[24];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

/**
 * Input buffer over a file that records when each chunk is pulled:
 * the FASTQ reader's consumption timeline.
 */
class TimedFileIn : public std::streambuf
{
  public:
    struct Load
    {
        u64 begin = 0; //!< file offset of the chunk
        Clock::time_point t;
    };

    explicit TimedFileIn(const std::string &path)
        : _file(path, std::ios::binary), _buf(1 << 16)
    {
    }
    bool isOpen() const { return _file.is_open(); }
    const std::vector<Load> &loads() const { return _loads; }

  protected:
    int_type
    underflow() override
    {
        if (gptr() < egptr())
            return traits_type::to_int_type(*gptr());
        _file.read(_buf.data(), static_cast<std::streamsize>(_buf.size()));
        const std::streamsize n = _file.gcount();
        if (n <= 0)
            return traits_type::eof();
        _loads.push_back({_offset, Clock::now()});
        _offset += static_cast<u64>(n);
        setg(_buf.data(), _buf.data(), _buf.data() + n);
        return traits_type::to_int_type(*gptr());
    }

  private:
    std::ifstream _file;
    std::vector<char> _buf;
    u64 _offset = 0;
    std::vector<Load> _loads;
};

/**
 * Output buffer that writes through to a file and records, per write,
 * its time and the SAM records (non-header lines) written so far. The
 * streaming pipeline's writer emits one write per batch.
 */
class TimedFileOut : public std::streambuf
{
  public:
    struct Emit
    {
        u64 records = 0; //!< records written up to this write
        Clock::time_point t;
    };

    explicit TimedFileOut(const std::string &path)
        : _file(path, std::ios::binary)
    {
    }
    bool
    flushed()
    {
        _file.flush();
        return static_cast<bool>(_file);
    }
    const std::vector<Emit> &emits() const { return _emits; }

  protected:
    std::streamsize
    xsputn(const char *s, std::streamsize n) override
    {
        _file.write(s, n);
        for (std::streamsize i = 0; i < n; ++i) {
            if (_lineStart && s[i] != '@')
                ++_records;
            _lineStart = s[i] == '\n';
        }
        _emits.push_back({_records, Clock::now()});
        return _file ? n : 0;
    }
    int_type
    overflow(int_type c) override
    {
        if (traits_type::eq_int_type(c, traits_type::eof()))
            return traits_type::not_eof(c);
        const char ch = traits_type::to_char_type(c);
        return xsputn(&ch, 1) == 1 ? c : traits_type::eof();
    }

  private:
    std::ofstream _file;
    bool _lineStart = true;
    u64 _records = 0;
    std::vector<Emit> _emits;
};

/** File offset of the first record of every batch of the FASTQ. */
std::vector<u64>
batchOffsets(const std::string &path, u64 batch_reads)
{
    std::ifstream in(path, std::ios::binary);
    std::vector<u64> out;
    std::string line;
    u64 offset = 0;
    for (u64 lineno = 0; std::getline(in, line); ++lineno) {
        if (lineno % (4 * batch_reads) == 0)
            out.push_back(offset);
        offset += line.size() + 1;
    }
    return out;
}

/** One checked streaming call (what alignFiles does with batchReads
 *  > 0: parse the reference, then alignStreamToSam over a FASTQ
 *  stream into a SAM file), with its per-batch timeline. */
struct StreamCall
{
    double seconds = 0;
    std::optional<PipelineResult> result;
    /** Per steady-state batch: its first record read in to its last
     *  SAM record out, and its reads over the interval since the
     *  previous batch's output. */
    std::vector<double> batchLatencyMs;
    std::vector<double> batchReadsPerS;
};

StreamCall
streamOnce(const WorkloadSpec &spec, const Inputs &in,
           const PipelineOptions &po, const std::string &reads_path,
           const std::vector<u64> &offsets, const std::string &out_sam,
           RunResult &res)
{
    rearmFaults();
    StreamCall call;
    TimedFileIn ib(reads_path);
    TimedFileOut ob(out_sam);
    std::istream is(&ib);
    std::ostream os(&ob);
    StatusOr<PipelineResult> run = PipelineResult{};
    const auto t0 = Clock::now();
    {
        ReaderOptions ropts;
        ropts.maxMalformed = po.maxMalformed;
        auto ref = readFastaFile(in.refPath, ropts);
        if (!ref.ok()) {
            run = ref.status();
        } else {
            FastqReader reader(is, ropts);
            run = alignStreamToSam(*ref, reader, os, po);
        }
        os.flush();
    }
    call.seconds = secondsSince(t0);

    const u64 n = offsets.empty() ? 0 : in.truth.size();
    res.checks.expect(ib.isOpen() && ob.flushed(), "streams open and SAM "
                                                   "flushed");
    res.checks.expect(run.ok(), "alignStreamToSam: " +
                                    (run.ok() ? std::string("ok")
                                              : run.status().str()));
    if (n == 0) // the zero-read set-up call
        return call;
    res.attempted += n;
    if (!run.ok()) {
        res.failed += n;
        return call;
    }
    res.failed += run->failed;
    res.checks.expect(run->ledgerBalanced(), "ledger balanced");
    res.checks.expect(run->reads == n,
                      "ledger counts every read: " +
                          std::to_string(run->reads) + " of " +
                          std::to_string(n));
    if (spec.engine == Engine::GenAx)
        res.checks.expect(run->indexFromSnapshot && !run->indexFallback,
                          "index served from the snapshot: " +
                              run->indexNote);

    // Batch b is in when the chunk holding its first record was
    // pulled, and out with the write that completes its records.
    const auto &loads = ib.loads();
    const auto &emits = ob.emits();
    size_t li = 0, ei = 0, emitted = 0;
    Clock::time_point prev_out, first_out;
    for (u64 b = 0; b < offsets.size(); ++b) {
        while (li + 1 < loads.size() && loads[li + 1].begin <= offsets[b])
            ++li;
        const u64 done = std::min(n, (b + 1) * po.batchReads);
        while (ei < emits.size() && emits[ei].records < done)
            ++ei;
        if (ei == emits.size() || li >= loads.size())
            break;
        const auto out_t = emits[ei].t;
        // Steady state only: the first batch's output waits for the
        // engine's set-up, and so does every batch the reader pulled
        // in before that output (it prefetches during set-up).
        if (b == 0)
            first_out = out_t;
        else if (loads[li].t >= first_out)
            call.batchLatencyMs.push_back(
                std::chrono::duration<double, std::milli>(out_t -
                                                          loads[li].t)
                    .count());
        if (b > 0)
            call.batchReadsPerS.push_back(
                static_cast<double>(done - b * po.batchReads) /
                std::chrono::duration<double>(out_t - prev_out).count());
        prev_out = out_t;
        ++emitted;
    }
    res.checks.expect(emitted == offsets.size(), "every batch emitted");
    call.result = std::move(*run);
    return call;
}

} // namespace

RunResult
runOffline(const WorkloadSpec &spec, const Options &opts, const Inputs &in)
{
    RunResult res;
    const PipelineOptions po = pipelineOptions(spec, in);
    const std::string setup_sam = opts.workdir + "/setup.sam";
    const std::string out_sam = opts.workdir + "/out.sam";
    const u64 n = in.truth.size();
    const std::vector<u64> offsets = batchOffsets(in.readsPath,
                                                  po.batchReads);

    std::vector<double> setup_s, full_s, latency_ms, rates;
    std::vector<double> call_p50_ms, call_p90_ms; //!< one per call
    u64 digest0 = 0;
    std::string model0;
    double accuracy = 0;
    std::optional<GenAxPerf> perf0;
    const auto start = Clock::now();
    for (int iter = 0;
         iter < kSetupRepeats || secondsSince(start) < opts.seconds;
         ++iter) {
        // Cold start: a zero-read call through the same entry point
        // with the same options (reference parse, index build or
        // snapshot attach, engine construction).
        setup_s.push_back(streamOnce(spec, in, po, in.emptyReadsPath, {},
                                     setup_sam, res)
                              .seconds);

        const StreamCall call =
            streamOnce(spec, in, po, in.readsPath, offsets, out_sam, res);
        full_s.push_back(call.seconds);
        latency_ms.insert(latency_ms.end(), call.batchLatencyMs.begin(),
                          call.batchLatencyMs.end());
        if (!call.batchLatencyMs.empty()) {
            call_p50_ms.push_back(quantile(call.batchLatencyMs, 0.50));
            call_p90_ms.push_back(quantile(call.batchLatencyMs, 0.90));
        }
        rates.insert(rates.end(), call.batchReadsPerS.begin(),
                     call.batchReadsPerS.end());
        if (!call.result)
            continue;
        const u64 digest = fileDigest(out_sam);
        if (iter == 0) {
            digest0 = digest;
            accuracy = mappedCorrectFraction(
                readSamRecords(out_sam, res.checks), in.truth, res.checks);
            model0 = modelSignature(call.result->perf);
            perf0 = call.result->perf;
        } else {
            res.checks.expect(digest == digest0,
                              "SAM digest repeats across iterations");
            if (spec.engine == Engine::GenAx)
                res.checks.expect(
                    modelSignature(call.result->perf) == model0,
                    "modelled counters repeat across iterations");
        }
    }

    const double setup = median(setup_s);
    const double call_steady = median(full_s) - setup;

    Metrics &m = res.metrics;
    m["setup_s"] = {setup, "s"};
    m["reads_per_s"] = {median(rates), "reads/s"};
    // Each call's own percentiles, median over calls: a few seconds
    // of CPU taken by other tenants of the host slow the handful of
    // batches in flight then, which would move a pooled p90 of a few
    // dozen batches but moves only one call's figure here.
    m["request_p50_ms"] = {median(call_p50_ms), "ms"};
    m["request_p90_ms"] = {median(call_p90_ms), "ms"};
    m["mapped_correct_frac"] = {accuracy, "fraction"};
    m["peak_rss_mb"] = {peakRssMb(), "MB"};

    Details &d = res.details;
    d["iterations"] = jsonNumber(static_cast<double>(full_s.size()));
    d["reads_per_call"] = jsonNumber(static_cast<double>(n));
    d["request"] = jsonString("one 4096-read batch: its first record "
                              "read in to its last SAM record out");
    describeLatency(latency_ms, d);
    d["pooled_p50_ms"] = jsonNumber(quantile(latency_ms, 0.50));
    d["pooled_p90_ms"] = jsonNumber(quantile(latency_ms, 0.90));
    d["rate_samples"] = jsonNumber(static_cast<double>(rates.size()));
    d["call_p50_s"] = jsonNumber(median(full_s));
    d["call_reads_per_s"] = jsonNumber(
        call_steady > 0 ? static_cast<double>(n) / call_steady : 0.0);
    d["sam_digest"] = jsonString(hex(digest0));
    if (perf0 && spec.engine == Engine::GenAx)
        d["model_reads_per_s"] = jsonNumber(perf0->readsPerSecond());
    return res;
}

RunResult
runOfflineTraced(const WorkloadSpec &spec, const Options &opts,
                 const Inputs &in, Tracer &tracer)
{
    RunResult res;
    const PipelineOptions po = pipelineOptions(spec, in);
    const std::string out_sam = opts.workdir + "/out.sam";
    const std::string traced_sam = opts.workdir + "/traced.sam";
    const bool genax = spec.engine == Engine::GenAx;
    const std::vector<u64> offsets = batchOffsets(in.readsPath,
                                                  po.batchReads);

    std::vector<Metrics> passes;
    const auto start = Clock::now();
    for (u64 pass = 0; pass == 0 || secondsSince(start) < opts.seconds;
         ++pass) {
        // Untraced reference: the end-to-end call the traced pass
        // must reproduce byte for byte.
        const StreamCall untraced = streamOnce(
            spec, in, po, in.readsPath, offsets, out_sam, res);
        if (!untraced.result)
            break;

        const auto before = tracer.totals();
        rearmFaults();
        SoftwareReplay replay;
        std::optional<GenAxPerf> perf;
        GenAxHostProfile host;
        const auto t0 = Clock::now();
        {
            const Tracer::Span root(tracer, "offline.pass", pass);
            ReaderOptions ropts;
            ropts.maxMalformed = po.maxMalformed;
            StatusOr<std::vector<FastaRecord>> fasta{
                std::vector<FastaRecord>{}};
            {
                const Tracer::Span s(tracer, "io.fasta_parse", pass);
                fasta = readFastaFile(in.refPath, ropts);
            }
            res.checks.expect(fasta.ok(), "reference parses");
            if (!fasta.ok())
                break;
            const ContigMap contigs(*fasta);

            std::optional<BwaMemLike> aligner;
            std::optional<IndexAttachment> attach;
            std::optional<GenAxSystem> system;
            if (!genax) {
                AlignerConfig acfg;
                acfg.k = po.k;
                acfg.band = po.band;
                acfg.threads = po.threads;
                const Tracer::Span s(tracer, "seed.index_build", pass);
                aligner.emplace(contigs.sequence(), acfg);
            } else {
                GenAxConfig gcfg;
                gcfg.k = po.k;
                gcfg.editBound = po.band;
                gcfg.segmentCount = po.segments;
                gcfg.segmentOverlap = po.segmentOverlap;
                gcfg.threads = po.threads;
                {
                    const Tracer::Span s(tracer, "seed.snapshot_open", pass);
                    auto att = attachIndexSnapshot(in.snapshotPath,
                                                   contigs.sequence());
                    res.checks.expect(att.ok() && att->fromSnapshot,
                                      "snapshot attaches");
                    if (!att.ok())
                        break;
                    attach.emplace(std::move(*att));
                    applyIndexAttachment(gcfg, *attach);
                }
                const Tracer::Span s(tracer, "genax.system_build", pass);
                system.emplace(contigs.sequence(), gcfg);
                system->streamBegin();
            }

            std::ifstream fq(in.readsPath);
            FastqReader reader(fq, ropts);
            std::ofstream out(traced_sam);
            std::vector<SamRefSeq> header;
            for (const auto &c : contigs.contigs())
                header.push_back({c.name, c.length});
            SamWriter sam(out, header);

            u64 base = 0;
            for (u64 b = 0;; ++b) {
                StatusOr<std::vector<FastqRecord>> next{
                    std::vector<FastqRecord>{}};
                {
                    const Tracer::Span s(tracer, "io.fastq_parse", b);
                    next = reader.nextBatch(po.batchReads);
                }
                res.checks.expect(next.ok(), "reads parse");
                if (!next.ok() || next->empty())
                    break;
                const std::vector<FastqRecord> &batch = *next;

                // Admission, as the pipeline does it.
                std::vector<u8> failed(batch.size(), 0);
                std::vector<Seq> seqs;
                seqs.reserve(batch.size());
                for (size_t i = 0; i < batch.size(); ++i) {
                    if (faultFires(fault::kPipelineRead))
                        failed[i] = 1;
                    else
                        seqs.push_back(batch[i].seq);
                }

                std::vector<Mapping> maps;
                if (aligner) {
                    {
                        const Tracer::Span s(tracer, "swbase.align_batch", b);
                        maps = aligner->alignAll(seqs);
                    }
                    replaySoftwareBatch(*aligner, contigs.sequence(), seqs,
                                        tracer, b, replay);
                } else {
                    const Tracer::Span s(tracer, "genax.stream_batch", b);
                    maps = system->streamBatch(seqs, base);
                }
                base += seqs.size();

                const Tracer::Span s(tracer, "io.sam_format", b);
                size_t live = 0;
                for (size_t i = 0; i < batch.size(); ++i) {
                    if (failed[i])
                        sam.write(pipelineUnmappedRecord(batch[i]));
                    else
                        sam.write(pipelineSamRecord(contigs, batch[i],
                                                    maps[live++]));
                }
            }
            if (system) {
                const Tracer::Span s(tracer, "genax.stream_end", pass);
                system->streamEnd();
                perf = system->perf();
                host = system->hostProfile();
            }
            out.flush();
            res.checks.expect(static_cast<bool>(out), "traced SAM written");
        }
        const double traced_s = secondsSince(t0);
        res.checks.expect(fileDigest(traced_sam) == fileDigest(out_sam),
                          "traced pass reproduces the untraced SAM");
        if (genax && perf)
            res.checks.expect(modelSignature(*perf) ==
                                  modelSignature(untraced.result->perf),
                              "traced pass reproduces the modelled "
                              "counters");

        // Per-layer numbers of this pass: span totals since `before`.
        const auto after = tracer.totals();
        const auto span = [&](const char *name) {
            return Tracer::delta(after, before, name);
        };
        Metrics m;
        m["io.fasta_parse_s"] = {span("io.fasta_parse"), "s"};
        m["io.fastq_parse_s"] = {span("io.fastq_parse"), "s"};
        m["io.sam_format_s"] = {span("io.sam_format"), "s"};
        m["trace.overhead_s"] = {traced_s - untraced.seconds, "s"};
        if (!genax) {
            addSoftwareLayerMetrics(replay, after, before, m);
        } else if (perf) {
            m["seed.snapshot_open_s"] = {span("seed.snapshot_open"), "s"};
            m["genax.stream_batch_s"] = {span("genax.stream_batch"), "s"};
            m["genax.stream_end_s"] = {span("genax.stream_end"), "s"};
            m["genax.seeding_host_s"] = {host.seedingSimSeconds, "s"};
            m["genax.extension_host_cpu_s"] = {host.extensionSeconds, "s"};
            m["genax.bookkeeping_host_s"] = {host.bookkeepingSeconds, "s"};
            const double events = static_cast<double>(
                perf->seeding.indexLookups + perf->extensionJobs);
            m["genax.host_ns_per_event"] = {
                events > 0 ? host.totalSeconds * 1e9 / events : 0.0, "ns"};
            addModelMetrics(*perf, m);
            res.details["model_extension_jobs"] =
                jsonNumber(static_cast<double>(perf->extensionJobs));
        }
        passes.push_back(std::move(m));
    }

    res.metrics = medianMetrics(passes);
    res.details["traced_passes"] =
        jsonNumber(static_cast<double>(passes.size()));
    return res;
}

} // namespace perfbench
