/**
 * @file
 * Serving workload (serve-bulk): an in-process
 * AlignService + Batcher + Server stack on a Unix-domain socket,
 * driven by a closed loop of ServeClient connections from this
 * process, each on its own thread.
 */

#include <algorithm>
#include <atomic>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <thread>

#include "bench.hh"
#include "replay.hh"
#include "serve/client.hh"
#include "serve/server.hh"

namespace perfbench {

using namespace genax;

namespace {

ServiceConfig
serviceConfig()
{
    ServiceConfig c;
    c.engine = PipelineOptions::Engine::Software;
    c.k = kK;
    c.band = kBand;
    c.segments = kSegments;
    c.segmentOverlap = kSegmentOverlap;
    c.threads = kEngineWidth;
    return c;
}

/** One running daemon stack; stops and tears down in reverse order. */
struct Stack
{
    std::unique_ptr<AlignService> service;
    std::unique_ptr<Batcher> batcher;
    std::unique_ptr<Server> server;
    Endpoint endpoint;

    Stack() = default;
    Stack(const Stack &) = delete;
    Stack &operator=(const Stack &) = delete;
    ~Stack()
    {
        if (server)
            server->stop();
        if (batcher)
            batcher->stop();
        if (service)
            service->finish();
    }
};

/** AlignService::create + Server::start, the daemon's cold start. A
 *  Unix socket under the work directory; TCP loopback if the host
 *  refuses it. */
Status
startStack(const std::vector<FastaRecord> &ref, const std::string &sock,
           Stack &stack)
{
    std::vector<FastaRecord> copy = ref; // create() takes ownership
    GENAX_TRY_ASSIGN(stack.service,
                     AlignService::create(std::move(copy), serviceConfig()));
    stack.batcher =
        std::make_unique<Batcher>(*stack.service, BatcherConfig{});
    stack.server = std::make_unique<Server>(*stack.service, *stack.batcher);
    auto ep = Endpoint::parse("unix:" + sock);
    Status st = ep.ok() ? stack.server->start(*ep) : ep.status();
    if (!st.ok()) {
        ep = Endpoint::parse("tcp:127.0.0.1:0");
        GENAX_TRY(ep.ok() ? stack.server->start(*ep) : ep.status());
    }
    stack.endpoint = stack.server->boundEndpoint();
    return okStatus();
}

/** Inputs of the serving loop: the request pool and the offline
 *  alignToSam output it must reproduce. */
struct ServeInputs
{
    std::vector<FastaRecord> ref;
    std::vector<std::vector<FastqRecord>> requests;
    std::string header;                //!< offline SAM header text
    std::vector<std::string> expected; //!< offline line per read
    double accuracy = 0;
};

ServeInputs
prepareServe(const WorkloadSpec &spec, const Inputs &in, Tracer *tracer,
             Checks &checks)
{
    ServeInputs s;
    {
        std::optional<Tracer::Span> span;
        if (tracer)
            span.emplace(*tracer, "io.fasta_parse", 0);
        auto ref = readFastaFile(in.refPath);
        checks.expect(ref.ok(), "reference parses");
        if (ref.ok())
            s.ref = std::move(*ref);
    }
    std::vector<FastqRecord> all;
    {
        std::ifstream fq(in.readsPath);
        FastqReader reader(fq);
        for (u64 j = 0;; ++j) {
            std::optional<Tracer::Span> span;
            if (tracer)
                span.emplace(*tracer, "io.fastq_parse", j);
            auto batch = reader.nextBatch(spec.requestReads);
            checks.expect(batch.ok(), "reads parse");
            if (!batch.ok() || batch->empty())
                break;
            all.insert(all.end(), batch->begin(), batch->end());
            s.requests.push_back(std::move(*batch));
        }
    }

    // The byte-identity reference: one offline alignToSam over the
    // same reads, computed outside every timed window.
    PipelineOptions po;
    po.engine = PipelineOptions::Engine::Software;
    po.k = kK;
    po.band = kBand;
    po.segments = kSegments;
    po.segmentOverlap = kSegmentOverlap;
    po.threads = kEngineWidth;
    std::ostringstream sam;
    const auto res = alignToSam(s.ref, all, sam, po);
    checks.expect(res.ok() && res->ledgerBalanced(),
                  "offline alignToSam reference run");
    std::istringstream lines(sam.str());
    std::string line;
    while (std::getline(lines, line)) {
        if (!line.empty() && line[0] == '@')
            s.header += line + "\n";
        else
            s.expected.push_back(line + "\n");
    }
    std::istringstream parse(sam.str());
    auto parsed = readSam(parse);
    checks.expect(parsed.ok(), "offline SAM parses");
    if (parsed.ok())
        s.accuracy =
            mappedCorrectFraction(parsed->records, in.truth, checks);
    return s;
}

/** One successful round trip. */
struct Sample
{
    double doneS = 0; //!< completion, seconds since the window opened
    double ms = 0;    //!< round-trip latency
    u64 reads = 0;
};

/** Outcome of one closed-loop window. */
struct Window
{
    double seconds = 0;
    u64 reads = 0;
    u64 requests = 0;
    u64 errors = 0;     //!< requests answered with an error
    u64 mismatches = 0; //!< replies not byte-identical to offline
    u64 connectFailures = 0;
    u64 headerMismatches = 0;
    std::vector<Sample> samples;
    std::vector<double> latencyMs; //!< one per successful round trip
    Batcher::StatsSnapshot before;
    Batcher::StatsSnapshot after;
};

Window
runWindow(const WorkloadSpec &spec, const ServeInputs &s, Stack &stack,
          double seconds, Tracer *tracer)
{
    struct Client
    {
        std::vector<Sample> samples;
        u64 requests = 0, errors = 0, mismatches = 0;
        bool connected = false, headerOk = false;
    };
    const u64 n = s.requests.size();
    std::vector<Client> clients(spec.clients);
    std::atomic<u64> ready{0};
    std::atomic<bool> go{false};
    Clock::time_point start, deadline;

    std::vector<std::thread> threads;
    for (u64 c = 0; c < spec.clients; ++c) {
        threads.emplace_back([&, c] {
            Client &me = clients[c];
            auto conn = ServeClient::connect(stack.endpoint,
                                             "bench-" + std::to_string(c));
            me.connected = conn.ok();
            me.headerOk = conn.ok() && conn->samHeader() == s.header;
            ready.fetch_add(1);
            while (!go.load(std::memory_order_acquire))
                std::this_thread::sleep_for(std::chrono::microseconds(50));
            if (!conn.ok())
                return;
            // Clients start at evenly spaced points of the pool.
            for (u64 j = c * (n / spec.clients); Clock::now() < deadline;
                 ++j) {
                const u64 r = j % n;
                const auto &req = s.requests[r];
                std::optional<Tracer::Span> span;
                if (tracer)
                    span.emplace(*tracer, "serve.request",
                                 c * 1'000'000'000ull + j);
                const auto t0 = Clock::now();
                auto lines = conn->align(req);
                const double ms = secondsSince(t0) * 1e3;
                span.reset();
                if (!lines.ok()) {
                    ++me.errors;
                    continue;
                }
                me.samples.push_back(
                    {secondsSince(start), ms, req.size()});
                ++me.requests;
                const u64 first = r * spec.requestReads;
                bool same = lines->size() == req.size() &&
                            first + req.size() <= s.expected.size();
                for (size_t i = 0; same && i < lines->size(); ++i)
                    same = (*lines)[i] == s.expected[first + i];
                me.mismatches += !same;
            }
            conn->close();
        });
    }
    while (ready.load() < spec.clients)
        std::this_thread::sleep_for(std::chrono::microseconds(100));

    Window w;
    w.before = stack.batcher->stats();
    start = Clock::now();
    deadline = start + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(seconds));
    go.store(true, std::memory_order_release);
    for (auto &t : threads)
        t.join();
    w.seconds = secondsSince(start);
    w.after = stack.batcher->stats();

    for (const Client &c : clients) {
        for (const Sample &x : c.samples) {
            w.latencyMs.push_back(x.ms);
            w.reads += x.reads;
        }
        w.samples.insert(w.samples.end(), c.samples.begin(),
                         c.samples.end());
        w.requests += c.requests;
        w.errors += c.errors;
        w.mismatches += c.mismatches;
        w.connectFailures += !c.connected;
        w.headerMismatches += c.connected && !c.headerOk;
    }
    return w;
}

/**
 * Window throughput and latency percentiles over one-second slices
 * (by completion time). CPU taken by other tenants of the host
 * slows a closed loop for seconds at a time, so the gated figures
 * are those of the quiet quartile of slices: the first quartile of
 * per-slice latency percentiles and the third quartile of per-slice
 * throughput. A change that slows every second moves them; the slice
 * medians go in the report beside them. p90 keeps at least ten
 * samples beyond it in every slice.
 */
struct SliceStats
{
    size_t slices = 0;
    std::vector<double> readsPerS, p50Ms, p90Ms; //!< one per slice
};

SliceStats
sliceStats(const Window &w)
{
    SliceStats st;
    st.slices = std::max<size_t>(1, static_cast<size_t>(w.seconds));
    const double len = w.seconds / static_cast<double>(st.slices);
    std::vector<std::vector<double>> lat(st.slices);
    std::vector<double> reads(st.slices, 0);
    for (const Sample &x : w.samples) {
        const size_t i =
            std::min(st.slices - 1, static_cast<size_t>(x.doneS / len));
        lat[i].push_back(x.ms);
        reads[i] += static_cast<double>(x.reads);
    }
    for (size_t i = 0; i < st.slices; ++i) {
        st.readsPerS.push_back(reads[i] / len);
        if (!lat[i].empty()) {
            st.p50Ms.push_back(quantile(lat[i], 0.50));
            st.p90Ms.push_back(quantile(lat[i], 0.90));
        }
    }
    return st;
}

void
checkWindow(const Window &w, Checks &checks)
{
    checks.expect(w.connectFailures == 0, "every client connects");
    checks.expect(w.headerMismatches == 0,
                  "served SAM header equals the offline header");
    checks.expect(w.mismatches == 0,
                  "served lines byte-identical to offline alignToSam (" +
                      std::to_string(w.mismatches) + " replies differ)");
    checks.expect(w.requests > 0, "window completed requests");
}

u64
tenantReads(const Batcher::StatsSnapshot &s)
{
    u64 reads = 0;
    for (const auto &[name, t] : s.tenants)
        reads += t.reads;
    return reads;
}

double
meanMsDelta(const LatencyHistogram &after, const LatencyHistogram &before)
{
    const u64 n = after.count() - before.count();
    return n ? static_cast<double>(after.sumNanos() - before.sumNanos()) /
                   static_cast<double>(n) * 1e-6
             : 0.0;
}

} // namespace

RunResult
runServe(const WorkloadSpec &spec, const Options &opts, const Inputs &in)
{
    RunResult res;
    const ServeInputs s = prepareServe(spec, in, nullptr, res.checks);
    if (!res.checks.ok())
        return res;

    // Cold start, repeated; the last stack stays up for the window.
    std::vector<double> setup_s;
    std::unique_ptr<Stack> stack;
    for (int rep = 0; rep < kSetupRepeats; ++rep) {
        auto fresh = std::make_unique<Stack>();
        const auto t0 = Clock::now();
        const Status st = startStack(
            s.ref, opts.workdir + "/s" + std::to_string(rep) + ".sock",
            *fresh);
        setup_s.push_back(secondsSince(t0));
        res.checks.expect(st.ok(), "serving stack starts: " + st.str());
        if (!st.ok())
            return res;
        stack = std::move(fresh); // tears the previous stack down
    }
    res.checks.expect(stack->service->headerText() == s.header,
                      "service header equals the offline header");

    const Window w = runWindow(spec, s, *stack, opts.seconds, nullptr);
    checkWindow(w, res.checks);
    res.attempted = w.requests + w.errors;
    res.failed = w.errors;

    Metrics &m = res.metrics;
    m["setup_s"] = {median(setup_s), "s"};
    const SliceStats sl = sliceStats(w);
    m["reads_per_s"] = {quantile(sl.readsPerS, 0.75), "reads/s"};
    m["request_p50_ms"] = {quantile(sl.p50Ms, 0.25), "ms"};
    m["request_p90_ms"] = {quantile(sl.p90Ms, 0.25), "ms"};
    m["mapped_correct_frac"] = {s.accuracy, "fraction"};
    m["peak_rss_mb"] = {peakRssMb(), "MB"};

    Details &d = res.details;
    if (!opts.outdir.empty()) {
        const std::string path = opts.outdir + "/" + spec.name + "-seed" +
                                 std::to_string(opts.seed) +
                                 ".samples.csv";
        std::ofstream csv(path);
        csv << "done_s,latency_ms,reads\n";
        for (const Sample &x : w.samples)
            csv << jsonNumber(x.doneS) << ',' << jsonNumber(x.ms) << ','
                << x.reads << '\n';
        d["samples_file"] = jsonString(path);
    }
    describeLatency(w.latencyMs, d);
    d["request"] = jsonString("one ServeClient::align round trip");
    d["window_reads_per_s"] =
        jsonNumber(static_cast<double>(w.reads) / w.seconds);
    d["window_p50_ms"] = jsonNumber(quantile(w.latencyMs, 0.50));
    d["window_p99_ms"] = jsonNumber(quantile(w.latencyMs, 0.99));
    d["slices"] = jsonNumber(static_cast<double>(sl.slices));
    d["slice_median_reads_per_s"] = jsonNumber(median(sl.readsPerS));
    d["slice_median_p50_ms"] = jsonNumber(median(sl.p50Ms));
    d["slice_median_p90_ms"] = jsonNumber(median(sl.p90Ms));
    d["window_s"] = jsonNumber(w.seconds);
    d["requests"] = jsonNumber(static_cast<double>(w.requests));
    d["request_errors"] = jsonNumber(static_cast<double>(w.errors));
    d["batches"] =
        jsonNumber(static_cast<double>(w.after.batches - w.before.batches));
    d["flushes_by_deadline"] = jsonNumber(static_cast<double>(
        w.after.flushesByDeadline - w.before.flushesByDeadline));
    d["endpoint"] = jsonString(stack->endpoint.kind == Endpoint::Kind::Unix
                                   ? "unix"
                                   : "tcp");
    return res;
}

RunResult
runServeTraced(const WorkloadSpec &spec, const Options &opts,
               const Inputs &in, Tracer &tracer)
{
    RunResult res;
    const ServeInputs s = prepareServe(spec, in, &tracer, res.checks);
    if (!res.checks.ok())
        return res;

    Metrics &m = res.metrics;
    double mean_batch = 1;
    {
        Stack stack;
        const Status st = startStack(s.ref, opts.workdir + "/t.sock", stack);
        res.checks.expect(st.ok(), "serving stack starts: " + st.str());
        if (!st.ok())
            return res;

        // Half the time untraced, half traced: the rate difference is
        // the tracing overhead.
        const Window plain =
            runWindow(spec, s, stack, opts.seconds / 2, nullptr);
        const Window traced =
            runWindow(spec, s, stack, opts.seconds / 2, &tracer);
        checkWindow(plain, res.checks);
        checkWindow(traced, res.checks);
        res.attempted = plain.requests + plain.errors + traced.requests +
                        traced.errors;
        res.failed = plain.errors + traced.errors;
        if (!res.checks.ok())
            return res;

        const double plain_rate =
            static_cast<double>(plain.reads) / plain.seconds;
        const double traced_rate =
            static_cast<double>(traced.reads) / traced.seconds;
        m["trace.overhead_s"] = {
            static_cast<double>(traced.reads) *
                (1.0 / traced_rate - 1.0 / plain_rate),
            "s"};

        const auto &a = traced.after;
        const auto &b = traced.before;
        const double batches = static_cast<double>(a.batches - b.batches);
        const double reads =
            static_cast<double>(tenantReads(a) - tenantReads(b));
        mean_batch = batches > 0 ? reads / batches : 1;
        m["serve.flush_deadline_frac"] = {
            batches > 0 ? static_cast<double>(a.flushesByDeadline -
                                              b.flushesByDeadline) /
                              batches
                        : 0.0,
            "fraction"};
        m["serve.mean_batch_reads"] = {mean_batch, "reads"};
        m["serve.queue_wait_mean_ms"] = {
            meanMsDelta(a.queueWait, b.queueWait), "ms"};
        m["serve.engine_mean_ms"] = {meanMsDelta(a.engine, b.engine), "ms"};
        double client_mean = 0;
        for (const double v : traced.latencyMs)
            client_mean += v;
        client_mean /= static_cast<double>(traced.latencyMs.size());
        m["serve.wire_overhead_ms"] = {
            client_mean - meanMsDelta(a.total, b.total), "ms"};
        res.details["traced_requests"] =
            jsonNumber(static_cast<double>(traced.requests));
    }

    // Layer replay over one pass of the request pool, in batches of
    // the size the batcher formed: the software engine's phases, and
    // the service's alignBatch on its own instance (no socket, no
    // batcher).
    const ContigMap contigs(s.ref);
    const u64 batch_reads =
        std::max<u64>(1, static_cast<u64>(mean_batch + 0.5));
    std::vector<std::vector<FastqRecord>> batches(1);
    for (const auto &req : s.requests) {
        for (const FastqRecord &r : req) {
            if (batches.back().size() == batch_reads)
                batches.emplace_back();
            batches.back().push_back(r);
        }
    }
    const auto before = tracer.totals();
    SoftwareReplay replay;
    {
        AlignerConfig acfg;
        acfg.k = kK;
        acfg.band = kBand;
        acfg.threads = kEngineWidth;
        std::optional<BwaMemLike> aligner;
        {
            const Tracer::Span span(tracer, "seed.index_build", 0);
            aligner.emplace(contigs.sequence(), acfg);
        }
        for (u64 i = 0; i < batches.size(); ++i) {
            std::vector<Seq> seqs;
            for (const FastqRecord &r : batches[i])
                seqs.push_back(r.seq);
            {
                const Tracer::Span span(tracer, "swbase.align_batch", i);
                (void)aligner->alignAll(seqs);
            }
            replaySoftwareBatch(*aligner, contigs.sequence(), seqs, tracer,
                                i, replay);
        }
    }
    {
        auto direct = AlignService::create(s.ref, serviceConfig());
        res.checks.expect(direct.ok(), "direct service starts");
        if (direct.ok()) {
            u64 next = 0, mismatches = 0;
            for (u64 i = 0; i < batches.size(); ++i) {
                BatchOutcome out;
                {
                    const Tracer::Span span(tracer, "serve.engine_direct", i);
                    out = (*direct)->alignBatch(batches[i]);
                }
                for (const std::string &line : out.samLines) {
                    mismatches += next >= s.expected.size() ||
                                  line != s.expected[next];
                    ++next;
                }
            }
            (*direct)->finish();
            res.checks.expect(mismatches == 0,
                              "direct alignBatch lines byte-identical to "
                              "offline alignToSam");
        }
    }
    const auto after = tracer.totals();
    m["io.fasta_parse_s"] = {after.at("io.fasta_parse").seconds, "s"};
    m["io.fastq_parse_s"] = {after.at("io.fastq_parse").seconds, "s"};
    m["serve.engine_direct_s"] = {
        Tracer::delta(after, before, "serve.engine_direct"), "s"};
    addSoftwareLayerMetrics(replay, after, before, m);
    res.details["replay_batch_reads"] =
        jsonNumber(static_cast<double>(batch_reads));
    return res;
}

} // namespace perfbench
