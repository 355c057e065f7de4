/**
 * @file
 * Workload table, input generation and the shared helpers of the
 * benchmark (checks, statistics, JSON encoding, digests, accuracy).
 */

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "bench.hh"
#include "common/faultinject.hh"
#include "common/threadpool.hh"
#include "io/fasta.hh"
#include "io/fastq.hh"
#include "readsim/eval.hh"
#include "readsim/refgen.hh"
#include "seed/index_snapshot.hh"

namespace perfbench {

using namespace genax;

namespace {

using Engine = PipelineOptions::Engine;

// Read counts: each offline file is sized so one call's steady-state
// leg is longer than its set-up leg; serving cycles through a pool.
const WorkloadSpec kWorkloads[] = {
    {"offline-sw", false, Engine::Software, 80000, 0, 0},
    {"offline-genax", false, Engine::GenAx, 61440, 0, 0},
    {"serve-bulk", true, Engine::Software, 16384, 4, 256},
};

[[noreturn]] void
die(const std::string &what)
{
    std::fprintf(stderr, "genax_perfbench: %s\n", what.c_str());
    std::exit(2);
}

} // namespace

const WorkloadSpec *
findWorkload(const std::string &name)
{
    for (const WorkloadSpec &w : kWorkloads) {
        if (name == w.name)
            return &w;
    }
    return nullptr;
}

std::string
readName(u64 i)
{
    std::string name = "r";
    name += std::to_string(i);
    return name;
}

Inputs
prepareInputs(const WorkloadSpec &spec, const Options &opts)
{
    Inputs in;
    in.refPath = opts.workdir + "/ref.fa";
    in.readsPath = opts.workdir + "/reads.fq";
    in.emptyReadsPath = opts.workdir + "/empty.fq";

    RefGenConfig rcfg;
    rcfg.length = kReferenceBases;
    rcfg.seed = kReferenceSeed;
    const Seq ref = generateReference(rcfg);

    ReadSimConfig rs; // default error model
    rs.readLen = kReadLen;
    rs.numReads = spec.reads;
    rs.seed = FaultKeyScope::mixKey(opts.seed, 1);
    in.truth = simulateReads(ref, rs);

    std::vector<FastqRecord> reads(in.truth.size());
    for (size_t i = 0; i < in.truth.size(); ++i) {
        reads[i].name = readName(i);
        reads[i].seq = in.truth[i].seq;
        reads[i].qual = in.truth[i].qual;
    }
    {
        std::ofstream fa(in.refPath), fq(in.readsPath),
            empty(in.emptyReadsPath);
        const std::vector<FastaRecord> fasta = {{"bench_ref", ref}};
        if (!writeFasta(fa, fasta).ok() || !writeFastq(fq, reads).ok() ||
            !empty)
            die("cannot write inputs under " + opts.workdir);
    }

    if (!spec.serve && spec.engine == Engine::GenAx) {
        // Deployed the way `genax_index --format flat` + `genax_align
        // --index` deploy: built once, ahead of every timed window.
        in.snapshotPath = opts.workdir + "/ref.gxsnap";
        SegmentConfig scfg;
        scfg.k = kK;
        scfg.segmentCount = kSegments;
        scfg.overlap = kSegmentOverlap;
        const Status st = IndexSnapshot::build(
            in.snapshotPath, ref, {{"bench_ref", 0, ref.size()}}, scfg);
        if (!st.ok())
            die("index snapshot build failed: " + st.str());
    }
    return in;
}

void
Checks::expect(bool ok, const std::string &what)
{
    if (ok)
        ++passed;
    else if (failures.size() < 32)
        failures.push_back(what);
    else if (failures.size() == 32)
        failures.push_back("... further check failures omitted");
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const size_t lo = static_cast<size_t>(pos);
    const size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double
median(std::vector<double> v)
{
    return quantile(std::move(v), 0.5);
}

Metrics
medianMetrics(const std::vector<Metrics> &passes)
{
    std::map<std::string, std::vector<double>> values;
    Metrics out;
    for (const Metrics &m : passes) {
        for (const auto &[name, metric] : m) {
            values[name].push_back(metric.value);
            out[name].unit = metric.unit;
        }
    }
    for (auto &[name, v] : values)
        out[name].value = median(std::move(v));
    return out;
}

void
describeLatency(const std::vector<double> &samples_ms, Details &details)
{
    const double n = static_cast<double>(samples_ms.size());
    details["latency_samples"] = jsonNumber(n);
    // Highest listed percentile with at least ten samples beyond it:
    // (1 - p) * n >= 10.
    std::string highest = "null";
    std::string highest_ms = "null";
    for (const double p : {50.0, 90.0, 99.0, 99.9, 99.99}) {
        if ((1.0 - p / 100.0) * n >= 10.0) {
            highest = jsonNumber(p);
            highest_ms = jsonNumber(quantile(samples_ms, p / 100.0));
        }
    }
    details["latency_highest_supported_percentile"] = highest;
    details["latency_highest_supported_ms"] = highest_ms;
    details["latency_max_ms"] = jsonNumber(
        samples_ms.empty()
            ? 0.0
            : *std::max_element(samples_ms.begin(), samples_ms.end()));
}

double
peakRssMb()
{
    struct rusage ru = {};
    if (getrusage(RUSAGE_SELF, &ru) != 0)
        return 0;
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KB on Linux
}

u64
fileDigest(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return 0;
    u64 h = 1469598103934665603ull;
    char buf[1 << 16];
    while (in.read(buf, sizeof buf) || in.gcount() > 0) {
        const std::streamsize n = in.gcount();
        for (std::streamsize i = 0; i < n; ++i) {
            h ^= static_cast<unsigned char>(buf[i]);
            h *= 1099511628211ull;
        }
    }
    return h;
}

double
mappedCorrectFraction(const std::vector<SamRecord> &recs,
                      const std::vector<SimRead> &truth, Checks &checks)
{
    checks.expect(recs.size() == truth.size(),
                  "one SAM record per input read: " +
                      std::to_string(recs.size()) + " records for " +
                      std::to_string(truth.size()) + " reads");
    if (recs.size() != truth.size())
        return 0;
    std::vector<Mapping> maps(recs.size());
    u64 misplaced = 0;
    for (size_t i = 0; i < recs.size(); ++i) {
        misplaced += recs[i].qname != readName(i);
        maps[i].mapped = (recs[i].flag & kSamUnmapped) == 0;
        maps[i].reverse = (recs[i].flag & kSamReverse) != 0;
        maps[i].pos = recs[i].pos;
    }
    checks.expect(misplaced == 0, "SAM records in input order (" +
                                      std::to_string(misplaced) +
                                      " out of place)");
    return evaluateAccuracy(truth, maps).correctFraction();
}

void
rearmFaults()
{
    const char *spec = std::getenv("GENAX_FAULT_INJECT");
    if (spec == nullptr || *spec == '\0')
        return;
    FaultInjector &fi = FaultInjector::instance();
    fi.reset();
    if (const Status st = fi.configureFromEnv(); !st.ok())
        die("GENAX_FAULT_INJECT: " + st.str());
}

unsigned
effectiveWidth()
{
    return ThreadPool::resolveWidth(kEngineWidth);
}

} // namespace perfbench
