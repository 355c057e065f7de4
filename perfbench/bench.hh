/**
 * @file
 * Shared declarations of the repository benchmark (genax_perfbench):
 * the workload table, generated inputs, metric and check records,
 * and small statistics helpers.
 *
 * The benchmark drives GenAx only through its public entry points
 * (alignFiles / alignStreamToSam for offline runs; AlignService +
 * Batcher + Server with ServeClient connections for serving). In a
 * traced run the benchmark's own code records spans around each
 * call into a layer's public function (trace.hh); the program itself
 * is not instrumented.
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <chrono>
#include <map>
#include <string>
#include <vector>

#include "genax/pipeline.hh"
#include "readsim/readsim.hh"

namespace perfbench {

using genax::u32;
using genax::u64;
using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** @name Fixed workload shape (see README.md) */
///@{
constexpr u64 kReferenceBases = 4'000'000; //!< about E. coli size
/** The reference genome is one fixed synthetic genome, as a real
 *  deployment aligns every read set against the same reference;
 *  --seed draws the donor variants, read positions and errors. */
constexpr u64 kReferenceSeed = 2018;
constexpr u64 kReadLen = 101;
constexpr unsigned kEngineWidth = 4; //!< requested; pool clamps it
constexpr u32 kK = 12;
constexpr u32 kBand = 40;
constexpr u64 kSegments = 8;
constexpr u64 kSegmentOverlap = 256;
constexpr u64 kBatchReads = 4096;
/** Set-up is repeated this many times per run; setup_s is the
 *  median. */
constexpr int kSetupRepeats = 5;
///@}

/** Static description of one workload. */
struct WorkloadSpec
{
    const char *name;
    bool serve; //!< serving stack instead of offline alignFiles
    genax::PipelineOptions::Engine engine;
    u64 reads;        //!< reads in the generated FASTQ
    u64 clients;      //!< serve: closed-loop connections
    u64 requestReads; //!< serve: reads per request
};

/** The workload table; nullptr when `name` is not in it. */
const WorkloadSpec *findWorkload(const std::string &name);

/** Command-line options of one run. */
struct Options
{
    std::string workload;
    u64 seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string workdir; //!< generated inputs and outputs of this run
    std::string outdir;  //!< where traces and raw samples are kept
};

/** Generated inputs of one run: files in the work directory plus the
 *  simulator's truth, parallel to the FASTQ records. */
struct Inputs
{
    std::string refPath;
    std::string readsPath;
    std::string emptyReadsPath; //!< zero-read FASTQ for set-up calls
    std::string snapshotPath;   //!< offline-genax only
    std::vector<genax::SimRead> truth;
};

/** Generate the reference, reads and (for offline-genax) the index
 *  snapshot from opts.seed. Runs before any timed window. */
Inputs prepareInputs(const WorkloadSpec &spec, const Options &opts);

/** Read name of the i-th generated read. */
std::string readName(u64 i);

/** Output checks: every failed expectation is kept with its message
 *  and fails the run. */
struct Checks
{
    u64 passed = 0;
    std::vector<std::string> failures;

    void expect(bool ok, const std::string &what);
    bool ok() const { return failures.empty(); }
};

/** One reported metric. */
struct Metric
{
    double value = 0;
    std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/** Extra report fields, each value already JSON-encoded. */
using Details = std::map<std::string, std::string>;

std::string jsonNumber(double v);
std::string jsonString(const std::string &s);

/** What one workload run produces. */
struct RunResult
{
    Metrics metrics; //!< end-to-end (untraced) or per-layer (traced)
    u64 attempted = 0;
    u64 failed = 0;
    Checks checks;
    Details details;
};

class Tracer;

RunResult runOffline(const WorkloadSpec &spec, const Options &opts,
                     const Inputs &in);
RunResult runOfflineTraced(const WorkloadSpec &spec,
                           const Options &opts, const Inputs &in,
                           Tracer &tracer);
RunResult runServe(const WorkloadSpec &spec, const Options &opts,
                   const Inputs &in);
RunResult runServeTraced(const WorkloadSpec &spec, const Options &opts,
                         const Inputs &in, Tracer &tracer);

/** @name Statistics over raw samples */
///@{
double median(std::vector<double> v);
/** Linearly interpolated q-quantile (q in [0, 1]) of raw samples. */
double quantile(std::vector<double> v, double q);
/** Per-key median over several per-pass metric maps (a key missing
 *  from a pass is skipped for that pass). */
Metrics medianMetrics(const std::vector<Metrics> &passes);
///@}

/** Latency summary from raw samples: p50, p99, the sample count and
 *  the highest listed percentile with at least ten samples beyond
 *  it. */
void describeLatency(const std::vector<double> &samples_ms,
                     Details &details);

/** count / reads, 0 when there are no reads. */
inline double
perRead(double count, u64 reads)
{
    return reads ? count / static_cast<double>(reads) : 0.0;
}

/** Peak resident set size of this process, MB. */
double peakRssMb();

/** 64-bit FNV-1a digest of a file's bytes (0 if unreadable). */
u64 fileDigest(const std::string &path);

/** Mapping accuracy of SAM records against the simulator's truth
 *  (readsim evaluateAccuracy); records must be one per read, in
 *  input order — a mismatch is reported through `checks`. */
double mappedCorrectFraction(const std::vector<genax::SamRecord> &recs,
                             const std::vector<genax::SimRead> &truth,
                             Checks &checks);

/** Re-arm fault injection from GENAX_FAULT_INJECT (no-op when
 *  unset), so every call replays the same fault decisions. */
void rearmFaults();

/** Engine width after ThreadPool clamping. */
unsigned effectiveWidth();

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
