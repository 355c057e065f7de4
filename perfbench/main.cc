/**
 * @file
 * genax_perfbench — one workload run of the repository benchmark.
 *
 *   genax_perfbench --workload NAME --seed N --seconds S --trace 0|1
 *                   --workdir DIR [--outdir DIR]
 *
 * Generates the workload's inputs from the seed into DIR, runs it
 * (untraced: end-to-end metrics; traced: per-layer metrics), runs the
 * output checks, and prints one JSON object on the last line of
 * standard output: correctness, attempted/failed counts, metrics with
 * units, details (sample counts, percentiles), check results and the
 * host stamp. Exits 0 when every check passed, 1 when one failed, 2
 * on a usage error. perfbench/run.py builds this binary and turns its
 * report into the benchmark's result line.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#include "align/simd/dispatch.hh"
#include "bench.hh"
#include "trace.hh"

using namespace perfbench;

namespace {

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "genax_perfbench: %s\nusage: genax_perfbench --workload "
                 "NAME --seed N --seconds S --trace 0|1 --workdir DIR "
                 "[--outdir DIR]\n",
                 why.c_str());
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + a);
        const std::string v = argv[++i];
        char *end = nullptr;
        if (a == "--workload") {
            o.workload = v;
        } else if (a == "--seed") {
            o.seed = std::strtoull(v.c_str(), &end, 10);
        } else if (a == "--seconds") {
            o.seconds = std::strtod(v.c_str(), &end);
            if (!(o.seconds > 0))
                usage("--seconds must be positive");
        } else if (a == "--trace") {
            if (v != "0" && v != "1")
                usage("--trace takes 0 or 1");
            o.trace = v == "1";
        } else if (a == "--workdir") {
            o.workdir = v;
        } else if (a == "--outdir") {
            o.outdir = v;
        } else {
            usage("unknown argument " + a);
        }
        if (end != nullptr && *end != '\0')
            usage("bad number for " + a + ": " + v);
    }
    if (o.workload.empty() || o.workdir.empty())
        usage("--workload and --workdir are required");
    return o;
}

std::string
hostStamp()
{
    std::ostringstream os;
    os << "{\"nproc\": " << std::thread::hardware_concurrency()
       << ", \"engine_width_requested\": " << kEngineWidth
       << ", \"engine_width_effective\": " << effectiveWidth()
       << ", \"kernel_tier\": "
       << jsonString(genax::simd::kernelTierName(
              genax::simd::activeKernelTier()))
       << ", \"compiler\": " << jsonString(PERFBENCH_COMPILER)
       << ", \"build_type\": " << jsonString(PERFBENCH_BUILD_TYPE)
       << ", \"note\": "
       << jsonString("numbers from different hosts are not comparable")
       << "}";
    return os.str();
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opts = parseArgs(argc, argv);
    const WorkloadSpec *spec = findWorkload(opts.workload);
    if (spec == nullptr)
        usage("unknown workload " + opts.workload);

    const auto t0 = Clock::now();
    const Inputs in = prepareInputs(*spec, opts);
    const double prepare_s = secondsSince(t0);
    std::fprintf(stderr, "genax_perfbench: %s seed %llu: inputs ready in "
                         "%.2f s\n",
                 spec->name, static_cast<unsigned long long>(opts.seed),
                 prepare_s);

    Tracer tracer;
    RunResult res;
    if (!opts.trace)
        res = spec->serve ? runServe(*spec, opts, in)
                          : runOffline(*spec, opts, in);
    else
        res = spec->serve ? runServeTraced(*spec, opts, in, tracer)
                          : runOfflineTraced(*spec, opts, in, tracer);

    std::string trace_file;
    if (opts.trace && !opts.outdir.empty()) {
        trace_file = opts.outdir + "/" + spec->name + "-seed" +
                     std::to_string(opts.seed) + ".trace.json";
        res.checks.expect(tracer.writeChromeTrace(trace_file),
                          "trace written to " + trace_file);
    }
    for (const auto &[name, metric] : res.metrics)
        res.checks.expect(std::isfinite(metric.value),
                          "metric " + name + " is finite");

    std::ostringstream os;
    os << "{\"workload\": " << jsonString(spec->name)
       << ", \"seed\": " << opts.seed
       << ", \"seconds\": " << jsonNumber(opts.seconds)
       << ", \"trace\": " << (opts.trace ? 1 : 0)
       << ", \"correct\": " << (res.checks.ok() ? "true" : "false")
       << ", \"attempted\": " << res.attempted
       << ", \"failed\": " << res.failed << ", \"failed_frac\": "
       << jsonNumber(res.attempted ? static_cast<double>(res.failed) /
                                         static_cast<double>(res.attempted)
                                   : 0.0)
       << ", \"prepare_s\": " << jsonNumber(prepare_s)
       << ", \"metrics\": {";
    const char *sep = "";
    for (const auto &[name, metric] : res.metrics) {
        os << sep << jsonString(name) << ": {\"value\": "
           << jsonNumber(metric.value)
           << ", \"unit\": " << jsonString(metric.unit) << "}";
        sep = ", ";
    }
    os << "}, \"details\": {";
    sep = "";
    for (const auto &[name, value] : res.details) {
        os << sep << jsonString(name) << ": " << value;
        sep = ", ";
    }
    os << "}";
    if (opts.trace) {
        os << ", \"spans\": {";
        sep = "";
        for (const auto &[name, t] : tracer.totals()) {
            os << sep << jsonString(name) << ": {\"count\": " << t.count
               << ", \"total_s\": " << jsonNumber(t.seconds)
               << ", \"self_s\": " << jsonNumber(t.selfSeconds) << "}";
            sep = ", ";
        }
        os << "}, \"trace_file\": " << jsonString(trace_file);
    }
    os << ", \"checks\": {\"passed\": " << res.checks.passed
       << ", \"failures\": [";
    sep = "";
    for (const std::string &f : res.checks.failures) {
        os << sep << jsonString(f);
        sep = ", ";
    }
    os << "]}, \"host\": " << hostStamp() << "}";
    std::cout << os.str() << std::endl;
    return res.checks.ok() ? 0 : 1;
}
