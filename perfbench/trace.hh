/**
 * @file
 * In-memory span recorder for the benchmark's traced run.
 *
 * A span has a name, a start, an end, a parent (the span open on the
 * same thread when it began) and a batch or request id. Spans are
 * kept in memory and written out once, at the end, as Chrome
 * trace-event JSON (chrome://tracing, Perfetto). Self time is a
 * span's duration minus the time its children cover.
 *
 * Thread-safe: serving clients record spans from their own threads.
 */

#ifndef PERFBENCH_TRACE_HH
#define PERFBENCH_TRACE_HH

#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "bench.hh"

namespace perfbench {

class Tracer
{
  public:
    Tracer() : _epoch(Clock::now()) {}

    /** RAII span: begins on construction, ends on destruction. */
    class Span
    {
      public:
        Span(Tracer &t, std::string name, u64 id);
        ~Span();
        Span(const Span &) = delete;
        Span &operator=(const Span &) = delete;

      private:
        Tracer &_tracer;
        size_t _index;
    };

    /** Sum of span durations and of self times, per span name. */
    struct NameTotals
    {
        u64 count = 0;
        double seconds = 0;
        double selfSeconds = 0;
    };
    using Totals = std::map<std::string, NameTotals>;
    Totals totals() const;

    /** Seconds recorded under `name` between two totals() snapshots. */
    static double delta(const Totals &after, const Totals &before,
                        const std::string &name);

    /** Write every span as Chrome trace-event JSON. */
    bool writeChromeTrace(const std::string &path) const;

  private:
    struct Record
    {
        std::string name;
        u64 id = 0;
        u64 startNs = 0;
        u64 endNs = 0;
        long parent = -1; //!< index into _spans, -1 = root
        u32 tid = 0;      //!< small per-thread number
    };

    size_t begin(std::string name, u64 id);
    void end(size_t index);
    u64 nowNs() const;

    const Clock::time_point _epoch;
    mutable std::mutex _mu;
    std::vector<Record> _spans;        //!< guarded by _mu
    std::map<std::string, u32> _tids;  //!< thread id -> small number
};

} // namespace perfbench

#endif // PERFBENCH_TRACE_HH
