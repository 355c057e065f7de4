#include "trace.hh"

#include <fstream>
#include <sstream>
#include <thread>

namespace perfbench {

namespace {

/** Open spans of the calling thread, innermost last (indices into the
 *  tracer's span list). One tracer is live per process. */
thread_local std::vector<size_t> t_open;

std::string
threadKey()
{
    std::ostringstream os;
    os << std::this_thread::get_id();
    return os.str();
}

} // namespace

Tracer::Span::Span(Tracer &t, std::string name, u64 id)
    : _tracer(t), _index(t.begin(std::move(name), id))
{
}

Tracer::Span::~Span() { _tracer.end(_index); }

u64
Tracer::nowNs() const
{
    return static_cast<u64>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            Clock::now() - _epoch)
            .count());
}

size_t
Tracer::begin(std::string name, u64 id)
{
    Record r;
    r.name = std::move(name);
    r.id = id;
    r.parent = t_open.empty() ? -1 : static_cast<long>(t_open.back());
    const std::string key = threadKey();
    size_t index = 0;
    {
        const std::lock_guard<std::mutex> lk(_mu);
        const auto [it, fresh] =
            _tids.emplace(key, static_cast<u32>(_tids.size()));
        (void)fresh;
        r.tid = it->second;
        r.startNs = nowNs();
        index = _spans.size();
        _spans.push_back(std::move(r));
    }
    t_open.push_back(index);
    return index;
}

void
Tracer::end(size_t index)
{
    const u64 now = nowNs();
    if (!t_open.empty() && t_open.back() == index)
        t_open.pop_back();
    const std::lock_guard<std::mutex> lk(_mu);
    _spans[index].endNs = now;
}

double
Tracer::delta(const Totals &after, const Totals &before,
              const std::string &name)
{
    const auto a = after.find(name);
    const auto b = before.find(name);
    return (a == after.end() ? 0.0 : a->second.seconds) -
           (b == before.end() ? 0.0 : b->second.seconds);
}

Tracer::Totals
Tracer::totals() const
{
    const std::lock_guard<std::mutex> lk(_mu);
    // Children of one parent run on the parent's thread, one after
    // another, so the time they cover is the sum of their durations.
    std::vector<u64> covered(_spans.size(), 0);
    for (const Record &r : _spans) {
        if (r.parent >= 0)
            covered[static_cast<size_t>(r.parent)] += r.endNs - r.startNs;
    }
    Totals out;
    for (size_t i = 0; i < _spans.size(); ++i) {
        const Record &r = _spans[i];
        const u64 dur = r.endNs - r.startNs;
        const u64 self = covered[i] < dur ? dur - covered[i] : 0;
        NameTotals &t = out[r.name];
        ++t.count;
        t.seconds += static_cast<double>(dur) * 1e-9;
        t.selfSeconds += static_cast<double>(self) * 1e-9;
    }
    return out;
}

bool
Tracer::writeChromeTrace(const std::string &path) const
{
    std::ofstream out(path);
    if (!out)
        return false;
    const std::lock_guard<std::mutex> lk(_mu);
    out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
    for (size_t i = 0; i < _spans.size(); ++i) {
        const Record &r = _spans[i];
        out << "{\"name\": " << jsonString(r.name)
            << ", \"ph\": \"X\", \"pid\": 1, \"tid\": " << r.tid
            << ", \"ts\": " << jsonNumber(r.startNs * 1e-3)
            << ", \"dur\": " << jsonNumber((r.endNs - r.startNs) * 1e-3)
            << ", \"args\": {\"id\": " << r.id
            << ", \"span\": " << i << ", \"parent\": " << r.parent
            << "}}" << (i + 1 < _spans.size() ? ",\n" : "\n");
    }
    out << "]}\n";
    out.flush();
    return static_cast<bool>(out);
}

} // namespace perfbench
