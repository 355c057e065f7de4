#include "genax/pipeline.hh"

#include <algorithm>
#include <chrono>
#include <deque>
#include <fstream>
#include <optional>
#include <ostream>
#include <sstream>
#include <string_view>
#include <thread>

#include "common/annotations.hh"
#include "common/check.hh"
#include "common/faultinject.hh"
#include "common/logging.hh"
#include "common/parallel.hh"
#include "common/threadpool.hh"
#include "io/sam.hh"
#include "seed/index_snapshot.hh"
#include "silla/silla.hh"
#include "swbase/bwamem_like.hh"
#include "swbase/paired.hh"

namespace genax {

ContigMap::ContigMap(const std::vector<FastaRecord> &contigs)
{
    GENAX_CHECK(!contigs.empty(), "reference has no contigs");
    for (const auto &rec : contigs) {
        GENAX_CHECK(!rec.seq.empty(), "empty contig: ", rec.name);
        _contigs.push_back({rec.name, _seq.size(), rec.seq.size()});
        _seq.insert(_seq.end(), rec.seq.begin(), rec.seq.end());
    }
}

std::pair<size_t, u64>
ContigMap::locate(u64 pos) const
{
    GENAX_CHECK(pos < _seq.size(), "position beyond reference");
    // Binary search over contig starts.
    size_t lo = 0, hi = _contigs.size() - 1;
    while (lo < hi) {
        const size_t mid = (lo + hi + 1) / 2;
        if (_contigs[mid].start <= pos)
            lo = mid;
        else
            hi = mid - 1;
    }
    return {lo, pos - _contigs[lo].start};
}

SamRecord
pipelineUnmappedRecord(const FastqRecord &read)
{
    SamRecord rec;
    rec.qname = read.name;
    rec.flag = kSamUnmapped;
    rec.seq = decode(read.seq);
    rec.qual = phredToAscii(read.qual);
    return rec;
}

SamRecord
pipelineSamRecord(const ContigMap &contigs, const FastqRecord &read,
                  const Mapping &m)
{
    SamRecord rec;
    rec.qname = read.name;
    const Seq &oriented_seq = m.mapped && m.reverse
                                  ? reverseComplement(read.seq)
                                  : read.seq;
    rec.seq = decode(oriented_seq);
    if (!m.mapped) {
        rec.flag = kSamUnmapped;
    } else {
        const auto [ci, local] = contigs.locate(m.pos);
        rec.flag = m.reverse ? kSamReverse : 0;
        rec.rname = contigs.contigs()[ci].name;
        rec.pos = local;
        rec.mapq = m.mapq;
        rec.cigar = m.cigar.strSamM();
        rec.score = m.score;
        rec.editDistance = static_cast<i32>(m.cigar.editDistance());
    }
    rec.qual = phredToAscii(read.qual, m.mapped && m.reverse);
    return rec;
}

namespace {

/** Fold one admitted read's outcome into the ledger. */
void
countOutcome(const Mapping &m, bool via_fallback, PipelineResult &res)
{
    if (!m.mapped)
        ++res.unmapped;
    else if (via_fallback)
        ++res.degraded;
    else
        ++res.mapped;
}

/**
 * Emit one batch's SAM records in input order and fold its outcomes
 * into the ledger. `reads` and `failed` cover the whole batch;
 * `maps` and `degraded` cover only the admitted (non-failed) reads,
 * in the same relative order.
 */
void
emitBatch(SamWriter &sam, const ContigMap &contigs,
          const std::vector<FastqRecord> &reads,
          const std::vector<u8> &failed,
          const std::vector<Mapping> &maps,
          const std::vector<u8> &degraded, PipelineResult &res)
{
    size_t live = 0; // index into maps/degraded (admitted reads only)
    for (size_t i = 0; i < reads.size(); ++i) {
        if (failed[i]) {
            sam.write(pipelineUnmappedRecord(reads[i]));
            continue;
        }
        const Mapping &m = maps[live];
        countOutcome(m, degraded[live] != 0, res);
        ++live;
        sam.write(pipelineSamRecord(contigs, reads[i], m));
    }
}

/**
 * Single-producer single-consumer bounded queue connecting the
 * streaming pipeline's stages. close() wakes both sides: a blocked
 * pop() drains the remaining items and then reports exhaustion; a
 * blocked push() gives up (the consumer is gone).
 */
template <typename T>
class BoundedQueue
{
  public:
    explicit BoundedQueue(size_t capacity) : _capacity(capacity) {}

    /** False when the queue was closed and the item dropped. */
    bool
    push(T item)
    {
        const MutexLock lk(_mu);
        while (_items.size() >= _capacity && !_closed)
            _notFull.wait(_mu);
        if (_closed)
            return false;
        _items.push_back(std::move(item));
        _notEmpty.notifyOne();
        return true;
    }

    /** Next item; empty once the queue is closed and drained. */
    std::optional<T>
    pop()
    {
        const MutexLock lk(_mu);
        while (_items.empty() && !_closed)
            _notEmpty.wait(_mu);
        if (_items.empty())
            return std::nullopt;
        T out = std::move(_items.front());
        _items.pop_front();
        _notFull.notifyOne();
        return out;
    }

    void
    close()
    {
        const MutexLock lk(_mu);
        _closed = true;
        _notEmpty.notifyAll();
        _notFull.notifyAll();
    }

  private:
    const size_t _capacity;
    Mutex _mu;
    CondVar _notFull, _notEmpty;
    std::deque<T> _items GENAX_GUARDED_BY(_mu);
    bool _closed GENAX_GUARDED_BY(_mu) = false;
};

} // namespace

StatusOr<IndexAttachment>
attachIndexSnapshot(const std::string &path, const Seq &refseq)
{
    IndexAttachment att;
    auto opened = IndexSnapshot::open(path);
    if (!opened.ok()) {
        att.fallback = true;
        att.note = "index snapshot unusable, rebuilding from "
                   "FASTA: " +
                   opened.status().str();
        GENAX_WARN("index snapshot ", path,
                   " unusable; rebuilding segment indexes from the "
                   "reference: ",
                   opened.status().str());
        return att;
    }
    IndexSnapshot snap = std::move(*opened);
    const IndexFingerprint want =
        referenceFingerprint(refseq, snap.k());
    GENAX_TRY(checkFingerprint(snap.fingerprint(), want)
                  .withContext("index snapshot " + path));
    att.fromSnapshot = true;
    att.mapped = snap.mapped();
    att.note = std::string("index snapshot attached (") +
               (snap.mapped() ? "mmap" : "owned read") + ")";
    att.snapshot = std::move(snap);
    return att;
}

void
applyIndexAttachment(GenAxConfig &cfg, const IndexAttachment &att)
{
    if (!att.snapshot)
        return;
    cfg.k = att.snapshot->k();
    cfg.segmentCount = att.snapshot->segmentCount();
    cfg.segmentOverlap = att.snapshot->segmentOverlap();
    cfg.snapshot = &*att.snapshot;
}

AlignSession::AlignSession(const std::vector<FastaRecord> &ref)
    : _contigs(ref)
{
    for (const auto &c : _contigs.contigs())
        _header.push_back({c.name, c.length});
}

template <typename Fn>
void
AlignSession::timed(Fn &&fn)
{
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const auto t1 = std::chrono::steady_clock::now();
    _seconds += std::chrono::duration<double>(t1 - t0).count();
}

StatusOr<std::unique_ptr<AlignSession>>
AlignSession::open(const std::vector<FastaRecord> &ref,
                   const EngineOptions &opts)
{
    if (ref.empty())
        return invalidInputError("reference has no usable contigs");
    for (const auto &rec : ref) {
        if (rec.seq.empty())
            return invalidInputError("reference contig '" + rec.name +
                                     "' is empty");
    }
    // No make_unique: the constructor is private.
    // genax-lint: allow(naked-new): one session per run, not per-read scratch
    std::unique_ptr<AlignSession> s(new AlignSession(ref));

    if (!opts.indexSnapshot.empty()) {
        GENAX_TRY_ASSIGN(s->_attach,
                         attachIndexSnapshot(opts.indexSnapshot,
                                             s->_contigs.sequence()));
    }

    // Graceful degradation: an edit bound beyond what a SillaX lane
    // supports cannot run on the accelerator model at all; the whole
    // run falls back to the software engine and its mapped reads are
    // reported as degraded rather than silently relabelled.
    bool use_software = opts.engine == EngineOptions::Engine::Software;
    if (!use_software && opts.band > kMaxSillaK) {
        GENAX_WARN("edit bound ", opts.band,
                   " exceeds the SillaX maximum ", kMaxSillaK,
                   "; degrading the run to the software engine");
        use_software = true;
        s->_softwareFallback = true;
    }

    s->timed([&] {
        if (!use_software) {
            GenAxConfig cfg;
            cfg.k = opts.k;
            cfg.editBound = opts.band;
            cfg.segmentCount = opts.segments;
            cfg.segmentOverlap = opts.segmentOverlap;
            cfg.threads = opts.threads;
            applyIndexAttachment(cfg, s->_attach);
            s->_system.emplace(s->_contigs.sequence(), cfg);
            s->_system->streamBegin();
        } else {
            AlignerConfig cfg;
            cfg.k = opts.k;
            cfg.band = opts.band;
            cfg.threads = opts.threads;
            s->_aligner.emplace(s->_contigs.sequence(), cfg);
        }
    });
    return s;
}

AlignSession::Aligned
AlignSession::align(const std::vector<Seq> &seqs)
{
    GENAX_CHECK(!_finished, "align() after the session was finished");
    Aligned out;
    timed([&] {
        if (_system) {
            out.maps = _system->streamBatch(seqs, _base);
            out.degraded = _system->degradedReads();
        } else {
            out.maps = _aligner->alignAll(seqs);
            out.degraded.assign(seqs.size(), _softwareFallback ? 1 : 0);
        }
    });
    _base += seqs.size();
    return out;
}

void
AlignSession::finish()
{
    if (_finished)
        return;
    _finished = true;
    if (!_system)
        return;
    timed([&] { _system->streamEnd(); });
    _perf = _system->perf();
    _hostProfile = _system->hostProfile();
}

AlignSession::Candidates
AlignSession::candidates(const std::vector<Seq> &seqs, u32 max_per_read)
{
    GENAX_CHECK(!_finished,
                "candidates() after the session was finished");
    Candidates out;
    timed([&] {
        if (_system) {
            out.lists =
                _system->streamBatchCandidates(seqs, _base, max_per_read);
            out.degraded = _system->degradedReads();
        } else {
            out.lists.resize(seqs.size());
            parallelFor(seqs.size(), _aligner->config().threads,
                        [&](u64 lo, u64 hi) {
                            for (u64 i = lo; i < hi; ++i)
                                out.lists[i] = _aligner->candidates(
                                    seqs[i], max_per_read);
                        });
            out.degraded.assign(seqs.size(), _softwareFallback ? 1 : 0);
        }
    });
    _base += seqs.size();
    return out;
}

namespace {

/**
 * One batch through a session: admission, alignment, SAM emission.
 * Admission is the genax.pipeline.read fault point, modelling a read
 * lost inside the pipeline (staging-buffer corruption and the like):
 * such a read is Failed in the ledger and emitted as an unmapped
 * placeholder so the SAM output stays index-aligned with the input.
 * It runs on the caller's thread in read order, so the site's
 * ordinals are the same at any batch split.
 */
void
alignBatch(AlignSession &session, SamWriter &sam,
           const std::vector<FastqRecord> &reads, PipelineResult &res)
{
    res.reads += reads.size();
    std::vector<u8> failed(reads.size(), 0);
    std::vector<Seq> seqs;
    seqs.reserve(reads.size());
    for (size_t i = 0; i < reads.size(); ++i) {
        if (faultFires(fault::kPipelineRead)) [[unlikely]] {
            failed[i] = 1;
            ++res.failed;
            continue;
        }
        seqs.push_back(reads[i].seq);
    }
    const AlignSession::Aligned aligned = session.align(seqs);
    emitBatch(sam, session.contigs(), reads, failed, aligned.maps,
              aligned.degraded, res);
}

/** Fill one mate's SAM record from its mapping and its mate's. */
SamRecord
pairedRecord(const ContigMap &contigs, const FastqRecord &read,
             const Mapping &self, const Mapping &mate,
             const PairMapping &pair, bool is_read1)
{
    SamRecord rec;
    rec.qname = read.name;
    rec.flag = kSamPaired | (is_read1 ? kSamRead1 : kSamRead2);
    if (pair.proper)
        rec.flag |= kSamProperPair;
    if (!mate.mapped)
        rec.flag |= kSamMateUnmapped;
    else if (mate.reverse)
        rec.flag |= kSamMateReverse;

    const Seq &oriented = self.mapped && self.reverse
                              ? reverseComplement(read.seq)
                              : read.seq;
    rec.seq = decode(oriented);
    rec.qual = phredToAscii(read.qual, self.mapped && self.reverse);

    if (!self.mapped) {
        rec.flag |= kSamUnmapped;
    } else {
        const auto [ci, local] = contigs.locate(self.pos);
        if (self.reverse)
            rec.flag |= kSamReverse;
        rec.rname = contigs.contigs()[ci].name;
        rec.pos = local;
        rec.mapq = self.mapq;
        rec.cigar = self.cigar.strSamM();
        rec.score = self.score;
        rec.editDistance = static_cast<i32>(self.cigar.editDistance());
    }
    if (mate.mapped) {
        const auto [mci, mlocal] = contigs.locate(mate.pos);
        rec.rnext = self.mapped &&
                            contigs.locate(self.pos).first == mci
                        ? "="
                        : contigs.contigs()[mci].name;
        rec.pnext = mlocal;
    }
    if (pair.proper && self.mapped && mate.mapped) {
        // Leftmost mate carries +tlen, rightmost -tlen.
        rec.tlen = self.pos <= mate.pos ? pair.templateLen
                                        : -pair.templateLen;
    }
    return rec;
}

/**
 * One batch of mate pairs through a session. Admission is per
 * template: a genax.pipeline.read fault fails both mates, emitted as
 * unmapped placeholders and counted Failed. The admitted mates go to
 * the engine interleaved (r1_0, r2_0, r1_1, ...), so a mate's stream
 * index — which keys the engine's per-read fault sites — is the same
 * at any batch split. resolvePair then picks each template's
 * placement from its two candidate lists.
 */
void
alignPairBatch(AlignSession &session, SamWriter &sam,
               const std::vector<FastqRecord> &reads1,
               const std::vector<FastqRecord> &reads2,
               PipelineResult &res)
{
    res.reads += 2 * reads1.size();
    std::vector<u8> failed(reads1.size(), 0);
    std::vector<Seq> seqs;
    seqs.reserve(2 * reads1.size());
    for (size_t i = 0; i < reads1.size(); ++i) {
        if (faultFires(fault::kPipelineRead)) [[unlikely]] {
            failed[i] = 1;
            res.failed += 2;
            continue;
        }
        seqs.push_back(reads1[i].seq);
        seqs.push_back(reads2[i].seq);
    }
    const PairedConfig pcfg;
    const AlignSession::Candidates cands =
        session.candidates(seqs, pcfg.candidatesPerMate);
    const ContigMap &contigs = session.contigs();
    size_t live = 0; // index of the next admitted template's r1
    for (size_t i = 0; i < reads1.size(); ++i) {
        if (failed[i]) {
            SamRecord r1 = pipelineUnmappedRecord(reads1[i]);
            r1.flag |= kSamPaired | kSamRead1 | kSamMateUnmapped;
            SamRecord r2 = pipelineUnmappedRecord(reads2[i]);
            r2.flag |= kSamPaired | kSamRead2 | kSamMateUnmapped;
            sam.write(r1);
            sam.write(r2);
            continue;
        }
        PairMapping pm = resolvePair(cands.lists[live],
                                     cands.lists[live + 1], pcfg);
        countOutcome(pm.r1, cands.degraded[live] != 0, res);
        countOutcome(pm.r2, cands.degraded[live + 1] != 0, res);
        live += 2;
        // Pairing works in concatenated coordinates; a pair whose
        // mates land on different contigs is not a proper pair.
        if (pm.proper &&
            contigs.locate(pm.r1.pos).first !=
                contigs.locate(pm.r2.pos).first) {
            pm.proper = false;
            pm.templateLen = 0;
        }
        sam.write(pairedRecord(contigs, reads1[i], pm.r1, pm.r2, pm,
                               true));
        sam.write(pairedRecord(contigs, reads2[i], pm.r2, pm.r1, pm,
                               false));
    }
}

/** A mate's template name: its read name up to the first space,
 *  less a trailing `/1` or `/2`. */
std::string_view
templateName(std::string_view name)
{
    name = name.substr(0, name.find(' '));
    if (name.size() >= 2 && name[name.size() - 2] == '/' &&
        (name.back() == '1' || name.back() == '2'))
        name.remove_suffix(2);
    return name;
}

/**
 * Mates pair up by record index, so record i of each mate file must
 * name the same template. Checks the records both lists hold, which
 * are templates `first + 1` onwards (1-based), before any count
 * check, so a mismatch is reported at the same template whatever the
 * batch split.
 */
Status
checkMateNames(const std::vector<FastqRecord> &reads1,
               const std::vector<FastqRecord> &reads2, u64 first)
{
    const size_t n = std::min(reads1.size(), reads2.size());
    for (size_t i = 0; i < n; ++i) {
        if (templateName(reads1[i].name) == templateName(reads2[i].name))
            continue;
        return invalidInputError(
            "mate names differ at template " +
            std::to_string(first + i + 1) + ": '" + reads1[i].name +
            "' vs '" + reads2[i].name +
            "' (skipped malformed records can desynchronize mates)");
    }
    return okStatus();
}

/** Mates pair up by index, so the mate files must agree in count. */
Status
checkMateCounts(u64 reads1, u64 reads2)
{
    if (reads1 == reads2)
        return okStatus();
    return invalidInputError(
        "mate files differ in read count: " + std::to_string(reads1) +
        " vs " + std::to_string(reads2) +
        " (skipped malformed records can desynchronize mates)");
}

/** One paired stream batch: the next records of each mate file. */
struct MateBatch
{
    std::vector<FastqRecord> reads1, reads2;

    bool empty() const { return reads1.empty(); }
};

/** Close a run: fold the session's run-level outcome into the
 *  result and check the output stream and the ledger. */
StatusOr<PipelineResult>
closeRun(const AlignSession &session, const SamWriter &sam,
         bool written, PipelineResult res)
{
    if (!written)
        return ioError("failed writing SAM output after " +
                       std::to_string(sam.count()) + " records");
    const IndexAttachment &att = session.indexAttachment();
    res.indexFromSnapshot = att.fromSnapshot;
    res.indexMapped = att.mapped;
    res.indexFallback = att.fallback;
    res.indexNote = att.note;
    res.softwareFallback = session.softwareFallback();
    res.seconds = session.seconds();
    res.perf = session.perf();
    res.hostProfile = session.hostProfile();
    GENAX_CHECK(res.ledgerBalanced(),
                "pipeline ledger out of balance: ", res.mapped, "+",
                res.unmapped, "+", res.skippedMalformed, "+",
                res.degraded, "+", res.failed, " != ", res.reads);
    return res;
}

/**
 * The load-all driver: open a session and run one batch through
 * `align_one(session, sam, res)` straight into `out` — no threads,
 * no stage buffer.
 */
template <typename AlignOne>
StatusOr<PipelineResult>
alignOnce(const std::vector<FastaRecord> &ref, std::ostream &out,
          const PipelineOptions &opts, AlignOne &&align_one)
{
    GENAX_TRY_ASSIGN(const auto session, AlignSession::open(ref, opts));
    PipelineResult res;
    SamWriter sam(out, session->samHeader());
    align_one(*session, sam, res);
    session->finish();
    return closeRun(*session, sam, static_cast<bool>(out),
                    std::move(res));
}

/**
 * The streaming driver, single-end and paired: `next(n)` yields the
 * next StatusOr<Batch> of up to n records per read file (an empty
 * batch ends the stream) and `align_one(session, sam, batch, res)`
 * aligns one batch and formats its SAM records.
 */
template <typename Batch, typename Next, typename AlignOne>
StatusOr<PipelineResult>
streamToSam(const std::vector<FastaRecord> &ref, std::ostream &out,
            const PipelineOptions &opts, Next &&next,
            AlignOne &&align_one)
{
    GENAX_TRY_ASSIGN(const auto session, AlignSession::open(ref, opts));
    PipelineResult res;

    const u64 batch_size =
        opts.batchReads == 0 ? ~u64{0} : opts.batchReads;

    // IO-overlap policy: at one effective worker nothing can overlap
    // — parallelFor already runs inline at width 1 — so the reader
    // and writer threads plus their queue hand-offs would be pure
    // dispatch overhead. The single-width path parses, aligns and
    // writes synchronously on this thread instead. Record order,
    // every fault site's ordinal stream and the SAM byte stream are
    // identical either way: the threaded reader parses strictly
    // sequentially and the writer drains in batch order.
    const bool inline_io = ThreadPool::resolveWidth(opts.threads) == 1;

    // Reader stage: one prefetch thread keeps the next batch in
    // flight while the current one aligns. The parse itself stays
    // strictly sequential on that thread, so record order — and the
    // parser fault sites' per-site ordinal replay — is exactly what
    // a synchronous read would produce.
    BoundedQueue<StatusOr<Batch>> parsed(1);
    std::thread reader_thread;
    if (!inline_io) {
        reader_thread = std::thread([&] {
            for (;;) {
                auto batch = next(batch_size);
                const bool stop = !batch.ok() || batch->empty();
                if (!parsed.push(std::move(batch)))
                    break; // aligner bailed out; stop reading
                if (stop)
                    break;
            }
            parsed.close();
        });
    }

    // Writer stage: records are formatted into an in-memory stage on
    // this thread (keeping the sam.write fault ordinals in emission
    // order) and the finished text drains to `out` in batch order on
    // the writer thread. An injected write fault poisons the stage's
    // stream state exactly like a real device error poisons a file
    // stream, and is checked the same way at the end of the run.
    std::ostringstream stage;
    SamWriter sam(stage, session->samHeader());
    BoundedQueue<std::string> emitted(2);
    std::thread writer_thread;
    if (!inline_io) {
        writer_thread = std::thread([&] {
            for (;;) {
                auto text = emitted.pop();
                if (!text)
                    break;
                out.write(text->data(),
                          static_cast<std::streamsize>(text->size()));
            }
        });
    }
    const auto flush_stage = [&] {
        std::string text = stage.str();
        stage.str(std::string());
        if (text.empty())
            return;
        if (inline_io)
            out.write(text.data(),
                      static_cast<std::streamsize>(text.size()));
        else
            emitted.push(std::move(text));
    };
    flush_stage(); // the header, so an empty input still yields SAM

    Status failure = okStatus();
    for (;;) {
        StatusOr<Batch> batch{Batch{}};
        if (inline_io) {
            batch = next(batch_size);
        } else {
            auto popped = parsed.pop();
            if (!popped)
                break;
            batch = std::move(*popped);
        }
        if (!batch.ok()) {
            failure = batch.status();
            break;
        }
        if (batch->empty())
            break;
        align_one(*session, sam, *batch, res);
        flush_stage();
    }

    if (failure.ok())
        session->finish();

    // Wind down the IO stages (close() unblocks a reader stuck on a
    // full queue after an early exit).
    if (!inline_io) {
        parsed.close();
        reader_thread.join();
        emitted.close();
        writer_thread.join();
    }

    if (!failure.ok())
        return failure;
    return closeRun(*session, sam, stage && out, std::move(res));
}

} // namespace

StatusOr<PipelineResult>
alignToSam(const std::vector<FastaRecord> &ref,
           const std::vector<FastqRecord> &reads, std::ostream &out,
           const PipelineOptions &opts)
{
    return alignOnce(ref, out, opts,
                     [&](AlignSession &session, SamWriter &sam,
                         PipelineResult &res) {
                         alignBatch(session, sam, reads, res);
                     });
}

StatusOr<PipelineResult>
alignStreamToSam(const std::vector<FastaRecord> &ref,
                 FastqReader &reads, std::ostream &out,
                 const PipelineOptions &opts)
{
    return streamToSam<std::vector<FastqRecord>>(
        ref, out, opts, [&](u64 n) { return reads.nextBatch(n); },
        alignBatch);
}

StatusOr<PipelineResult>
alignPairsToSam(const std::vector<FastaRecord> &ref,
                const std::vector<FastqRecord> &reads1,
                const std::vector<FastqRecord> &reads2,
                std::ostream &out, const PipelineOptions &opts)
{
    GENAX_TRY(checkMateNames(reads1, reads2, 0));
    GENAX_TRY(checkMateCounts(reads1.size(), reads2.size()));
    return alignOnce(ref, out, opts,
                     [&](AlignSession &session, SamWriter &sam,
                         PipelineResult &res) {
                         alignPairBatch(session, sam, reads1, reads2,
                                        res);
                     });
}

StatusOr<PipelineResult>
alignPairStreamToSam(const std::vector<FastaRecord> &ref,
                     FastqReader &reads1, FastqReader &reads2,
                     std::ostream &out, const PipelineOptions &opts)
{
    const auto next = [&](u64 n) -> StatusOr<MateBatch> {
        MateBatch batch;
        GENAX_TRY_ASSIGN(batch.reads1, reads1.nextBatch(n));
        GENAX_TRY_ASSIGN(batch.reads2, reads2.nextBatch(n));
        GENAX_TRY(checkMateNames(batch.reads1, batch.reads2,
                                 reads1.stats().records -
                                     batch.reads1.size()));
        GENAX_TRY(checkMateCounts(reads1.stats().records,
                                  reads2.stats().records));
        return batch;
    };
    return streamToSam<MateBatch>(
        ref, out, opts, next,
        [](AlignSession &session, SamWriter &sam, const MateBatch &batch,
           PipelineResult &res) {
            alignPairBatch(session, sam, batch.reads1, batch.reads2, res);
        });
}

namespace {

/** Open `path`, run `align` into it and flush. An ofstream buffers;
 *  ENOSPC/EIO may only surface at the final flush, and the
 *  destructor swallows it — flush and check here so a short SAM file
 *  can never look like success. */
template <typename Fn>
StatusOr<PipelineResult>
writeSamFile(const std::string &path, Fn &&align)
{
    std::ofstream out(path);
    if (!out)
        return ioErrorFromErrno("cannot open output SAM", path);
    GENAX_TRY_ASSIGN(PipelineResult res, align(out));
    out.flush();
    if (!out)
        return ioError("failed flushing SAM output to " + path);
    return res;
}

/**
 * The body of alignFiles() and alignPairFiles(): one read file is
 * single-end, two are mate files. Streams when opts.batchReads > 0;
 * otherwise every read file is parsed whole before the SAM file is
 * opened, so a read file that fails to parse creates no SAM file.
 */
StatusOr<PipelineResult>
alignReadFiles(const std::string &ref_fasta,
               const std::vector<std::string> &read_paths,
               const std::string &out_sam, const PipelineOptions &opts)
{
    ReaderOptions ropts;
    ropts.maxMalformed = opts.maxMalformed;
    ReaderStats ref_stats;
    GENAX_TRY_ASSIGN(const auto ref,
                     readFastaFile(ref_fasta, ropts, &ref_stats));

    struct Input
    {
        std::ifstream in;
        std::optional<FastqReader> reader; //!< streaming only
        std::vector<FastqRecord> reads;    //!< load-all only
        ReaderStats stats;                 //!< load-all only
    };
    const bool stream = opts.batchReads > 0;
    std::vector<Input> inputs(read_paths.size());
    for (size_t f = 0; f < read_paths.size(); ++f) {
        Input &input = inputs[f];
        if (stream) {
            input.in.open(read_paths[f]);
            if (!input.in)
                return ioErrorFromErrno("cannot open FASTQ file",
                                        read_paths[f]);
            input.reader.emplace(input.in, ropts);
        } else {
            GENAX_TRY_ASSIGN(input.reads,
                             readFastqFile(read_paths[f], ropts,
                                           &input.stats));
        }
    }
    GENAX_TRY_ASSIGN(
        PipelineResult res,
        writeSamFile(out_sam, [&](std::ostream &out) {
            Input &in1 = inputs.front();
            if (inputs.size() == 1)
                return stream ? alignStreamToSam(ref, *in1.reader, out,
                                                 opts)
                              : alignToSam(ref, in1.reads, out, opts);
            Input &in2 = inputs.back();
            return stream ? alignPairStreamToSam(ref, *in1.reader,
                                                 *in2.reader, out, opts)
                          : alignPairsToSam(ref, in1.reads, in2.reads,
                                            out, opts);
        }));

    res.refInput = ref_stats;
    for (const Input &input : inputs) {
        const ReaderStats &st =
            input.reader ? input.reader->stats() : input.stats;
        res.readInput.records += st.records;
        res.readInput.malformed += st.malformed;
        res.readInput.errors.insert(res.readInput.errors.end(),
                                    st.errors.begin(), st.errors.end());
    }
    res.skippedMalformed = res.readInput.malformed;
    res.reads += res.skippedMalformed;
    return res;
}

} // namespace

StatusOr<PipelineResult>
alignFiles(const std::string &ref_fasta, const std::string &reads_fastq,
           const std::string &out_sam, const PipelineOptions &opts)
{
    return alignReadFiles(ref_fasta, {reads_fastq}, out_sam, opts);
}

StatusOr<PipelineResult>
alignPairFiles(const std::string &ref_fasta,
               const std::string &reads1_fastq,
               const std::string &reads2_fastq,
               const std::string &out_sam, const PipelineOptions &opts)
{
    return alignReadFiles(ref_fasta, {reads1_fastq, reads2_fastq},
                          out_sam, opts);
}

} // namespace genax
