#include "genax/pipeline.hh"

#include <algorithm>
#include <chrono>
#include <deque>
#include <fstream>
#include <optional>
#include <ostream>
#include <sstream>
#include <thread>

#include "common/annotations.hh"
#include "common/check.hh"
#include "common/faultinject.hh"
#include "common/logging.hh"
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
        const bool via_fallback = degraded[live] != 0;
        ++live;
        if (!m.mapped)
            ++res.unmapped;
        else if (via_fallback)
            ++res.degraded;
        else
            ++res.mapped;
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

const BwaMemLike &
AlignSession::softwareEngine() const
{
    GENAX_CHECK(_aligner.has_value(),
                "software engine requested from a GenAx session");
    return *_aligner;
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

/** Close a single-end run: fold the session's run-level outcome into
 *  the result and check the output stream and the ledger. */
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

} // namespace

StatusOr<PipelineResult>
alignToSam(const std::vector<FastaRecord> &ref,
           const std::vector<FastqRecord> &reads, std::ostream &out,
           const PipelineOptions &opts)
{
    GENAX_TRY_ASSIGN(const auto session, AlignSession::open(ref, opts));
    PipelineResult res;
    SamWriter sam(out, session->samHeader());
    alignBatch(*session, sam, reads, res);
    session->finish();
    return closeRun(*session, sam, static_cast<bool>(out),
                    std::move(res));
}

StatusOr<PipelineResult>
alignStreamToSam(const std::vector<FastaRecord> &ref,
                 FastqReader &reads, std::ostream &out,
                 const PipelineOptions &opts)
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
    BoundedQueue<StatusOr<std::vector<FastqRecord>>> parsed(1);
    std::thread reader_thread;
    if (!inline_io) {
        reader_thread = std::thread([&] {
            for (;;) {
                auto batch = reads.nextBatch(batch_size);
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
        StatusOr<std::vector<FastqRecord>> next{
            std::vector<FastqRecord>{}};
        if (inline_io) {
            next = reads.nextBatch(batch_size);
        } else {
            auto popped = parsed.pop();
            if (!popped)
                break;
            next = std::move(*popped);
        }
        if (!next.ok()) {
            failure = next.status();
            break;
        }
        const std::vector<FastqRecord> batch =
            std::move(next).value();
        if (batch.empty())
            break;
        alignBatch(*session, sam, batch, res);
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

namespace {

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

} // namespace

StatusOr<PipelineResult>
alignPairsToSam(const std::vector<FastaRecord> &ref,
                const std::vector<FastqRecord> &reads1,
                const std::vector<FastqRecord> &reads2,
                std::ostream &out, const PipelineOptions &opts)
{
    if (reads1.size() != reads2.size()) {
        return invalidInputError(
            "mate files differ in read count: " +
            std::to_string(reads1.size()) + " vs " +
            std::to_string(reads2.size()) +
            " (skipped malformed records can desynchronize mates)");
    }
    // Pairing runs on the software engine only and never reads a
    // snapshot.
    EngineOptions sw = opts;
    sw.engine = EngineOptions::Engine::Software;
    sw.indexSnapshot.clear();
    GENAX_TRY_ASSIGN(const auto session, AlignSession::open(ref, sw));
    const ContigMap &contigs = session->contigs();
    const PairedAligner paired(session->softwareEngine());

    PipelineResult res;
    res.reads = reads1.size() * 2;
    SamWriter sam(out, session->samHeader());

    const auto t0 = std::chrono::steady_clock::now();
    for (size_t i = 0; i < reads1.size(); ++i) {
        // A pipeline.read fault fails the whole template: both mates
        // are emitted as unmapped placeholders and counted Failed.
        if (faultFires(fault::kPipelineRead)) [[unlikely]] {
            res.failed += 2;
            SamRecord r1 = pipelineUnmappedRecord(reads1[i]);
            r1.flag |= kSamPaired | kSamRead1 | kSamMateUnmapped;
            SamRecord r2 = pipelineUnmappedRecord(reads2[i]);
            r2.flag |= kSamPaired | kSamRead2 | kSamMateUnmapped;
            sam.write(r1);
            sam.write(r2);
            continue;
        }
        PairMapping pm = paired.alignPair(reads1[i].seq, reads2[i].seq);
        // Pairing works in concatenated coordinates; a pair whose
        // mates land on different contigs is not a proper pair.
        if (pm.proper &&
            contigs.locate(pm.r1.pos).first !=
                contigs.locate(pm.r2.pos).first) {
            pm.proper = false;
            pm.templateLen = 0;
        }
        res.mapped += pm.r1.mapped + pm.r2.mapped;
        res.unmapped += !pm.r1.mapped + !pm.r2.mapped;
        sam.write(pairedRecord(contigs, reads1[i], pm.r1, pm.r2, pm,
                               true));
        sam.write(pairedRecord(contigs, reads2[i], pm.r2, pm.r1, pm,
                               false));
    }
    const auto t1 = std::chrono::steady_clock::now();
    res.seconds = std::chrono::duration<double>(t1 - t0).count();
    if (!out)
        return ioError("failed writing SAM output after " +
                       std::to_string(sam.count()) + " records");
    GENAX_CHECK(res.ledgerBalanced(),
                "paired pipeline ledger out of balance: ", res.mapped,
                "+", res.unmapped, "+", res.skippedMalformed, "+",
                res.degraded, "+", res.failed, " != ", res.reads);
    return res;
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

/** Fold the input parse stats into a finished run's ledger. */
void
recordInputs(const ReaderStats &ref_stats,
             const ReaderStats &read_stats, PipelineResult &res)
{
    res.refInput = ref_stats;
    res.readInput = read_stats;
    res.skippedMalformed = read_stats.malformed;
    res.reads += res.skippedMalformed;
}

} // namespace

StatusOr<PipelineResult>
alignPairFiles(const std::string &ref_fasta,
               const std::string &reads1_fastq,
               const std::string &reads2_fastq,
               const std::string &out_sam, const PipelineOptions &opts)
{
    ReaderOptions ropts;
    ropts.maxMalformed = opts.maxMalformed;
    ReaderStats ref_stats, read1_stats, read2_stats;
    GENAX_TRY_ASSIGN(const auto ref,
                     readFastaFile(ref_fasta, ropts, &ref_stats));
    GENAX_TRY_ASSIGN(const auto reads1,
                     readFastqFile(reads1_fastq, ropts, &read1_stats));
    GENAX_TRY_ASSIGN(const auto reads2,
                     readFastqFile(reads2_fastq, ropts, &read2_stats));
    GENAX_TRY_ASSIGN(PipelineResult res,
                     writeSamFile(out_sam, [&](std::ostream &out) {
                         return alignPairsToSam(ref, reads1, reads2,
                                                out, opts);
                     }));
    ReaderStats read_stats = read1_stats;
    read_stats.records += read2_stats.records;
    read_stats.malformed += read2_stats.malformed;
    read_stats.errors.insert(read_stats.errors.end(),
                             read2_stats.errors.begin(),
                             read2_stats.errors.end());
    recordInputs(ref_stats, read_stats, res);
    return res;
}

StatusOr<PipelineResult>
alignFiles(const std::string &ref_fasta, const std::string &reads_fastq,
           const std::string &out_sam, const PipelineOptions &opts)
{
    ReaderOptions ropts;
    ropts.maxMalformed = opts.maxMalformed;
    ReaderStats ref_stats, read_stats;
    GENAX_TRY_ASSIGN(const auto ref,
                     readFastaFile(ref_fasta, ropts, &ref_stats));

    // Streaming opens a reader; otherwise the whole read file is
    // parsed before the SAM file is opened.
    std::ifstream in;
    std::optional<FastqReader> reader;
    std::vector<FastqRecord> reads;
    if (opts.batchReads > 0) {
        in.open(reads_fastq);
        if (!in)
            return ioErrorFromErrno("cannot open FASTQ file",
                                    reads_fastq);
        reader.emplace(in, ropts);
    } else {
        GENAX_TRY_ASSIGN(reads,
                         readFastqFile(reads_fastq, ropts, &read_stats));
    }
    GENAX_TRY_ASSIGN(PipelineResult res,
                     writeSamFile(out_sam, [&](std::ostream &out) {
                         return reader ? alignStreamToSam(ref, *reader,
                                                          out, opts)
                                       : alignToSam(ref, reads, out,
                                                    opts);
                     }));
    recordInputs(ref_stats, reader ? reader->stats() : read_stats, res);
    return res;
}

} // namespace genax
