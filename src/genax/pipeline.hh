/**
 * @file
 * File-to-file alignment pipeline: FASTA reference + FASTQ reads in,
 * SAM out — the driver behind the genax_align command-line tool.
 *
 * Multi-contig references are concatenated into one coordinate space
 * with a contig map so SAM records carry per-contig names and
 * positions. Two engines are selectable: the GenAx accelerator model
 * and the BWA-MEM-like software baseline. Every front end, the
 * serving layer's included, opens one AlignSession for the setup a
 * run does once.
 */

#ifndef GENAX_GENAX_PIPELINE_HH
#define GENAX_GENAX_PIPELINE_HH

#include <iosfwd>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "align/mapping.hh"
#include "genax/system.hh"
#include "io/fasta.hh"
#include "io/fastq.hh"
#include "io/sam.hh"
#include "seed/index_snapshot.hh"
#include "swbase/bwamem_like.hh"

namespace genax {

/** Concatenated multi-contig reference with coordinate mapping. */
class ContigMap
{
  public:
    explicit ContigMap(const std::vector<FastaRecord> &contigs);

    const Seq &sequence() const { return _seq; }

    /** Contig descriptors for the SAM header. */
    struct Contig
    {
        std::string name;
        u64 start;
        u64 length;
    };
    const std::vector<Contig> &contigs() const { return _contigs; }

    /**
     * Map a concatenated-space position to (contig index, local
     * position). Positions in the inter-contig padding map to the
     * preceding contig's end.
     */
    std::pair<size_t, u64> locate(u64 pos) const;

  private:
    Seq _seq;
    std::vector<Contig> _contigs;
};

/**
 * Unmapped placeholder SAM record for a read the pipeline could not
 * align (failed admission, or an engine that produced no mapping).
 * This is the exact record alignToSam emits, exposed so the serving
 * layer's per-connection output stays byte-identical to an offline
 * run.
 */
SamRecord pipelineUnmappedRecord(const FastqRecord &read);

/**
 * SAM record for an admitted read and its mapping — the one
 * formatting path shared by the offline pipeline and the serving
 * layer. Orientation, contig translation, CIGAR text, score and
 * quality handling all live here, so "same read, same reference,
 * same config" produces the same SAM bytes no matter which front end
 * asked.
 */
SamRecord pipelineSamRecord(const ContigMap &contigs,
                            const FastqRecord &read, const Mapping &m);

/**
 * Outcome of the snapshot attach policy (see attachIndexSnapshot).
 * When `snapshot` is engaged the attachment must outlive any
 * GenAxConfig it was applied to — the config holds a pointer into it.
 */
struct IndexAttachment
{
    std::optional<IndexSnapshot> snapshot;
    bool fromSnapshot = false; //!< indexes served from the file
    bool mapped = false;       //!< snapshot backing is the mmap path
    bool fallback = false;     //!< unusable; rebuild from the FASTA
    std::string note;          //!< human-readable outcome
};

/**
 * Snapshot attach policy, shared by the offline pipeline and the
 * load-once daemon. Opens `path` and decides how a run gets its
 * per-segment indexes:
 *
 *  - fingerprint mismatch against the parsed reference → hard error
 *    (a snapshot must never be applied to the wrong reference);
 *  - corruption or IO trouble opening it → degrade to the
 *    rebuild-from-FASTA path (`fallback` set, note recorded);
 *  - otherwise the attachment carries the opened snapshot.
 */
StatusOr<IndexAttachment> attachIndexSnapshot(const std::string &path,
                                              const Seq &refseq);

/** Apply an attachment to a GenAx config: the snapshot's build
 *  parameters are authoritative and the engine serves segment
 *  indexes from it. A snapshot-less attachment is a no-op. */
void applyIndexAttachment(GenAxConfig &cfg,
                          const IndexAttachment &att);

/**
 * Engine configuration shared by every front end: the offline
 * pipeline (PipelineOptions extends it) and the load-once daemon
 * (ServiceConfig names it).
 */
struct EngineOptions
{
    enum class Engine
    {
        GenAx,    //!< accelerator model
        Software, //!< BWA-MEM-like CPU baseline
    };
    Engine engine = Engine::GenAx;
    u32 k = 12;
    u32 band = 40;         //!< edit bound / extension band
    u64 segments = 8;      //!< GenAx engine only
    u64 segmentOverlap = 256;
    /** Host worker threads for either engine; 0 = all hardware
     *  threads. Output and modelled results are identical at any
     *  width. */
    unsigned threads = 1;
    /**
     * Optional path to a pre-built index snapshot (genax_index).
     * When set, the GenAx engine serves each segment's seeding index
     * zero-copy from the snapshot instead of rebuilding it per
     * batch, and the snapshot's k / segment count / overlap override
     * the fields above so the output matches the build. The
     * snapshot's reference fingerprint must match the parsed FASTA —
     * a mismatch fails the run (a snapshot is never applied to the
     * wrong reference). A corrupt or unreadable snapshot degrades to
     * the rebuild-from-FASTA path and is recorded in
     * PipelineResult::indexFallback / indexNote. SAM bytes, the
     * ledger and the modelled perf report are identical with or
     * without a matching snapshot.
     */
    std::string indexSnapshot;
};

/** Offline pipeline configuration. */
struct PipelineOptions : EngineOptions
{
    /** Malformed input records tolerated (skipped and counted) per
     *  input file before the run fails with InvalidInput. */
    u64 maxMalformed = 1000;
    /**
     * Streaming batch size in reads for alignFiles(); 0 parses the
     * whole read file before the SAM file is opened and aligns it as
     * one batch. With batching, parsing, alignment and SAM emission
     * overlap on separate threads and peak host memory is O(batch)
     * instead of O(dataset). SAM bytes, the outcome ledger, the
     * modelled perf report and armed fault replay are identical at
     * any batch size and thread count (see DESIGN.md "Memory &
     * streaming"). In paired mode a batch is N templates (2N
     * reads). alignToSam() and alignPairsToSam() take pre-parsed
     * reads.
     */
    u64 batchReads = 0;
};

/**
 * Everything one alignment run does once, shared by every front end
 * (the single-end and paired offline drivers and the serving
 * layer's AlignService):
 *
 *  - validate the reference and build its ContigMap;
 *  - run the snapshot attach policy (attachIndexSnapshot);
 *  - decide the software fallback (a band beyond the SillaX edit
 *    bound runs on the software engine, reported as degraded);
 *  - construct the engine and open its stream.
 *
 * align() (best mapping per read) or candidates() (per-read
 * candidate lists, for paired mode) then takes successive batches of
 * one read stream; the session keys each batch with the count of
 * reads it aligned before, so results and fault replay are identical
 * at any batch split. finish() closes the stream and publishes the
 * modelled report.
 *
 * Not movable: the engines hold references into the session's
 * ContigMap and snapshot attachment. Single-owner, like the engine
 * stream it wraps.
 */
class AlignSession
{
  public:
    /** Validation failures are InvalidInput; snapshot trouble
     *  follows attachIndexSnapshot(). */
    static StatusOr<std::unique_ptr<AlignSession>>
    open(const std::vector<FastaRecord> &ref, const EngineOptions &opts);

    AlignSession(const AlignSession &) = delete;
    AlignSession &operator=(const AlignSession &) = delete;

    /** One batch's engine results, parallel to its reads. */
    struct Aligned
    {
        std::vector<Mapping> maps;
        std::vector<u8> degraded; //!< mapped via a fallback path
    };

    /** Align the next batch of the stream. */
    Aligned align(const std::vector<Seq> &seqs);

    /** One batch's candidate lists (distinct placements, descending
     *  score, MAPQ unset), parallel to its reads. */
    struct Candidates
    {
        std::vector<std::vector<Mapping>> lists;
        std::vector<u8> degraded; //!< found via a fallback path
    };

    /** Candidate form of align(): same stream, same read keys. */
    Candidates candidates(const std::vector<Seq> &seqs, u32 max_per_read);

    /** Close the engine stream (idempotent). */
    void finish();

    const ContigMap &contigs() const { return _contigs; }
    /** The SAM header's reference list. */
    const std::vector<SamRefSeq> &samHeader() const { return _header; }
    const IndexAttachment &indexAttachment() const { return _attach; }
    /** The whole run degraded from GenAx to the software engine. */
    bool softwareFallback() const { return _softwareFallback; }
    /** Reads aligned so far. */
    u64 readsAligned() const { return _base; }
    /** Engine wall-clock: construction, batches and finish(). */
    double seconds() const { return _seconds; }
    /** Modelled report and host profile (GenAx engine, after
     *  finish()). */
    const GenAxPerf &perf() const { return _perf; }
    const GenAxHostProfile &hostProfile() const { return _hostProfile; }

  private:
    explicit AlignSession(const std::vector<FastaRecord> &ref);

    template <typename Fn>
    void timed(Fn &&fn);

    const ContigMap _contigs;
    std::vector<SamRefSeq> _header;
    IndexAttachment _attach; //!< backs the GenAx config's snapshot
    bool _softwareFallback = false;
    std::optional<GenAxSystem> _system; //!< GenAx engine
    std::optional<BwaMemLike> _aligner; //!< software engine
    u64 _base = 0;
    bool _finished = false;
    double _seconds = 0;
    GenAxPerf _perf;
    GenAxHostProfile _hostProfile;
};

/**
 * Summary of one pipeline run.
 *
 * The per-read outcome ledger is disjoint: every read encountered in
 * the input lands in exactly one of mapped / unmapped /
 * skippedMalformed / degraded / failed, so the categories sum back to
 * `reads`.
 */
struct PipelineResult
{
    u64 reads = 0;   //!< reads encountered, including skipped ones
    u64 mapped = 0;  //!< aligned entirely on the configured engine
    u64 unmapped = 0;
    u64 skippedMalformed = 0; //!< unparseable records skipped by IO
    u64 degraded = 0; //!< mapped, but via a fallback path
    u64 failed = 0;   //!< lost to an unrecoverable per-read fault
    /** The whole run fell back from GenAx to the software engine
     *  (e.g. the requested band exceeds the SillaX edit bound). */
    bool softwareFallback = false;
    double seconds = 0;  //!< wall-clock of the alignment phase
    GenAxPerf perf;      //!< populated for the GenAx engine
    /** Host wall-clock per model phase (GenAx engine only) —
     *  profiling output, not part of the modelled report or any
     *  determinism contract. */
    GenAxHostProfile hostProfile;
    ReaderStats refInput;  //!< reference parse stats (file API only)
    ReaderStats readInput; //!< read parse stats (file API only)
    /** @name Index snapshot disposition (opts.indexSnapshot only) */
    ///@{
    bool indexFromSnapshot = false; //!< indexes served from the file
    bool indexMapped = false;  //!< snapshot backing is the mmap path
    bool indexFallback = false; //!< snapshot unusable; indexes were
                                //!< rebuilt from the FASTA reference
    std::string indexNote; //!< human-readable snapshot outcome
    ///@}

    /** Every read accounted for in exactly one category. */
    bool
    ledgerBalanced() const
    {
        return mapped + unmapped + skippedMalformed + degraded +
                   failed ==
               reads;
    }
};

/**
 * Align reads against a (possibly multi-contig) reference and write
 * SAM records to `out`. Recoverable failures (no usable reference,
 * SAM write failure) come back as a Status; per-read trouble is
 * absorbed into the result's outcome ledger instead.
 */
StatusOr<PipelineResult>
alignToSam(const std::vector<FastaRecord> &ref,
           const std::vector<FastqRecord> &reads, std::ostream &out,
           const PipelineOptions &opts);

/**
 * Streaming variant of alignToSam(): reads arrive through a
 * FastqReader and flow through the engine in batches of
 * opts.batchReads (0 = one unbounded batch). A reader thread
 * prefetches the next batch while the current one aligns, and an
 * in-order writer thread drains finished batches to `out`, so
 * parse / align / emit overlap. At one effective worker width the
 * stages instead run synchronously on the calling thread — no
 * overlap is possible there and the queue hand-offs are measurable
 * overhead — with byte-identical output and fault replay. A reader
 * failure (IO error, malformed budget exhausted) mid-run surfaces
 * after earlier batches' SAM records were already written.
 */
StatusOr<PipelineResult>
alignStreamToSam(const std::vector<FastaRecord> &ref,
                 FastqReader &reads, std::ostream &out,
                 const PipelineOptions &opts);

/** File-path convenience wrapper; IO failures surface as Status.
 *  Streams when opts.batchReads > 0; otherwise parses the whole
 *  read file first, so a read file that fails to parse creates no
 *  SAM file. */
StatusOr<PipelineResult> alignFiles(const std::string &ref_fasta,
                                    const std::string &reads_fastq,
                                    const std::string &out_sam,
                                    const PipelineOptions &opts);

/**
 * Paired-end alignment (FR libraries): r1/r2 records pair up by
 * index, and each pair must name the same template — the read name up
 * to its first space, less a trailing `/1` or `/2`. A name mismatch
 * (reported at the first mismatched template, before any count check)
 * or a mate-count mismatch is InvalidInput. Runs on either
 * engine: the mates go to it interleaved (r1_0, r2_0, r1_1, ...) for
 * per-read candidate lists, and resolvePair (swbase/paired.hh) picks
 * each template's placement downstream — pairing is a stage after
 * any single-end engine. Emits both mates with paired SAM flags,
 * mate coordinates and template length. A genax.pipeline.read fault
 * fails the whole template. One paired batch, as alignToSam() is one
 * single-end batch.
 */
StatusOr<PipelineResult>
alignPairsToSam(const std::vector<FastaRecord> &ref,
                const std::vector<FastqRecord> &reads1,
                const std::vector<FastqRecord> &reads2,
                std::ostream &out, const PipelineOptions &opts);

/**
 * Streaming variant of alignPairsToSam(): batches of
 * opts.batchReads templates from the two mate readers, on the same
 * reader / aligner / writer driver as alignStreamToSam(). SAM bytes,
 * the ledger, the modelled report and armed engine-fault replay are
 * identical at any batch size and thread count. A mate-name mismatch
 * is found in the batch that holds it, with the same status as the
 * load-all run; a mate-count mismatch at the first batch whose two
 * halves differ in size. Either fails the run as InvalidInput after
 * the earlier batches were written.
 */
StatusOr<PipelineResult>
alignPairStreamToSam(const std::vector<FastaRecord> &ref,
                     FastqReader &reads1, FastqReader &reads2,
                     std::ostream &out, const PipelineOptions &opts);

/** File-path convenience wrapper for paired-end mode; streams when
 *  opts.batchReads > 0, exactly as alignFiles() does. */
StatusOr<PipelineResult> alignPairFiles(const std::string &ref_fasta,
                                        const std::string &reads1_fastq,
                                        const std::string &reads2_fastq,
                                        const std::string &out_sam,
                                        const PipelineOptions &opts);

} // namespace genax

#endif // GENAX_GENAX_PIPELINE_HH
