/**
 * @file
 * Tests for the seeding accelerator: k-mer index, CAM model, SMEM
 * engine (with all optimization ablations) and genome segmentation.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstring>
#include <optional>
#include <set>
#include <string>

#include "common/faultinject.hh"
#include "common/rng.hh"
#include "readsim/refgen.hh"
#include "seed/cam.hh"
#include "seed/flat_kmer_index.hh"
#include "seed/kmer_index.hh"
#include "seed/segment.hh"
#include "seed/smem_engine.hh"

namespace genax {
namespace {

Seq
randomSeq(Rng &rng, size_t len)
{
    Seq s;
    s.reserve(len);
    for (size_t i = 0; i < len; ++i)
        s.push_back(static_cast<Base>(rng.below(4)));
    return s;
}

/** All positions where `pat` occurs in `ref` (brute force). */
std::vector<u32>
occurrences(const Seq &ref, const Seq &pat)
{
    std::vector<u32> out;
    if (pat.empty() || pat.size() > ref.size())
        return out;
    for (size_t r = 0; r + pat.size() <= ref.size(); ++r) {
        if (std::equal(pat.begin(), pat.end(), ref.begin() + r))
            out.push_back(static_cast<u32>(r));
    }
    return out;
}

/** Longest L >= 0 such that read[p, p+L) occurs somewhere in ref. */
u32
maxExtension(const Seq &ref, const Seq &read, u32 pivot)
{
    u32 best = 0;
    for (size_t r = 0; r < ref.size(); ++r) {
        u32 l = 0;
        while (pivot + l < read.size() && r + l < ref.size() &&
               read[pivot + l] == ref[r + l]) {
            ++l;
        }
        best = std::max(best, l);
    }
    return best;
}

// --------------------------------------------------------- KmerIndex

class KmerIndexTest : public ::testing::TestWithParam<u32>
{};

TEST_P(KmerIndexTest, LookupMatchesBruteForce)
{
    const u32 k = GetParam();
    Rng rng(700 + k);
    const Seq ref = randomSeq(rng, 3000);
    KmerIndex index(ref, k);
    for (int t = 0; t < 60; ++t) {
        const size_t pos = rng.below(ref.size() - k + 1);
        const Seq pat(ref.begin() + static_cast<i64>(pos),
                      ref.begin() + static_cast<i64>(pos + k));
        const auto hits = index.lookup(index.packKmer(pat, 0));
        const auto expect = occurrences(ref, pat);
        ASSERT_EQ(hits.size(), expect.size()) << "k=" << k;
        EXPECT_TRUE(std::equal(hits.begin(), hits.end(), expect.begin()));
    }
}

INSTANTIATE_TEST_SUITE_P(Ks, KmerIndexTest,
                         ::testing::Values(3u, 6u, 9u, 12u));

TEST(KmerIndex, AbsentKmerHasNoHits)
{
    // A reference of all-A cannot contain any k-mer with a C.
    const Seq ref(500, kBaseA);
    KmerIndex index(ref, 8);
    const Seq pat = encode("AAAACAAA");
    EXPECT_TRUE(index.lookup(index.packKmer(pat, 0)).empty());
    // And the all-A k-mer hits every position.
    EXPECT_EQ(index.lookup(0).size(), 500u - 8 + 1);
    EXPECT_EQ(index.maxHitListSize(), 493u);
}

TEST(KmerIndex, PositionsAreSorted)
{
    Rng rng(701);
    const Seq ref = randomSeq(rng, 5000);
    KmerIndex index(ref, 5);
    for (u64 key = 0; key < (1u << 10); ++key) {
        const auto hits = index.lookup(key);
        EXPECT_TRUE(std::is_sorted(hits.begin(), hits.end()));
    }
}

TEST(KmerIndex, ShortReferenceHandled)
{
    const Seq ref = encode("ACG");
    KmerIndex index(ref, 8);
    EXPECT_TRUE(index.lookup(0).empty());
    EXPECT_EQ(index.positionTableBytes(), 0u);
}

TEST(KmerIndex, TableFootprints)
{
    Rng rng(702);
    const Seq ref = randomSeq(rng, 10000);
    KmerIndex index(ref, 10);
    EXPECT_EQ(index.indexTableBytes(), (u64{1} << 20) * 3);
    EXPECT_EQ(index.positionTableBytes(), (10000u - 10 + 1) * 3);
}

// ------------------------------------------------------ FlatKmerIndex
//
// The open-addressing layout must be observationally identical to the
// dense CSR layout: same hit lists (contents and order) for every key,
// same CAM-sizing and footprint metadata. These diffs are what lets
// the rest of the system switch layouts behind the SeedIndex alias.

class FlatKmerIndexTest : public ::testing::TestWithParam<u32>
{};

TEST_P(FlatKmerIndexTest, ExhaustivelyMatchesDenseLayout)
{
    const u32 k = GetParam();
    Rng rng(750 + k);
    const Seq ref = randomSeq(rng, 4000);
    const KmerIndex dense(ref, k);
    const FlatKmerIndex flat(ref, k);

    EXPECT_EQ(flat.k(), dense.k());
    EXPECT_EQ(flat.segmentLength(), dense.segmentLength());
    EXPECT_EQ(flat.maxHitListSize(), dense.maxHitListSize());

    u64 distinct = 0;
    for (u64 key = 0; key < (u64{1} << (2 * k)); ++key) {
        const auto d = dense.lookup(key);
        const auto f = flat.lookup(key);
        ASSERT_EQ(f.size(), d.size()) << "key=" << key << " k=" << k;
        ASSERT_TRUE(std::equal(f.begin(), f.end(), d.begin()))
            << "key=" << key << " k=" << k;
        ASSERT_EQ(flat.lookupCount(key), d.size()) << "key=" << key;
        distinct += d.empty() ? 0 : 1;
    }
    EXPECT_EQ(flat.distinctKmers(), distinct);
}

INSTANTIATE_TEST_SUITE_P(Ks, FlatKmerIndexTest,
                         ::testing::Values(3u, 5u, 7u));

TEST(FlatKmerIndex, SampledMatchAtPaperK)
{
    // k = 12 is too wide to sweep exhaustively; diff every k-mer that
    // actually occurs plus a sample of absent keys.
    Rng rng(760);
    const Seq ref = randomSeq(rng, 20000);
    const u32 k = 12;
    const KmerIndex dense(ref, k);
    const FlatKmerIndex flat(ref, k);
    for (size_t pos = 0; pos + k <= ref.size(); ++pos) {
        const u64 key = flat.packKmer(ref, pos);
        const auto d = dense.lookup(key);
        const auto f = flat.lookup(key);
        ASSERT_EQ(f.size(), d.size()) << "pos=" << pos;
        ASSERT_TRUE(std::equal(f.begin(), f.end(), d.begin()));
    }
    for (u64 key = 1; key < (u64{1} << 24); key += 65537) {
        const auto d = dense.lookup(key);
        const auto f = flat.lookup(key);
        ASSERT_EQ(f.size(), d.size()) << "key=" << key;
        ASSERT_TRUE(std::equal(f.begin(), f.end(), d.begin()));
    }
}

TEST(FlatKmerIndex, HardwareFootprintsModelTheDenseTables)
{
    Rng rng(761);
    const Seq ref = randomSeq(rng, 10000);
    const KmerIndex dense(ref, 10);
    const FlatKmerIndex flat(ref, 10);
    // Table II's streaming model must not change with the host layout.
    EXPECT_EQ(flat.indexTableBytes(), dense.indexTableBytes());
    EXPECT_EQ(flat.positionTableBytes(), dense.positionTableBytes());
    // ...but the actual host memory is far smaller than 4^k entries.
    EXPECT_LT(flat.hostBytes(), dense.hostBytes());
}

TEST(FlatKmerIndex, ProbeLengthsAreSane)
{
    Rng rng(762);
    const Seq ref = randomSeq(rng, 8000);
    const FlatKmerIndex flat(ref, 9);
    u64 total = 0, lookups = 0;
    for (size_t pos = 0; pos + 9 <= ref.size(); pos += 7) {
        const u32 p = flat.probeLength(flat.packKmer(ref, pos));
        ASSERT_GE(p, 1u);
        total += p;
        ++lookups;
    }
    // <= 50% load keeps linear probing short: average well under 2.
    EXPECT_LT(static_cast<double>(total) / lookups, 2.0);
}

TEST(FlatKmerIndex, ShortReferenceHandled)
{
    const Seq ref = encode("ACG");
    const FlatKmerIndex flat(ref, 8);
    EXPECT_TRUE(flat.lookup(0).empty());
    EXPECT_EQ(flat.lookupCount(0), 0u);
    EXPECT_EQ(flat.distinctKmers(), 0u);
    EXPECT_EQ(flat.positionTableBytes(), 0u);
}

// The serial two-pass build the parallel sort-based build replaced,
// kept here only as the oracle: pass 1 upserts every k-mer's count in
// position order (so keys enter the table in first-occurrence order),
// extents are assigned in ascending key order, and pass 2 fills the
// postings in position order.
struct SerialFlatTables
{
    std::vector<FlatKmerIndex::Entry> table;
    std::vector<u32> positions;
    u64 distinct = 0;
    u32 maxHits = 0;
    std::vector<u64> filter;
};

u64
serialSlotOf(u64 key, u64 mask)
{
    u64 h = key + kFlatIndexHashSeed;
    h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;
    h = (h ^ (h >> 27)) * 0x94d049bb133111ebULL;
    return (h ^ (h >> 31)) & mask;
}

SerialFlatTables
serialFlatBuild(const Seq &ref, u32 k)
{
    using Entry = FlatKmerIndex::Entry;
    SerialFlatTables o;
    if (ref.size() < k) {
        o.table.assign(2, Entry{});
        o.filter = FlatKmerIndex::presenceFilterFor(0, k);
        return o;
    }
    const u64 kmers = ref.size() - k + 1;
    const u64 slots = std::bit_ceil(std::max<u64>(16, 2 * kmers));
    const u64 mask = slots - 1;
    o.table.assign(slots, Entry{});
    const auto key_at = [&](u64 p) {
        u64 key = 0;
        for (u32 i = 0; i < k; ++i)
            key |= static_cast<u64>(ref[p + i] & 3) << (2 * i);
        return key;
    };
    for (u64 p = 0; p < kmers; ++p) {
        const u64 key = key_at(p);
        u64 slot = serialSlotOf(key, mask);
        for (;;) {
            Entry &e = o.table[slot];
            if (e.key == key) {
                ++e.count;
                break;
            }
            if (e.key == FlatKmerIndex::kEmptyKey) {
                e = Entry{key, 0, 1};
                ++o.distinct;
                break;
            }
            slot = (slot + 1) & mask;
        }
    }
    o.filter = FlatKmerIndex::presenceFilterFor(o.distinct, k);
    std::vector<u64> occupied;
    for (u64 s = 0; s < slots; ++s) {
        if (o.table[s].key == FlatKmerIndex::kEmptyKey)
            continue;
        occupied.push_back(o.table[s].key << 32 | s);
        if (!o.filter.empty())
            FlatKmerIndex::presenceFilterAdd(o.filter, o.table[s].key);
    }
    std::sort(occupied.begin(), occupied.end());
    u32 offset = 0;
    for (const u64 packed : occupied) {
        Entry &e = o.table[static_cast<u32>(packed)];
        e.offset = offset;
        offset += e.count;
        o.maxHits = std::max(o.maxHits, e.count);
        e.count = 0;
    }
    o.positions.assign(kmers, 0);
    for (u64 p = 0; p < kmers; ++p) {
        const u64 key = key_at(p);
        u64 slot = serialSlotOf(key, mask);
        while (o.table[slot].key != key)
            slot = (slot + 1) & mask;
        Entry &e = o.table[slot];
        o.positions[e.offset + e.count++] = static_cast<u32>(p);
    }
    return o;
}

void
expectSameTables(const FlatKmerIndex &got, const SerialFlatTables &want,
                 const std::string &what)
{
    const auto table = got.tableSpan();
    ASSERT_EQ(table.size(), want.table.size()) << what;
    EXPECT_EQ(std::memcmp(table.data(), want.table.data(),
                          table.size_bytes()),
              0)
        << what;
    const auto positions = got.positionsSpan();
    EXPECT_TRUE(std::equal(positions.begin(), positions.end(),
                           want.positions.begin(), want.positions.end()))
        << what;
    EXPECT_EQ(got.distinctKmers(), want.distinct) << what;
    EXPECT_EQ(got.maxHitListSize(), want.maxHits) << what;
    const auto filter = got.presenceFilterSpan();
    EXPECT_TRUE(std::equal(filter.begin(), filter.end(),
                           want.filter.begin(), want.filter.end()))
        << what;
}

TEST(FlatKmerIndex, ParallelBuildMatchesSerialReference)
{
    struct Case
    {
        std::string name;
        Seq ref;
        u32 k;
    };
    std::vector<Case> cases;
    Rng rng(764);
    cases.push_back({"shorter than k", encode("ACGTACG"), 8});
    cases.push_back({"k = 1", randomSeq(rng, 100000), 1});
    cases.push_back({"k = 13", randomSeq(rng, 200000), 13});
    cases.push_back({"all-A homopolymer", Seq(100000, kBaseA), 12});
    RefGenConfig repeats; // 5 % of the genome is repeat copies
    repeats.length = 1 << 20;
    repeats.seed = 765;
    cases.push_back({"repeat genome", generateReference(repeats), 12});
    // 100,003 k-mers split into 4 * width chunks leaves a short last
    // chunk at every width above 1.
    cases.push_back({"odd length", randomSeq(rng, 100014), 12});
    RefGenConfig segment;
    segment.length = 512 * 1024;
    segment.seed = 766;
    cases.push_back({"selective segment", generateReference(segment), 12});

    for (const Case &c : cases) {
        const SerialFlatTables want = serialFlatBuild(c.ref, c.k);
        if (c.name == "selective segment") {
            ASSERT_FALSE(want.filter.empty());
        }
        if (c.name == "all-A homopolymer") {
            ASSERT_EQ(want.distinct, 1u);
        }
        for (const unsigned width : {1u, 2u, 3u, 4u, 7u, 0u}) {
            const FlatKmerIndex got(c.ref, c.k, width);
            expectSameTables(got, want,
                             c.name + " at width " +
                                 std::to_string(width));
        }
    }
}

// --------------------------------------------------------------- CAM

TEST(CamModel, IntersectionCorrectWithNormalization)
{
    CamModel cam(512);
    const std::vector<u32> cand{5, 10, 20, 100};
    const std::vector<u32> hits{2, 13, 23, 95, 103, 200};
    // offset 3: normalized hits {10, 20, 92, 100, 197} and 2 dropped.
    const auto out = cam.intersect(cand, hits, 3);
    EXPECT_EQ(out, (std::vector<u32>{10, 20, 100}));
}

TEST(CamModel, EmptyInputs)
{
    CamModel cam(512);
    EXPECT_TRUE(cam.intersect({}, std::vector<u32>{1, 2}, 0).empty());
    EXPECT_TRUE(cam.intersect({1, 2}, std::vector<u32>{}, 0).empty());
}

TEST(CamModel, RandomizedAgainstSetIntersection)
{
    Rng rng(710);
    CamModel cam(512);
    for (int t = 0; t < 50; ++t) {
        std::set<u32> a, b;
        for (int i = 0; i < 60; ++i)
            a.insert(static_cast<u32>(rng.below(500)));
        for (int i = 0; i < 60; ++i)
            b.insert(static_cast<u32>(rng.below(500)));
        const u32 off = static_cast<u32>(rng.below(20));
        std::vector<u32> cand(a.begin(), a.end());
        std::vector<u32> hits(b.begin(), b.end());
        std::vector<u32> expect;
        for (u32 h : hits)
            if (h >= off && a.count(h - off))
                expect.push_back(h - off);
        EXPECT_EQ(cam.intersect(cand, hits, off), expect);
    }
}

TEST(CamModel, CountsCamSearchesForSmallLists)
{
    CamModel cam(512);
    cam.intersect({1, 2, 3}, std::vector<u32>{1, 2, 3, 4, 5}, 0);
    EXPECT_EQ(cam.stats().loads, 5u);    // hit list into the CAM
    EXPECT_EQ(cam.stats().searches, 3u); // one per candidate
    EXPECT_EQ(cam.stats().binarySteps, 0u);
    EXPECT_EQ(cam.stats().overflowFallbacks, 0u);
}

TEST(CamModel, BinaryFallbackForOversizedLists)
{
    CamModel with_fallback(4, true);
    CamModel without_fallback(4, false);
    const std::vector<u32> cand{1, 2, 3};
    std::vector<u32> hits;
    for (u32 i = 0; i < 100; ++i)
        hits.push_back(i);
    const auto a = with_fallback.intersect(cand, hits, 0);
    const auto b = without_fallback.intersect(cand, hits, 0);
    EXPECT_EQ(a, b); // identical result, different cost path
    EXPECT_EQ(with_fallback.stats().searches, 0u);
    EXPECT_GT(with_fallback.stats().binarySteps, 0u);
    EXPECT_EQ(with_fallback.stats().overflowFallbacks, 1u);
    // 25 CAM refill passes, candidates re-streamed each pass.
    EXPECT_EQ(without_fallback.stats().searches, 25u * 3);
    // The fallback saves lookups: |cand| * log vs |hits|.
    EXPECT_LT(with_fallback.stats().lookups(),
              without_fallback.stats().lookups());
}

// -------------------------------------------------------- SMEM engine

TEST(SmemEngine, ExactReadFastPath)
{
    Rng rng(720);
    const Seq ref = randomSeq(rng, 20000);
    SeedIndex index(ref, 10);
    SmemEngine engine(index, {});
    const u32 pos = 4321, len = 101;
    const Seq read(ref.begin() + pos, ref.begin() + pos + len);
    const auto seeds = engine.seed(read);
    ASSERT_EQ(seeds.size(), 1u);
    EXPECT_EQ(seeds[0].qryBegin, 0u);
    EXPECT_EQ(seeds[0].qryEnd, len);
    ASSERT_FALSE(seeds[0].positions.empty());
    EXPECT_TRUE(std::find(seeds[0].positions.begin(),
                          seeds[0].positions.end(),
                          pos) != seeds[0].positions.end());
    EXPECT_EQ(engine.stats().exactMatchReads, 1u);
}

TEST(SmemEngine, ExactPositionsMatchBruteForce)
{
    Rng rng(721);
    // Force repeats so the exact read has multiple hits.
    Seq ref = randomSeq(rng, 5000);
    const Seq unit(ref.begin() + 100, ref.begin() + 400);
    for (int copy = 0; copy < 3; ++copy)
        ref.insert(ref.end(), unit.begin(), unit.end());
    SeedIndex index(ref, 10);
    SmemEngine engine(index, {});
    const Seq read(ref.begin() + 150, ref.begin() + 251);
    const auto seeds = engine.seed(read);
    ASSERT_EQ(seeds.size(), 1u);
    const auto expect_pos = occurrences(ref, read);
    ASSERT_EQ(seeds[0].positions.size(), expect_pos.size());
    EXPECT_TRUE(std::equal(seeds[0].positions.begin(),
                           seeds[0].positions.end(),
                           expect_pos.begin()));
}

/** Reference SMEM oracle matching the engine's reporting rule. */
std::vector<Smem>
smemOracle(const Seq &ref, const Seq &read, u32 k)
{
    std::vector<Smem> out;
    u32 max_end = 0;
    for (u32 pivot = 0; pivot + k <= read.size(); ++pivot) {
        const u32 ext = maxExtension(ref, read, pivot);
        if (ext < k)
            continue;
        const u32 end = pivot + ext;
        if (end <= max_end)
            continue;
        max_end = end;
        Smem s;
        s.qryBegin = pivot;
        s.qryEnd = end;
        const Seq pat(read.begin() + pivot, read.begin() + end);
        const auto occ = occurrences(ref, pat);
        s.positions.assign(occ.begin(), occ.end());
        out.push_back(std::move(s));
    }
    return out;
}

TEST(SmemEngine, MatchesOracleOnMutatedReads)
{
    Rng rng(722);
    const Seq ref = randomSeq(rng, 4000);
    SeedIndex index(ref, 8);
    SeedingConfig cfg;
    cfg.exactMatchFastPath = false; // exercise the pivot loop fully
    SmemEngine engine(index, cfg);
    for (int t = 0; t < 15; ++t) {
        const u32 pos = static_cast<u32>(rng.below(ref.size() - 120));
        Seq read(ref.begin() + pos, ref.begin() + pos + 101);
        // A couple of substitutions to split the read into SMEMs.
        for (int e = 0; e < 2; ++e) {
            const u64 p = rng.below(read.size());
            read[p] = static_cast<Base>((read[p] + 1 + rng.below(3)) & 3);
        }
        const auto got = engine.seed(read);
        const auto expect = smemOracle(ref, read, 8);
        ASSERT_EQ(got.size(), expect.size()) << "t=" << t;
        for (size_t i = 0; i < got.size(); ++i) {
            EXPECT_EQ(got[i].qryBegin, expect[i].qryBegin);
            EXPECT_EQ(got[i].qryEnd, expect[i].qryEnd);
            EXPECT_EQ(got[i].positions, expect[i].positions)
                << "smem " << i;
        }
    }
}

TEST(SmemEngine, OptimizationsPreserveResults)
{
    Rng rng(723);
    const Seq ref = randomSeq(rng, 4000);
    SeedIndex index(ref, 8);

    SeedingConfig base;
    base.exactMatchFastPath = false;
    base.probing = false;
    base.binarySearchFallback = false;

    for (int t = 0; t < 10; ++t) {
        const u32 pos = static_cast<u32>(rng.below(ref.size() - 120));
        Seq read(ref.begin() + pos, ref.begin() + pos + 101);
        for (int e = 0; e < 3; ++e) {
            const u64 p = rng.below(read.size());
            read[p] = static_cast<Base>((read[p] + 1 + rng.below(3)) & 3);
        }

        SmemEngine plain(index, base);
        const auto expect = plain.seed(read);

        for (int variant = 0; variant < 3; ++variant) {
            SeedingConfig cfg = base;
            if (variant == 0)
                cfg.probing = true;
            if (variant == 1)
                cfg.binarySearchFallback = true;
            if (variant == 2)
                cfg.exactMatchFastPath = true;
            SmemEngine opt(index, cfg);
            const auto got = opt.seed(read);
            ASSERT_EQ(got.size(), expect.size()) << "variant=" << variant;
            for (size_t i = 0; i < got.size(); ++i) {
                EXPECT_EQ(got[i].qryBegin, expect[i].qryBegin);
                EXPECT_EQ(got[i].qryEnd, expect[i].qryEnd);
                EXPECT_EQ(got[i].positions, expect[i].positions);
            }
        }
    }
}

TEST(SmemEngine, StrideRefinementLengthensSmems)
{
    Rng rng(724);
    const Seq ref = randomSeq(rng, 4000);
    SeedIndex index(ref, 8);
    SeedingConfig with, without;
    with.exactMatchFastPath = without.exactMatchFastPath = false;
    without.strideRefinement = false;

    bool strictly_longer_somewhere = false;
    for (int t = 0; t < 10; ++t) {
        const u32 pos = static_cast<u32>(rng.below(ref.size() - 120));
        Seq read(ref.begin() + pos, ref.begin() + pos + 101);
        const u64 p = 30 + rng.below(40);
        read[p] = static_cast<Base>((read[p] + 1 + rng.below(3)) & 3);

        SmemEngine a(index, with), b(index, without);
        const auto refined = a.seed(read);
        const auto coarse = b.seed(read);
        ASSERT_FALSE(refined.empty());
        ASSERT_FALSE(coarse.empty());
        // Both report the pivot-0 RMEM first; refinement can only
        // lengthen it.
        EXPECT_EQ(refined[0].qryBegin, 0u);
        EXPECT_EQ(coarse[0].qryBegin, 0u);
        EXPECT_GE(refined[0].length(), coarse[0].length());
        strictly_longer_somewhere |=
            refined[0].length() > coarse[0].length();
    }
    EXPECT_TRUE(strictly_longer_somewhere);
}

TEST(SmemEngine, SmemFilterReducesReportedHits)
{
    Rng rng(725);
    const Seq ref = randomSeq(rng, 4000);
    SeedIndex index(ref, 8);
    SeedingConfig filtered, raw;
    filtered.exactMatchFastPath = raw.exactMatchFastPath = false;
    raw.smemFilter = false;

    SmemEngine a(index, filtered), b(index, raw);
    for (int t = 0; t < 10; ++t) {
        const u32 pos = static_cast<u32>(rng.below(ref.size() - 120));
        const Seq read(ref.begin() + pos, ref.begin() + pos + 101);
        a.seed(read);
        b.seed(read);
    }
    EXPECT_LT(a.stats().hitsReported, b.stats().hitsReported);
    EXPECT_LT(a.stats().smems, b.stats().smems);
}

TEST(SmemEngine, BinaryFallbackCutsCamLookupsOnRepetitiveGenomes)
{
    // Poly-A stretches create the pathological hit lists the paper
    // calls out ("AA...A"); the binary fallback bounds the cost.
    Rng rng(726);
    Seq ref = randomSeq(rng, 2000);
    ref.insert(ref.end(), 40000, kBaseA);
    SeedIndex index(ref, 8);

    SeedingConfig with, without;
    with.exactMatchFastPath = without.exactMatchFastPath = false;
    without.binarySearchFallback = false;

    Seq read(101, kBaseA);
    read[50] = kBaseC; // not an exact match

    SmemEngine a(index, with), b(index, without);
    a.seed(read);
    b.seed(read);
    EXPECT_LT(a.stats().cam.lookups(), b.stats().cam.lookups());
}

TEST(SmemEngine, ShortReadProducesNoSeeds)
{
    Rng rng(727);
    const Seq ref = randomSeq(rng, 1000);
    SeedIndex index(ref, 12);
    SmemEngine engine(index, {});
    EXPECT_TRUE(engine.seed(encode("ACGTACG")).empty());
}

// ---------------------------------------------------- presence filter

/** Presence of every key of a reference at k (dense bitmap). */
std::vector<bool>
presentKeys(const FlatKmerIndex &index, const Seq &ref)
{
    std::vector<bool> present(u64{1} << (2 * index.k()), false);
    for (size_t pos = 0; pos + index.k() <= ref.size(); ++pos)
        present[index.packKmer(ref, pos)] = true;
    return present;
}

TEST(PresenceFilter, GenAxSegmentHasNoFalseNegativesAndFewPositives)
{
    // A 0.5 Mbp GenAx segment at the paper's k: selective, so the
    // owning constructor builds a 512 KB filter.
    Rng rng(770);
    const Seq ref = randomSeq(rng, 500000);
    const FlatKmerIndex index(ref, 12);
    ASSERT_TRUE(index.hasPresenceFilter());
    ASSERT_EQ(index.presenceFilterSpan().size_bytes(), 512u * 1024);

    const std::vector<bool> present = presentKeys(index, ref);
    u64 absent = 0, passed = 0;
    for (u64 key = 0; key < present.size(); ++key) {
        if (present[key]) {
            ASSERT_TRUE(index.mayContain(key)) << "key " << key;
        } else {
            ++absent;
            passed += index.mayContain(key) ? 1 : 0;
        }
    }
    // A pass-everything filter would score 1.0 here.
    const double fpr = static_cast<double>(passed) / absent;
    EXPECT_LE(fpr, 0.08) << passed << " of " << absent;
}

TEST(PresenceFilter, OnlySelectiveIndexesCarryOne)
{
    Rng rng(771);
    // 20 kbp at k = 8: ~17k of 65,536 keys present, 8 * distinct >
    // 4^k, so no filter — the whole-genome software index's case.
    const Seq dense_ref = randomSeq(rng, 20000);
    const FlatKmerIndex dense(dense_ref, 8);
    ASSERT_GT(8 * dense.distinctKmers(), u64{1} << 16);
    EXPECT_FALSE(dense.hasPresenceFilter());
    EXPECT_TRUE(dense.presenceFilterSpan().empty());
    for (u64 key = 0; key < (u64{1} << 16); key += 13)
        EXPECT_TRUE(dense.mayContain(key));

    // The dense CSR layout has the same interface and never rules a
    // key out.
    const KmerIndex csr(dense_ref, 8);
    EXPECT_FALSE(csr.hasPresenceFilter());
    for (u64 key = 0; key < (u64{1} << 16); key += 13)
        EXPECT_TRUE(csr.mayContain(key));

    // An empty index is trivially selective and rules out every key.
    const FlatKmerIndex empty(encode("ACG"), 8);
    EXPECT_EQ(empty.presenceFilterSpan().size(), 1u);
    EXPECT_FALSE(empty.mayContain(0));
}

TEST(PresenceFilter, CopiesOwnTheirFilter)
{
    Rng rng(772);
    const Seq ref = randomSeq(rng, 30000);
    std::optional<FlatKmerIndex> original(std::in_place, ref, 10);
    ASSERT_FALSE(original->presenceFilterSpan().empty());
    const std::vector<u64> words(original->presenceFilterSpan().begin(),
                                 original->presenceFilterSpan().end());
    const FlatKmerIndex copy = *original;
    original.reset(); // the copy must not alias the destroyed filter
    EXPECT_TRUE(std::equal(words.begin(), words.end(),
                           copy.presenceFilterSpan().begin(),
                           copy.presenceFilterSpan().end()));
    for (size_t pos = 0; pos + 10 <= ref.size(); pos += 17)
        EXPECT_TRUE(copy.mayContain(copy.packKmer(ref, pos)));
}

#if !defined(GENAX_KMER_INDEX_ORACLE)
// Under the dense-layout oracle SeedIndex is KmerIndex, which has no
// filter to difference against; the engine code is the same.

bool
sameSeeds(const std::vector<Smem> &a, const std::vector<Smem> &b)
{
    if (a.size() != b.size())
        return false;
    for (size_t i = 0; i < a.size(); ++i) {
        if (a[i].qryBegin != b[i].qryBegin ||
            a[i].qryEnd != b[i].qryEnd ||
            a[i].positions != b[i].positions)
            return false;
    }
    return true;
}

void
expectSameStats(const SeedingStats &a, const SeedingStats &b,
                const std::string &what)
{
    EXPECT_EQ(a.reads, b.reads) << what;
    EXPECT_EQ(a.exactMatchReads, b.exactMatchReads) << what;
    EXPECT_EQ(a.indexLookups, b.indexLookups) << what;
    EXPECT_EQ(a.smems, b.smems) << what;
    EXPECT_EQ(a.hitsReported, b.hitsReported) << what;
    EXPECT_EQ(a.cam.loads, b.cam.loads) << what;
    EXPECT_EQ(a.cam.searches, b.cam.searches) << what;
    EXPECT_EQ(a.cam.binarySteps, b.cam.binarySteps) << what;
    EXPECT_EQ(a.cam.overflowFallbacks, b.cam.overflowFallbacks)
        << what;
}

// The filtered index runs SmemEngine's filtered instantiation and a
// filter-less view of the same table the plain one, so this diffs the
// two seeding code paths.
TEST(PresenceFilter, SmemEngineIsIdenticalWithAndWithoutTheFilter)
{
    // A segment with repeats (a poly-A run and a tandem unit) so the
    // CAM overflow, binary-fallback and probing paths all fire.
    Rng rng(773);
    Seq ref = randomSeq(rng, 200000);
    ref.insert(ref.begin() + 50000, 800, kBaseA);
    const Seq unit(ref.begin() + 90000, ref.begin() + 90040);
    for (int copy = 0; copy < 80; ++copy)
        ref.insert(ref.begin() + 120000, unit.begin(), unit.end());
    const u32 k = 12;
    const FlatKmerIndex filtered(ref, k);
    ASSERT_TRUE(filtered.hasPresenceFilter());
    const FlatKmerIndex unfiltered = FlatKmerIndex::view(
        filtered.tableSpan(), filtered.positionsSpan(), k,
        filtered.segmentLength(), filtered.maxHitListSize(),
        filtered.distinctKmers());
    ASSERT_FALSE(unfiltered.hasPresenceFilter());

    // Reads from the segment (exact and with substitutions, some
    // across the repeats) and from elsewhere (mostly absent k-mers).
    std::vector<Seq> reads;
    for (int t = 0; t < 40; ++t) {
        const u64 pos = t < 4 ? 49950 + 40 * t
                              : rng.below(ref.size() - 101);
        Seq read(ref.begin() + pos, ref.begin() + pos + 101);
        for (int e = 0; e < t % 4; ++e) {
            const u64 p = rng.below(read.size());
            read[p] = static_cast<Base>((read[p] + 1 + rng.below(3)) & 3);
        }
        reads.push_back(std::move(read));
    }
    for (int t = 0; t < 20; ++t)
        reads.push_back(randomSeq(rng, 101));

    u64 ruled_out = 0;
    for (const Seq &read : reads)
        for (size_t p = 0; p + k <= read.size(); ++p)
            ruled_out += filtered.mayContain(filtered.packKmer(read, p))
                             ? 0
                             : 1;
    ASSERT_GT(ruled_out, 0u); // the filter path is really taken

    for (const bool armed : {false, true}) {
        for (u32 toggles = 0; toggles < 32; ++toggles) {
            SeedingConfig cfg;
            cfg.camSize = 32; // overflow on the repeats
            cfg.smemFilter = toggles & 1;
            cfg.strideRefinement = toggles & 2;
            cfg.probing = toggles & 4;
            cfg.exactMatchFastPath = toggles & 8;
            cfg.binarySearchFallback = toggles & 16;
            const std::string what = "toggles " +
                                     std::to_string(toggles) +
                                     (armed ? " overflow armed" : "");

            auto run = [&](const FlatKmerIndex &index) {
                // A fresh plan per run: both see the same ordinals.
                ScopedFaultPlan plan;
                if (armed)
                    FaultInjector::instance().arm(
                        fault::kCamOverflow, {.probability = 0.3});
                SmemEngine engine(index, cfg);
                std::vector<std::vector<Smem>> seeds;
                for (const Seq &read : reads) {
                    std::vector<Smem> got;
                    for (const Smem &s : engine.seed(read))
                        got.push_back(s); // detach from the arena
                    seeds.push_back(std::move(got));
                }
                return std::make_pair(seeds, engine.stats());
            };
            const auto [want_seeds, want_stats] = run(unfiltered);
            const auto [got_seeds, got_stats] = run(filtered);
            for (size_t r = 0; r < reads.size(); ++r)
                ASSERT_TRUE(sameSeeds(got_seeds[r], want_seeds[r]))
                    << what << " read " << r;
            expectSameStats(got_stats, want_stats, what);
            if (cfg.binarySearchFallback) {
                EXPECT_GT(got_stats.cam.overflowFallbacks, 0u)
                    << what;
            }
        }
    }
}
#endif

// ------------------------------------------------------------ segments

TEST(GenomeSegments, PartitionCoversGenomeWithOverlap)
{
    Rng rng(730);
    const Seq ref = randomSeq(rng, 100000);
    SegmentConfig cfg;
    cfg.segmentCount = 16;
    cfg.overlap = 100;
    cfg.k = 8;
    GenomeSegments segs(ref, cfg);
    ASSERT_EQ(segs.count(), 16u);
    // Contiguity: segment i+1 starts exactly base-length after i.
    EXPECT_EQ(segs.start(0), 0u);
    for (u64 i = 0; i + 1 < segs.count(); ++i)
        EXPECT_EQ(segs.start(i + 1) - segs.start(i), 6250u);
    // Every 101-window is fully inside some segment.
    for (u64 w = 0; w + 101 <= ref.size(); w += 997) {
        bool covered = false;
        for (u64 i = 0; i < segs.count(); ++i) {
            if (w >= segs.start(i) &&
                w + 101 <= segs.start(i) + segs.length(i)) {
                covered = true;
                break;
            }
        }
        EXPECT_TRUE(covered) << "window at " << w;
    }
}

TEST(GenomeSegments, SegmentBasesMatchReference)
{
    Rng rng(731);
    const Seq ref = randomSeq(rng, 50000);
    SegmentConfig cfg;
    cfg.segmentCount = 8;
    cfg.overlap = 128;
    GenomeSegments segs(ref, cfg);
    for (u64 i = 0; i < segs.count(); ++i) {
        const Seq seg = segs.bases(i);
        for (u64 j = 0; j < seg.size(); j += 199)
            EXPECT_EQ(seg[j], ref[segs.toGlobal(i, j)]);
    }
}

TEST(GenomeSegments, SeedingThroughSegmentsFindsGlobalPosition)
{
    Rng rng(732);
    const Seq ref = randomSeq(rng, 60000);
    SegmentConfig cfg;
    cfg.segmentCount = 8;
    cfg.overlap = 128;
    cfg.k = 10;
    GenomeSegments segs(ref, cfg);

    // A read sampled deep inside segment 5.
    const u64 pos = segs.start(5) + 1000;
    const Seq read(ref.begin() + static_cast<i64>(pos),
                   ref.begin() + static_cast<i64>(pos + 101));

    bool found = false;
    for (u64 i = 0; i < segs.count(); ++i) {
        const SeedIndex index = segs.buildSeedIndex(i);
        SmemEngine engine(index, {});
        for (const auto &smem : engine.seed(read)) {
            for (u32 local : smem.positions) {
                if (segs.toGlobal(i, local) ==
                    pos + smem.qryBegin) {
                    found = true;
                }
            }
        }
    }
    EXPECT_TRUE(found);
}

TEST(GenomeSegments, FootprintFormulas)
{
    Rng rng(733);
    const Seq ref = randomSeq(rng, 40000);
    SegmentConfig cfg;
    cfg.segmentCount = 4;
    cfg.overlap = 100;
    cfg.k = 9;
    GenomeSegments segs(ref, cfg);
    EXPECT_EQ(segs.indexTableBytes(), (u64{1} << 18) * 3);
    const KmerIndex idx = segs.buildIndex(1);
    EXPECT_EQ(segs.positionTableBytes(1), idx.positionTableBytes());
    EXPECT_EQ(segs.refBytes(1), (segs.length(1) + 3) / 4);
}

} // namespace
} // namespace genax
