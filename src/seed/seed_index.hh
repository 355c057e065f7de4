/**
 * @file
 * Build-time selection of the seeding lookup structure.
 *
 * SeedIndex is the index type every consumer (SmemEngine, BwaMemLike,
 * GenomeSegments::buildSeedIndex) compiles against. The default is
 * the cache-conscious FlatKmerIndex; configuring with
 * -DGENAX_KMER_INDEX_ORACLE=ON substitutes the dense CSR KmerIndex so
 * the whole test suite re-runs against the original layout — the
 * equivalence oracle for the flat table. Both types expose the same
 * lookup interface (lookup / lookupCount / lookupPrefetch /
 * hasPresenceFilter / mayContain / packKmer / maxHitListSize /
 * footprints) and report identical hit lists, so the choice changes
 * host speed and memory only, never output. mayContain(key) is false
 * only for a key that certainly does not occur: the flat index
 * answers it from its presence filter when hasPresenceFilter(), the
 * dense index has none and always says true. lookup() never consults
 * the filter; a caller checks mayContain() first when the index has
 * one, and may skip work for a ruled-out key, but must still charge
 * the lookup the hardware model counts.
 *
 * The dense KmerIndex remains a first-class type regardless of the
 * toggle: genax_index files keep its on-disk format, and the
 * equivalence tests compare both layouts directly.
 */

#ifndef GENAX_SEED_SEED_INDEX_HH
#define GENAX_SEED_SEED_INDEX_HH

#include "seed/flat_kmer_index.hh"
#include "seed/kmer_index.hh"

namespace genax {

#if defined(GENAX_KMER_INDEX_ORACLE)
using SeedIndex = KmerIndex;
#else
using SeedIndex = FlatKmerIndex;
#endif

} // namespace genax

#endif // GENAX_SEED_SEED_INDEX_HH
