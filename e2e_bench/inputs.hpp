// Workload inputs of the end-to-end benchmark: the generated genome (a
// FASTA file, the only genome the program under test sees), the guides each
// workload sends, and the serial-oracle records every operation is checked
// against. Everything is a pure function of the seed.
#pragma once

#include <string>
#include <vector>

#include "core/config.hpp"
#include "core/results.hpp"

namespace e2e {

using cof::ot_record;
using cof::query_spec;
using util::u64;
using util::usize;

/// SpCas9 with an NRG PAM (NGG plus the weaker NAG), the paper's search
/// pattern shape: 1/8 of positions per strand pass the finder.
inline constexpr const char* kPattern = "NNNNNNNNNNNNNNNNNNNNNRG";
inline constexpr unsigned kMaxMismatches = 4;

/// A guide's kind sets how many records it produces, and every guide set
/// mixes the kinds in fixed proportions, so the work per operation does not
/// depend on the seed:
///   repeat  — the most frequent PAM-adjacent 20-mer family (the
///             generator's Alu-like repeats): ~30k records
///   planted — a random guide planted kPlantPerMismatch times at each
///             mismatch count 0..kMaxMismatches
///   unique  — cut from one random PAM-adjacent site: that one record
struct guide {
  std::string kind;
  query_spec q;
};

inline constexpr usize kPlantPerMismatch = 24;
/// Layout of inputs::guides: the cold_scan set (1 repeat, 2 planted,
/// 1 unique), then the pool of kPoolSets index-workload sets of kSetGuides
/// (each 1 repeat, 4 planted, 3 unique).
inline constexpr usize kColdGuides = 4;
inline constexpr usize kSetGuides = 8;
inline constexpr usize kPoolSets = 3;
inline constexpr usize kPoolGuides = kSetGuides * kPoolSets;

struct inputs {
  std::string fasta;          // generated genome
  u64 bases = 0;              // its size, for Mbp-based rates
  std::vector<guide> guides;  // cold set, then the pool
  /// Serial-oracle records per guide (query_index 0), canonical order.
  std::vector<std::vector<ot_record>> expected;

  std::vector<usize> cold_ids() const;
  std::vector<usize> set_ids(usize k) const;  // pool set k < kPoolSets
  usize pool_id(usize j) const { return kColdGuides + j % kPoolGuides; }

  std::vector<query_spec> queries(const std::vector<usize>& ids) const;
  /// Expected records of one search over guides `ids`: each guide's oracle
  /// records with query_index set to its position in the list.
  std::vector<ot_record> expected_for(const std::vector<usize>& ids) const;
};

/// Generate the genome (hg19-like at 1/scale), guides and oracle for `seed`
/// into directory `dir`. The oracle (core serial_search) runs here, in the
/// generating process, so the measured process never pays for it.
void generate(u64 seed, usize scale, const std::string& dir);

/// Read what generate() wrote.
inputs load(const std::string& dir);

}  // namespace e2e
