#include "inputs.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "core/serial_ref.hpp"
#include "genome/synth.hpp"
#include "util/rng.hpp"

namespace e2e {

namespace {

constexpr usize kCore = 20;  // guide bases before the 3-base PAM
constexpr usize kUniqueMaxRecords = 8;

bool pam_site(const std::string& s, usize p) {
  if (p + 23 > s.size()) return false;
  if ((s[p + 21] != 'A' && s[p + 21] != 'G') || s[p + 22] != 'G') return false;
  return std::string_view(s).substr(p, 23).find('N') == std::string_view::npos;
}

u64 pack20(const char* b) {
  u64 v = 0;
  for (usize k = 0; k < kCore; ++k) {
    v = v << 2 | static_cast<u64>(b[k] == 'A' ? 0 : b[k] == 'C' ? 1 : b[k] == 'G' ? 2 : 3);
  }
  return v;
}

std::string unpack20(u64 v) {
  std::string s(kCore, 'A');
  for (usize k = kCore; k-- > 0; v >>= 2) s[k] = "ACGT"[v & 3];
  return s;
}

/// The `n` most frequent PAM-adjacent 20-mers over the first few Mbp: the
/// generator's repeat family, found from the sequence alone.
std::vector<std::string> repeat_cores(const genome::genome_t& g, usize n) {
  std::vector<u64> keys;
  usize scanned = 0;
  for (const auto& c : g.chroms) {
    for (usize p = 0; p + 23 <= c.seq.size(); ++p) {
      if (pam_site(c.seq, p)) keys.push_back(pack20(c.seq.data() + p));
    }
    if ((scanned += c.seq.size()) >= (usize{4} << 20)) break;
  }
  std::sort(keys.begin(), keys.end());
  std::vector<std::pair<usize, u64>> counts;  // (count, key)
  for (usize i = 0; i < keys.size();) {
    usize j = i;
    while (j < keys.size() && keys[j] == keys[i]) ++j;
    counts.emplace_back(j - i, keys[i]);
    i = j;
  }
  std::sort(counts.rbegin(), counts.rend());
  std::vector<std::string> out;
  for (usize i = 0; i < n && i < counts.size(); ++i) {
    if (counts[i].first < 16) break;  // not a repeat family
    out.push_back(unpack20(counts[i].second));
  }
  if (out.empty()) throw std::runtime_error("genome has no repeat family");
  return out;
}

std::string random_core(util::rng& rng) {
  std::string s(kCore, 'A');
  for (auto& b : s) b = "ACGT"[rng.next_below(4)];
  return s;
}

std::string unique_core(const genome::genome_t& g, util::rng& rng) {
  for (;;) {
    const auto& s = g.chroms[rng.next_below(g.chroms.size())].seq;
    if (s.size() < 64) continue;
    const usize p = rng.next_below(s.size() - 23);
    if (pam_site(s, p)) return s.substr(p, kCore);
  }
}

/// serial_search over chromosome subsets on every core; records come back
/// per guide with query_index 0, in canonical order.
std::vector<std::vector<ot_record>> oracle(const genome::genome_t& g,
                                           const std::vector<query_spec>& qs) {
  const usize nt = std::max(1u, std::thread::hardware_concurrency());
  std::vector<std::vector<ot_record>> part(nt);
  std::vector<std::thread> threads;
  for (usize t = 0; t < nt; ++t) {
    threads.emplace_back([&, t] {
      genome::genome_t sub;
      std::vector<usize> index;
      for (usize ci = t; ci < g.chroms.size(); ci += nt) {
        sub.chroms.push_back(g.chroms[ci]);
        index.push_back(ci);
      }
      part[t] = cof::serial_search(kPattern, qs, sub);
      for (auto& r : part[t]) r.chrom_index = static_cast<util::u32>(index[r.chrom_index]);
    });
  }
  for (auto& th : threads) th.join();
  std::vector<std::vector<ot_record>> per_guide(qs.size());
  for (auto& p : part) {
    for (auto& r : p) {
      const usize qi = r.query_index;
      r.query_index = 0;
      per_guide[qi].push_back(std::move(r));
    }
  }
  for (auto& v : per_guide) cof::sort_records(v);
  return per_guide;
}

}  // namespace

std::vector<usize> inputs::cold_ids() const {
  std::vector<usize> ids(kColdGuides);
  for (usize i = 0; i < kColdGuides; ++i) ids[i] = i;
  return ids;
}

std::vector<usize> inputs::set_ids(usize k) const {
  std::vector<usize> ids(kSetGuides);
  for (usize i = 0; i < kSetGuides; ++i) ids[i] = pool_id(k * kSetGuides + i);
  return ids;
}

std::vector<query_spec> inputs::queries(const std::vector<usize>& ids) const {
  std::vector<query_spec> qs;
  for (const usize i : ids) qs.push_back(guides.at(i).q);
  return qs;
}

std::vector<ot_record> inputs::expected_for(const std::vector<usize>& ids) const {
  std::vector<ot_record> out;
  for (usize k = 0; k < ids.size(); ++k) {
    for (ot_record r : expected.at(ids[k])) {
      r.query_index = static_cast<util::u32>(k);
      out.push_back(std::move(r));
    }
  }
  return out;
}

void generate(u64 seed, usize scale, const std::string& dir) {
  std::filesystem::create_directories(dir);
  util::rng rng(seed ^ 0xE2EBE7C4ULL);
  genome::genome_t g = genome::generate(genome::hg19_like(scale, rng.next_u64()));
  const auto repeats = repeat_cores(g, 8);

  // Kinds per slot of inputs::guides (cold set, then three pool sets).
  std::vector<std::string> kinds = {"repeat", "planted", "planted", "unique"};
  for (usize k = 0; k < kPoolSets; ++k) {
    kinds.push_back("repeat");
    kinds.insert(kinds.end(), 4, "planted");
    kinds.insert(kinds.end(), 3, "unique");
  }
  std::vector<guide> guides;
  for (const auto& kind : kinds) {
    std::string core;
    if (kind == "repeat") {
      core = repeats[rng.next_below(repeats.size())];
    } else if (kind == "planted") {
      core = random_core(rng);
      for (unsigned mm = 0; mm <= kMaxMismatches; ++mm) {
        genome::plant_sites(g, core + "NRG", kPattern, kPlantPerMismatch, mm,
                            rng.next_u64());
      }
    }
    // Unique guides get their sequence below.
    guides.push_back({kind, {core + "NNN", static_cast<util::u16>(kMaxMismatches)}});
  }

  // Unique sites are cut after planting, so the final genome holds them. A
  // site that lands in a repeat copy hits the whole family: redraw it until
  // the oracle confirms it is near-unique.
  std::vector<std::vector<ot_record>> expected(guides.size());
  std::vector<usize> pending(guides.size());
  std::iota(pending.begin(), pending.end(), usize{0});
  for (usize round = 0; !pending.empty(); ++round) {
    if (round == 16) throw std::runtime_error("no near-unique guide sites");
    std::vector<query_spec> batch;
    for (const usize gi : pending) {
      if (guides[gi].kind == "unique") guides[gi].q.seq = unique_core(g, rng) + "NNN";
      batch.push_back(guides[gi].q);
    }
    auto found = oracle(g, batch);
    std::vector<usize> redraw;
    for (usize k = 0; k < pending.size(); ++k) {
      const usize gi = pending[k];
      if (guides[gi].kind == "unique" && found[k].size() > kUniqueMaxRecords) {
        redraw.push_back(gi);
      } else {
        expected[gi] = std::move(found[k]);
      }
    }
    pending = std::move(redraw);
  }

  genome::write_fasta_file(dir + "/genome.fa", g.chroms);
  std::ofstream gf(dir + "/guides.tsv");
  gf << "#bases\t" << g.total_bases() << '\n';
  for (const auto& gd : guides) {
    gf << gd.kind << '\t' << gd.q.seq << '\t' << gd.q.max_mismatches << '\n';
  }
  std::ofstream of(dir + "/oracle.tsv");
  for (usize gi = 0; gi < expected.size(); ++gi) {
    for (const auto& r : expected[gi]) {
      of << gi << '\t' << r.chrom_index << '\t' << r.position << '\t'
         << r.direction << '\t' << r.mismatches << '\t' << r.site << '\n';
    }
  }
  if (!gf || !of) throw std::runtime_error("cannot write inputs to " + dir);
}

inputs load(const std::string& dir) {
  inputs in;
  in.fasta = dir + "/genome.fa";
  std::ifstream gf(dir + "/guides.tsv");
  std::string line;
  while (std::getline(gf, line)) {
    std::istringstream ls(line);
    if (line.rfind("#bases", 0) == 0) {
      std::string tag;
      ls >> tag >> in.bases;
      continue;
    }
    guide gd;
    ls >> gd.kind >> gd.q.seq >> gd.q.max_mismatches;
    in.guides.push_back(std::move(gd));
  }
  if (in.guides.size() != kColdGuides + kPoolGuides || in.bases == 0) {
    throw std::runtime_error("bad or missing " + dir + "/guides.tsv");
  }
  in.expected.resize(in.guides.size());
  std::ifstream of(dir + "/oracle.tsv");
  while (std::getline(of, line)) {
    std::istringstream ls(line);
    usize gi = 0;
    ot_record r;
    ls >> gi >> r.chrom_index >> r.position >> r.direction >> r.mismatches >> r.site;
    if (!ls || gi >= in.expected.size()) {
      throw std::runtime_error("bad line in " + dir + "/oracle.tsv: " + line);
    }
    in.expected[gi].push_back(std::move(r));
  }
  return in;
}

}  // namespace e2e
