// 5'-PAM nuclease support (Cas12a/Cpf1: TTTV PAM upstream of the guide).
// The engine is PAM-position-agnostic by construction; these tests pin that
// down end-to-end, including bulges within the trailing guide region.
#include <gtest/gtest.h>

#include "core/bulge.hpp"
#include "core/engine.hpp"
#include "genome/synth.hpp"

namespace {

using namespace cof;

// Cas12a: TTTV PAM + 20-nt guide (pattern "TTTV" + 20 N's).
const std::string kPattern = "TTTVNNNNNNNNNNNNNNNNNNNN";
const std::string kGuide = "GACCTGTCGCTGACGCATGG";   // 20 nt
const std::string kQuery = "NNNN" + kGuide;          // N's at the PAM

genome::genome_t background(util::usize len = 4000, char fill = 'G') {
  // 'G' background: can never satisfy the TTTV PAM (needs three T's) nor
  // its reverse complement (BAAA: needs three A's).
  genome::genome_t g;
  g.chroms.push_back({"chr12a", std::string(len, fill)});
  return g;
}

search_config cas12a_config(u16 mm = 3) {
  search_config cfg;
  cfg.genome_path = "<mem>";
  cfg.pattern = kPattern;
  cfg.queries = {{kQuery, mm}};
  return cfg;
}

TEST(Cas12a, PatternIndexesPamAtFront) {
  const auto p = make_pattern(kPattern);
  EXPECT_EQ(p.index[0], 0);  // T
  EXPECT_EQ(p.index[1], 1);
  EXPECT_EQ(p.index[2], 2);
  EXPECT_EQ(p.index[3], 3);  // V
  EXPECT_EQ(p.index[4], -1);
  // rc half = rc(TTTV...) = N20 + BAAA: constrained at the tail.
  EXPECT_EQ(p.index[24], 20);
  EXPECT_EQ(p.index[27], 23);
}

TEST(Cas12a, FindsForwardSite) {
  auto g = background();
  const std::string site = "TTTA" + kGuide;  // V = A
  g.chroms[0].seq.replace(500, site.size(), site);
  auto cfg = cas12a_config();
  auto r = run_search(cfg, g, {.backend = backend_kind::serial});
  ASSERT_EQ(r.records.size(), 1u);
  EXPECT_EQ(r.records[0].position, 500u);
  EXPECT_EQ(r.records[0].direction, '+');
  EXPECT_EQ(r.records[0].mismatches, 0);
}

TEST(Cas12a, RejectsTInPamVPosition) {
  auto g = background();
  const std::string site = "TTTT" + kGuide;  // V excludes T
  g.chroms[0].seq.replace(500, site.size(), site);
  auto cfg = cas12a_config();
  auto r = run_search(cfg, g, {.backend = backend_kind::serial});
  EXPECT_TRUE(r.records.empty());
}

TEST(Cas12a, FindsReverseStrandSite) {
  auto g = background();
  const std::string fw_site = "TTTC" + kGuide;
  g.chroms[0].seq.replace(1200, fw_site.size(),
                          genome::reverse_complement(fw_site));
  auto cfg = cas12a_config();
  auto r = run_search(cfg, g, {.backend = backend_kind::serial});
  ASSERT_EQ(r.records.size(), 1u);
  EXPECT_EQ(r.records[0].direction, '-');
  EXPECT_EQ(r.records[0].mismatches, 0);
  EXPECT_EQ(r.records[0].site, fw_site);  // rendered strand-oriented
}

TEST(Cas12a, AllBackendsAgree) {
  auto g = background(20000);
  // scatter a few sites with mismatches
  const std::string exact = "TTTG" + kGuide;
  g.chroms[0].seq.replace(300, exact.size(), exact);
  std::string mut = exact;
  mut[8] = 'T';
  mut[15] = 'A';
  g.chroms[0].seq.replace(5000, mut.size(), mut);
  g.chroms[0].seq.replace(9000, exact.size(), genome::reverse_complement(mut));
  auto cfg = cas12a_config(4);
  auto serial = run_search(cfg, g, {.backend = backend_kind::serial});
  EXPECT_GE(serial.records.size(), 3u);
  for (auto backend : {backend_kind::opencl, backend_kind::sycl,
                       backend_kind::sycl_usm}) {
    auto r = run_search(cfg, g, {.backend = backend, .max_chunk = 6000});
    EXPECT_EQ(r.records, serial.records) << backend_name(backend);
  }
}

TEST(Cas12aBulge, ExpandsWithinTrailingGuideRegion) {
  auto variants = expand_bulges(kPattern, kQuery, {.dna_bulge = 1, .rna_bulge = 1});
  ASSERT_GT(variants.size(), 1u);
  for (const auto& v : variants) {
    if (v.type == bulge_type::none) continue;
    // The PAM head must be untouched.
    EXPECT_EQ(v.pattern.substr(0, 4), "TTTV");
    EXPECT_EQ(v.query.size(), v.pattern.size());
    EXPECT_GT(v.position, 4u);  // strictly inside the guide region
  }
}

TEST(Cas12aBulge, RecoversDnaBulgeSite) {
  auto g = background(6000);
  // Genome has an extra base inside the guide match.
  const std::string site =
      "TTTA" + kGuide.substr(0, 9) + "C" + kGuide.substr(9);
  g.chroms[0].seq.replace(2500, site.size(), site);
  auto recs = bulge_search(kPattern, {kQuery, 0}, {.dna_bulge = 1}, g,
                           {.backend = backend_kind::serial});
  bool found = false;
  for (const auto& r : recs) {
    if (r.hit.position == 2500 && r.variant.type == bulge_type::dna &&
        r.hit.mismatches == 0) {
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(Cas12aBulge, RecoversRnaBulgeSite) {
  auto g = background(6000);
  const std::string site = "TTTA" + kGuide.substr(0, 6) + kGuide.substr(7);
  g.chroms[0].seq.replace(3500, site.size(), site);
  auto recs = bulge_search(kPattern, {kQuery, 0}, {.rna_bulge = 1}, g,
                           {.backend = backend_kind::serial});
  bool found = false;
  for (const auto& r : recs) {
    if (r.hit.position == 3500 && r.variant.type == bulge_type::rna &&
        r.hit.mismatches == 0) {
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(Cas12a, MixedPamPatternBothEnds) {
  // Exotic but legal: constraints at both ends (e.g. 5' T, 3' GG); the
  // guide-region finder must pick the longest interior N-run.
  const std::string pattern = "TNNNNNNNNNNGG";
  const std::string query = "NACGTACGTACNN";
  auto variants = expand_bulges(pattern, query, {.dna_bulge = 1});
  for (const auto& v : variants) {
    if (v.type == bulge_type::none) continue;
    EXPECT_EQ(v.pattern.front(), 'T');
    EXPECT_EQ(v.pattern.substr(v.pattern.size() - 2), "GG");
  }
}

}  // namespace
