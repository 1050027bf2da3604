// opt6 SWAR tests: exhaustive IUPAC x mismatch-count equivalence of the
// comparer against opt5, ragged-tail fuzz across pattern lengths, both
// dispatch paths (AVX2 lanes and the forced-scalar fallback), engine-level
// byte-identity of opt6 output across all backends and queue counts, the
// finder's word-parallel lane row against the per-item finder and the
// serial reference, and the table-driven pack over every byte value.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "core/engine_stream.hpp"
#include "core/kernels.hpp"
#include "core/kernels_swar.hpp"
#include "core/pattern.hpp"
#include "core/serial_ref.hpp"
#include "genome/synth.hpp"
#include "util/cpufeat.hpp"
#include "util/rng.hpp"
#include "xpu/device.hpp"

namespace {

using namespace cof;
namespace fs = std::filesystem;

xpu::device& dev() {
  static xpu::device d("swar", 1);
  return d;
}

/// RAII force_scalar toggle so a failing assertion cannot leak the override
/// into later tests.
struct scalar_guard {
  bool prev;
  explicit scalar_guard(bool on) : prev(util::force_scalar()) {
    util::force_scalar(on);
  }
  ~scalar_guard() { util::force_scalar(prev); }
};

struct cmp_run {
  std::vector<u16> mm;
  std::vector<char> dir;
  std::vector<u32> loci;

  bool operator==(const cmp_run& o) const {
    return mm == o.mm && dir == o.dir && loci == o.loci;
  }
};

cmp_run canonicalise(const std::vector<u16>& mm, const std::vector<char>& dir,
                     const std::vector<u32>& mloci, u32 count) {
  cmp_run r;
  std::vector<std::tuple<u32, char, u16>> z;
  for (u32 i = 0; i < count; ++i) z.emplace_back(mloci[i], dir[i], mm[i]);
  std::sort(z.begin(), z.end());
  for (auto& [l, d, m] : z) {
    r.loci.push_back(l);
    r.dir.push_back(d);
    r.mm.push_back(m);
  }
  return r;
}

/// Reference path: the opt5 deny-LUT comparer through the ordinary argument
/// block.
cmp_run run_opt5(const std::string& chunk, const std::vector<u32>& loci,
                 const std::vector<char>& flags, const device_pattern& query,
                 u16 threshold, usize wg = 8) {
  const u32 n = static_cast<u32>(loci.size());
  const usize cap = static_cast<usize>(n) * 2;
  std::vector<u16> mm(cap, 0);
  std::vector<char> dir(cap, 0);
  std::vector<u32> mloci(cap, 0);
  u32 count = 0;

  xpu::launch_config cfg;
  cfg.global[0] = util::round_up<usize>(n, wg);
  cfg.local[0] = wg;
  cfg.local_mem_bytes =
      query.device_chars() * (1 + sizeof(i32)) + query.mask.size() * sizeof(u16) + 128;
  cfg.uses_barrier = true;
  comparer_args a;
  a.locicnts = n;
  a.chr = chunk.data();
  a.loci = loci.data();
  a.flag = flags.data();
  a.comp = query.data();
  a.comp_index = query.index_data();
  a.comp_mask = query.mask_data();
  a.plen = query.plen;
  a.threshold = threshold;
  a.mm_count = mm.data();
  a.direction = dir.data();
  a.mm_loci = mloci.data();
  a.entrycount = &count;
  dev().run(cfg, [&](xpu::xitem& it) {
    char* base = it.local_mem_base();
    const usize idx_off = util::round_up<usize>(query.device_chars(), 8);
    const usize mask_off =
        util::round_up<usize>(idx_off + query.index.size() * sizeof(i32), 8);
    a.l_comp = base;
    a.l_comp_index = reinterpret_cast<i32*>(base + idx_off);
    a.l_comp_mask = reinterpret_cast<u16*>(base + mask_off);
    comparer_dispatch<direct_mem>(comparer_variant::opt5, it, a);
  });
  return canonicalise(mm, dir, mloci, count);
}

/// opt6 path. `via_lanes` launches through the executor's lane-batched row
/// body (the production dispatch); otherwise the per-item kernel runs.
cmp_run run_opt6(const std::string& chunk, const std::vector<u32>& loci,
                 const std::vector<char>& flags, const device_pattern& query,
                 u16 threshold, usize wg = 8, bool via_lanes = false,
                 xpu::launch_stats* stats_out = nullptr) {
  const u32 n = static_cast<u32>(loci.size());
  const usize cap = static_cast<usize>(n) * 2;
  std::vector<u16> mm(cap, 0);
  std::vector<char> dir(cap, 0);
  std::vector<u32> mloci(cap, 0);
  u32 count = 0;
  const auto sref = swar_pack(chunk);

  xpu::launch_config cfg;
  cfg.global[0] = util::round_up<usize>(n, wg);
  cfg.local[0] = wg;
  cfg.local_mem_bytes =
      query.swar.size() * sizeof(util::u64) + query.mask.size() * sizeof(u16) + 128;
  cfg.uses_barrier = true;
  cfg.single_leading_barrier = true;
  comparer_swar_args a;
  a.locicnts = n;
  a.chr_packed2 = sref.packed2.data();
  a.chr_amb2 = sref.amb2.data();
  a.chr = chunk.data();
  a.loci = loci.data();
  a.flag = flags.data();
  a.comp_swar = query.swar_data();
  a.comp_mask = query.mask_data();
  a.plen = query.plen;
  a.swar_words = query.swar_words;
  a.threshold = threshold;
  a.mm_count = mm.data();
  a.direction = dir.data();
  a.mm_loci = mloci.data();
  a.entrycount = &count;
  auto item_body = [&](xpu::xitem& it) {
    char* base = it.local_mem_base();
    const usize mask_off =
        util::round_up<usize>(query.swar.size() * sizeof(util::u64), 8);
    a.l_comp_swar = reinterpret_cast<util::u64*>(base);
    a.l_comp_mask = reinterpret_cast<u16*>(base + mask_off);
    comparer_swar_kernel<direct_mem, xpu::xitem>(it, a);
  };
  xpu::launch_stats stats;
  if (via_lanes) {
    stats = dev().run_lanes(cfg, item_body,
                            [&](const xpu::xitem& first, usize nlanes) {
                              comparer_swar_args la = a;
                              la.l_comp_swar = const_cast<util::u64*>(a.comp_swar);
                              la.l_comp_mask = const_cast<u16*>(a.comp_mask);
                              comparer_swar_lanes(la, first.get_global_id(0), nlanes);
                            });
  } else {
    stats = dev().run(cfg, item_body);
  }
  if (stats_out != nullptr) *stats_out = stats;
  return canonicalise(mm, dir, mloci, count);
}

std::string random_chunk(util::rng& rng, usize len, bool with_n) {
  const char* alpha = with_n ? "ACGTN" : "ACGT";
  const util::u64 nalpha = with_n ? 5 : 4;
  std::string s;
  for (usize i = 0; i < len; ++i) s += alpha[rng.next_below(nalpha)];
  return s;
}

/// All loci valid for (chunk, plen), random flags.
void random_loci(util::rng& rng, usize chunk_len, u32 plen, usize count,
                 std::vector<u32>& loci, std::vector<char>& flags) {
  loci.clear();
  flags.clear();
  const u32 span = static_cast<u32>(chunk_len) - plen + 1;
  for (usize i = 0; i < count; ++i) {
    loci.push_back(static_cast<u32>(rng.next_below(span)));
    flags.push_back(static_cast<char>(rng.next_below(3)));
  }
  std::sort(loci.begin(), loci.end());
}

constexpr const char* kIupac = "ACGTRYSWKMBDHVN";

// ---------------------------------------------------------------------------
// Exhaustive equivalence: every IUPAC pattern base x every mismatch count.
// ---------------------------------------------------------------------------

// For each of the 15 IUPAC codes placed at every position of a short query,
// and for every threshold 0..plen, opt6 must report exactly the opt5 hits
// (same loci, strands and mismatch counts). The reference chunk mixes all
// four bases plus ambiguous 'N' so each deny mask row and the ambiguity
// fallback are all exercised.
TEST(SwarEquivalence, AllIupacBasesAllThresholds) {
  util::rng rng(601);
  const std::string chunk = random_chunk(rng, 96, /*with_n=*/true);
  std::vector<u32> loci;
  std::vector<char> flags;
  constexpr u32 kPlen = 9;
  random_loci(rng, chunk.size(), kPlen, 24, loci, flags);

  for (const char* c = kIupac; *c != '\0'; ++c) {
    for (u32 pos = 0; pos < kPlen; ++pos) {
      std::string q(kPlen, 'A');
      q[pos] = *c;
      const auto query = make_pattern(q);
      for (u16 threshold = 0; threshold <= kPlen; ++threshold) {
        const auto want = run_opt5(chunk, loci, flags, query, threshold);
        const auto got = run_opt6(chunk, loci, flags, query, threshold);
        ASSERT_EQ(got, want) << "base=" << *c << " pos=" << pos
                             << " threshold=" << threshold;
      }
    }
  }
}

// Dense all-ambiguous query: every position a different IUPAC code, so one
// window evaluation mixes plain deny-mask tests with LUT fallbacks at many
// offsets at once.
TEST(SwarEquivalence, MixedIupacQuery) {
  util::rng rng(602);
  const std::string chunk = random_chunk(rng, 128, /*with_n=*/true);
  const std::string q = "ACGTRYSWKMBDHVNRYN";  // plen 18
  const auto query = make_pattern(q);
  std::vector<u32> loci;
  std::vector<char> flags;
  random_loci(rng, chunk.size(), query.plen, 40, loci, flags);
  for (u16 threshold : {u16{0}, u16{3}, u16{9}, u16{18}}) {
    const auto want = run_opt5(chunk, loci, flags, query, threshold);
    const auto got = run_opt6(chunk, loci, flags, query, threshold);
    ASSERT_EQ(got, want) << "threshold=" << threshold;
  }
}

// ---------------------------------------------------------------------------
// Ragged-tail fuzz: every pattern length around the 32-base word boundary.
// ---------------------------------------------------------------------------

// plen 1..40 crosses the one-word/two-word boundary (32) and exercises every
// tail length of the active mask; random IUPAC queries and random loci.
TEST(SwarFuzz, RaggedTailLengths) {
  util::rng rng(603);
  for (u32 plen = 1; plen <= 40; ++plen) {
    const std::string chunk = random_chunk(rng, plen + 160, /*with_n=*/true);
    std::string q;
    for (u32 i = 0; i < plen; ++i) q += kIupac[rng.next_below(15)];
    const auto query = make_pattern(q);
    std::vector<u32> loci;
    std::vector<char> flags;
    random_loci(rng, chunk.size(), plen, 32, loci, flags);
    const u16 threshold = static_cast<u16>(rng.next_below(plen + 1));
    const auto want = run_opt5(chunk, loci, flags, query, threshold);
    const auto got = run_opt6(chunk, loci, flags, query, threshold);
    ASSERT_EQ(got, want) << "plen=" << plen << " threshold=" << threshold;
  }
}

// Loci landing on every in-word offset (0..31) so the two-word shift-combine
// window fetch is exercised at each shift amount, including shift 0.
TEST(SwarFuzz, EveryWindowShift) {
  util::rng rng(604);
  const std::string chunk = random_chunk(rng, 96, /*with_n=*/false);
  const auto query = make_pattern("GGCCGACCTGTCGCTGACGCNRG");
  std::vector<u32> loci;
  std::vector<char> flags;
  for (u32 l = 0; l < 64; ++l) {
    loci.push_back(l);
    flags.push_back(static_cast<char>(l % 3));
  }
  for (u16 threshold : {u16{5}, u16{12}, u16{23}}) {
    const auto want = run_opt5(chunk, loci, flags, query, threshold);
    const auto got = run_opt6(chunk, loci, flags, query, threshold);
    ASSERT_EQ(got, want) << "threshold=" << threshold;
  }
}

// ---------------------------------------------------------------------------
// Dispatch paths: AVX2 lane rows vs the forced-scalar fallback.
// ---------------------------------------------------------------------------

// The lane-batched row body must match the per-item kernel bit for bit, on
// whichever path the host actually selects.
TEST(SwarDispatch, LanesMatchPerItem) {
  util::rng rng(605);
  const std::string chunk = random_chunk(rng, 256, /*with_n=*/true);
  const auto query = make_pattern("GGCCGACCTGTCGCTGACGCNRG");
  std::vector<u32> loci;
  std::vector<char> flags;
  random_loci(rng, chunk.size(), query.plen, 120, loci, flags);

  const auto per_item = run_opt6(chunk, loci, flags, query, 6, 16, false);
  xpu::launch_stats stats;
  const auto lanes = run_opt6(chunk, loci, flags, query, 6, 16, true, &stats);
  EXPECT_EQ(lanes, per_item);
  // On an AVX2 host without the scalar override the executor must actually
  // have taken the lane path.
  EXPECT_EQ(stats.lanes_dispatch, util::simd_lanes_enabled());
}

// COF_FORCE_SCALAR / force_scalar() pins the per-item path; results must be
// identical and the launch must report scalar dispatch.
TEST(SwarDispatch, ForcedScalarMatchesSimd) {
  util::rng rng(606);
  const std::string chunk = random_chunk(rng, 200, /*with_n=*/true);
  const auto query = make_pattern("ACGTRYSWKMBDHVNACGTNGG");
  std::vector<u32> loci;
  std::vector<char> flags;
  random_loci(rng, chunk.size(), query.plen, 64, loci, flags);

  cmp_run simd, scalar;
  xpu::launch_stats simd_stats, scalar_stats;
  simd = run_opt6(chunk, loci, flags, query, 8, 16, true, &simd_stats);
  {
    scalar_guard guard(true);
    EXPECT_FALSE(util::simd_lanes_enabled());
    scalar = run_opt6(chunk, loci, flags, query, 8, 16, true, &scalar_stats);
  }
  EXPECT_EQ(scalar, simd);
  EXPECT_FALSE(scalar_stats.lanes_dispatch);
}

// ---------------------------------------------------------------------------
// Engine-level byte-identity: all three device backends x {1,2,4} queues.
// ---------------------------------------------------------------------------

genome::genome_t swar_genome(util::u64 seed) {
  genome::synth_params p;
  p.assembly = "swar-test";
  p.chromosomes = {{"chrA", 40000}, {"chrB", 20000}};
  p.seed = seed;
  return genome::generate(p);
}

class SwarBackendSweep
    : public ::testing::TestWithParam<std::pair<backend_kind, int>> {};

// opt6 must produce byte-identical search output to the same backend's opt5
// across every queue count.
TEST_P(SwarBackendSweep, Opt6MatchesOpt5) {
  const auto [backend, queues] = GetParam();
  auto g = swar_genome(71);
  auto cfg = parse_input(example_input("<mem>"));
  engine_options opt5{.backend = backend,
                      .variant = comparer_variant::opt5,
                      .max_chunk = 8192,
                      .num_queues = static_cast<usize>(queues)};
  engine_options opt6 = opt5;
  opt6.variant = comparer_variant::opt6;
  const auto want = run_search(cfg, g, opt5);
  const auto got = run_search(cfg, g, opt6);
  EXPECT_EQ(got.records, want.records);
}

INSTANTIATE_TEST_SUITE_P(
    BackendsAndQueues, SwarBackendSweep,
    ::testing::Values(std::pair{backend_kind::sycl, 1},
                      std::pair{backend_kind::sycl, 2},
                      std::pair{backend_kind::sycl, 4},
                      std::pair{backend_kind::opencl, 1},
                      std::pair{backend_kind::opencl, 2},
                      std::pair{backend_kind::opencl, 4},
                      std::pair{backend_kind::sycl_usm, 1},
                      std::pair{backend_kind::sycl_usm, 2},
                      std::pair{backend_kind::sycl_usm, 4}));

// The batched multi-query comparer (comparer_multi_opt6) runs when
// batch_queries is set; it must agree with the per-query path.
TEST(SwarEngine, BatchedQueriesMatchUnbatched) {
  auto g = swar_genome(72);
  auto cfg = parse_input(example_input("<mem>"));
  for (backend_kind backend :
       {backend_kind::sycl, backend_kind::opencl, backend_kind::sycl_usm}) {
    engine_options plain{.backend = backend,
                         .variant = comparer_variant::opt6,
                         .max_chunk = 8192};
    engine_options batched = plain;
    batched.batch_queries = true;
    const auto want = run_search(cfg, g, plain);
    const auto got = run_search(cfg, g, batched);
    EXPECT_EQ(got.records, want.records)
        << "backend=" << static_cast<int>(backend);
  }
}

// Streamed (disk-chunked) output with opt6 must equal the in-memory opt5
// result for every backend, on both dispatch paths.
TEST(SwarEngine, StreamedOutputMatchesAcrossDispatchPaths) {
  struct temp_dir {
    fs::path path;
    temp_dir() {
      path = fs::temp_directory_path() /
             ("cof_swar_" + std::to_string(::getpid()));
      fs::create_directories(path);
    }
    ~temp_dir() { fs::remove_all(path); }
  } dir;

  auto g = swar_genome(73);
  auto cfg = parse_input(example_input("<file>"));
  const std::string guide = cfg.queries[0].seq.substr(0, 20) + "NGG";
  genome::plant_sites(g, guide, cfg.pattern, 4, 1, 74);
  const auto file = dir.path / "g.fa";
  genome::write_fasta_file(file.string(), g.chroms);

  for (backend_kind backend :
       {backend_kind::sycl, backend_kind::opencl, backend_kind::sycl_usm}) {
    engine_options base{.backend = backend,
                        .variant = comparer_variant::opt5,
                        .max_chunk = 7000,
                        .num_queues = 2};
    engine_options opt6 = base;
    opt6.variant = comparer_variant::opt6;
    const auto want = run_search(cfg, g, base);
    const auto simd = run_search_streaming(cfg, file.string(), opt6);
    EXPECT_EQ(simd.records, want.records)
        << "backend=" << static_cast<int>(backend);
    {
      scalar_guard guard(true);
      const auto scalar = run_search_streaming(cfg, file.string(), opt6);
      EXPECT_EQ(scalar.records, want.records)
          << "scalar, backend=" << static_cast<int>(backend);
    }
  }
}

// Counting mode (profiler attached) must not disturb opt6 results, and must
// record SWAR word evaluations rather than per-character events.
TEST(SwarEngine, CountingRunMatchesAndCountsSwarOps) {
  auto g = swar_genome(75);
  auto cfg = parse_input(example_input("<mem>"));
  engine_options plain{.backend = backend_kind::sycl,
                       .variant = comparer_variant::opt6,
                       .max_chunk = 8192};
  prof::profiler p;
  engine_options counting = plain;
  counting.counting = true;
  counting.profiler = &p;
  const auto want = run_search(cfg, g, plain);
  const auto got = run_search(cfg, g, counting);
  EXPECT_EQ(got.records, want.records);
  util::u64 swar_ops = 0;
  for (const auto& [name, prof] : p.kernels()) {
    swar_ops += prof.events[prof::ev::swar_op];
  }
  EXPECT_GT(swar_ops, 0u);
}

// ---------------------------------------------------------------------------
// swar_pack: table-driven, branch-free, same words as a per-char pack.
// ---------------------------------------------------------------------------

/// Per-char reference pack: the layout swar_ref documents, one base at a
/// time.
swar_ref reference_pack(std::string_view seq) {
  swar_ref r;
  r.bases = seq.size();
  r.packed2.assign((seq.size() + 31) / 32 + 2, 0);
  r.amb2.assign(r.packed2.size(), 0);
  for (usize i = 0; i < seq.size(); ++i) {
    const usize w = i / 32;
    const u32 bit = 2 * static_cast<u32>(i % 32);
    const usize code = std::string_view("ACGT").find(seq[i]);
    if (code == std::string_view::npos) {
      r.amb2[w] |= util::u64{1} << bit;
    } else {
      r.packed2[w] |= static_cast<util::u64>(code) << bit;
    }
  }
  return r;
}

void expect_same_pack(std::string_view seq) {
  const swar_ref got = swar_pack(seq);
  const swar_ref want = reference_pack(seq);
  EXPECT_EQ(got.bases, want.bases);
  EXPECT_EQ(got.packed2, want.packed2);
  EXPECT_EQ(got.amb2, want.amb2);
}

// Every byte value at every lane of a word, in full words and in every
// ragged tail length.
TEST(SwarPack, EveryByteValueMatchesPerCharPack) {
  for (int v = 0; v < 256; ++v) {
    const char c = static_cast<char>(v);
    for (usize len = 1; len <= 70; ++len) {
      expect_same_pack(std::string(len, c));
      std::string mixed(len, 'G');
      mixed[len / 2] = c;
      mixed[len - 1] = c;
      expect_same_pack(mixed);
    }
  }
  // All 256 values in one sequence, at shifting offsets.
  std::string all;
  for (int v = 0; v < 256; ++v) all += static_cast<char>(v);
  for (usize off = 0; off < 33; ++off) {
    expect_same_pack(std::string(off, 'T') + all);
  }
  expect_same_pack("");
}

// ---------------------------------------------------------------------------
// opt6 finder: the word-parallel lane row against the per-item finder and
// the serial reference.
// ---------------------------------------------------------------------------

using site_set = std::vector<std::pair<u32, char>>;  // (locus, flag), sorted

site_set to_sites(const std::vector<u32>& loci, const std::vector<char>& flags,
                  usize n) {
  site_set s;
  for (usize i = 0; i < n; ++i) s.emplace_back(loci[i], flags[i]);
  std::sort(s.begin(), s.end());
  return s;
}

/// The serial reference's finder hits: an all-N query at threshold 0 has a
/// record on exactly the strands where the pattern matches.
site_set serial_sites(const std::string& chunk, const std::string& pattern) {
  genome::genome_t g;
  g.chroms.push_back({"chunk", chunk});
  const auto recs =
      serial_search(pattern, {{std::string(pattern.size(), 'N'), 0}}, g);
  std::map<u32, int> strands;  // bit 0: '+', bit 1: '-'
  for (const auto& r : recs) {
    strands[static_cast<u32>(r.position)] |= r.direction == '+' ? 1 : 2;
  }
  site_set s;
  for (const auto& [pos, m] : strands) {
    s.emplace_back(pos, static_cast<char>(m == 3 ? 0 : m));
  }
  return s;
}

/// A reference chunk that mixes runs of concrete bases, every IUPAC code
/// and N-runs of up to 40 bases.
std::string iupac_chunk(util::rng& rng, usize len) {
  std::string s;
  while (s.size() < len) {
    const auto kind = rng.next_below(10);
    if (kind == 0) {
      s.append(1 + rng.next_below(40), 'N');
    } else if (kind == 1) {
      s += kIupac[rng.next_below(15)];
    } else {
      s += "ACGT"[rng.next_below(4)];
    }
  }
  s.resize(len);
  return s;
}

struct finder_run {
  site_set sites;
  u32 count = 0;  // the hit counter, which may exceed the capacity
  xpu::launch_stats stats;
};

/// The opt6 finder launched as the facades launch it: per-item body
/// finder_kernel_mask, lane row finder_swar_lanes, single leading barrier.
finder_run kernel_finder(const std::string& chunk, const device_pattern& pat,
                         usize wg, u32 capacity = ~u32{0}) {
  finder_run out;
  if (chunk.size() < pat.plen) return out;
  const u32 chrsize = static_cast<u32>(chunk.size() - pat.plen + 1);
  const usize cap = std::min<usize>(capacity, chrsize);
  std::vector<u32> loci(cap, 0);
  std::vector<char> flags(cap, 0);
  const swar_ref sref = swar_pack(chunk);

  xpu::launch_config cfg;
  cfg.global[0] = util::round_up<usize>(chrsize, wg);
  cfg.local[0] = wg;
  const usize idx_off = util::round_up<usize>(pat.mask.size() * sizeof(u16), 8);
  cfg.local_mem_bytes = idx_off + pat.index.size() * sizeof(i32) + 16;
  cfg.uses_barrier = true;
  cfg.single_leading_barrier = true;
  finder_args a;
  a.chr = chunk.data();
  a.pat_index = pat.index_data();
  a.pat_mask = pat.mask_data();
  a.chrsize = chrsize;
  a.plen = pat.plen;
  a.loci = loci.data();
  a.flag = flags.data();
  a.entrycount = &out.count;
  a.entry_capacity = static_cast<u32>(cap);
  out.stats = dev().run_lanes(
      cfg,
      [&](xpu::xitem& it) {
        finder_args ia = a;
        char* base = it.local_mem_base();
        ia.l_pat_mask = reinterpret_cast<u16*>(base);
        ia.l_pat_index = reinterpret_cast<i32*>(base + idx_off);
        finder_kernel_mask<direct_mem>(it, ia);
      },
      [&](const xpu::xitem& first, usize nlanes) {
        finder_swar_lanes(a, sref.packed2.data(), sref.amb2.data(),
                          first.get_global_id(0), nlanes);
      });
  out.sites = to_sites(loci, flags, std::min<usize>(out.count, cap));
  return out;
}

/// The opt6 finder through a device facade (O, G or U).
site_set facade_finder(backend_kind backend, const std::string& chunk,
                       const device_pattern& pat, usize wg) {
  auto pipe = make_pipeline(
      {.backend = backend, .variant = comparer_variant::opt6, .wg_size = wg}, 0);
  pipe->load_chunk(chunk);
  const u32 n = pipe->run_finder(pat);
  return to_sites(pipe->read_loci(), pipe->read_flags(), n);
}

const char* const kFinderPatterns[] = {
    "NNNNNNNNNNNNNNNNNNNNNRG",            // SpCas9, PAM at the end
    "TTTVNNNNNNNNNNNNNNNNNNNNNNN",        // Cas12a, PAM at the start
    "NNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNGG",  // 33 bases: PAM across a word edge
    "TTTVNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNRG",  // 64
    "NNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNN",  // all N
};

// Every pattern x chunk length plen-1..plen+33 x rows that are not
// word-aligned (wg 48, 100): lane row == per-item == serial reference.
TEST(SwarFinder, LaneRowMatchesPerItemAndSerialOnShortChunks) {
  util::rng rng(1501);
  for (const char* text : kFinderPatterns) {
    const auto pat = make_pattern(text);
    for (usize len = pat.plen - 1; len <= pat.plen + 33; ++len) {
      const std::string chunk = iupac_chunk(rng, len);
      const site_set want = serial_sites(chunk, text);
      for (const usize wg : {48, 100}) {
        const finder_run lanes = kernel_finder(chunk, pat, wg);
        finder_run per_item;
        {
          scalar_guard guard(true);
          per_item = kernel_finder(chunk, pat, wg);
        }
        EXPECT_EQ(lanes.sites, want) << text << " len=" << len << " wg=" << wg;
        EXPECT_EQ(per_item.sites, want) << text << " len=" << len << " wg=" << wg;
        if (len >= pat.plen) {
          EXPECT_EQ(lanes.stats.lanes_dispatch, util::simd_lanes_enabled());
          EXPECT_FALSE(per_item.stats.lanes_dispatch);
        }
      }
    }
  }
}

// Long chunks (many rows, many words per row) through the kernel launch.
TEST(SwarFinder, LaneRowMatchesPerItemAndSerialOnLongChunks) {
  util::rng rng(1502);
  for (const char* text : kFinderPatterns) {
    const auto pat = make_pattern(text);
    const std::string chunk = iupac_chunk(rng, 3000 + rng.next_below(2000));
    const site_set want = serial_sites(chunk, text);
    ASSERT_FALSE(want.empty()) << text;
    for (const usize wg : {48, 100, 256}) {
      const finder_run lanes = kernel_finder(chunk, pat, wg);
      EXPECT_EQ(lanes.sites, want) << text << " wg=" << wg;
      EXPECT_EQ(lanes.count, want.size()) << text << " wg=" << wg;
      EXPECT_EQ(lanes.stats.lanes_dispatch, util::simd_lanes_enabled());
      scalar_guard guard(true);
      const finder_run per_item = kernel_finder(chunk, pat, wg);
      EXPECT_EQ(per_item.sites, want) << text << " wg=" << wg;
      EXPECT_FALSE(per_item.stats.lanes_dispatch);
    }
  }
}

// The lane row as each device facade installs it (SYCL buffers, USM and the
// OpenCL registry), against the per-item path and the serial reference.
TEST(SwarFinder, EveryFacadeMatchesPerItemAndSerial) {
  util::rng rng(1503);
  for (const char* text : kFinderPatterns) {
    const auto pat = make_pattern(text);
    for (const usize len : {usize{pat.plen} - 1, usize{pat.plen} + 7, usize{4111}}) {
      const std::string chunk = iupac_chunk(rng, len);
      const site_set want = serial_sites(chunk, text);
      for (const backend_kind backend :
           {backend_kind::sycl, backend_kind::sycl_usm, backend_kind::opencl}) {
        for (const usize wg : {48, 100}) {
          EXPECT_EQ(facade_finder(backend, chunk, pat, wg), want)
              << backend_name(backend) << " " << text << " len=" << len;
          scalar_guard guard(true);
          EXPECT_EQ(facade_finder(backend, chunk, pat, wg), want)
              << "scalar " << backend_name(backend) << " " << text;
        }
      }
    }
  }
}

// Under a capacity below the hit count the counter still totals every hit,
// exactly as the per-item path counts, and what fits is a subset of the
// true hits.
TEST(SwarFinder, CappedCounterMatchesPerItemCount) {
  util::rng rng(1504);
  const auto pat = make_pattern(kFinderPatterns[0]);
  const std::string chunk = iupac_chunk(rng, 5000);
  const site_set want = serial_sites(chunk, kFinderPatterns[0]);
  ASSERT_GT(want.size(), 40u);
  const u32 cap = static_cast<u32>(want.size() / 3);
  for (const usize wg : {48, 100}) {
    const finder_run lanes = kernel_finder(chunk, pat, wg, cap);
    finder_run per_item;
    {
      scalar_guard guard(true);
      per_item = kernel_finder(chunk, pat, wg, cap);
    }
    EXPECT_EQ(lanes.count, per_item.count);
    EXPECT_EQ(lanes.count, want.size());
    EXPECT_EQ(lanes.sites.size(), cap);
    EXPECT_TRUE(std::includes(want.begin(), want.end(), lanes.sites.begin(),
                              lanes.sites.end()));
  }
  // Through a facade the overflow surfaces with the full count.
  for (const bool scalar : {false, true}) {
    scalar_guard guard(scalar);
    auto pipe = make_pipeline({.backend = backend_kind::sycl,
                               .variant = comparer_variant::opt6,
                               .wg_size = 100},
                              cap);
    pipe->load_chunk(chunk);
    try {
      (void)pipe->run_finder(pat);
      ADD_FAILURE() << "capped finder did not report an overflow";
    } catch (const entry_overflow_error& e) {
      EXPECT_EQ(e.required(), want.size()) << "scalar=" << scalar;
      EXPECT_EQ(e.capacity(), cap);
    }
  }
}

// The engine's grow/split recovery from an undersized cap gives the serial
// records on every facade, with the lane row and with the per-item path.
TEST(SwarFinder, CappedEngineRecoveryMatchesSerial) {
  const fs::path dir =
      fs::temp_directory_path() / ("cof_swar_cap_" + std::to_string(::getpid()));
  fs::create_directories(dir);
  auto g = swar_genome(1505);
  auto cfg = parse_input(example_input("<file>"));
  const std::string guide = cfg.queries[0].seq.substr(0, 20) + "NGG";
  genome::plant_sites(g, guide, cfg.pattern, 6, 1, 1506);
  const auto file = (dir / "g.fa").string();
  genome::write_fasta_file(file, g.chroms);
  const auto want = serial_search(cfg.pattern, cfg.queries, g);
  ASSERT_FALSE(want.empty());
  for (const backend_kind backend :
       {backend_kind::sycl, backend_kind::sycl_usm, backend_kind::opencl}) {
    engine_options opt{.backend = backend,
                       .variant = comparer_variant::opt6,
                       .wg_size = 100,
                       .max_chunk = 9000};
    opt.max_entries = 3;
    for (const bool scalar : {false, true}) {
      scalar_guard guard(scalar);
      const auto got = run_search_streaming(cfg, file, opt);
      EXPECT_EQ(got.records, want) << backend_name(backend) << " scalar=" << scalar;
      EXPECT_GE(got.metrics.recovery.recovered_overflows, 1u);
    }
  }
  fs::remove_all(dir);
}

}  // namespace
