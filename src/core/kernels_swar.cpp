// Host-side packing for opt6, its finder lane row and the comparer's AVX2
// lane-batched body. The AVX2 code lives here (not in the header) so it can carry a
// target("avx2") attribute and compile in a portable build; runtime
// dispatch (util::simd_lanes_enabled) guarantees it only executes on hosts
// with the instructions.
#include "core/kernels_swar.hpp"

#include <algorithm>
#include <array>
#include <atomic>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace cof {

namespace {

/// Per byte value: the 2-bit code of 'A'/'C'/'G'/'T' in bits 0-1, or, for
/// every other byte, the ambiguity bit at bit 32. Shifted into place at 2j,
/// sixteen bases fill the low half (codes) and the high half (ambiguity)
/// of one accumulator.
constexpr std::array<u64, 256> kPackLut = [] {
  std::array<u64, 256> t{};
  for (auto& e : t) e = u64{1} << 32;
  t['A'] = 0;
  t['C'] = 1;
  t['G'] = 2;
  t['T'] = 3;
  return t;
}();

/// Codes (low half) and ambiguity bits (high half) of s[0, n), n <= 16.
inline u64 pack16(const unsigned char* s, usize n) {
  u64 x = 0;
  for (usize j = 0; j < n; ++j) x |= kPackLut[s[j]] << (2 * j);
  return x;
}

constexpr u64 kLowHalf = 0xFFFFFFFFull;

}  // namespace

swar_ref swar_pack(std::string_view seq) {
  swar_ref r;
  r.bases = seq.size();
  const usize nwords = (seq.size() + 31) / 32 + 2;  // +2: window-fetch padding
  r.packed2.assign(nwords, 0);
  r.amb2.assign(nwords, 0);
  const auto* s = reinterpret_cast<const unsigned char*>(seq.data());
  const usize full = seq.size() / 32;
  for (usize w = 0; w < full; ++w) {
    const u64 lo = pack16(s + 32 * w, 16);
    const u64 hi = pack16(s + 32 * w + 16, 16);
    r.packed2[w] = (lo & kLowHalf) | (hi << 32);
    r.amb2[w] = (lo >> 32) | (hi & ~kLowHalf);
  }
  if (const usize tail = seq.size() - 32 * full; tail != 0) {
    const unsigned char* t = s + 32 * full;
    const u64 lo = pack16(t, std::min<usize>(tail, 16));
    const u64 hi = tail > 16 ? pack16(t + 16, tail - 16) : 0;
    r.packed2[full] = (lo & kLowHalf) | (hi << 32);
    r.amb2[full] = (lo >> 32) | (hi & ~kLowHalf);
  }
  return r;
}

// ---------------------------------------------------------------------------
// finder lane row
// ---------------------------------------------------------------------------

namespace {

/// One non-N pattern position of one strand: its offset, its opt5 deny LUT
/// and, per reference code A/C/G/T, the LUT's verdict as an even-bit lane
/// mask (all lanes or none).
struct finder_pos {
  u32 k = 0;
  u16 lut = 0;
  u64 deny[kSwarMasksPerWord] = {};
};

/// Mismatch lanes of one strand for the 32 start positions of word `w`:
/// bit 2j is set when position 32w+j mismatches at least one pattern
/// position. Only `live` lanes are char-tested at ambiguous bases; the scan
/// stops once every live lane has mismatched.
u64 strand_mismatch(const finder_pos* ps, usize np, const u64* packed2,
                    const u64* amb2, const char* chr, usize w, u64 live) {
  u64 acc = 0;
  for (usize i = 0; i < np && (acc & live) != live; ++i) {
    const finder_pos& fp = ps[i];
    const usize wk = w + (fp.k >> 5);
    const u32 shift = 2 * (fp.k & 31u);
    // (hi << (63-s)) << 1 == hi << (64-s), well-defined at s == 0 too.
    const u64 ref = (packed2[wk] >> shift) | ((packed2[wk + 1] << (63 - shift)) << 1);
    const u64 amb = (amb2[wk] >> shift) | ((amb2[wk + 1] << (63 - shift)) << 1);
    u64 mm = 0;
    for (usize c = 0; c < kSwarMasksPerWord; ++c) {
      const u64 t = ~(ref ^ kSwarBroadcast[c]);
      mm |= t & (t >> 1) & fp.deny[c];
    }
    acc |= mm & ~amb;
    // Packed codes are meaningless at ambiguous bases: exact LUT test on the
    // raw char, for live lanes still in the running.
    u64 rest = amb & live & ~acc;
    while (rest != 0) {
      const u32 b = static_cast<u32>(__builtin_ctzll(rest));
      rest &= rest - 1;
      const char rv = chr[32 * w + (b >> 1) + fp.k];
      if ((fp.lut >> genome::iupac_nibble(rv)) & 1u) acc |= u64{1} << b;
    }
  }
  return acc;
}

/// Even-bit mask of the lanes j of word `w` with first <= 32w+j < end.
u64 live_lanes(usize w, usize first, usize end) {
  const usize base = 32 * w;
  const usize lo = first > base ? first - base : 0;
  const usize hi = std::min<usize>(end - base, 32);
  const u64 below_hi = hi >= 32 ? ~u64{0} : (u64{1} << (2 * hi)) - 1;
  const u64 below_lo = (u64{1} << (2 * lo)) - 1;
  return below_hi & ~below_lo & kSwarEvenBits;
}

}  // namespace

void finder_swar_lanes(const finder_args& a, const u64* chr_packed2,
                       const u64* chr_amb2, usize first, usize nlanes) {
  const usize end = std::min<usize>(first + nlanes, a.chrsize);
  if (first >= end) return;

  // Both strands' non-N positions, fw then rc (the -1-terminated index).
  thread_local std::vector<finder_pos> ps;
  ps.clear();
  usize nfw = 0;
  for (u32 half = 0; half < 2; ++half) {
    for (u32 j = 0; j < a.plen; ++j) {
      const i32 k = a.pat_index[half * a.plen + j];
      if (k == -1) break;
      finder_pos fp;
      fp.k = static_cast<u32>(k);
      fp.lut = a.pat_mask[half * a.plen + fp.k];
      for (usize c = 0; c < kSwarMasksPerWord; ++c) {
        const char base = "ACGT"[c];
        if ((fp.lut >> genome::iupac_nibble(base)) & 1u) fp.deny[c] = kSwarEvenBits;
      }
      ps.push_back(fp);
    }
    if (half == 0) nfw = ps.size();
  }
  const finder_pos* fw_ps = ps.data();
  const finder_pos* rc_ps = ps.data() + nfw;
  const usize nrc = ps.size() - nfw;

  // Words are matched a block at a time; each block's hits take one
  // counter fetch_add and are written in ascending position order.
  constexpr usize kBlockWords = 32;
  u64 fw_hit[kBlockWords];
  u64 rc_hit[kBlockWords];
  const usize wlast = (end - 1) >> 5;
  for (usize wb = first >> 5; wb <= wlast; wb += kBlockWords) {
    const usize nw = std::min<usize>(kBlockWords, wlast + 1 - wb);
    u32 hits = 0;
    for (usize i = 0; i < nw; ++i) {
      const usize w = wb + i;
      const u64 live = live_lanes(w, first, end);
      fw_hit[i] = live & ~strand_mismatch(fw_ps, nfw, chr_packed2, chr_amb2, a.chr, w, live);
      rc_hit[i] = live & ~strand_mismatch(rc_ps, nrc, chr_packed2, chr_amb2, a.chr, w, live);
      hits += static_cast<u32>(__builtin_popcountll(fw_hit[i] | rc_hit[i]));
    }
    if (hits == 0) continue;
    u32 slot = std::atomic_ref<u32>(*a.entrycount).fetch_add(hits);
    for (usize i = 0; i < nw && slot < a.entry_capacity; ++i) {
      u64 any = fw_hit[i] | rc_hit[i];
      while (any != 0 && slot < a.entry_capacity) {
        const u32 b = static_cast<u32>(__builtin_ctzll(any));
        any &= any - 1;
        const u64 bit = u64{1} << b;
        a.loci[slot] = static_cast<u32>(32 * (wb + i) + (b >> 1));
        a.flag[slot] = (fw_hit[i] & bit) != 0 ? ((rc_hit[i] & bit) != 0 ? 0 : 1) : 2;
        ++slot;
      }
    }
  }
}

namespace detail {

namespace {

/// Scalar lane loop — the portable body and the tail handler of the AVX2
/// path. Identical arithmetic to comparer_swar_kernel's post-fetch phase.
void lanes_scalar(const comparer_swar_args& a, usize first, usize nlanes) {
  for (usize l = 0; l < nlanes; ++l) {
    direct_mem::item p;
    swar_item_body<direct_mem::item>(p, a, first + l);
  }
}

}  // namespace

#if defined(__x86_64__)

namespace {

/// Four loci per instruction stream: gathered window fetch, SWAR mismatch
/// masks and popcounts across lanes; ambiguity fallback and the atomic
/// appends peel out per lane. Only sound for the direct memory policy (no
/// event counting) — the facades only install the lane path when profiling
/// is off.
__attribute__((target("avx2,popcnt"))) void avx2_quad(const comparer_swar_args& a,
                                                      const usize gid[4]) {
  const auto* packed = reinterpret_cast<const long long*>(a.chr_packed2);
  const auto* ambp = reinterpret_cast<const long long*>(a.chr_amb2);

  char f[4];
  u32 locus[4];
  for (int l = 0; l < 4; ++l) {
    f[l] = a.flag[gid[l]];
    locus[l] = a.loci[gid[l]];
  }

  const __m256i vloci = _mm256_set_epi64x(locus[3], locus[2], locus[1], locus[0]);
  const __m256i vwi = _mm256_srli_epi64(vloci, 5);
  const __m256i vshift =
      _mm256_slli_epi64(_mm256_and_si256(vloci, _mm256_set1_epi64x(31)), 1);
  const __m256i vshift_hi = _mm256_sub_epi64(_mm256_set1_epi64x(63), vshift);
  const __m256i veven = _mm256_set1_epi64x(static_cast<long long>(kSwarEvenBits));
  const __m256i vones = _mm256_set1_epi64x(-1);

  for (int half = 0; half < 2; ++half) {
    const usize swar_base =
        static_cast<usize>(half) * a.swar_words * kSwarMasksPerWord;
    u32 lmm[4] = {0, 0, 0, 0};
    for (u32 w = 0; w < a.swar_words; ++w) {
      const __m256i vidx = _mm256_add_epi64(vwi, _mm256_set1_epi64x(w));
      const __m256i vidx1 = _mm256_add_epi64(vidx, _mm256_set1_epi64x(1));
      const __m256i lo = _mm256_i64gather_epi64(packed, vidx, 8);
      const __m256i hi = _mm256_i64gather_epi64(packed, vidx1, 8);
      const __m256i alo = _mm256_i64gather_epi64(ambp, vidx, 8);
      const __m256i ahi = _mm256_i64gather_epi64(ambp, vidx1, 8);
      const __m256i ref = _mm256_or_si256(
          _mm256_srlv_epi64(lo, vshift),
          _mm256_slli_epi64(_mm256_sllv_epi64(hi, vshift_hi), 1));
      __m256i amb = _mm256_or_si256(
          _mm256_srlv_epi64(alo, vshift),
          _mm256_slli_epi64(_mm256_sllv_epi64(ahi, vshift_hi), 1));
      const u32 nb = a.plen - 32 * w;
      const u64 active = nb >= 32 ? ~u64{0} : (u64{1} << (2 * nb)) - 1;
      amb = _mm256_and_si256(amb, _mm256_set1_epi64x(static_cast<long long>(active)));

      __m256i mm = _mm256_setzero_si256();
      for (int c = 0; c < 4; ++c) {
        const __m256i x = _mm256_xor_si256(
            ref, _mm256_set1_epi64x(static_cast<long long>(kSwarBroadcast[c])));
        const __m256i t = _mm256_xor_si256(x, vones);
        const __m256i eq =
            _mm256_and_si256(_mm256_and_si256(t, _mm256_srli_epi64(t, 1)), veven);
        const __m256i deny = _mm256_set1_epi64x(static_cast<long long>(
            a.l_comp_swar[swar_base + w * kSwarMasksPerWord + c]));
        mm = _mm256_or_si256(mm, _mm256_and_si256(eq, deny));
      }
      mm = _mm256_andnot_si256(amb, mm);

      alignas(32) u64 mm_l[4];
      alignas(32) u64 amb_l[4];
      _mm256_store_si256(reinterpret_cast<__m256i*>(mm_l), mm);
      _mm256_store_si256(reinterpret_cast<__m256i*>(amb_l), amb);
      for (int l = 0; l < 4; ++l) {
        lmm[l] += static_cast<u32>(_mm_popcnt_u64(mm_l[l]));
        u64 rest = amb_l[l];
        while (rest != 0) {
          const u32 j = static_cast<u32>(__builtin_ctzll(rest)) >> 1;
          rest &= rest - 1;
          const usize k = 32 * w + j;
          const char rv = a.chr[locus[l] + k];
          const u16 lut = a.l_comp_mask[static_cast<usize>(half) * a.plen + k];
          if ((lut >> genome::iupac_nibble(rv)) & 1u) ++lmm[l];
        }
      }
    }
    for (int l = 0; l < 4; ++l) {
      if (!(f[l] == 0 || f[l] == half + 1)) continue;
      if (lmm[l] > a.threshold) continue;
      const u32 old = std::atomic_ref<u32>(*a.entrycount).fetch_add(1u);
      if (old < a.entry_capacity) {
        a.mm_count[old] = static_cast<u16>(lmm[l]);
        a.direction[old] = half == 0 ? '+' : '-';
        a.mm_loci[old] = locus[l];
      }
    }
  }
}

}  // namespace

void comparer_swar_post_avx2(const comparer_swar_args& a, usize first, usize nlanes) {
  // Lanes past locicnts are idle (the ND-range is rounded up to the group
  // size); clip them so quads only cover live work-items.
  const usize end = first >= a.locicnts
                        ? first
                        : first + std::min<usize>(nlanes, a.locicnts - first);
  usize i = first;
  for (; i + 4 <= end; i += 4) {
    const usize gid[4] = {i, i + 1, i + 2, i + 3};
    avx2_quad(a, gid);
  }
  lanes_scalar(a, i, end - i);
}

#else  // !__x86_64__

void comparer_swar_post_avx2(const comparer_swar_args& a, usize first, usize nlanes) {
  lanes_scalar(a, first, nlanes);
}

#endif

}  // namespace detail
}  // namespace cof
