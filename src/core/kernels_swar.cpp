// Host-side packing for the opt6 SWAR comparer and its AVX2 lane-batched
// body. The AVX2 code lives here (not in the header) so it can carry a
// target("avx2") attribute and compile in a portable build; runtime
// dispatch (util::simd_lanes_enabled) guarantees it only executes on hosts
// with the instructions.
#include "core/kernels_swar.hpp"

#include <algorithm>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace cof {

swar_ref swar_pack(std::string_view seq) {
  swar_ref r;
  r.bases = seq.size();
  const usize nwords = (seq.size() + 31) / 32 + 2;  // +2: window-fetch padding
  r.packed2.assign(nwords, 0);
  r.amb2.assign(nwords, 0);
  for (usize i = 0; i < seq.size(); ++i) {
    const usize w = i >> 5;
    const u32 bit = 2 * (static_cast<u32>(i) & 31u);
    u64 code;
    switch (seq[i]) {
      case 'A': code = 0; break;
      case 'C': code = 1; break;
      case 'G': code = 2; break;
      case 'T': code = 3; break;
      default:
        r.amb2[w] |= u64{1} << bit;
        continue;
    }
    r.packed2[w] |= code << bit;
  }
  return r;
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
