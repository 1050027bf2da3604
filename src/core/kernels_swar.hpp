// opt6 — the two-bit SWAR comparer (the rung past opt5 on the optimisation
// ladder). The reference chunk travels as 2-bit packed codes (32 bases per
// 64-bit word) plus an ambiguity flag in the same 2-bit geometry; the host
// precomputes, per query half and per 32-base word, one 64-bit deny mask for
// each reference code (device_pattern::swar, derived bit-for-bit from the
// opt5 deny LUT). One word evaluation replaces up to 32 opt5 loop
// iterations:
//
//   eq_c  = SWAR "both bits equal" of (ref ^ broadcast(c)), even bits
//   mm   |= eq_c & deny_c            for c in {A,C,G,T}
//   count = popcount(mm & ~ambiguous & active)
//
// Ambiguous reference positions (any non-ACGT base) are exact-matched by a
// scalar fallback against the raw chunk chars through the opt5 LUT (every
// facade keeps the chars resident next to the packed words), so the kernel
// is byte-identical to opt5 and the serial reference on every input —
// asserted exhaustively by tests/test_swar.cpp.
//
// The kernels cooperate with the two-phase executor (single leading barrier)
// like every other comparer, and additionally expose a lane-batched
// post-fetch body (comparer_swar_lanes) the executor can invoke over a whole
// work-group row; on AVX2 hosts that body processes four work-items per
// instruction stream (kernels_swar.cpp), with a scalar per-lane loop as the
// portable fallback.
//
// opt6's finder keeps the per-item body of the bitmask-LUT finder
// (finder_kernel_mask, the counted path) and adds a lane-batched row body
// over the same packed words (finder_swar_lanes): one SWAR evaluation tests
// a pattern position at 32 start positions, so a row of a work-group costs
// a few word operations per PAM base instead of one early-exit loop per
// work-item.
#pragma once

#include <string_view>
#include <vector>

#include "core/kernels.hpp"
#include "core/pattern.hpp"
#include "util/cpufeat.hpp"

namespace cof {

using util::u64;
using util::u8;

/// Even-bit lane mask: bit 2*j selects base j of a packed word.
inline constexpr u64 kSwarEvenBits = 0x5555555555555555ull;

/// 2-bit broadcast of each base code across a 64-bit word (A=0b00.., C=0b01..,
/// G=0b10.., T=0b11..): XOR with the packed reference zeroes the lanes whose
/// code equals c.
inline constexpr u64 kSwarBroadcast[4] = {
    0x0000000000000000ull, kSwarEvenBits, ~kSwarEvenBits, ~0ull};

/// Host-packed reference chunk for the opt6 comparer: 2-bit codes, 32 bases
/// per u64, plus ambiguity flags in the same geometry (bit 2*(i&31) of word
/// i>>5 set when base i is not a concrete A/C/G/T). Both arrays carry two
/// zero words of tail padding so the kernel's unaligned two-word window
/// fetch never reads past the end.
struct swar_ref {
  std::vector<u64> packed2;
  std::vector<u64> amb2;
  usize bases = 0;
};

/// Pack an upper-case IUPAC sequence (kernels_swar.cpp): table-driven and
/// branch-free, 32 bases per word. Every byte other than 'A', 'C', 'G' and
/// 'T' sets its ambiguity bit and leaves a zero code.
swar_ref swar_pack(std::string_view seq);

// ---------------------------------------------------------------------------
// kernel arguments
// ---------------------------------------------------------------------------

struct comparer_swar_args {
  u32 locicnts = 0;
  const u64* chr_packed2 = nullptr;  // 2-bit codes, padded (global)
  const u64* chr_amb2 = nullptr;     // ambiguity flags, same geometry (global)
  const char* chr = nullptr;         // raw chars, ambiguity fallback (global)
  const u32* loci = nullptr;         // finder output (global)
  const char* flag = nullptr;        // finder output (global)
  const u64* comp_swar = nullptr;    // 2*swar_words*kSwarMasksPerWord (constant)
  const u16* comp_mask = nullptr;    // opt5 LUTs, ambiguity fallback (constant)
  u32 plen = 0;
  u32 swar_words = 0;                // ceil(plen/32)
  u16 threshold = 0;
  u16* mm_count = nullptr;           // out per entry (global)
  char* direction = nullptr;         // out: '+' or '-' (global)
  u32* mm_loci = nullptr;            // out (global)
  u32* entrycount = nullptr;         // atomic append counter (global)
  /// Output-array capacity; appends at or past it are dropped (counter
  /// still advances so the host can report the overflow).
  u32 entry_capacity = ~u32{0};
  u64* l_comp_swar = nullptr;        // local, 2*swar_words*kSwarMasksPerWord
  u16* l_comp_mask = nullptr;        // local, 2*plen
};

/// Batched multi-query twin (the comparer_multi path under opt6): per-query
/// SWAR masks and LUTs are concatenated, loci/flag read once per locus.
struct comparer_multi_swar_args {
  u32 locicnts = 0;
  const u64* chr_packed2 = nullptr;
  const u64* chr_amb2 = nullptr;
  const char* chr = nullptr;
  const u32* loci = nullptr;
  const char* flag = nullptr;
  const u64* comp_swar = nullptr;    // nqueries x 2*swar_words*kSwarMasksPerWord
  const u16* comp_mask = nullptr;    // nqueries x 2*plen
  const u16* thresholds = nullptr;   // per query
  u32 nqueries = 0;
  u32 plen = 0;
  u32 swar_words = 0;
  u16* mm_count = nullptr;
  char* direction = nullptr;
  u32* mm_loci = nullptr;
  u16* mm_query = nullptr;           // out: query index per entry
  u32* entrycount = nullptr;
  u32 entry_capacity = ~u32{0};
  u64* l_comp_swar = nullptr;        // local
  u16* l_comp_mask = nullptr;        // local
};

// ---------------------------------------------------------------------------
// scalar kernel bodies
// ---------------------------------------------------------------------------

namespace detail {

/// Mismatches of one strand at `locus`, SWAR word by word. `swar_base` /
/// `mask_base` address this (query, half)'s masks inside the local arrays.
/// Sets `under` false (and stops) once the count exceeds the threshold;
/// when `under` survives, the return value is the exact mismatch count the
/// sequential opt5 scan would produce.
template <class PItem>
inline u16 swar_count_strand(PItem& p, const comparer_swar_args& a,
                             const u64* l_swar, usize swar_base,
                             const u16* l_mask, usize mask_base, u32 locus,
                             u16 threshold, bool& under) {
  const u32 shift = 2 * (locus & 31u);
  const usize wi = locus >> 5;
  u16 lmm = 0;
  under = true;
  for (u32 w = 0; w < a.swar_words; ++w) {
    const u64 lo = p.gload(a.chr_packed2, wi + w);
    const u64 hi = p.gload(a.chr_packed2, wi + w + 1);
    const u64 alo = p.gload(a.chr_amb2, wi + w);
    const u64 ahi = p.gload(a.chr_amb2, wi + w + 1);
    // (hi << (63-s)) << 1 == hi << (64-s), well-defined at s == 0 too.
    const u64 ref = (lo >> shift) | ((hi << (63 - shift)) << 1);
    u64 amb = (alo >> shift) | ((ahi << (63 - shift)) << 1);
    // Ragged tail: only the first plen-32w bases of the last word are live.
    const u32 nb = a.plen - 32 * w;
    const u64 active = nb >= 32 ? ~u64{0} : (u64{1} << (2 * nb)) - 1;
    amb &= active;

    p.count_swar();
    u64 mm = 0;
    for (int c = 0; c < 4; ++c) {
      const u64 x = ref ^ kSwarBroadcast[c];
      const u64 t = ~x;
      const u64 eq = t & (t >> 1) & kSwarEvenBits;
      mm |= eq & p.lload(l_swar, swar_base + w * kSwarMasksPerWord + c);
    }
    // Packed codes are meaningless at ambiguous positions; those fall back
    // below.
    mm &= ~amb;
    lmm = static_cast<u16>(lmm + __builtin_popcountll(mm));

    // Exact opt5 semantics for every ambiguous reference character: LUT
    // test on the raw chunk char.
    u64 rest = amb;
    while (rest != 0) {
      const u32 j = static_cast<u32>(__builtin_ctzll(rest)) >> 1;
      rest &= rest - 1;
      const usize k = 32 * w + j;
      const char rv = p.gload(a.chr, locus + k);
      auto mask = [&] { return p.lload(l_mask, mask_base + k); };
      if (mask_mismatch(p, mask, rv)) ++lmm;
    }
    if (lmm > threshold) {
      p.count_branch();
      under = false;
      return lmm;
    }
  }
  return lmm;
}

template <class PItem>
inline void swar_strand(PItem& p, const comparer_swar_args& a, int half, char dir,
                        u32 locus) {
  bool under = false;
  const u16 lmm = swar_count_strand<PItem>(
      p, a, a.l_comp_swar,
      static_cast<usize>(half) * a.swar_words * kSwarMasksPerWord, a.l_comp_mask,
      static_cast<usize>(half) * a.plen, locus, a.threshold, under);
  if (under) {
    const u32 old = p.atomic_inc(a.entrycount);
    if (old < a.entry_capacity) {
      p.gstore(a.mm_count, old, lmm);
      p.gstore(a.direction, old, dir);
      p.gstore(a.mm_loci, old, locus);
    }
  }
}

/// Post-fetch work of one work-item (also the lane-loop body).
template <class PItem>
inline void swar_item_body(PItem& p, const comparer_swar_args& a, usize i) {
  if (i >= a.locicnts) return;
  const char f = p.gload(a.flag, i);
  const u32 locus = p.gload(a.loci, i);
  if (f == 0 || f == 1) swar_strand<PItem>(p, a, 0, '+', locus);
  if (f == 0 || f == 2) swar_strand<PItem>(p, a, 1, '-', locus);
}

/// AVX2 lane-batched post-fetch body: four work-items per instruction
/// stream, direct (uncounted) accesses only. Implemented in
/// kernels_swar.cpp behind a target("avx2") attribute; only called when
/// util::cpu().avx2 holds.
void comparer_swar_post_avx2(const comparer_swar_args& a, usize first, usize nlanes);

}  // namespace detail

/// opt6 comparer. Structure mirrors opt5 (cooperative fetch, single leading
/// barrier, two-phase cooperation); the fetch brings in the per-word SWAR
/// masks and the opt5 LUTs for the ambiguity fallback.
template <class P, class Item>
inline void comparer_swar_kernel(const Item& it, const comparer_swar_args& a) {
  typename P::item p;
  const usize i = it.get_global_id(0);
  const usize li = i - it.get_group(0) * it.get_local_range(0);

  const xpu::exec_phase ph = it.cof_phase();
  if (ph != xpu::exec_phase::post_fetch) {
    const u32 nswar = 2 * a.swar_words * static_cast<u32>(kSwarMasksPerWord);
    for (u32 k = static_cast<u32>(li); k < nswar;
         k += static_cast<u32>(it.get_local_range(0))) {
      p.lstore(a.l_comp_swar, k, p.gload(a.comp_swar, k));
    }
    for (u32 k = static_cast<u32>(li); k < a.plen * 2;
         k += static_cast<u32>(it.get_local_range(0))) {
      p.lstore(a.l_comp_mask, k, p.gload(a.comp_mask, k));
    }
    if (ph == xpu::exec_phase::fetch_only) return;
    it.barrier();
  }
  detail::swar_item_body<typename P::item>(p, a, i);
}

/// Lane-batched post-fetch entry (direct memory policy only): the facades
/// hand this to the executor's lane dispatch for work-items
/// [first, first+nlanes). AVX2 when available, scalar lane loop otherwise;
/// both orders of arithmetic are identical, so the output bytes are too.
inline void comparer_swar_lanes(const comparer_swar_args& a, usize first,
                                usize nlanes) {
  if (util::simd_lanes_enabled()) {
    detail::comparer_swar_post_avx2(a, first, nlanes);
    return;
  }
  for (usize l = 0; l < nlanes; ++l) {
    direct_mem::item p;
    detail::swar_item_body<direct_mem::item>(p, a, first + l);
  }
}

// ---------------------------------------------------------------------------
// finder lane row
// ---------------------------------------------------------------------------

/// opt6 finder, lane-batched row body (direct memory policy only): tests the
/// start positions [first, first+nlanes) ∩ [0, chrsize) against the pattern
/// and appends the hits exactly as finder_kernel_mask would, up to order.
/// For each 32-position word and each strand, every non-N pattern position
/// k contributes the mismatch lanes of the packed window shifted by k (the
/// comparer's eq/deny SWAR, deny bits from the pattern's opt5 LUT);
/// ambiguous reference bases take the exact LUT test on the raw chars. Only
/// positions the row owns are ever read as chars. Hits leave in ascending
/// position order through one counter fetch_add per block of words; the
/// counter still advances past entry_capacity, so overflow detection is
/// unchanged. Reads `a.pat_mask` / `a.pat_index` from their global arrays
/// (no local memory, no barrier).
void finder_swar_lanes(const finder_args& a, const u64* chr_packed2,
                       const u64* chr_amb2, usize first, usize nlanes);

// ---------------------------------------------------------------------------
// batched multi-query kernel
// ---------------------------------------------------------------------------

template <class P, class Item>
inline void comparer_multi_swar_kernel(const Item& it,
                                       const comparer_multi_swar_args& a) {
  typename P::item p;
  const usize i = it.get_global_id(0);
  const usize li = i - it.get_group(0) * it.get_local_range(0);

  const xpu::exec_phase ph = it.cof_phase();
  if (ph != xpu::exec_phase::post_fetch) {
    const u32 nswar =
        a.nqueries * 2 * a.swar_words * static_cast<u32>(kSwarMasksPerWord);
    for (u32 k = static_cast<u32>(li); k < nswar;
         k += static_cast<u32>(it.get_local_range(0))) {
      p.lstore(a.l_comp_swar, k, p.gload(a.comp_swar, k));
    }
    for (u32 k = static_cast<u32>(li); k < a.nqueries * a.plen * 2;
         k += static_cast<u32>(it.get_local_range(0))) {
      p.lstore(a.l_comp_mask, k, p.gload(a.comp_mask, k));
    }
    if (ph == xpu::exec_phase::fetch_only) return;
    it.barrier();
  }
  if (i >= a.locicnts) return;

  // loci[i]/flag[i]: ONE read each for all queries (as comparer_multi_impl).
  const char f = p.gload(a.flag, i);
  const u32 locus = p.gload(a.loci, i);

  // View each (query, half) through the single-query strand counter: the
  // per-strand argument block aliases the shared chunk/output arrays.
  comparer_swar_args s;
  s.locicnts = a.locicnts;
  s.chr_packed2 = a.chr_packed2;
  s.chr_amb2 = a.chr_amb2;
  s.chr = a.chr;
  s.plen = a.plen;
  s.swar_words = a.swar_words;
  for (u32 q = 0; q < a.nqueries; ++q) {
    const u16 threshold = p.gload(a.thresholds, q);
    for (int half = 0; half < 2; ++half) {
      if (!(f == 0 || f == static_cast<char>(half + 1))) continue;
      bool under = false;
      const u16 lmm = detail::swar_count_strand<typename P::item>(
          p, s, a.l_comp_swar,
          (static_cast<usize>(q) * 2 + static_cast<usize>(half)) * a.swar_words *
              kSwarMasksPerWord,
          a.l_comp_mask,
          (static_cast<usize>(q) * 2 + static_cast<usize>(half)) * a.plen, locus,
          threshold, under);
      if (under) {
        const u32 old = p.atomic_inc(a.entrycount);
        if (old < a.entry_capacity) {
          p.gstore(a.mm_count, old, lmm);
          p.gstore(a.direction, old, half == 0 ? '+' : '-');
          p.gstore(a.mm_loci, old, locus);
          p.gstore(a.mm_query, old, static_cast<u16>(q));
        }
      }
    }
  }
}

}  // namespace cof
