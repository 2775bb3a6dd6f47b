// Paged per-session, per-layer key/value cache for autoregressive decoding
// — the decode memory subsystem (DESIGN.md §8; the slot arena it replaced
// is described in the §6 history).
//
// During decode, attention at position t needs the K/V projections of every
// earlier position of the *same sequence*. The old slot arena gave each
// session max_seq rows per layer for its whole life, so concurrency was
// capped by lane count regardless of actual prompt lengths. Here storage is
// *paged*: a KvPagePool of fixed-size pages (page_size positions each; one
// page holds layers × {K,V} × page_size × hidden floats), and each session
// owns a page table mapping position → (page, row). Memory tracks the
// tokens sessions actually hold, which is what makes admission memory-aware
// (rt::DecodeEngine).
//
// Copy-on-write prefix sharing: adopt_prefix() points a fresh session's
// table at another owner's pages (refcounted), so sessions with a common
// system-prompt prefix share prefill pages. Pages stay shared until the
// first divergent write: ensure_writable() COW-splits a shared page —
// allocate, copy, swap, deref — before any write lands, so readers never
// observe the writer's rows.
//
// Threading discipline: all table/refcount mutation (claim, release,
// adopt_prefix, ensure_writable, ref/deref_pages) happens on the engine
// thread between rounds; worker threads only call k_row/v_row, which are
// pure lookups. The engine pre-ensures every position a round will write,
// so rank threads never race on allocator state (the pool-dispatch barrier
// orders everything else, as with the rest of the round state).
//
// Determinism: the pool's LIFO free list and the engine's fixed operation
// order make page ids identical across the stage replicas of a pipe, so
// one page-id vector (e.g. a registry pin) is valid for all of them.
#pragma once

#include <cstddef>
#include <vector>

#include "nn/kv_page_pool.h"
#include "support/check.h"

namespace chimera::nn {

class PagedKvCache {
 public:
  /// `layers` transformer layers (the owning stage's count), `sessions`
  /// page-table slots (the engine's lane capacity on this cache's pipe),
  /// positions up to `max_seq` of width `hidden`, backed by `pool_pages`
  /// pages of `page_size` positions each. `pool_pages` must fit at least
  /// one full-length session — the eviction progress guarantee: a sole
  /// session can always decode to max_seq.
  PagedKvCache(int layers, int sessions, int max_seq, int hidden,
               int page_size, int pool_pages);

  int layers() const { return layers_; }
  int sessions() const { return sessions_; }
  int max_seq() const { return max_seq_; }
  int hidden() const { return hidden_; }
  int page_size() const { return page_size_; }

  /// ceil(positions / page_size): pages covering that many positions.
  static int pages_for(int positions, int page_size) {
    return (positions + page_size - 1) / page_size;
  }
  /// Pages a full-length (max_seq) session needs.
  int pages_per_session() const { return pages_for(max_seq_, page_size_); }

  // ---- session lifecycle -------------------------------------------------

  /// Marks `session` live with an empty page table. Claiming a live session
  /// throws CheckError (same contract as the old arena).
  void claim(int session);
  /// Releases the session: every table entry is dereferenced (pages whose
  /// refcount reaches zero return to the pool). Releasing a free session
  /// throws CheckError.
  void release(int session);
  bool is_free(int session) const { return !live_.at(session); }
  long total_claims() const { return total_claims_; }

  // ---- paging ------------------------------------------------------------

  const KvPagePool& pool() const { return pool_; }
  int free_pages() const { return pool_.free_pages(); }
  int pages_in_use() const { return pool_.pages_in_use(); }
  int pool_pages() const { return pool_.num_pages(); }
  /// Copy-on-write splits performed by ensure_writable() so far.
  long cow_splits() const { return cow_splits_; }

  /// Pages ensure_writable(session, begin, end) would have to take from the
  /// pool: unmapped tail pages plus COW splits of shared mapped pages. The
  /// admission/eviction pressure predicate of rt::DecodeEngine.
  int pages_needed(int session, int begin, int end) const;

  /// Makes positions [begin, end) of `session` writable: maps missing tail
  /// pages and COW-splits shared ones (the split copies the page — every
  /// layer's K and V rows — so previously valid positions keep their
  /// values). Positions must extend the table contiguously (begin within or
  /// directly after the mapped range). Throws rt::RequestError if the pool
  /// runs out (state up to that point is kept; the caller evicts and
  /// retries).
  void ensure_writable(int session, int begin, int end);

  // ---- prefix sharing ----------------------------------------------------

  /// The session's current page table (page ids in position order).
  const std::vector<int>& page_table(int session) const;
  /// Points freshly claimed `session` (table must be empty) at `pages`,
  /// shared: each page's refcount is incremented. The adopted pages cover
  /// positions [0, pages.size()·page_size); how many of those rows hold
  /// valid prefix data is the caller's bookkeeping (the engine's registry
  /// stores the matched length).
  void adopt_prefix(int session, const std::vector<int>& pages);
  /// Registry pin/unpin: add or drop one reader on each listed page (e.g.
  /// the engine's prefix registry keeping prompt pages alive after their
  /// owner retired).
  void ref_pages(const std::vector<int>& pages);
  void deref_pages(const std::vector<int>& pages);

  // ---- row storage -------------------------------------------------------

  /// K row of (layer, session) at position `pos`: `hidden` floats. Pure
  /// table lookup — the position's page must be mapped. Writes are legal
  /// only to positions the engine pre-ensured via ensure_writable(). The
  /// rows of one page are consecutive at stride `hidden`, so the row of a
  /// page's first position spans the whole page (decode reads it in place).
  float* k_row(int layer, int session, int pos) {
    return pool_.data(page_at(session, pos)) + offset(layer, 0, pos);
  }
  const float* k_row(int layer, int session, int pos) const {
    return pool_.data(page_at(session, pos)) + offset(layer, 0, pos);
  }
  float* v_row(int layer, int session, int pos) {
    return pool_.data(page_at(session, pos)) + offset(layer, 1, pos);
  }
  const float* v_row(int layer, int session, int pos) const {
    return pool_.data(page_at(session, pos)) + offset(layer, 1, pos);
  }

  /// Total bytes of K/V page storage held (fixed at construction).
  std::size_t bytes() const { return pool_.bytes(); }

 private:
  int page_at(int session, int pos) const {
    CHIMERA_CHECK(session >= 0 && session < sessions_ && pos >= 0 &&
                  pos < max_seq_);
    const auto& table = table_[session];
    const int idx = pos / page_size_;
    CHIMERA_CHECK_MSG(idx < static_cast<int>(table.size()),
                      "position " << pos << " of session " << session
                                  << " is not mapped");
    return table[idx];
  }
  /// Offset of (layer, K/V, row-in-page) inside a page block:
  /// [layer][kv][page_size][hidden].
  std::size_t offset(int layer, int kv, int pos) const {
    CHIMERA_CHECK(layer >= 0 && layer < layers_);
    return ((static_cast<std::size_t>(layer) * 2 + kv) * page_size_ +
            pos % page_size_) *
           hidden_;
  }

  int layers_, sessions_, max_seq_, hidden_, page_size_;
  long total_claims_ = 0;
  long cow_splits_ = 0;
  std::vector<char> live_;
  std::vector<std::vector<int>> table_;  ///< [session] -> page ids
  KvPagePool pool_;
};

}  // namespace chimera::nn
