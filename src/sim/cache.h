// Set-associative LRU cache model.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/config.h"
#include "sim/types.h"

namespace dcprof::sim {

/// A set-associative cache with true-LRU replacement. Addresses are
/// looked up by cache line; the cache stores tags only (no data).
///
/// Each set is a flat run of `associativity` line tags in MRU-first
/// order; empty ways hold kInvalidTag and always sit behind the valid
/// ones. Lookups check the MRU way first and promote by shifting the
/// younger ways down one slot. Cache-line aligned so per-core and
/// per-socket instances never share a line.
class alignas(64) SetAssocCache {
 public:
  /// Throws std::invalid_argument for a zero associativity, a line size
  /// that is not a power of two >= 2, or a set count that is not a power
  /// of two >= 1.
  explicit SetAssocCache(const CacheConfig& cfg);

  /// Looks up `addr`; on a miss, fills the line (evicting LRU).
  /// Returns true on hit.
  bool access(Addr addr) {
    const Addr tag = addr >> line_shift_;
    Addr* set = &tags_[(tag & set_mask_) * assoc_];
    if (set[0] == tag) {
      ++hits_;
      return true;
    }
    unsigned i = 1;
    while (i < assoc_ && set[i] != tag) ++i;
    const bool hit = i < assoc_;
    if (hit) {
      ++hits_;
    } else {
      ++misses_;
      i = assoc_ - 1;  // the LRU way falls off
    }
    for (; i > 0; --i) set[i] = set[i - 1];
    set[0] = tag;
    return hit;
  }

  /// Looks up without filling. Used by tests and inclusive-probe logic.
  bool contains(Addr addr) const;

  /// Invalidates the line holding `addr` if present; the freed way is
  /// the next one filled.
  void invalidate(Addr addr);

  /// Drops all lines.
  void clear();

  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }
  unsigned line_bytes() const { return 1u << line_shift_; }
  std::size_t num_sets() const { return set_mask_ + 1; }
  unsigned associativity() const { return assoc_; }

 private:
  /// Never a real tag: tags are addresses shifted right by >= 1 bit.
  static constexpr Addr kInvalidTag = ~Addr{0};

  unsigned line_shift_;
  Addr set_mask_;
  unsigned assoc_;
  std::vector<Addr> tags_;  // (set_mask_ + 1) * assoc_, set-major
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

/// Fully-associative LRU TLB over pages: a fixed array of `entries`
/// page numbers, the first `size_` of them valid, in MRU-first order.
class Tlb {
 public:
  /// Throws std::invalid_argument for zero entries or a page size that
  /// is not a power of two.
  Tlb(unsigned entries, std::size_t page_bytes);

  /// Returns true on hit; on miss, installs the translation.
  bool access(Addr addr) {
    const Addr page = addr >> page_shift_;
    Addr* p = pages_.data();
    if (size_ != 0 && p[0] == page) {
      ++hits_;
      return true;
    }
    unsigned i = 1;
    while (i < size_ && p[i] != page) ++i;
    const bool hit = i < size_;
    if (hit) {
      ++hits_;
    } else {
      ++misses_;
      if (size_ < entries_) {
        i = size_++;
      } else {
        i = entries_ - 1;  // the LRU entry falls off
      }
    }
    for (; i > 0; --i) p[i] = p[i - 1];
    p[0] = page;
    return hit;
  }
  void clear() { size_ = 0; }

  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }

 private:
  unsigned page_shift_;
  unsigned entries_;
  unsigned size_ = 0;
  std::vector<Addr> pages_;  // entries_ slots, never resized
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace dcprof::sim
