#include "sim/cache.h"

#include <algorithm>
#include <bit>
#include <stdexcept>

namespace dcprof::sim {

namespace {
unsigned log2_exact(std::uint64_t v, const char* what) {
  if (v == 0 || (v & (v - 1)) != 0) {
    throw std::invalid_argument(std::string(what) + " must be a power of two");
  }
  return static_cast<unsigned>(std::countr_zero(v));
}
}  // namespace

SetAssocCache::SetAssocCache(const CacheConfig& cfg)
    : line_shift_(log2_exact(cfg.line_bytes, "cache line_bytes")),
      set_mask_(0),
      assoc_(cfg.associativity) {
  if (line_shift_ == 0) {
    throw std::invalid_argument("cache line_bytes must be at least 2");
  }
  if (assoc_ == 0) {
    throw std::invalid_argument("cache associativity must be > 0");
  }
  const std::size_t sets = cfg.size_bytes / (cfg.line_bytes * assoc_);
  if (sets == 0) throw std::invalid_argument("cache too small for geometry");
  log2_exact(sets, "cache set count");
  set_mask_ = sets - 1;
  tags_.assign(sets * assoc_, kInvalidTag);
}

bool SetAssocCache::contains(Addr addr) const {
  const Addr tag = addr >> line_shift_;
  const Addr* set = &tags_[(tag & set_mask_) * assoc_];
  return std::find(set, set + assoc_, tag) != set + assoc_;
}

void SetAssocCache::invalidate(Addr addr) {
  const Addr tag = addr >> line_shift_;
  Addr* set = &tags_[(tag & set_mask_) * assoc_];
  Addr* const end = set + assoc_;
  Addr* way = std::find(set, end, tag);
  if (way == end) return;
  // Close the gap so empty ways stay behind the valid ones.
  std::copy(way + 1, end, way);
  end[-1] = kInvalidTag;
}

void SetAssocCache::clear() {
  std::fill(tags_.begin(), tags_.end(), kInvalidTag);
}

Tlb::Tlb(unsigned entries, std::size_t page_bytes)
    : page_shift_(log2_exact(page_bytes, "page size")), entries_(entries) {
  if (entries_ == 0) throw std::invalid_argument("tlb entries must be > 0");
  pages_.resize(entries_);
}

const char* to_string(MemLevel level) {
  switch (level) {
    case MemLevel::kL1: return "L1";
    case MemLevel::kL2: return "L2";
    case MemLevel::kL3: return "L3";
    case MemLevel::kLocalDram: return "LocalDram";
    case MemLevel::kRemoteDram: return "RemoteDram";
  }
  return "?";
}

}  // namespace dcprof::sim
