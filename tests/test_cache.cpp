#include "sim/cache.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <list>
#include <stdexcept>
#include <string>
#include <vector>

#include "verify/rng.h"
#include "workloads/harness.h"

namespace dcprof::sim {
namespace {

CacheConfig small_cache() {
  return CacheConfig{1024, 2, 64};  // 8 sets, 2 ways
}

TEST(SetAssocCache, MissesThenHits) {
  SetAssocCache cache(small_cache());
  EXPECT_FALSE(cache.access(0x1000));
  EXPECT_TRUE(cache.access(0x1000));
  EXPECT_TRUE(cache.access(0x1008));  // same line
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 2u);
}

TEST(SetAssocCache, DistinctLinesMissIndependently) {
  SetAssocCache cache(small_cache());
  EXPECT_FALSE(cache.access(0x1000));
  EXPECT_FALSE(cache.access(0x1040));  // next line, different set
  EXPECT_TRUE(cache.access(0x1000));
  EXPECT_TRUE(cache.access(0x1040));
}

TEST(SetAssocCache, LruEvictionWithinSet) {
  SetAssocCache cache(small_cache());
  // Set stride = sets * line = 8 * 64 = 512; same set every 512 bytes.
  const Addr a = 0x0;
  const Addr b = 0x200;
  const Addr c = 0x400;
  cache.access(a);
  cache.access(b);   // set now holds {b, a}, a is LRU
  cache.access(c);   // evicts a
  EXPECT_FALSE(cache.contains(a));
  EXPECT_TRUE(cache.contains(b));
  EXPECT_TRUE(cache.contains(c));
}

TEST(SetAssocCache, AccessRefreshesLru) {
  SetAssocCache cache(small_cache());
  const Addr a = 0x0;
  const Addr b = 0x200;
  const Addr c = 0x400;
  cache.access(a);
  cache.access(b);
  cache.access(a);  // a becomes MRU; b is now LRU
  cache.access(c);  // evicts b
  EXPECT_TRUE(cache.contains(a));
  EXPECT_FALSE(cache.contains(b));
}

TEST(SetAssocCache, ContainsDoesNotFill) {
  SetAssocCache cache(small_cache());
  EXPECT_FALSE(cache.contains(0x1000));
  EXPECT_FALSE(cache.access(0x1000));  // still a miss
}

TEST(SetAssocCache, InvalidateRemovesLine) {
  SetAssocCache cache(small_cache());
  cache.access(0x1000);
  cache.invalidate(0x1000);
  EXPECT_FALSE(cache.contains(0x1000));
  cache.invalidate(0x2000);  // invalidating absent line is a no-op
}

TEST(SetAssocCache, ClearDropsEverything) {
  SetAssocCache cache(small_cache());
  cache.access(0x1000);
  cache.access(0x2000);
  cache.clear();
  EXPECT_FALSE(cache.contains(0x1000));
  EXPECT_FALSE(cache.contains(0x2000));
}

TEST(SetAssocCache, RejectsNonPowerOfTwoGeometry) {
  EXPECT_THROW(SetAssocCache(CacheConfig{1000, 2, 64}),
               std::invalid_argument);
  EXPECT_THROW(SetAssocCache(CacheConfig{1024, 2, 48}),
               std::invalid_argument);
}

TEST(SetAssocCache, RejectsTooSmallGeometry) {
  EXPECT_THROW(SetAssocCache(CacheConfig{64, 2, 64}),
               std::invalid_argument);
}

// Returns the what() of the std::invalid_argument `make` throws ("" if
// it throws nothing).
std::string invalid_argument_of(const std::function<void()>& make) {
  try {
    make();
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

TEST(SetAssocCache, RejectsZeroAssociativityNamingTheField) {
  const std::string what = invalid_argument_of(
      [] { SetAssocCache cache(CacheConfig{1024, 0, 64}); });
  EXPECT_NE(what.find("associativity"), std::string::npos) << what;
}

TEST(SetAssocCache, RejectsOneByteLinesNamingTheField) {
  const std::string what = invalid_argument_of(
      [] { SetAssocCache cache(CacheConfig{1024, 2, 1}); });
  EXPECT_NE(what.find("line_bytes"), std::string::npos) << what;
}

TEST(Tlb, RejectsZeroEntriesNamingTheField) {
  const std::string what =
      invalid_argument_of([] { Tlb tlb(0, 4096); });
  EXPECT_NE(what.find("entries"), std::string::npos) << what;
}

// Property sweep: for any geometry, a working set no larger than the
// cache never misses after the first pass (full associativity within
// sets + LRU guarantees retention for sequential fills).
struct Geometry {
  std::size_t size;
  unsigned assoc;
  unsigned line;
};

class CacheGeometry : public ::testing::TestWithParam<Geometry> {};

TEST_P(CacheGeometry, ResidentWorkingSetNeverMissesAgain) {
  const Geometry g = GetParam();
  SetAssocCache cache(CacheConfig{g.size, g.assoc, g.line});
  const std::size_t lines = g.size / g.line;
  for (std::size_t i = 0; i < lines; ++i) {
    cache.access(static_cast<Addr>(i) * g.line);
  }
  const auto misses_before = cache.misses();
  for (std::size_t i = 0; i < lines; ++i) {
    EXPECT_TRUE(cache.access(static_cast<Addr>(i) * g.line));
  }
  EXPECT_EQ(cache.misses(), misses_before);
}

TEST_P(CacheGeometry, OversizedWorkingSetThrashes) {
  const Geometry g = GetParam();
  SetAssocCache cache(CacheConfig{g.size, g.assoc, g.line});
  const std::size_t lines = 2 * g.size / g.line;  // 2x capacity
  for (int pass = 0; pass < 2; ++pass) {
    for (std::size_t i = 0; i < lines; ++i) {
      cache.access(static_cast<Addr>(i) * g.line);
    }
  }
  // Sequential sweep over 2x capacity with LRU: every access misses.
  EXPECT_EQ(cache.misses(), 2 * lines);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheGeometry,
    ::testing::Values(Geometry{1024, 2, 64}, Geometry{4096, 4, 64},
                      Geometry{16384, 8, 64}, Geometry{32768, 8, 128},
                      Geometry{65536, 16, 64}, Geometry{4096, 1, 64}));

TEST(Tlb, HitsAfterInstall) {
  Tlb tlb(4, 4096);
  EXPECT_FALSE(tlb.access(0x1000));
  EXPECT_TRUE(tlb.access(0x1800));  // same page
  EXPECT_TRUE(tlb.access(0x1000));
}

TEST(Tlb, LruEvictionAtCapacity) {
  Tlb tlb(2, 4096);
  tlb.access(0x1000);
  tlb.access(0x2000);
  tlb.access(0x3000);  // evicts page of 0x1000
  EXPECT_FALSE(tlb.access(0x1000));
}

TEST(Tlb, AccessRefreshesEntry) {
  Tlb tlb(2, 4096);
  tlb.access(0x1000);
  tlb.access(0x2000);
  tlb.access(0x1000);  // refresh
  tlb.access(0x3000);  // evicts 0x2000
  EXPECT_TRUE(tlb.access(0x1000));
  EXPECT_FALSE(tlb.access(0x2000));
}

TEST(Tlb, ClearForgetsEverything) {
  Tlb tlb(4, 4096);
  tlb.access(0x1000);
  tlb.clear();
  EXPECT_FALSE(tlb.access(0x1000));
}

// ------------------------------------------- reference LRU differential --

// Naive true-LRU models: one std::list of tags per set, MRU at the
// front, evicting from the back. Too slow for the simulator, obviously
// right — the oracle the flat tag arrays are replayed against.
class RefCache {
 public:
  explicit RefCache(const CacheConfig& cfg)
      : line_(cfg.line_bytes), assoc_(cfg.associativity),
        sets_(cfg.size_bytes / (cfg.line_bytes * cfg.associativity)) {}

  bool access(Addr addr) {
    const Addr line = addr / line_;
    std::list<Addr>& set = set_of(line);
    const auto it = std::find(set.begin(), set.end(), line);
    if (it != set.end()) {
      set.splice(set.begin(), set, it);
      return true;
    }
    set.push_front(line);
    if (set.size() > assoc_) set.pop_back();
    return false;
  }
  bool contains(Addr addr) {
    const Addr line = addr / line_;
    const std::list<Addr>& set = set_of(line);
    return std::find(set.begin(), set.end(), line) != set.end();
  }
  void invalidate(Addr addr) { set_of(addr / line_).remove(addr / line_); }
  void clear() {
    for (auto& s : sets_) s.clear();
  }

 private:
  std::list<Addr>& set_of(Addr line) { return sets_[line % sets_.size()]; }

  Addr line_;
  std::size_t assoc_;
  std::vector<std::list<Addr>> sets_;
};

class RefTlb {
 public:
  RefTlb(unsigned entries, std::size_t page_bytes)
      : entries_(entries), page_(page_bytes) {}

  bool access(Addr addr) {
    const Addr page = addr / page_;
    const auto it = std::find(pages_.begin(), pages_.end(), page);
    if (it != pages_.end()) {
      pages_.splice(pages_.begin(), pages_, it);
      return true;
    }
    pages_.push_front(page);
    if (pages_.size() > entries_) pages_.pop_back();
    return false;
  }
  void clear() { pages_.clear(); }

 private:
  std::size_t entries_;
  Addr page_;
  std::list<Addr> pages_;
};

/// One operation of a replayed stream.
struct Op {
  enum Kind { kAccess, kInvalidate, kClear } kind = kAccess;
  Addr addr = 0;
};

/// Address streams over a structure of `capacity` bytes made of `unit`-
/// byte blocks (cache lines or pages), all seeded: uniform random over
/// twice the capacity mixed with a hot set that fits, several strides
/// (unit, set-aliasing, page, odd byte strides), and page-crossing pairs
/// straddling 4 KB boundaries. ~1/64 of the ops are invalidations of a
/// recently touched address and ~1/4096 clear everything.
std::vector<std::pair<std::string, std::vector<Op>>> streams(
    std::uint64_t capacity, std::uint64_t unit, std::uint64_t alias_stride,
    std::uint64_t seed) {
  constexpr std::size_t kOps = 60'000;
  constexpr Addr kBase = 0x7f0000000000ull;  // high, heap-like addresses
  std::vector<std::pair<std::string, std::vector<Op>>> out;
  verify::Rng rng(seed);
  auto sprinkle = [&rng](std::vector<Op>& ops) {
    for (std::size_t i = 1; i < ops.size(); ++i) {
      if (rng.chance(1, 4096)) {
        ops[i] = Op{Op::kClear, 0};
      } else if (rng.chance(1, 64)) {
        const std::size_t back = 1 + rng.next(std::min<std::size_t>(i, 32));
        ops[i] = Op{Op::kInvalidate, ops[i - back].addr};
      }
    }
  };
  {
    std::vector<Op> ops;
    const std::uint64_t span = 2 * capacity;
    const std::uint64_t hot = std::max<std::uint64_t>(capacity / 4, unit);
    for (std::size_t i = 0; i < kOps; ++i) {
      const bool in_hot = rng.chance(1, 2);
      ops.push_back({Op::kAccess, kBase + rng.next(in_hot ? hot : span)});
    }
    sprinkle(ops);
    out.emplace_back("random", std::move(ops));
  }
  for (const std::uint64_t stride :
       {unit, alias_stride, std::uint64_t{4096}, std::uint64_t{3 * 8 + 1},
        3 * unit + 8}) {
    std::vector<Op> ops;
    const std::uint64_t span = 3 * capacity / 2 + stride;
    Addr a = 0;
    for (std::size_t i = 0; i < kOps; ++i) {
      ops.push_back({Op::kAccess, kBase + a});
      a = (a + stride) % span;
    }
    sprinkle(ops);
    out.emplace_back("stride " + std::to_string(stride), std::move(ops));
  }
  {
    std::vector<Op> ops;
    const std::uint64_t pages = std::max<std::uint64_t>(2 * capacity / 4096, 4);
    for (std::size_t i = 0; i + 1 < kOps; i += 2) {
      const Addr boundary = kBase + (1 + rng.next(pages)) * 4096;
      const Addr off = 1 + rng.next(unit);
      ops.push_back({Op::kAccess, boundary - off});
      ops.push_back({Op::kAccess, boundary + off - 1});
    }
    sprinkle(ops);
    out.emplace_back("page-crossing", std::move(ops));
  }
  return out;
}

struct NamedCache {
  std::string name;
  CacheConfig cfg;
};

std::vector<NamedCache> differential_caches() {
  const MachineConfig node = wl::node_config();
  const MachineConfig rank = wl::rank_config();
  std::vector<NamedCache> out = {
      {"node.l1", node.l1}, {"node.l2", node.l2}, {"node.l3", node.l3},
      {"rank.l1", rank.l1}, {"rank.l2", rank.l2}, {"rank.l3", rank.l3},
  };
  for (const Geometry& g :
       {Geometry{1024, 2, 64}, Geometry{4096, 4, 64}, Geometry{16384, 8, 64},
        Geometry{32768, 8, 128}, Geometry{65536, 16, 64},
        Geometry{4096, 1, 64}}) {
    out.push_back({"test " + std::to_string(g.size) + "/" +
                       std::to_string(g.assoc) + "/" + std::to_string(g.line),
                   CacheConfig{g.size, g.assoc, g.line}});
  }
  return out;
}

TEST(ReferenceLru, CacheMatchesNaiveListOnEveryAccess) {
  std::uint64_t seed = 1;
  for (const NamedCache& nc : differential_caches()) {
    const CacheConfig& cfg = nc.cfg;
    const std::uint64_t sets =
        cfg.size_bytes / (cfg.line_bytes * cfg.associativity);
    for (const auto& [stream, ops] :
         streams(cfg.size_bytes, cfg.line_bytes, sets * cfg.line_bytes,
                 seed++)) {
      SCOPED_TRACE(nc.name + ", " + stream);
      SetAssocCache cache(cfg);
      RefCache ref(cfg);
      for (std::size_t i = 0; i < ops.size(); ++i) {
        const Op& op = ops[i];
        if (op.kind == Op::kClear) {
          cache.clear();
          ref.clear();
        } else if (op.kind == Op::kInvalidate) {
          cache.invalidate(op.addr);
          ref.invalidate(op.addr);
          ASSERT_FALSE(cache.contains(op.addr)) << "op " << i;
        } else {
          ASSERT_EQ(cache.access(op.addr), ref.access(op.addr))
              << "op " << i << " addr 0x" << std::hex << op.addr;
        }
        // Spot-check a non-filling probe of an older address.
        if (i % 97 == 0 && i > 0) {
          const Addr probe = ops[i / 2].addr;
          ASSERT_EQ(cache.contains(probe), ref.contains(probe)) << "op " << i;
        }
      }
    }
  }
}

TEST(ReferenceLru, TlbMatchesNaiveListOnEveryAccess) {
  const MachineConfig node = wl::node_config();
  const MachineConfig rank = wl::rank_config();
  const MachineConfig dflt;
  struct NamedTlb {
    std::string name;
    unsigned entries;
    std::size_t page_bytes;
  };
  const std::vector<NamedTlb> tlbs = {
      {"node", node.tlb_entries, node.page_bytes},
      {"rank", rank.tlb_entries, rank.page_bytes},
      {"default", dflt.tlb_entries, dflt.page_bytes},
      {"test 4", 4, 4096},
      {"test 2", 2, 4096},
      {"one entry", 1, 4096},
      {"huge pages", 8, 2 * 1024 * 1024},
  };
  std::uint64_t seed = 100;
  for (const NamedTlb& t : tlbs) {
    const std::uint64_t reach = t.entries * t.page_bytes;
    for (const auto& [stream, ops] :
         streams(reach, t.page_bytes, t.page_bytes, seed++)) {
      SCOPED_TRACE(t.name + ", " + stream);
      Tlb tlb(t.entries, t.page_bytes);
      RefTlb ref(t.entries, t.page_bytes);
      for (std::size_t i = 0; i < ops.size(); ++i) {
        const Op& op = ops[i];
        // A TLB has no single-entry invalidate; treat it as an access.
        if (op.kind == Op::kClear) {
          tlb.clear();
          ref.clear();
        } else {
          ASSERT_EQ(tlb.access(op.addr), ref.access(op.addr))
              << "op " << i << " addr 0x" << std::hex << op.addr;
        }
      }
      EXPECT_EQ(tlb.hits() + tlb.misses(),
                static_cast<std::uint64_t>(std::count_if(
                    ops.begin(), ops.end(),
                    [](const Op& op) { return op.kind != Op::kClear; })));
    }
  }
}

TEST(MemLevelNames, AllDistinct) {
  EXPECT_STREQ(to_string(MemLevel::kL1), "L1");
  EXPECT_STREQ(to_string(MemLevel::kRemoteDram), "RemoteDram");
  EXPECT_STRNE(to_string(MemLevel::kL2), to_string(MemLevel::kL3));
}

}  // namespace
}  // namespace dcprof::sim
