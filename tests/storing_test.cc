#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "storing/trie.h"
#include "util/rng.h"

namespace nwd {
namespace {

using Kind = StoringTrie::LookupResult::Kind;

TEST(StoringTrie, EmptyLookups) {
  StoringTrie trie(2, 10, 0.5);
  EXPECT_EQ(trie.size(), 0);
  EXPECT_TRUE(trie.empty());
  EXPECT_EQ(trie.Lookup({3, 4}).kind, Kind::kNull);
  EXPECT_FALSE(trie.First().has_value());
  EXPECT_FALSE(trie.Predecessor({9, 9}).has_value());
}

TEST(StoringTrie, SingleElement) {
  StoringTrie trie(1, 27, 1.0 / 3.0);
  trie.Insert({5}, 50);
  EXPECT_EQ(trie.size(), 1);
  EXPECT_EQ(trie.Get({5}), std::optional<int64_t>(50));
  const auto below = trie.Lookup({2});
  ASSERT_EQ(below.kind, Kind::kSuccessor);
  EXPECT_EQ(below.successor, Tuple{5});
  EXPECT_EQ(trie.Lookup({6}).kind, Kind::kNull);
  EXPECT_EQ(trie.Predecessor({6}), std::optional<Tuple>(Tuple{5}));
  EXPECT_FALSE(trie.Predecessor({5}).has_value());
}

TEST(StoringTrie, OverwriteValue) {
  StoringTrie trie(1, 100, 0.5);
  trie.Insert({7}, 1);
  trie.Insert({7}, 2);
  EXPECT_EQ(trie.size(), 1);
  EXPECT_EQ(trie.Get({7}), std::optional<int64_t>(2));
}

TEST(StoringTrie, PaperExampleDomain) {
  // The domain of Figure 1: identity on {2, 4, 5, 19, 24, 25} in [27].
  StoringTrie trie(1, 27, 1.0 / 3.0);
  for (int64_t v : {2, 4, 5, 19, 24, 25}) trie.Insert({v}, v);
  EXPECT_EQ(trie.degree(), 3);
  EXPECT_EQ(trie.size(), 6);
  for (int64_t v : {2, 4, 5, 19, 24, 25}) {
    EXPECT_EQ(trie.Get({v}), std::optional<int64_t>(v));
  }
  // Successor probes.
  EXPECT_EQ(trie.Lookup({0}).successor, Tuple{2});
  EXPECT_EQ(trie.Lookup({3}).successor, Tuple{4});
  EXPECT_EQ(trie.Lookup({6}).successor, Tuple{19});
  EXPECT_EQ(trie.Lookup({20}).successor, Tuple{24});
  EXPECT_EQ(trie.Lookup({26}).kind, Kind::kNull);
}

TEST(StoringTrie, EraseUpdatesSuccessors) {
  StoringTrie trie(1, 27, 1.0 / 3.0);
  for (int64_t v : {2, 4, 5, 19, 24, 25}) trie.Insert({v}, v);
  trie.Erase({19});  // the removal walked through in the appendix
  EXPECT_EQ(trie.size(), 5);
  EXPECT_FALSE(trie.Contains({19}));
  EXPECT_EQ(trie.Lookup({6}).successor, Tuple{24});
  EXPECT_EQ(trie.Lookup({19}).successor, Tuple{24});
  EXPECT_EQ(trie.Predecessor({24}), std::optional<Tuple>(Tuple{5}));
}

TEST(StoringTrie, EraseToEmptyAndReuse) {
  StoringTrie trie(1, 27, 1.0 / 3.0);
  const int64_t base_registers = trie.RegistersUsed();
  for (int64_t v : {2, 4, 5, 19, 24, 25}) trie.Insert({v}, v);
  for (int64_t v : {2, 4, 5, 19, 24, 25}) trie.Erase({v});
  EXPECT_EQ(trie.size(), 0);
  // Compaction must return all node memory (only the root remains).
  EXPECT_EQ(trie.RegistersUsed(), base_registers);
  EXPECT_EQ(trie.Lookup({0}).kind, Kind::kNull);
  // The structure stays usable after total erasure.
  trie.Insert({13}, 1);
  EXPECT_EQ(trie.Lookup({0}).successor, Tuple{13});
}

TEST(StoringTrie, EraseAbsentIsNoop) {
  StoringTrie trie(1, 27, 1.0 / 3.0);
  trie.Insert({5}, 5);
  trie.Erase({6});
  EXPECT_EQ(trie.size(), 1);
  EXPECT_TRUE(trie.Contains({5}));
}

TEST(StoringTrie, BinaryKeysSeek) {
  StoringTrie trie(2, 8, 0.5);
  trie.Insert({1, 7}, 17);
  trie.Insert({3, 0}, 30);
  trie.Insert({3, 5}, 35);
  const auto seek = trie.Seek({2, 0});
  ASSERT_TRUE(seek.has_value());
  EXPECT_EQ(seek->first, (Tuple{3, 0}));
  EXPECT_EQ(seek->second, 30);
  const auto exact = trie.Seek({3, 5});
  ASSERT_TRUE(exact.has_value());
  EXPECT_EQ(exact->second, 35);
  EXPECT_FALSE(trie.Seek({3, 6}).has_value());
  EXPECT_EQ(trie.First()->first, (Tuple{1, 7}));
}

TEST(StoringTrie, SpaceIsProportionalToDomain) {
  // Theorem 3.1: space c * |Dom(f)| * n^eps. With eps = 0.5 and n = 1024,
  // each key adds at most k*h = 4 nodes of d+1 = 33 registers.
  StoringTrie trie(2, 1024, 0.5);
  Rng rng(5);
  const int64_t inserts = 200;
  for (int64_t i = 0; i < inserts; ++i) {
    trie.Insert({rng.NextInt(0, 1023), rng.NextInt(0, 1023)}, i);
  }
  const int64_t per_key_cap =
      4 * (static_cast<int64_t>(trie.degree()) + 1);
  EXPECT_LE(trie.RegistersUsed(), (inserts + 1) * per_key_cap + 64);
}

// ---- Index-arithmetic regressions: d^h overshoot, n = 1, n near limits --

TEST(StoringTrie, DegenerateUniverseOfOne) {
  // n = 1: d is clamped to 2, so d^h (= 2^h) always overshoots n. The
  // only key is the all-zero tuple; every digit string must stay inside
  // the allocated register range.
  StoringTrie trie(3, 1, 0.5);
  EXPECT_EQ(trie.degree(), 2);
  EXPECT_EQ(trie.Lookup({0, 0, 0}).kind, Kind::kNull);
  trie.Insert({0, 0, 0}, 7);
  EXPECT_EQ(trie.size(), 1);
  EXPECT_EQ(trie.Get({0, 0, 0}), std::optional<int64_t>(7));
  EXPECT_FALSE(trie.Predecessor({0, 0, 0}).has_value());
  trie.Erase({0, 0, 0});
  EXPECT_TRUE(trie.empty());
}

TEST(StoringTrie, UniverseJustAboveDegreePower) {
  // n = 10, eps = 0.5: d = 4, h = 2, d^h = 16 > 10 — six digit strings
  // address keys outside the universe. The full in-range domain must
  // round-trip and successor probes must never surface a phantom key
  // from the overshoot region.
  StoringTrie trie(1, 10, 0.5);
  ASSERT_EQ(trie.degree(), 4);
  ASSERT_EQ(trie.height_per_coordinate(), 2);
  for (int64_t v = 0; v < 10; ++v) trie.Insert({v}, 100 + v);
  EXPECT_EQ(trie.size(), 10);
  for (int64_t v = 0; v < 10; ++v) {
    EXPECT_EQ(trie.Get({v}), std::optional<int64_t>(100 + v));
  }
  trie.Erase({9});
  EXPECT_EQ(trie.Lookup({9}).kind, Kind::kNull);
  // Erase bottom-up; the successor of an always-absent probe ({0} once
  // erased) must track the smallest surviving key, never an overshoot
  // digit string (keys 10..15 are addressable but not in the universe).
  for (int64_t v = 0; v < 9; ++v) {
    trie.Erase({v});
    const auto probe = trie.Lookup({0});
    if (v == 8) {
      EXPECT_EQ(probe.kind, Kind::kNull);
    } else {
      ASSERT_EQ(probe.kind, Kind::kSuccessor);
      EXPECT_EQ(probe.successor, Tuple{v + 1});
    }
  }
}

TEST(StoringTrie, UniverseNearIntLimitUnary) {
  // n = INT32_MAX: ranks stay well under 2^62 at arity 1, but the digit
  // and node arithmetic must run in 64 bits throughout — truncating any
  // intermediate to int would alias distant keys.
  const int64_t n = 2147483647;  // 2^31 - 1
  StoringTrie trie(1, n, 0.5);
  const Tuple lo{0};
  const Tuple hi{n - 1};
  const Tuple mid{n / 2};
  trie.Insert(hi, 1);
  trie.Insert(mid, 2);
  trie.Insert(lo, 3);
  EXPECT_EQ(trie.size(), 3);
  EXPECT_EQ(trie.Get(hi), std::optional<int64_t>(1));
  EXPECT_EQ(trie.Get(mid), std::optional<int64_t>(2));
  EXPECT_EQ(trie.Get(lo), std::optional<int64_t>(3));
  const auto between = trie.Lookup({n / 2 + 1});
  ASSERT_EQ(between.kind, Kind::kSuccessor);
  EXPECT_EQ(between.successor, hi);
  EXPECT_EQ(trie.Predecessor(hi), std::optional<Tuple>(mid));
  trie.Erase(mid);
  EXPECT_EQ(trie.Lookup({1}).successor, hi);
}

TEST(StoringTrie, UniverseNearIntLimitBinary) {
  // Binary keys with n near 2^30: rank = a*n + b approaches 2^60 and
  // must survive the rank <-> tuple round trip exactly.
  const int64_t n = (int64_t{1} << 30) - 3;
  StoringTrie trie(2, n, 0.25);
  const Tuple top{n - 1, n - 2};
  trie.Insert(top, 42);
  EXPECT_EQ(trie.DebugTupleOf(trie.DebugRankOf(top)), top);
  EXPECT_EQ(trie.Get(top), std::optional<int64_t>(42));
  const auto seek = trie.Seek({n - 2, 0});
  ASSERT_TRUE(seek.has_value());
  EXPECT_EQ(seek->first, top);
}

TEST(StoringTrie, RejectsOutOfRangeComponents) {
  // Out-of-range components must check-fail loudly: since d^h overshoots
  // n, a too-large value would otherwise either address an absent key's
  // digit string (wrong successor) or silently alias a smaller key.
  StoringTrie trie(1, 10, 0.5);
  trie.Insert({3}, 1);
  EXPECT_DEATH(trie.Insert({10}, 2), "outside");
  EXPECT_DEATH((void)trie.Lookup({-1}), "outside");
  EXPECT_DEATH((void)trie.Contains({999}), "outside");
}

TEST(StoringTrie, ConstructionGuards) {
  // n^k must fit the 62-bit rank encoding; the degree must fit an int.
  EXPECT_DEATH(StoringTrie(3, int64_t{1} << 21, 0.5), "62 bits");
  EXPECT_DEATH(StoringTrie(1, int64_t{1} << 40, 1.0), "out of range");
}

// ---- Reference-model fuzzing across (arity, n, eps) ----

struct FuzzParams {
  int arity;
  int64_t n;
  double eps;
  uint64_t seed;
};

// Readable, build-stable test names: arity, universe and seed.
std::string FuzzParamsName(const ::testing::TestParamInfo<FuzzParams>& info) {
  return "arity" + std::to_string(info.param.arity) + "_n" +
         std::to_string(info.param.n) + "_seed" +
         std::to_string(info.param.seed);
}

class StoringFuzzTest : public ::testing::TestWithParam<FuzzParams> {};

Tuple RandomKey(int arity, int64_t n, Rng* rng) {
  Tuple key(static_cast<size_t>(arity));
  for (auto& component : key) {
    component = static_cast<int64_t>(rng->NextBounded(
        static_cast<uint64_t>(n)));
  }
  return key;
}

TEST_P(StoringFuzzTest, MatchesStdMapUnderRandomOps) {
  const FuzzParams params = GetParam();
  StoringTrie trie(params.arity, params.n, params.eps);
  std::map<Tuple, int64_t> reference;
  Rng rng(params.seed);

  for (int op = 0; op < 600; ++op) {
    const double dice = rng.NextDouble();
    const Tuple key = RandomKey(params.arity, params.n, &rng);
    if (dice < 0.55) {
      const int64_t value = static_cast<int64_t>(rng.NextBounded(1000));
      trie.Insert(key, value);
      reference[key] = value;
    } else if (dice < 0.75) {
      trie.Erase(key);
      reference.erase(key);
    } else {
      // Probe: lookup semantics against the reference.
      const auto it = reference.find(key);
      const auto result = trie.Lookup(key);
      if (it != reference.end()) {
        ASSERT_EQ(result.kind, Kind::kFound);
        EXPECT_EQ(result.value, it->second);
      } else {
        const auto above = reference.upper_bound(key);
        if (above == reference.end()) {
          EXPECT_EQ(result.kind, Kind::kNull);
        } else {
          ASSERT_EQ(result.kind, Kind::kSuccessor);
          EXPECT_EQ(result.successor, above->first);
        }
      }
      // Predecessor semantics.
      const auto pred = trie.Predecessor(key);
      auto below = reference.lower_bound(key);
      if (below == reference.begin()) {
        EXPECT_FALSE(pred.has_value());
      } else {
        --below;
        ASSERT_TRUE(pred.has_value());
        EXPECT_EQ(*pred, below->first);
      }
    }
    ASSERT_EQ(trie.size(), static_cast<int64_t>(reference.size()));
  }

  // Full sweep at the end: enumerate via Seek and compare.
  std::optional<std::pair<Tuple, int64_t>> cursor = trie.First();
  auto it = reference.begin();
  while (cursor.has_value()) {
    ASSERT_NE(it, reference.end());
    EXPECT_EQ(cursor->first, it->first);
    EXPECT_EQ(cursor->second, it->second);
    ++it;
    // Advance: successor of cursor + 1 in rank order.
    Tuple next = cursor->first;
    bool carried = false;
    for (size_t i = next.size(); i-- > 0;) {
      if (next[i] + 1 < params.n) {
        ++next[i];
        for (size_t j = i + 1; j < next.size(); ++j) next[j] = 0;
        carried = true;
        break;
      }
    }
    if (!carried) break;
    cursor = trie.Seek(next);
  }
  EXPECT_EQ(it, reference.end());
}

INSTANTIATE_TEST_SUITE_P(
    Grid, StoringFuzzTest,
    ::testing::Values(FuzzParams{1, 27, 1.0 / 3.0, 1},
                      FuzzParams{1, 100, 0.5, 2},
                      FuzzParams{1, 1000, 0.25, 3},
                      FuzzParams{2, 27, 1.0 / 3.0, 4},
                      FuzzParams{2, 64, 0.5, 5},
                      FuzzParams{3, 16, 0.5, 6},
                      FuzzParams{3, 10, 0.34, 7},
                      FuzzParams{1, 2, 0.9, 8},
                      FuzzParams{4, 5, 0.5, 9}),
    FuzzParamsName);

// ---- Register-graph validator -----------------------------------------
//
// The black-box fuzz above only sees Lookup/Predecessor answers; a
// mis-pointed successor cell or a dangling parent link left by an
// Erase/Clean interleave can hide behind later operations that happen to
// overwrite it. This walks the whole register array against the
// reference map and checks every invariant the header promises:
//   * the frontier is node-aligned and every node is reachable from the
//     root exactly once (compaction leaks no orphans),
//   * every parent cell points at a (1, child) cell that points back,
//   * every leaf (1, v) cell is a reference key with the right value,
//   * every empty cell's payload is exactly the rank of the successor of
//     its covered digit-string interval (or kNullPayload).

std::vector<int> DigitString(const StoringTrie& trie, const Tuple& key) {
  const int d = trie.degree();
  const int h = trie.height_per_coordinate();
  std::vector<int> out;
  out.reserve(key.size() * static_cast<size_t>(h));
  for (const int64_t component : key) {
    int64_t value = component;
    const size_t base = out.size();
    out.resize(base + static_cast<size_t>(h));
    for (int j = h; j-- > 0;) {
      out[base + j] = static_cast<int>(value % d);
      value /= d;
    }
  }
  return out;
}

void ValidateRegisterGraph(const StoringTrie& trie,
                           const std::map<Tuple, int64_t>& reference) {
  const int d = trie.degree();
  const int kh = trie.arity() * trie.height_per_coordinate();
  const int64_t r0 = trie.RegistersUsed();
  ASSERT_EQ(0, (r0 - 1) % (d + 1)) << "frontier not node-aligned";
  const int64_t total_nodes = (r0 - 1) / (d + 1);

  // Digit strings of the stored keys, ascending (fixed-width per
  // coordinate, so digit-string order == tuple lex order).
  std::vector<std::pair<std::vector<int>, const Tuple*>> keys;
  for (const auto& entry : reference) {
    keys.emplace_back(DigitString(trie, entry.first), &entry.first);
  }

  struct Item {
    int64_t node;
    std::vector<int> prefix;
  };
  std::vector<Item> stack;
  std::set<int64_t> visited;
  stack.push_back({1, {}});
  visited.insert(1);
  while (!stack.empty()) {
    const Item item = std::move(stack.back());
    stack.pop_back();
    const int64_t node = item.node;
    const int level = static_cast<int>(item.prefix.size());
    ASSERT_LT(level, kh);

    const StoringTrie::Register up = trie.DebugRegister(node + d);
    ASSERT_EQ(-1, up.delta) << "node " << node << " missing parent cell";
    if (node == 1) {
      EXPECT_EQ(StoringTrie::kNullPayload, up.payload);
    } else {
      ASSERT_GE(up.payload, 1);
      ASSERT_LT(up.payload, r0);
      const StoringTrie::Register back = trie.DebugRegister(up.payload);
      ASSERT_EQ(1, back.delta)
          << "node " << node << ": dangling parent link";
      EXPECT_EQ(node, back.payload)
          << "node " << node << ": parent cell does not point back";
    }

    for (int j = 0; j < d; ++j) {
      const StoringTrie::Register cell = trie.DebugRegister(node + j);
      if (cell.delta == 1) {
        if (level < kh - 1) {
          ASSERT_GE(cell.payload, 1);
          ASSERT_LT(cell.payload, r0);
          ASSERT_EQ(0, (cell.payload - 1) % (d + 1))
              << "child pointer not node-aligned";
          ASSERT_TRUE(visited.insert(cell.payload).second)
              << "node " << cell.payload << " reachable twice";
          Item child{cell.payload, item.prefix};
          child.prefix.push_back(j);
          stack.push_back(std::move(child));
        } else {
          // Leaf: reconstruct the tuple from the digit path.
          std::vector<int> path = item.prefix;
          path.push_back(j);
          Tuple key(static_cast<size_t>(trie.arity()));
          size_t index = 0;
          for (int i = 0; i < trie.arity(); ++i) {
            int64_t value = 0;
            for (int jj = 0; jj < trie.height_per_coordinate(); ++jj) {
              value = value * d + path[index++];
            }
            key[static_cast<size_t>(i)] = value;
          }
          const auto it = reference.find(key);
          ASSERT_NE(reference.end(), it) << "phantom key in trie";
          EXPECT_EQ(it->second, cell.payload) << "leaf value mismatch";
        }
      } else {
        ASSERT_EQ(0, cell.delta) << "bad delta in child cell";
        // Successor semantics: smallest stored key whose digit string is
        // strictly greater (at this prefix length) than prefix+j.
        std::vector<int> bound = item.prefix;
        bound.push_back(j);
        const Tuple* expected = nullptr;
        for (const auto& entry : keys) {
          if (std::lexicographical_compare(
                  bound.begin(), bound.end(), entry.first.begin(),
                  entry.first.begin() +
                      static_cast<std::ptrdiff_t>(bound.size()))) {
            expected = entry.second;
            break;
          }
        }
        if (expected == nullptr) {
          EXPECT_EQ(StoringTrie::kNullPayload, cell.payload)
              << "empty cell at node " << node << " digit " << j
              << " should point nowhere";
        } else {
          EXPECT_EQ(trie.DebugRankOf(*expected), cell.payload)
              << "empty cell at node " << node << " digit " << j
              << " points at the wrong successor";
        }
      }
    }
  }
  EXPECT_EQ(total_nodes, static_cast<int64_t>(visited.size()))
      << "compaction leaked orphan nodes";
}

class StoringInterleaveTest : public ::testing::TestWithParam<FuzzParams> {};

TEST_P(StoringInterleaveTest, RegisterGraphStaysValidUnderInterleaves) {
  const FuzzParams params = GetParam();
  StoringTrie trie(params.arity, params.n, params.eps);
  std::map<Tuple, int64_t> reference;
  Rng rng(params.seed);

  // Adversarial interleave: clustered inserts, immediate erase-reinsert
  // of the same key, descending-order erase sweeps — the patterns that
  // exercise Clean/Cut with pred/succ on every side. Validate the whole
  // register graph after every mutation.
  std::vector<Tuple> live;
  for (int op = 0; op < 160; ++op) {
    const double dice = rng.NextDouble();
    if (dice < 0.40 || live.empty()) {
      const Tuple key = RandomKey(params.arity, params.n, &rng);
      const int64_t value = static_cast<int64_t>(rng.NextBounded(1000));
      trie.Insert(key, value);
      reference[key] = value;
      live.push_back(key);
    } else if (dice < 0.60) {
      // Erase-then-reinsert the same key: its pred/succ cells must be
      // repointed twice in a row without going stale.
      const Tuple key = live[rng.NextBounded(live.size())];
      trie.Erase(key);
      reference.erase(key);
      ValidateRegisterGraph(trie, reference);
      if (::testing::Test::HasFatalFailure()) return;
      trie.Insert(key, 7);
      reference[key] = 7;
    } else if (dice < 0.85) {
      const Tuple key = live[rng.NextBounded(live.size())];
      trie.Erase(key);
      reference.erase(key);
      live.erase(std::find(live.begin(), live.end(), key));
    } else {
      // Descending sweep over a few largest live keys: Cut compaction
      // relocating nodes that are themselves on the next victim's path.
      std::sort(live.begin(), live.end());
      for (int burst = 0; burst < 3 && !live.empty(); ++burst) {
        const Tuple key = live.back();
        live.pop_back();
        trie.Erase(key);
        reference.erase(key);
        ValidateRegisterGraph(trie, reference);
        if (::testing::Test::HasFatalFailure()) return;
      }
    }
    ValidateRegisterGraph(trie, reference);
    if (::testing::Test::HasFatalFailure()) return;
    ASSERT_EQ(trie.size(), static_cast<int64_t>(reference.size()));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, StoringInterleaveTest,
    ::testing::Values(FuzzParams{1, 27, 1.0 / 3.0, 11},
                      FuzzParams{1, 100, 0.5, 12},
                      FuzzParams{2, 27, 1.0 / 3.0, 13},
                      FuzzParams{2, 64, 0.5, 14},
                      FuzzParams{3, 10, 0.34, 15},
                      FuzzParams{1, 2, 0.9, 16}),
    FuzzParamsName);

}  // namespace
}  // namespace nwd
