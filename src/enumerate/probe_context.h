// Per-caller answer-phase state: scratch buffers, the Case II anchor-ball
// cache, and answer-time statistics counters.
//
// The paper's answering phase (Theorem 2.3 / Corollary 2.4) is the cheap,
// replicable part of the algorithm — Test is O(1) and Next is
// constant-delay after preprocessing — so the engine must be able to serve
// many concurrent probe streams over one immutable set of preprocessed
// structures. Everything a probe mutates lives here:
//
//   * ProbeContext — one caller's scratch: a BFS workspace, the per-probe
//     anchor-ball cache, reusable descent buffers, and relaxed atomic
//     answer counters (atomic only so a concurrent DrainAnswerStats() can
//     read them race-free; each counter is written by one thread at a
//     time).
//   * FlatBallCache — an open-addressing Vertex -> ball map backed by a
//     bump arena, so a steady-state probe performs zero heap allocations
//     (the unordered_map<Vertex, vector<Vertex>> it replaces allocated a
//     node plus a vector per fresh anchor).
//   * ProbeContextPool — a stack of free contexts under a mutex, handing
//     one context to each in-flight probe. A miss allocates a new context
//     only when every existing one is in use, so the pool grows to the
//     peak number of concurrent callers and no further.
//
// Answering needs no budget: every per-probe datum is bounded by the
// preprocessing-time structures (ball radii, list sizes), which were
// themselves budgeted. The `budget` pointer below is only set on the
// private contexts of the preprocessing phase's extendable-coordinate
// descents.

#ifndef NWD_ENUMERATE_PROBE_CONTEXT_H_
#define NWD_ENUMERATE_PROBE_CONTEXT_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "graph/bfs.h"
#include "graph/colored_graph.h"
#include "util/fault_injection.h"
#include "util/lex.h"

namespace nwd {

class ResourceBudget;

// Answer-time counters, aggregated across contexts by
// EnumerationEngine::DrainAnswerStats().
struct AnswerCounters {
  int64_t probes_served = 0;      // Test() + Next() calls answered
  int64_t descents = 0;           // per-case lexicographic descents run
  int64_t ball_cache_hits = 0;    // Case II anchor balls served from cache
  int64_t ball_cache_misses = 0;  // Case II anchor balls BFS'd fresh
  int64_t compiled_probes = 0;    // bytecode program activations
  int64_t compiled_insns = 0;     // bytecode instructions executed
  int64_t contexts = 0;           // pool size (peak probe concurrency)
};

// Open-addressing map Vertex -> sorted vertex ball, all storage in two
// flat arrays that keep their capacity across Clear(): after the first few
// probes warm the arena, a probe allocates nothing.
class FlatBallCache {
 public:
  // Returns true and sets *ball if `key` is cached.
  bool Lookup(Vertex key, std::span<const Vertex>* ball) const {
    if (entries_.empty()) return false;
    const size_t mask = slots_.size() - 1;
    for (size_t s = Hash(key) & mask;; s = (s + 1) & mask) {
      const Slot& slot = slots_[s];
      if (slot.entry < 0) return false;
      if (slot.key == key) {
        const Entry& e = entries_[static_cast<size_t>(slot.entry)];
        *ball = std::span<const Vertex>(arena_.data() + e.begin, e.len);
        return true;
      }
    }
  }

  // Copies `ball` into the arena and maps `key` to it. `key` must not be
  // present. Returns the arena-backed span (stable until Clear()).
  std::span<const Vertex> Insert(Vertex key, std::span<const Vertex> ball) {
    if (slots_.empty() || entries_.size() + 1 > slots_.size() / 2) Grow();
    const size_t begin = arena_.size();
    arena_.insert(arena_.end(), ball.begin(), ball.end());
    const size_t mask = slots_.size() - 1;
    size_t s = Hash(key) & mask;
    while (slots_[s].entry >= 0) s = (s + 1) & mask;
    slots_[s] = Slot{key, static_cast<int32_t>(entries_.size())};
    used_slots_.push_back(static_cast<uint32_t>(s));
    entries_.push_back(Entry{begin, ball.size()});
    keys_.push_back(key);
    return std::span<const Vertex>(arena_.data() + begin, ball.size());
  }

  // Forgets every mapping; keeps all capacity.
  void Clear() {
    for (const uint32_t s : used_slots_) slots_[s].entry = -1;
    used_slots_.clear();
    entries_.clear();
    keys_.clear();
    arena_.clear();
  }

  size_t size() const { return entries_.size(); }

 private:
  struct Slot {
    Vertex key = -1;
    int32_t entry = -1;  // -1 = empty
  };
  struct Entry {
    size_t begin = 0;
    size_t len = 0;
  };

  static size_t Hash(Vertex key) {
    // Fibonacci multiplicative hash; anchors are dense small integers.
    return static_cast<size_t>(static_cast<uint64_t>(key) *
                               0x9E3779B97F4A7C15ull >>
                               32);
  }

  void Grow() {
    const size_t capacity = slots_.empty() ? 64 : slots_.size() * 2;
    slots_.assign(capacity, Slot{});
    used_slots_.clear();
    const size_t mask = capacity - 1;
    for (size_t e = 0; e < entries_.size(); ++e) {
      // Rebuild the index; keys are recovered lazily below.
      size_t s = Hash(keys_[e]) & mask;
      while (slots_[s].entry >= 0) s = (s + 1) & mask;
      slots_[s] = Slot{keys_[e], static_cast<int32_t>(e)};
      used_slots_.push_back(static_cast<uint32_t>(s));
    }
  }

  std::vector<Slot> slots_;           // power-of-two open addressing
  std::vector<uint32_t> used_slots_;  // occupied slot indices (O(used) Clear)
  std::vector<Entry> entries_;
  std::vector<Vertex> keys_;   // entry index -> key (rehash support)
  std::vector<Vertex> arena_;  // concatenated balls
};

// One caller's mutable probe state. Exactly one thread uses a context at a
// time; the counters are atomics only so a concurrent drain reads a
// coherent value.
struct ProbeContext {
  explicit ProbeContext(int64_t num_vertices) : scratch(num_vertices) {}

  void ResetBallCache() { balls.Clear(); }

  BfsScratch scratch;
  FlatBallCache balls;
  std::vector<Vertex> ball_scratch;  // BFS output before the arena copy
  std::vector<int64_t> case1_bags;   // Case I earlier-bag set
  Tuple assignment;                  // reusable descent buffer
  Tuple best;                        // best-across-cases buffer

  // Compiled-query executor scratch (src/compile/exec.cc): the Test
  // program's distance-memo registers and the Next program's per-position
  // descent state (current minimum, entering/after tightness flags).
  std::vector<uint8_t> test_memo;
  std::vector<Vertex> next_minval;
  std::vector<uint8_t> next_tin;
  std::vector<uint8_t> next_ct;

  // Which engine generation the ball cache was filled under. Anchor balls
  // depend only on the graph (the radius is fixed per engine), so the
  // cache stays valid across probes until the dynamic-update plane patches
  // the engine in place and bumps its generation; NextLnf compares this
  // stamp against the engine's and clears on mismatch.
  uint64_t generation = 0;

  std::atomic<int64_t> probes_served{0};
  std::atomic<int64_t> descents{0};
  std::atomic<int64_t> ball_cache_hits{0};
  std::atomic<int64_t> ball_cache_misses{0};
  std::atomic<int64_t> compiled_probes{0};
  std::atomic<int64_t> compiled_insns{0};

  // Borrowed preprocessing budget; the extendable descents charge their
  // ball BFS to it and poll it, so a trip cancels them. Always null at
  // answer time (answers are O(1) per case and never budgeted).
  const ResourceBudget* budget = nullptr;
};

// LIFO stack of free contexts, one per in-flight probe, under one mutex
// that also guards the owning list. Acquire and Release are O(1) and, in
// steady state, allocation-free. Contexts live until the pool dies, so
// Drain() can walk them at any time.
class ProbeContextPool {
 public:
  explicit ProbeContextPool(int64_t num_vertices)
      : num_vertices_(num_vertices) {}

  ProbeContext* Acquire() {
    // Answer-path fault point (behavior-preserving): firing skips the
    // free stack and allocates a fresh context, exercising the
    // pool-growth path under soak load. The context still lands in all_,
    // so nothing leaks and Drain() keeps seeing every counter.
    if (!NWD_FAULT_POINT("answer/pool_miss")) {
      std::lock_guard<std::mutex> lock(mu_);
      if (!free_.empty()) {
        ProbeContext* ctx = free_.back();
        free_.pop_back();
        return ctx;
      }
    }
    // Every context is in use: allocate outside the lock.
    auto created = std::make_unique<ProbeContext>(num_vertices_);
    ProbeContext* ctx = created.get();
    std::lock_guard<std::mutex> lock(mu_);
    all_.push_back(std::move(created));
    free_.reserve(all_.size());  // so Release never allocates
    return ctx;
  }

  void Release(ProbeContext* ctx) {
    std::lock_guard<std::mutex> lock(mu_);
    free_.push_back(ctx);
  }

  // Sums and resets the per-context counters. Safe concurrently with
  // probes; in-flight probes keep counting into the next drain.
  AnswerCounters Drain() {
    AnswerCounters out;
    std::lock_guard<std::mutex> lock(mu_);
    out.contexts = static_cast<int64_t>(all_.size());
    for (const auto& ctx : all_) {
      out.probes_served +=
          ctx->probes_served.exchange(0, std::memory_order_relaxed);
      out.descents += ctx->descents.exchange(0, std::memory_order_relaxed);
      out.ball_cache_hits +=
          ctx->ball_cache_hits.exchange(0, std::memory_order_relaxed);
      out.ball_cache_misses +=
          ctx->ball_cache_misses.exchange(0, std::memory_order_relaxed);
      out.compiled_probes +=
          ctx->compiled_probes.exchange(0, std::memory_order_relaxed);
      out.compiled_insns +=
          ctx->compiled_insns.exchange(0, std::memory_order_relaxed);
    }
    return out;
  }

 private:
  const int64_t num_vertices_;
  std::mutex mu_;  // guards free_ and all_
  std::vector<ProbeContext*> free_;
  std::vector<std::unique_ptr<ProbeContext>> all_;
};

// RAII acquire/release.
class ScopedProbeContext {
 public:
  explicit ScopedProbeContext(ProbeContextPool* pool)
      : pool_(pool), ctx_(pool->Acquire()) {}
  ~ScopedProbeContext() { pool_->Release(ctx_); }
  ScopedProbeContext(const ScopedProbeContext&) = delete;
  ScopedProbeContext& operator=(const ScopedProbeContext&) = delete;

  ProbeContext* operator->() const { return ctx_; }
  ProbeContext* get() const { return ctx_; }

 private:
  ProbeContextPool* pool_;
  ProbeContext* ctx_;
};

}  // namespace nwd

#endif  // NWD_ENUMERATE_PROBE_CONTEXT_H_
