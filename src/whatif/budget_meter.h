#ifndef BATI_WHATIF_BUDGET_METER_H_
#define BATI_WHATIF_BUDGET_METER_H_

#include <cstdint>
#include <vector>

#include "common/bitset.h"

namespace bati {

/// An index configuration: a subset of the candidate-index universe,
/// represented as a bitset over candidate positions.
using Config = DynamicBitset;

/// One what-if call in the order it was issued: an entry of the budget
/// allocation matrix layout (paper Definition 1). The trace of these entries
/// is the layout phi : [B] -> {B_ij}.
struct LayoutEntry {
  int query_id = -1;
  Config config;
  /// Tuner round this call was charged in: 0 before the first BeginRound()
  /// declaration, then the 1-based round counter. Lets spend be attributed
  /// per round (the budget governor's reallocation unit); runs that never
  /// declare rounds simply leave every entry at 0.
  int round = 0;
};

/// The counting layer of the cost engine: owns the what-if call budget B,
/// the number of calls made, the cache-hit counter, and the layout trace.
/// Charging is the single gate every counted optimizer invocation must pass
/// through — the executor never runs a cell the meter did not approve, which
/// is what makes the budget a hard cap even on the batched evaluation path:
/// cells are charged in input order before dispatch.
class BudgetMeter {
 public:
  explicit BudgetMeter(int64_t budget);

  int64_t budget() const { return budget_; }
  int64_t calls_made() const { return calls_made_; }
  int64_t remaining() const { return budget_ - calls_made_; }
  bool HasBudget() const { return calls_made_ < budget_; }
  int64_t cache_hits() const { return cache_hits_; }

  /// Attempts to spend one budget unit on cell (query_id, config). On
  /// success the call is appended to the layout trace and true is returned;
  /// when the budget is exhausted nothing changes and false is returned.
  bool TryCharge(int query_id, const Config& config);

  /// Records a WhatIfCost() request served from cache (free).
  void RecordCacheHit() { ++cache_hits_; }

  /// Declares the start of the next tuner round; subsequent charges carry
  /// the new round tag. Returns the new 1-based round number.
  int BeginRound() { return ++round_; }

  /// The round tag charges are currently stamped with (0 before the first
  /// BeginRound()).
  int current_round() const { return round_; }

  /// The layout trace: every counted what-if call in issue order.
  const std::vector<LayoutEntry>& layout() const { return layout_; }

 private:
  int64_t budget_;
  int64_t calls_made_ = 0;
  int64_t cache_hits_ = 0;
  int round_ = 0;
  std::vector<LayoutEntry> layout_;
};

}  // namespace bati

#endif  // BATI_WHATIF_BUDGET_METER_H_
