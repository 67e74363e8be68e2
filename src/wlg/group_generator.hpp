// Group Generator (GG) with buffer queue GQ — paper Section 4.3.2.
//
// Leaders report to the GG when their node finishes its local computation;
// the GG pushes each reporter into the queue GQ and, whenever GQ reaches the
// grouping threshold, pops those leaders as one communication group G_inter
// and notifies them to synchronize. A grouping cycle spans one ADMM
// iteration: once every leader has reported, any residual reporters (fewer
// than the threshold, e.g. when the node count is not divisible) form a
// final smaller group and the next cycle begins.
//
// Formation times are virtual: a group forms at the report time of its last
// member, so fast nodes group with fast nodes and never wait for the global
// straggler — the mechanism behind Figure 7.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "simnet/cost_model.hpp"
#include "simnet/topology.hpp"
#include "wlg/group_workspace.hpp"

namespace psra::wlg {

struct GroupFormation {
  std::vector<simnet::NodeId> members;
  /// Virtual time the group was formed (report time of the last member).
  simnet::VirtualTime formed_at = 0.0;
};

class GroupGenerator {
 public:
  /// `threshold` leaders form a group (>= 1); `num_leaders` total leaders in
  /// the cluster (for cycle tracking).
  GroupGenerator(std::uint32_t threshold, std::uint32_t num_leaders);

  std::uint32_t threshold() const { return threshold_; }
  std::uint32_t num_leaders() const { return num_leaders_; }

  /// Leader of `node` reports at virtual time `t`. Reports within one cycle
  /// must be delivered in non-decreasing time order (the engines sort
  /// arrivals). Returns the formed group when this report fills the queue.
  std::optional<GroupFormation> Report(simnet::NodeId node,
                                       simnet::VirtualTime t);

  /// Allocation-free Report: a formed group is appended to `out` instead of
  /// being returned in a fresh vector, and the buffer queue keeps its
  /// capacity. Returns true when this report formed a group.
  bool ReportInto(simnet::NodeId node, simnet::VirtualTime t, GroupBatch& out);

  /// Number of reports received in the current cycle.
  std::uint32_t ReportsThisCycle() const { return reports_this_cycle_; }

  /// Residual queue contents as a final (smaller) group; empty optional if
  /// the queue is empty. Resets the cycle either way.
  std::optional<GroupFormation> EndCycle();

  /// Allocation-free EndCycle: the residual group (if any) is appended to
  /// `out`. Returns true when a group was appended.
  bool EndCycleInto(GroupBatch& out);

  /// Leader of `node` died after reporting but before its group formed: the
  /// GG drops it from the buffer queue, so later reporters take its place
  /// (the regrouping path of the fault model). Returns false when the node
  /// is not queued — its group already formed, and the death must be handled
  /// downstream by the collective layer.
  bool Withdraw(simnet::NodeId node);

  std::size_t QueueDepth() const { return queue_.size(); }

 private:
  std::uint32_t threshold_;
  std::uint32_t num_leaders_;
  std::uint32_t reports_this_cycle_ = 0;
  std::vector<simnet::NodeId> queue_;  // GQ
  simnet::VirtualTime last_report_time_ = 0.0;
  std::vector<bool> reported_;  // per-node guard within a cycle
};

/// Convenience: runs one full grouping cycle given every leader's report
/// time, returning all formed groups (deterministic: ties broken by node id).
std::vector<GroupFormation> RunGroupingCycle(
    GroupGenerator& gg, const std::vector<simnet::VirtualTime>& report_times);

/// Allocation-free cycle used by the engine hot path: the formed groups land
/// in ws.groups (cleared first) and the sort scratch lives in `ws`, so a
/// workspace reused across iterations performs no heap allocations in steady
/// state. Identical formations to the vector-returning overload.
void RunGroupingCycle(GroupGenerator& gg,
                      std::span<const simnet::VirtualTime> report_times,
                      GroupWorkspace& ws);

/// One leader's report in a faulty cycle. `dies_at`, when set, is the
/// virtual time the leader dies mid-round: if it dies while still queued the
/// GG withdraws it (regrouping); if its group already formed the formation
/// is returned as-is and the caller excludes the dead member downstream.
struct LeaderReport {
  simnet::NodeId node = 0;
  simnet::VirtualTime time = 0.0;
  std::optional<simnet::VirtualTime> dies_at;
};

/// Fault-aware grouping cycle over a SUBSET of leaders (dead nodes simply do
/// not report). Report and death events are replayed in virtual-time order
/// (ties: reports first, then by node id), so the regrouped memberships are
/// deterministic; with every leader reporting and none dying, the formations
/// equal the report-times overload's. The event scratch and formed groups
/// live in `ws` (allocation-free once warm).
void RunGroupingCycle(GroupGenerator& gg, std::span<const LeaderReport> reports,
                      GroupWorkspace& ws);

}  // namespace psra::wlg
