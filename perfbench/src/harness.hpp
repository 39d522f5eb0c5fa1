// Shared machinery of the RGB end-to-end benchmark: the simulated
// deployment (Rig), the benchmark's own ground truth (Truth), sim-time
// observation of applies, root visibility and failure detection (Watch),
// the network tap counters, the traced-mode layer timers (LayerTrace) and
// the correctness checks.
//
// The benchmark drives the program only through its public API:
// sim::Simulator, net::Network, core::RgbSystem, core::QueryClient,
// wire::WireRegistry, core::MemberTable and core::GroupDirectory.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/rng.hpp"
#include "net/network.hpp"
#include "rgb/group_directory.hpp"
#include "rgb/rgb.hpp"
#include "sim/simulator.hpp"

namespace perfbench {

using rgb::common::GroupId;
using rgb::common::Guid;
using rgb::common::NodeId;
using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Linear-interpolated quantile (q in [0, 1]) of `values`; 0 when empty.
[[nodiscard]] double quantile(std::vector<double> values, double q);

[[nodiscard]] double peak_rss_mb();

// --- message families ---------------------------------------------------------

enum Family : std::size_t {
  kFamToken,
  kFamNotify,
  kFamViewSync,
  kFamSnapshot,
  kFamQuery,
  kFamStability,
  kFamOther,
  kFamilyCount,
};

[[nodiscard]] const char* family_name(std::size_t family);
[[nodiscard]] Family family_of(rgb::net::MessageKind kind);

// --- traced-mode layer timers -------------------------------------------------

/// Host-time accumulators of the traced mode. Timing is switched on per
/// measured tick (`active`), so a traced run alternates timed and untimed
/// ticks and reports the overhead of the timing itself.
struct LayerTrace {
  bool enabled = false;  ///< traced run (--trace 1)
  bool active = false;   ///< timing the current tick

  std::array<double, kFamilyCount> deliver_ns{};
  std::array<std::uint64_t, kFamilyCount> deliver_count{};
  double deliver_self_ns = 0;  ///< NE handler time minus nested sizer time
  double deliver_incl_ns = 0;  ///< NE handler time including the sizer
  double sizer_ns = 0;
  std::uint64_t sizer_calls = 0;
  double run_ns = 0;  ///< host time inside Simulator::run_until
  double sim_seconds = 0;  ///< simulated time covered by timed ticks
  /// The benchmark's own code running inside run_until (the tap, the
  /// Watch, query checks), outside NE delivery and nested in it. Taken out
  /// of the layer figures and reported as trace.harness_pct.
  double harness_ns = 0;
  double harness_nested_ns = 0;
  bool in_deliver = false;  ///< inside a timed NetworkEntity::deliver

  /// Envelopes captured by the tap for the codec measurement.
  std::vector<rgb::net::Envelope> samples;
  std::uint64_t sample_stride_counter = 0;
};

/// Adds the host time of its scope to the harness time in timed ticks.
class HarnessTime {
 public:
  explicit HarnessTime(LayerTrace& trace) : trace_(trace), on_(trace.active) {
    if (on_) start_ = Clock::now();
  }
  ~HarnessTime() {
    if (!on_) return;
    const double ns =
        std::chrono::duration<double, std::nano>(Clock::now() - start_)
            .count();
    (trace_.in_deliver ? trace_.harness_nested_ns : trace_.harness_ns) += ns;
  }
  HarnessTime(const HarnessTime&) = delete;
  HarnessTime& operator=(const HarnessTime&) = delete;

 private:
  LayerTrace& trace_;
  bool on_;
  Clock::time_point start_;
};

// --- network tap counters -----------------------------------------------------

struct TapCounts {
  static constexpr std::size_t kKinds = 128;
  std::array<std::uint64_t, kKinds> msgs{};
  std::array<std::uint64_t, kKinds> bytes{};
  std::uint64_t delivered = 0;
  std::uint64_t dropped = 0;
  std::uint64_t viewsync_fulls = 0;
};

// --- ground truth -------------------------------------------------------------

/// Who the benchmark attached where: the expected final membership, kept
/// from the benchmark's own schedule.
class Truth {
 public:
  explicit Truth(std::uint64_t groups) : groups_(groups) {}

  void attach(Guid guid, NodeId ap);
  void detach(Guid guid);
  [[nodiscard]] NodeId ap_of(Guid guid) const;
  [[nodiscard]] std::size_t size() const { return members_.size(); }
  [[nodiscard]] Guid member_at(std::size_t index) const {
    return members_[index];
  }
  /// The member's one group, by the program's own rule
  /// (core::member_groups with one group per member).
  [[nodiscard]] GroupId group_of(Guid guid) const;
  [[nodiscard]] std::uint64_t groups() const { return groups_; }

  /// Expected operational records per group, guid-ascending.
  [[nodiscard]] std::vector<std::vector<rgb::core::MemberRecord>> by_group()
      const;

 private:
  struct Slot {
    NodeId ap;
    std::size_t index = 0;
  };
  std::uint64_t groups_;
  std::vector<Guid> members_;
  std::unordered_map<Guid, Slot> where_;
};

/// A fresh guid space: distinct random 40-bit guids drawn from the seed.
class GuidSource {
 public:
  explicit GuidSource(rgb::common::RngStream rng) : rng_(rng) {}
  Guid next();

 private:
  rgb::common::RngStream rng_;
  std::unordered_set<std::uint64_t> used_;
};

// --- the simulated deployment -------------------------------------------------

struct RigConfig {
  int tiers = 2;
  int ring_size = 5;
  std::uint64_t groups = 1;
  rgb::sim::Duration probe_period = 0;
};

class Watch;

/// Endpoint re-attached over one NE: forwards to NetworkEntity::deliver,
/// times it in traced ticks, and lets the Watch observe the NE afterwards.
class NeProbe : public rgb::net::Endpoint {
 public:
  NeProbe(rgb::core::NetworkEntity& ne, std::size_t index, Watch& watch,
          LayerTrace& trace)
      : ne_(ne), index_(index), watch_(watch), trace_(trace) {}
  void deliver(const rgb::net::Envelope& env) override;

 private:
  rgb::core::NetworkEntity& ne_;
  std::size_t index_;
  Watch& watch_;
  LayerTrace& trace_;
};

class Rig {
 public:
  Rig(std::uint64_t seed, const RigConfig& config, LayerTrace& trace);
  Rig(const Rig&) = delete;
  Rig& operator=(const Rig&) = delete;
  ~Rig();

  rgb::sim::Simulator sim;
  rgb::net::Network net;
  rgb::core::RgbSystem sys;
  RigConfig config;

  [[nodiscard]] const std::vector<NodeId>& nes() const { return nes_; }
  [[nodiscard]] rgb::core::NetworkEntity& ne(std::size_t index) {
    return *sys.entity(nes_[index]);
  }
  [[nodiscard]] std::size_t index_of(NodeId id) const {
    return index_.at(id);
  }
  [[nodiscard]] Watch& watch() { return *watch_; }
  [[nodiscard]] TapCounts& tap() { return tap_; }
  [[nodiscard]] LayerTrace& trace() { return trace_; }

  /// Ring links that carry one kViewSync per probe tick, from (h, r).
  [[nodiscard]] std::uint64_t ring_links() const;
  /// Installs the traced-mode timing sizer (on) or the program's own
  /// encoded-size metering (off).
  void set_sizer_timing(bool on);

  /// Starts every NE's probe timer and records when: probe ticks fall on
  /// whole periods from then.
  void start_probing();
  [[nodiscard]] rgb::sim::Time probing_since() const { return probing_since_; }

  /// Runs the simulation to `deadline`, timing it when the trace is active.
  void run_until(rgb::sim::Time deadline);

  /// Schedules benchmark code (op injection, crash, recovery, polls) as a
  /// simulator event. These events are counted apart, so the event counts
  /// the benchmark reports are the program's own.
  void schedule_at(rgb::sim::Time at, std::function<void()> fn);
  [[nodiscard]] std::uint64_t program_events() const {
    return sim.executed_events() - harness_events_;
  }

 private:
  LayerTrace& trace_;
  std::vector<NodeId> nes_;
  std::unordered_map<NodeId, std::size_t> index_;
  std::unique_ptr<Watch> watch_;
  std::vector<std::unique_ptr<NeProbe>> probes_;
  TapCounts tap_;
  std::uint64_t harness_events_ = 0;
  rgb::sim::Time probing_since_ = 0;
};

// --- sim-time observation -----------------------------------------------------

/// Follows benchmark-issued ops through the hierarchy in simulated time:
/// when each NE first holds an op's effect (dissemination latency), when a
/// join first shows at a tier-0 NE (root visibility), and how long a
/// crashed AP stays in its ring (detection). Observations are taken after
/// every delivery to an NE and, for a crashed AP's ring, on a poll grid:
/// every 500 us until the crash is detected, then every 5 ms until the AP
/// is back in its ring.
class Watch {
 public:
  explicit Watch(Rig& rig);

  /// Starts following an op the benchmark just issued: `present` is the
  /// expected record state afterwards (operational at `ap`, or gone). An
  /// earlier followed op on the same member is superseded: NEs it has not
  /// reached yet no longer report it.
  void follow(Guid guid, GroupId gid, NodeId ap, bool present, bool join);
  void after_delivery(std::size_t ne_index);

  /// `crashed_ap`'s ring is on the fault path in [from, to): its ops and
  /// its NEs wait on the crash's detection, the ring's repair or the AP's
  /// rejoin. An (op, NE) observation whose op was issued in that ring, or
  /// whose NE is in it, and whose [birth, apply] overlaps the window goes
  /// to fault_apply_ms instead of apply_ms (and is left out of
  /// visible_ms).
  void add_fault_window(NodeId crashed_ap, rgb::sim::Time from,
                        rgb::sim::Time to);

  /// AP crash injected now; detection and rejoin are observed from here.
  void on_crash(NodeId ap);
  void on_recover(NodeId ap);
  [[nodiscard]] bool faults_pending() const { return !faults_.empty(); }

  std::vector<double> apply_ms;    ///< op birth -> applied, per (op, NE)
  std::vector<double> visible_ms;  ///< join birth -> first tier-0 apply
  std::vector<double> fault_apply_ms;  ///< apply_ms of fault-path ops
  std::vector<double> detect_ms;   ///< AP crash -> first splice
  /// Root visibility earlier than the hop bound (should never happen).
  std::uint64_t too_early = 0;
  std::uint64_t unresolved_faults = 0;

 private:
  struct Followed {
    Guid guid;
    GroupId gid;
    NodeId ap;
    rgb::sim::Time born = 0;
    bool present = true;
    bool join = false;
    bool root_seen = false;
    bool superseded = false;
  };
  struct FaultWindow {
    std::size_t ring = 0;
    rgb::sim::Time from = 0;
    rgb::sim::Time to = 0;
  };
  struct Fault {
    NodeId ap;
    std::size_t ring = 0;
    rgb::sim::Time crashed_at = 0;
    bool detected = false;
    bool recovered = false;
  };

  [[nodiscard]] bool holds(std::size_t ne_index, const Followed& op) const;
  /// Whether `ring` has a fault window overlapping [born, now].
  [[nodiscard]] bool faulted(std::size_t ring, rgb::sim::Time born,
                             rgb::sim::Time now) const;
  void poll_faults();
  void arm_poll();

  Rig& rig_;
  std::vector<Followed> ops_;
  std::unordered_map<Guid, std::uint32_t> latest_;  ///< guid -> newest op
  std::vector<std::vector<std::uint32_t>> pending_;  ///< per NE
  std::vector<std::uint64_t> last_digest_;           ///< per NE (G = 1 gate)
  std::vector<bool> tier0_;
  std::vector<bool> down_;  ///< crashed or not yet rejoined
  std::vector<Fault> faults_;
  std::vector<std::vector<NodeId>> ap_rings_;
  static constexpr std::size_t kNoRing = ~std::size_t{0};
  std::unordered_map<NodeId, std::size_t> ring_of_ap_;
  std::vector<std::size_t> ne_ring_;  ///< AP ring of each NE, or kNoRing
  std::vector<FaultWindow> fault_windows_;
  bool poll_armed_ = false;
  std::uint64_t poll_generation_ = 0;
  rgb::sim::Duration min_root_latency_ = 0;
};

// --- checks -------------------------------------------------------------------

struct CheckReport {
  bool correct = true;
  std::uint64_t failed = 0;  ///< members whose final record is wrong
  std::vector<std::string> problems;
  void fail_check(const std::string& what) {
    correct = false;
    if (problems.size() < 20) problems.push_back(what);
  }
};

/// True when every alive NE's per-group digests agree (cheap pre-check
/// before the full comparison against the ground truth).
[[nodiscard]] bool digests_agree(Rig& rig);

/// Every alive NE's tables against the ground truth, and every table's
/// incremental digest against one recomputed from its entries.
void check_tables(Rig& rig, const Truth& truth, CheckReport& report);

/// Message conservation, counted by the tap and by Network::metrics():
/// crashes every endpoint so nothing new enters the network, lets what is
/// in flight land, then compares. Ends the rig's useful life.
void check_conservation(Rig& rig, CheckReport& report);

/// Runs probe ticks until the views agree with the ground truth (or
/// `max_ticks` elapse). Returns the ticks run.
int settle(Rig& rig, const Truth& truth, int max_ticks);

}  // namespace perfbench
