#include "workloads.hpp"

#include <algorithm>
#include <cstdio>
#include <functional>
#include <memory>
#include <optional>

#include "rgb/query.hpp"
#include "wire/registry.hpp"

namespace perfbench {

namespace core = rgb::core;
namespace net = rgb::net;
namespace sim = rgb::sim;
using rgb::common::RngStream;

namespace {

constexpr sim::Duration kProbePeriod = sim::msec(250);
/// How long an injected AP crash lasts before the AP recovers. A crashed
/// token holder is detected only by its leader's round watchdog
/// (RgbConfig::round_timeout, 2 s; spliced ~2.2 s after the crash), so a
/// shorter crash can end unnoticed; at 3 s every crash is spliced out
/// before it recovers.
constexpr sim::Duration kCrashFor = sim::sec(3);
constexpr sim::Duration kQueryTimeout = sim::sec(1);
/// The fault path of a crash, for the latency figures: from kFaultLead
/// before it (an op issued then can still sit in the AP's queue; an op
/// reaches every NE in ~60 ms at the median) to kRejoinTail after the
/// recovery (a recovered AP's queue stays blocked for ~3.2-3.4 s).
constexpr sim::Duration kFaultLead = sim::msec(100);
constexpr sim::Duration kRejoinTail = sim::sec(4);
/// steady_probe's tick_ms: this quantile of its per-tick host times. The
/// machine's cores and L3 are shared and its slow episodes last seconds;
/// steady_probe's ticks all carry the same work, so their lower tail is
/// the tick's cost on an uncontended machine, which repeats from run to
/// run where the median does not.
constexpr double kSteadyTickQuantile = 0.02;
/// churn_mobile, groups_serving: peak_rss_mb is read after this many churn
/// rounds (20 s simulated); an 18 s run holds 8-10 of churn_mobile's.
constexpr std::size_t kRssRounds = 4;

/// Sink that keeps timed calls from being optimised away.
volatile std::uint64_t g_sink = 0;

// --- measured ticks -----------------------------------------------------------

/// Host time of every measured tick: one simulated probe period (250 ms).
/// A traced run times every other tick layer by layer; end-to-end numbers
/// use the untimed ticks only.
struct Ticks {
  std::vector<double> host_ms;
  std::vector<double> traced_host_ms;
  std::uint64_t traced_ops = 0;
  std::uint64_t untraced_ops = 0;
  std::uint64_t count = 0;
  double timed_s = 0;
};

void measured_tick(Rig& rig, Ticks& ticks, sim::Time end, std::uint64_t ops) {
  LayerTrace& trace = rig.trace();
  const bool traced = trace.enabled && ticks.count % 2 == 1;
  if (traced) {
    rig.set_sizer_timing(true);
    trace.active = true;
  }
  const auto start = Clock::now();
  rig.run_until(end);
  const double ms = seconds_between(start, Clock::now()) * 1e3;
  if (traced) {
    trace.active = false;
    rig.set_sizer_timing(false);
    ticks.traced_host_ms.push_back(ms);
    ticks.traced_ops += ops;
  } else {
    ticks.host_ms.push_back(ms);
    ticks.untraced_ops += ops;
  }
  ticks.timed_s += ms / 1e3;
  ++ticks.count;
}

// --- counters over the measured phase -----------------------------------------

struct Counters {
  std::uint64_t sent = 0;
  std::uint64_t bytes = 0;
  std::uint64_t viewsync_msgs = 0;
  std::uint64_t viewsync_bytes = 0;
  std::uint64_t events = 0;
  std::uint64_t rounds = 0;
  std::uint64_t applied = 0;
  std::uint64_t fulls = 0;
  std::uint64_t repairs = 0;
  std::uint64_t view_changes = 0;
  std::array<std::uint64_t, TapCounts::kKinds> tap_msgs{};
  std::array<std::uint64_t, TapCounts::kKinds> tap_bytes{};

  static Counters read(Rig& rig) {
    Counters c;
    const auto& m = rig.net.metrics();
    c.sent = m.sent;
    c.bytes = m.bytes_sent;
    c.viewsync_msgs = m.sent_of(core::kind::kViewSync);
    c.viewsync_bytes = m.bytes_of(core::kind::kViewSync);
    c.events = rig.program_events();
    c.rounds = rig.sys.metrics().rounds_started.value();
    c.applied = rig.sys.metrics().ops_disseminated.value();
    c.repairs = rig.sys.metrics().repairs.value();
    c.view_changes = rig.sys.obs().tracer.view_changes().value();
    c.fulls = rig.tap().viewsync_fulls;
    c.tap_msgs = rig.tap().msgs;
    c.tap_bytes = rig.tap().bytes;
    return c;
  }

  /// this += after - before.
  void add_delta(const Counters& before, const Counters& after) {
    sent += after.sent - before.sent;
    bytes += after.bytes - before.bytes;
    viewsync_msgs += after.viewsync_msgs - before.viewsync_msgs;
    viewsync_bytes += after.viewsync_bytes - before.viewsync_bytes;
    events += after.events - before.events;
    rounds += after.rounds - before.rounds;
    applied += after.applied - before.applied;
    fulls += after.fulls - before.fulls;
    repairs += after.repairs - before.repairs;
    view_changes += after.view_changes - before.view_changes;
    for (std::size_t k = 0; k < TapCounts::kKinds; ++k) {
      tap_msgs[k] += after.tap_msgs[k] - before.tap_msgs[k];
      tap_bytes[k] += after.tap_bytes[k] - before.tap_bytes[k];
    }
  }
};

/// Everything a workload hands to the metric assembly.
struct Collected {
  double setup_s = 0;
  Ticks ticks;
  Counters measured;       ///< sends/events of the measured phase
  std::uint64_t sync_ticks = 0;  ///< probe ticks behind viewsync_bytes
  std::uint64_t sync_bytes = 0;
  std::uint64_t ops = 0;   ///< operations of the measured phase
  std::vector<double> apply_ms;
  std::vector<double> visible_ms;
  std::vector<double> fault_apply_ms;
  std::vector<double> detect_ms;
  CheckReport report;
  std::vector<Metric> micro;  ///< traced: layer micro-timings
  std::uint64_t extra_ops = 0;   ///< attempted outside the measured phase
  std::uint64_t ring_links = 0;
  int ring_size = 5;
  /// join_surge: where each repetition of the surge starts in the ticks.
  /// Repetitions replay the same inputs, so tick i of every repetition does
  /// the same work and the fastest of them is its uncontended cost.
  std::vector<std::size_t> round_starts;
  /// churn_mobile, groups_serving: each churn round's ops, untimed ticks
  /// and their host time. Every round of a workload has the same make-up
  /// (churn, and on churn_mobile one AP crash), so per-round totals
  /// compare, and each keeps every tick of its round, crash, splice and
  /// rejoin ticks included. ops_per_s is the
  /// second-fastest round's rate and tick_ms its mean tick: rounds last
  /// about a second of host time, and the machine's slow episodes last
  /// seconds, so the faster rounds are the ones that repeat from run to
  /// run.
  struct Round {
    std::uint64_t ops = 0;
    std::size_t ticks = 0;
    double host_ms = 0;
  };
  std::vector<Round> rounds;
  /// churn_mobile, groups_serving: the process's peak resident set at the
  /// end of churn round kRssRounds. Their state grows from round to round
  /// (~70 MB after set-up, ~125 MB after 8 rounds of churn_mobile), and a
  /// run holds as many rounds as its host time allows, so the peak at the
  /// end of the run would read higher on a faster machine.
  std::optional<double> peak_rss_mb;
  LayerTrace trace;
};

/// Mean over tick positions of the fastest repetition of each position.
double fastest_per_position(const std::vector<double>& host_ms,
                            const std::vector<std::size_t>& starts) {
  std::size_t length = host_ms.size() - starts.back();
  for (std::size_t r = 0; r + 1 < starts.size(); ++r) {
    length = std::min(length, starts[r + 1] - starts[r]);
  }
  double sum = 0;
  for (std::size_t p = 0; p < length; ++p) {
    double fastest = host_ms[starts.front() + p];
    for (const std::size_t start : starts) {
      fastest = std::min(fastest, host_ms[start + p]);
    }
    sum += fastest;
  }
  return length == 0 ? 0 : sum / static_cast<double>(length);
}

void take_latencies(Watch& watch, Collected& c) {
  c.apply_ms.insert(c.apply_ms.end(), watch.apply_ms.begin(),
                    watch.apply_ms.end());
  c.fault_apply_ms.insert(c.fault_apply_ms.end(),
                          watch.fault_apply_ms.begin(),
                          watch.fault_apply_ms.end());
  c.visible_ms.insert(c.visible_ms.end(), watch.visible_ms.begin(),
                      watch.visible_ms.end());
  if (watch.too_early != 0) {
    c.report.fail_check(std::to_string(watch.too_early) +
                        " join(s) visible at tier 0 sooner than the hop bound");
  }
  watch.apply_ms.clear();
  watch.visible_ms.clear();
  watch.fault_apply_ms.clear();
  watch.too_early = 0;
}

void take_detections(Watch& watch, Collected& c) {
  c.detect_ms.insert(c.detect_ms.end(), watch.detect_ms.begin(),
                     watch.detect_ms.end());
  watch.detect_ms.clear();
}

// --- open-loop churn ----------------------------------------------------------

enum class Act : std::uint8_t {
  kJoin,
  kLeave,
  kFail,
  kHandoff,
  kCrash,
  kRecover,
  kQuery,
};

struct Planned {
  sim::Time at = 0;
  Act act = Act::kJoin;
  Guid guid;
  NodeId ap;
  GroupId gid;
};

[[nodiscard]] bool counts_as_op(Act act) {
  return act != Act::kCrash && act != Act::kRecover;
}

/// The op mix of the repository's churn generator (workload::ChurnConfig
/// defaults: join 2, leave 1, handoff 4, fail 0.5 per simulated second),
/// scaled to `ops_per_s`. Handoffs go to any other AP.
struct ChurnMix {
  double ops_per_s = 200;
  double join = 2.0 / 7.5;
  double leave = 1.0 / 7.5;
  double fail = 0.5 / 7.5;  ///< the rest (4 / 7.5) are handoffs
  double queries_per_s = 0;
  /// AP crashes per 5 s round (each recovers kCrashFor later).
  std::size_t crashes_per_round = 1;
};

/// Group-scoped TMS queries from a small pool of clients. A query that
/// finds no free client, times out, or names a member outside its group
/// counts as failed.
class QueryPool {
 public:
  QueryPool(Rig& rig, const Truth& truth, std::size_t clients)
      : truth_(truth),
        trace_(rig.trace()),
        plan_(rig.sys.query_plan(core::QueryScheme::kTopmost)) {
    for (std::size_t i = 0; i < clients; ++i) {
      clients_.push_back(std::make_unique<core::QueryClient>(
          NodeId{1'000'000 + i}, rig.net));
      busy_.push_back(false);
    }
  }

  /// Issues a query for `gid`; `expected`, when given, must equal the reply.
  void issue(GroupId gid,
             std::optional<std::vector<core::MemberRecord>> expected = {}) {
    ++issued;
    const auto free = std::find(busy_.begin(), busy_.end(), false);
    if (free == busy_.end()) {
      ++failed;
      return;
    }
    const auto i = static_cast<std::size_t>(free - busy_.begin());
    busy_[i] = true;
    clients_[i]->issue_group(
        plan_, gid, kQueryTimeout,
        [this, i, gid, expected](core::QueryClient::Result result) {
          const HarnessTime timed{trace_};
          busy_[i] = false;
          ++done;
          bool ok = result.complete;
          for (const core::MemberRecord& m : result.members) {
            if (truth_.group_of(m.guid) != gid) ok = false;
          }
          if (expected) {
            std::sort(result.members.begin(), result.members.end(),
                      [](const core::MemberRecord& a,
                         const core::MemberRecord& b) {
                        return a.guid < b.guid;
                      });
            if (result.members != *expected) ok = false;
          }
          if (!ok) ++failed;
        });
  }

  [[nodiscard]] bool any_free() const {
    return std::find(busy_.begin(), busy_.end(), false) != busy_.end();
  }

  std::uint64_t issued = 0;
  std::uint64_t done = 0;
  std::uint64_t failed = 0;

 private:
  const Truth& truth_;
  LayerTrace& trace_;
  core::QueryPlan plan_;
  std::vector<std::unique_ptr<core::QueryClient>> clients_;
  std::vector<bool> busy_;
};

/// Plans open-loop membership churn (and queries) in simulated time from
/// the seed, updating the ground truth as it plans, then schedules it.
class Churn {
 public:
  Churn(Rig& rig, Truth& truth, GuidSource& guids, RngStream rng,
        ChurnMix mix)
      : rig_(rig), truth_(truth), guids_(guids), rng_(rng), mix_(mix) {
    ap_rings_ = rig.sys.rings(rig.sys.tier_count() - 1);
  }

  /// `duration` of churn from `start`, with `crashes` non-leader APs, each
  /// of another ring, crashing at random offsets and recovering kCrashFor
  /// later. While an AP is down, no member joins or hands off to it, and
  /// its members can neither leave nor fail (both are reported by the
  /// member's AP); they can hand off to a live AP.
  std::vector<Planned> plan(sim::Time start, sim::Duration duration,
                            std::size_t crashes) {
    std::vector<Planned> out;
    const sim::Time end = start + duration;
    std::vector<bool> ring_used(ap_rings_.size(), false);
    for (std::size_t k = 0; k < std::min(crashes, ap_rings_.size()); ++k) {
      const sim::Time at =
          start + sim::msec(500) + rng_.next_below(sim::msec(1000));
      std::size_t r = 0;
      NodeId ap;
      do {
        r = rng_.next_below(ap_rings_.size());
        ap = ap_rings_[r][1 + rng_.next_below(ap_rings_[r].size() - 1)];
      } while (ring_used[r] || !up(ap, at));
      ring_used[r] = true;
      outages_.push_back(Outage{ap, at, at + kCrashFor});
      rig_.watch().add_fault_window(ap, at - kFaultLead,
                                    at + kCrashFor + kRejoinTail);
      out.push_back(Planned{at, Act::kCrash, Guid{}, ap, GroupId{}});
      out.push_back(
          Planned{at + kCrashFor, Act::kRecover, Guid{}, ap, GroupId{}});
    }
    sim::Time t = start;
    for (;;) {
      t += next_gap(mix_.ops_per_s);
      if (t >= end) break;
      const double u = rng_.next_double();
      if (u < mix_.join) {
        const Guid guid = guids_.next();
        const NodeId ap = random_up_ap(t, NodeId{});
        truth_.attach(guid, ap);
        out.push_back(Planned{t, Act::kJoin, guid, ap, truth_.group_of(guid)});
        continue;
      }
      const bool departs = u < mix_.join + mix_.leave + mix_.fail;
      const std::optional<Guid> member = pick_member(t, departs);
      if (!member) continue;
      const Guid guid = *member;
      if (departs) {
        const Act act = u < mix_.join + mix_.leave ? Act::kLeave : Act::kFail;
        out.push_back(
            Planned{t, act, guid, truth_.ap_of(guid), truth_.group_of(guid)});
        truth_.detach(guid);
        continue;
      }
      const NodeId to = random_up_ap(t, truth_.ap_of(guid));
      truth_.attach(guid, to);
      out.push_back(Planned{t, Act::kHandoff, guid, to, truth_.group_of(guid)});
    }
    if (mix_.queries_per_s > 0) {
      sim::Time q = start;
      for (;;) {
        q += next_gap(mix_.queries_per_s);
        if (q >= end) break;
        out.push_back(Planned{q, Act::kQuery, Guid{}, NodeId{},
                              GroupId{1 + rng_.next_below(truth_.groups())}});
      }
    }
    std::stable_sort(out.begin(), out.end(),
                     [](const Planned& a, const Planned& b) {
                       return a.at < b.at;
                     });
    return out;
  }

  void schedule(const std::vector<Planned>& plan, bool follow,
                QueryPool* queries) {
    for (const Planned& p : plan) {
      rig_.schedule_at(p.at, [this, p, follow, queries]() {
        execute(p, follow, queries);
      });
    }
  }

 private:
  struct Outage {
    NodeId ap;
    sim::Time from = 0;
    sim::Time to = 0;
  };

  void execute(const Planned& p, bool follow, QueryPool* queries) {
    Watch& watch = rig_.watch();
    switch (p.act) {
      case Act::kJoin:
        rig_.sys.join(p.guid, p.ap);
        if (follow) watch.follow(p.guid, p.gid, p.ap, true, true);
        break;
      case Act::kLeave:
        rig_.sys.leave(p.guid);
        if (follow) watch.follow(p.guid, p.gid, p.ap, false, false);
        break;
      case Act::kFail:
        rig_.sys.fail(p.guid);
        if (follow) watch.follow(p.guid, p.gid, p.ap, false, false);
        break;
      case Act::kHandoff:
        rig_.sys.handoff(p.guid, p.ap);
        if (follow) watch.follow(p.guid, p.gid, p.ap, true, false);
        break;
      case Act::kCrash:
        rig_.sys.crash_ne(p.ap);
        watch.on_crash(p.ap);
        break;
      case Act::kRecover:
        rig_.sys.recover_ne(p.ap);
        watch.on_recover(p.ap);
        break;
      case Act::kQuery:
        if (queries != nullptr) queries->issue(p.gid);
        break;
    }
  }

  sim::Duration next_gap(double per_s) {
    const double gap_us = rng_.exponential(1e6 / per_s);
    return std::max<sim::Duration>(1, static_cast<sim::Duration>(gap_us));
  }

  [[nodiscard]] bool up(NodeId ap, sim::Time t) const {
    for (const Outage& o : outages_) {
      if (o.ap == ap && t >= o.from && t < o.to) return false;
    }
    return true;
  }

  /// A uniformly drawn AP that is up at `t`, other than `except`.
  NodeId random_up_ap(sim::Time t, NodeId except) {
    const auto& aps = rig_.sys.aps();
    for (;;) {
      const NodeId ap = aps[rng_.next_below(aps.size())];
      if (ap != except && up(ap, t)) return ap;
    }
  }

  /// A uniformly drawn member; one that leaves or fails must be at an AP
  /// that is up.
  std::optional<Guid> pick_member(sim::Time t, bool departs) {
    for (int tries = 0; tries < 32 && truth_.size() > 0; ++tries) {
      const Guid guid = truth_.member_at(rng_.next_below(truth_.size()));
      if (departs && !up(truth_.ap_of(guid), t)) continue;
      return guid;
    }
    return std::nullopt;
  }

  Rig& rig_;
  Truth& truth_;
  GuidSource& guids_;
  RngStream rng_;
  ChurnMix mix_;
  std::vector<std::vector<NodeId>> ap_rings_;
  std::vector<Outage> outages_;
};

/// Runs `plan` as measured ticks from now until `end`: one churn round.
void run_measured(Rig& rig, Collected& c, const std::vector<Planned>& plan,
                  sim::Time end) {
  const std::size_t first_tick = c.ticks.host_ms.size();
  const std::uint64_t ops_before = c.ticks.untraced_ops;
  std::size_t next = 0;
  while (rig.sim.now() < end) {
    const sim::Time tick_end = std::min(end, rig.sim.now() + kProbePeriod);
    std::uint64_t ops = 0;
    while (next < plan.size() && plan[next].at <= tick_end) {
      if (counts_as_op(plan[next].act)) ++ops;
      ++next;
    }
    measured_tick(rig, c.ticks, tick_end, ops);
  }
  Collected::Round round;
  round.ops = c.ticks.untraced_ops - ops_before;
  round.ticks = c.ticks.host_ms.size() - first_tick;
  for (std::size_t i = first_tick; i < c.ticks.host_ms.size(); ++i) {
    round.host_ms += c.ticks.host_ms[i];
  }
  c.rounds.push_back(round);
}

// --- bulk population ----------------------------------------------------------

struct Arrival {
  sim::Time at = 0;
  Guid guid;
  NodeId ap;
};

/// `count` joins, one every `spacing` on average (exponential gaps), each
/// at a uniformly drawn AP.
std::vector<Arrival> plan_arrivals(const std::vector<NodeId>& aps,
                                   GuidSource& guids, RngStream rng,
                                   std::size_t count, sim::Duration spacing,
                                   sim::Time start) {
  std::vector<Arrival> out;
  out.reserve(count);
  sim::Time t = start;
  for (std::size_t i = 0; i < count; ++i) {
    t += std::max<sim::Duration>(
        1, static_cast<sim::Duration>(
               rng.exponential(static_cast<double>(spacing))));
    out.push_back(Arrival{t, guids.next(), aps[rng.next_below(aps.size())]});
  }
  return out;
}

/// Whether a join is followed through the hierarchy: 1 in 2^shift, by guid
/// hash; a negative shift follows none.
[[nodiscard]] bool sampled(Guid guid, int shift) {
  if (shift < 0) return false;
  if (shift == 0) return true;
  return ((guid.value() * 0x9E3779B97F4A7C15ULL) >> (64 - shift)) == 0;
}

void schedule_arrivals(Rig& rig, const std::vector<Arrival>& arrivals,
                       std::size_t count, int sample_shift) {
  for (std::size_t i = 0; i < count; ++i) {
    const Arrival a = arrivals[i];
    const bool follow = sampled(a.guid, sample_shift);
    rig.schedule_at(a.at, [&rig, a, follow]() {
      rig.sys.join(a.guid, a.ap);
      if (follow) {
        rig.watch().follow(
            a.guid, core::member_groups(a.guid, rig.config.groups, 1).front(),
            a.ap, true, true);
      }
    });
  }
}

/// Populates a fresh rig with `arrivals` (probing off), then starts probing
/// and settles until every view matches the truth.
void populate(Rig& rig, const std::vector<Arrival>& arrivals, Truth& truth,
              int sample_shift, CheckReport& report) {
  for (const Arrival& a : arrivals) truth.attach(a.guid, a.ap);
  schedule_arrivals(rig, arrivals, arrivals.size(), sample_shift);
  rig.sim.run();
  rig.start_probing();
  const int ticks = settle(rig, truth, 160);
  if (ticks >= 160) report.fail_check("population did not converge");
}

// --- traced-mode layer micro-timings ------------------------------------------

/// Calls `fn` until at least `budget_ms` of host time passed (and at least
/// `min_reps` times); returns host ns per call.
template <typename Fn>
double time_per_call(Fn&& fn, double budget_ms = 20, int min_reps = 3) {
  int reps = 0;
  const auto start = Clock::now();
  double elapsed_ms = 0;
  while (reps < min_reps || elapsed_ms < budget_ms) {
    fn();
    ++reps;
    elapsed_ms = seconds_between(start, Clock::now()) * 1e3;
  }
  return elapsed_ms * 1e6 / reps;
}

/// The group of `dir` with the most entries.
GroupId largest_group(const core::GroupDirectory& dir) {
  GroupId best{1};
  std::size_t size = 0;
  for (const auto& [gid, state] : dir.groups()) {
    if (state.table.size() > size) {
      best = gid;
      size = state.table.size();
    }
  }
  return best;
}

void layer_micro(Rig& rig, const std::vector<double>& latencies,
                 std::vector<Metric>& out) {
  // Member table at the workload's size: an AP's largest group table, and
  // a tier-0 NE's table of the same group as the newer_than peer.
  std::size_t ap_index = 0;
  std::size_t root_index = 0;
  for (std::size_t i = 0; i < rig.nes().size(); ++i) {
    if (rig.ne(i).tier() == rig.sys.tier_count() - 1) ap_index = i;
    if (rig.ne(i).tier() == 0) root_index = i;
  }
  const core::GroupDirectory& ap_dir = rig.ne(ap_index).directory();
  const GroupId gid = largest_group(ap_dir);
  static const core::MemberTable kEmpty;
  const core::MemberTable* ap_table = ap_dir.table_if(gid);
  const core::MemberTable& table = ap_table != nullptr ? *ap_table : kEmpty;
  const std::vector<core::TableEntry> entries = table.export_entries();
  const core::MemberTable* peer = rig.ne(root_index).directory().table_if(gid);
  const std::vector<core::TableEntry> peer_entries =
      peer != nullptr ? peer->export_entries() : entries;

  // Fresh joins, a quarter of the table's size (at least 8), applied to a
  // copy of the table: the table stays near the workload's size.
  const std::size_t applies =
      std::clamp<std::size_t>(table.size() / 4, 8, 4096);
  std::vector<core::MembershipOp> joins(applies);
  for (std::size_t i = 0; i < applies; ++i) {
    core::MembershipOp& op = joins[i];
    op.kind = core::OpKind::kMemberJoin;
    op.uid = (std::uint64_t{1} << 50) + i;
    op.seq = (std::uint64_t{1} << 50) + i;
    op.claim_seq = op.seq;
    op.gid = gid;
    op.member = core::MemberRecord{Guid{(std::uint64_t{1} << 41) + i},
                                   rig.sys.aps().front(),
                                   core::MemberStatus::kOperational};
  }
  double apply_ns = 0;
  std::uint64_t applied = 0;
  while (applied < 5 * applies || apply_ns < 20e6) {
    core::MemberTable copy = table;
    const auto start = Clock::now();
    for (const core::MembershipOp& op : joins) g_sink = g_sink + copy.apply(op);
    apply_ns += std::chrono::duration<double, std::nano>(Clock::now() - start)
                    .count();
    applied += applies;
  }
  out.push_back({"member_table.apply_ns",
                 apply_ns / static_cast<double>(applied), "ns"});

  std::vector<Guid> keys;
  for (std::size_t i = 0; i < entries.size() && keys.size() < 8192;
       i += 1 + entries.size() / 8192) {
    keys.push_back(entries[i].record.guid);
  }
  RngStream shuffle{0x10CA7E};
  shuffle.shuffle(keys);
  const double lookup_ns =
      keys.empty() ? 0
                   : time_per_call([&] {
                       for (const Guid g : keys) {
                         g_sink = g_sink + table.lookup(g).has_value();
                       }
                     }) / static_cast<double>(keys.size());
  out.push_back({"member_table.lookup_ns", lookup_ns, "ns"});
  out.push_back({"member_table.export_ms",
                 time_per_call([&] {
                   g_sink = g_sink + table.export_entries().size();
                 }) / 1e6,
                 "ms"});
  out.push_back({"member_table.newer_than_ms",
                 time_per_call([&] {
                   g_sink = g_sink + table.newer_than(peer_entries).size();
                 }) / 1e6,
                 "ms"});
  out.push_back({"member_table.snapshot_us",
                 time_per_call([&] {
                   g_sink = g_sink + table.snapshot().size();
                 }) / 1e3,
                 "us"});

  // Group directory on live NEs: the root's directory against an AP's.
  const core::GroupDirectory& dir = rig.ne(root_index).directory();
  const std::vector<core::GroupDigest> theirs =
      rig.ne(ap_index).directory().packed_digests();
  constexpr int kCalls = 1000;
  out.push_back({"group_directory.queue_empty_ns",
                 time_per_call([&] {
                   for (int i = 0; i < kCalls; ++i) {
                     g_sink = g_sink + dir.queue_empty();
                   }
                 }) / kCalls,
                 "ns"});
  out.push_back({"group_directory.combined_digest_ns",
                 time_per_call([&] {
                   for (int i = 0; i < kCalls; ++i) {
                     g_sink = g_sink + dir.combined_digest().hash;
                   }
                 }) / kCalls,
                 "ns"});
  out.push_back({"group_directory.packed_digests_us",
                 time_per_call([&] {
                   g_sink = g_sink + dir.packed_digests().size();
                 }) / 1e3,
                 "us"});
  out.push_back({"group_directory.differing_groups_us",
                 time_per_call([&] {
                   g_sink = g_sink + dir.differing_groups(theirs).size();
                 }) / 1e3,
                 "us"});

  // Observability: the histogram every applied op feeds.
  std::vector<double> samples = latencies;
  if (samples.empty()) samples.assign(1024, 1.0);
  for (double& s : samples) s *= 1000.0;  // ms -> us, as the tracer records
  out.push_back({"obs.histogram_add_ns",
                 time_per_call([&] {
                   rgb::common::Histogram h;
                   for (const double s : samples) h.add(s);
                   g_sink = g_sink + h.count();
                 }) / static_cast<double>(samples.size()),
                 "ns"});

  // Codec on the workload's own envelopes, captured by the tap.
  const auto& registry = rgb::wire::WireRegistry::global();
  std::vector<const net::Envelope*> codec_envs;
  for (const net::Envelope& env : rig.trace().samples) {
    if (registry.find(env.kind) != nullptr &&
        registry.encoded_size(env.kind, env.payload) != 0) {
      codec_envs.push_back(&env);
    }
  }
  std::vector<std::vector<std::uint8_t>> frames(codec_envs.size());
  std::uint64_t frame_bytes = 0;
  for (std::size_t i = 0; i < codec_envs.size(); ++i) {
    (void)registry.encode(codec_envs[i]->kind, codec_envs[i]->payload,
                          frames[i]);
    frame_bytes += frames[i].size();
  }
  double encode_ns_per_byte = 0;
  double decode_ns_per_byte = 0;
  if (frame_bytes != 0) {
    std::vector<std::uint8_t> buffer;
    encode_ns_per_byte =
        time_per_call([&] {
          for (const net::Envelope* env : codec_envs) {
            buffer.clear();
            g_sink = g_sink + registry.encode(env->kind, env->payload, buffer);
          }
        }) /
        static_cast<double>(frame_bytes);
    decode_ns_per_byte =
        time_per_call([&] {
          for (const auto& frame : frames) {
            g_sink = g_sink + registry.decode(frame).ok();
          }
        }) /
        static_cast<double>(frame_bytes);
  }
  out.push_back({"wire.encode_ns_per_byte", encode_ns_per_byte, "ns/B"});
  out.push_back({"wire.decode_ns_per_byte", decode_ns_per_byte, "ns/B"});
}

// --- the fault probe ----------------------------------------------------------

/// For workloads whose measured phase injects no crash: `rounds` 5 s
/// rounds with no membership change, each crashing one non-leader AP of
/// every AP ring for kProbeCrashFor. An idle ring finds a crash at its next
/// probe tick, so a crash's detection time depends on where in the probe
/// period it falls (~180-430 ms). The crashes' phases are spread evenly
/// over the period, each jittered within its share from the seed, and the
/// figure is their mean: detection averaged over the phase. Over 12 seeds
/// (join_surge --smoke) the mean of 25 such crashes spread 0.02 where
/// their median spread 0.10.
/// An idle ring has no token holder to crash, so the mean has no 2.2 s
/// outlier; churn_mobile measures detection under churn, by the median.
/// A crash lasts 1 s, past any idle detection: each crash and rejoin costs
/// ~1 s of host time at 100k members.
constexpr sim::Duration kProbeCrashFor = sim::sec(1);

void fault_probe(Rig& rig, RngStream rng, Collected& c, std::size_t rounds) {
  const auto rings = rig.sys.rings(rig.sys.tier_count() - 1);
  const std::size_t crashes = rounds * rings.size();
  std::vector<sim::Duration> phases;
  for (std::size_t i = 0; i < crashes; ++i) {
    phases.push_back(static_cast<sim::Duration>(
        (kProbePeriod * i + rng.next_below(kProbePeriod)) / crashes));
  }
  rng.shuffle(phases);
  for (std::size_t round = 0; round < rounds; ++round) {
    const sim::Time start = rig.sim.now();
    // The first probe tick at least 250 ms into the round.
    const sim::Time since = start + sim::msec(250) - rig.probing_since();
    const sim::Time tick =
        rig.probing_since() + (since + kProbePeriod - 1) / kProbePeriod *
                                  kProbePeriod;
    for (std::size_t k = 0; k < rings.size(); ++k) {
      const auto& ring = rings[k];
      const NodeId ap = ring[1 + rng.next_below(ring.size() - 1)];
      const sim::Time at = tick + kProbePeriod * rng.next_below(3) +
                           phases[round * rings.size() + k];
      rig.watch().add_fault_window(ap, at - kFaultLead,
                                   at + kProbeCrashFor + kRejoinTail);
      rig.schedule_at(at, [&rig, ap]() {
        rig.sys.crash_ne(ap);
        rig.watch().on_crash(ap);
      });
      rig.schedule_at(at + kProbeCrashFor, [&rig, ap]() {
        rig.sys.recover_ne(ap);
        rig.watch().on_recover(ap);
      });
    }
    rig.run_until(start + sim::sec(5));
  }
  std::vector<double>& detected = rig.watch().detect_ms;
  if (!detected.empty()) {
    double sum = 0;
    for (const double ms : detected) sum += ms;
    c.detect_ms.push_back(sum / static_cast<double>(detected.size()));
  }
  detected.clear();
}

/// Settles, checks every table against the truth, then the conservation
/// of messages (which ends the rig).
void final_checks(Rig& rig, const Truth& truth, CheckReport& report,
                  int max_ticks) {
  if (rig.config.probe_period > 0) settle(rig, truth, max_ticks);
  if (rig.watch().faults_pending()) {
    report.fail_check("a crashed AP did not rejoin its ring");
  }
  if (rig.watch().unresolved_faults != 0) {
    report.fail_check("an AP crash was never detected");
  }
  check_tables(rig, truth, report);
  check_conservation(rig, report);
}

// --- workloads ----------------------------------------------------------------

RigConfig probing_config(std::uint64_t groups = 1) {
  RigConfig config;
  config.groups = groups;
  config.probe_period = kProbePeriod;
  return config;
}

/// Every NE's global-view table digest, in NE order.
std::vector<core::ViewDigest> table_digests(Rig& rig) {
  std::vector<core::ViewDigest> out;
  for (std::size_t i = 0; i < rig.nes().size(); ++i) {
    out.push_back(rig.ne(i).ring_members().digest());
  }
  return out;
}

/// join_surge: members join a fresh G=1, h=2, r=5 hierarchy by per-op
/// dissemination, one every 500 us of simulated time, probing off. The
/// surge is repeated on a fresh hierarchy until the run's time is used.
void join_surge(const Options& o, Collected& c) {
  const std::size_t members = o.smoke ? 2000 : 20000;
  RngStream rng{o.seed};
  GuidSource guids{rng.fork("guids")};
  std::vector<Arrival> arrivals;
  {
    const Rig planner{o.seed, probing_config(), c.trace};
    arrivals = plan_arrivals(planner.sys.aps(), guids, rng.fork("arrivals"),
                             members, sim::usec(500), 0);
  }
  Truth truth{1};
  for (const Arrival& a : arrivals) truth.attach(a.guid, a.ap);
  constexpr int kSampleShift = 3;  // follow 1 join in 8

  auto surge = [&](std::size_t count, bool measured) {
    auto rig = std::make_unique<Rig>(o.seed, probing_config(), c.trace);
    schedule_arrivals(*rig, arrivals, count, kSampleShift);
    const Counters before = Counters::read(*rig);
    if (measured) c.round_starts.push_back(c.ticks.host_ms.size());
    std::size_t next = 0;
    while (next < count || rig->sim.pending_events() != 0) {
      const sim::Time end = rig->sim.now() + kProbePeriod;
      std::uint64_t ops = 0;
      while (next < count && arrivals[next].at <= end) {
        ++ops;
        ++next;
      }
      if (measured) {
        measured_tick(*rig, c.ticks, end, ops);
      } else {
        rig->run_until(end);
      }
    }
    if (measured) {
      c.measured.add_delta(before, Counters::read(*rig));
      c.ops += count;
    }
    return rig;
  };

  // Set-up: the inputs, and one whole surge that warms the allocator.
  {
    auto warm = surge(members, false);
    check_tables(*warm, truth, c.report);
  }
  c.setup_s = seconds_between(o.process_start, Clock::now());

  // Whole surges, each on a fresh hierarchy with the same inputs.
  std::unique_ptr<Rig> rig;
  std::vector<core::ViewDigest> digests;
  do {
    if (rig) check_conservation(*rig, c.report);
    const bool first = !rig;
    rig.reset();  // one hierarchy at a time: the next reuses its memory
    rig = surge(members, true);
    // The first surge is checked in full. A replay of the same inputs must
    // end in the same tables, so the others must match its digests (and
    // are checked in full if they do not).
    if (first) {
      check_tables(*rig, truth, c.report);
      digests = table_digests(*rig);
      take_latencies(rig->watch(), c);
    } else if (table_digests(*rig) != digests) {
      check_tables(*rig, truth, c.report);
    }
    rig->watch().apply_ms.clear();
    rig->watch().visible_ms.clear();
    rig->watch().fault_apply_ms.clear();
  } while (c.ticks.timed_s < o.seconds);
  c.ring_links = rig->ring_links();
  if (o.trace) layer_micro(*rig, c.apply_ms, c.micro);

  // Probing phase on the last hierarchy: mop-up, steady viewsync, crashes.
  rig->start_probing();
  settle(*rig, truth, 160);
  const Counters before = Counters::read(*rig);
  constexpr int kSyncTicks = 8;
  rig->run_until(rig->sim.now() + kSyncTicks * kProbePeriod);
  Counters sync;
  sync.add_delta(before, Counters::read(*rig));
  c.sync_ticks = kSyncTicks;
  c.sync_bytes = sync.viewsync_bytes;
  fault_probe(*rig, rng.fork("fault"), c, 5);
  final_checks(*rig, truth, c.report, 160);
}

/// steady_probe: a converged G=1 hierarchy probing every 250 ms with no
/// membership changes; each measured op is one probe tick.
void steady_probe(const Options& o, Collected& c) {
  const std::size_t members = o.smoke ? 5000 : 100000;
  RngStream rng{o.seed};
  Rig rig{o.seed, probing_config(), c.trace};
  GuidSource guids{rng.fork("guids")};
  Truth truth{1};
  // The population joins as a surge (one every 100 us); 1 in 16 joins is
  // followed, which gives the workload its join and dissemination times.
  populate(rig, plan_arrivals(rig.sys.aps(), guids, rng.fork("arrivals"), members,
                              sim::usec(100), 0),
           truth, 4, c.report);
  take_latencies(rig.watch(), c);
  for (int i = 0; i < 4; ++i) rig.run_until(rig.sim.now() + kProbePeriod);
  c.setup_s = seconds_between(o.process_start, Clock::now());

  const Counters before = Counters::read(rig);
  while (c.ticks.timed_s < o.seconds) {
    measured_tick(rig, c.ticks, rig.sim.now() + kProbePeriod, 1);
  }
  c.measured.add_delta(before, Counters::read(rig));
  c.ops = c.ticks.count;
  c.sync_ticks = c.ticks.count;
  c.sync_bytes = c.measured.viewsync_bytes;
  c.ring_links = rig.ring_links();
  if (c.measured.repairs != 0 || c.measured.view_changes != 0) {
    c.report.fail_check("steady state saw repairs or view changes");
  }
  if (c.measured.viewsync_msgs != rig.ring_links() * c.ticks.count) {
    c.report.fail_check(
        "steady state sent " + std::to_string(c.measured.viewsync_msgs) +
        " kViewSync, expected one per ring link per tick (" +
        std::to_string(rig.ring_links() * c.ticks.count) + ")");
  }
  if (o.trace) layer_micro(rig, c.apply_ms, c.micro);

  fault_probe(rig, rng.fork("fault"), c, 3);
  final_checks(rig, truth, c.report, 160);
}

/// Shared body of churn_mobile and groups_serving: populate, then 5 s rounds
/// of open-loop churn, each with `mix.crashes_per_round` AP crashes, until
/// the run's time is used. Without crashes in the rounds, the fault probe
/// runs after the quiescent queries.
void churn_rounds(const Options& o, Collected& c, std::uint64_t groups,
                  std::size_t members, ChurnMix mix) {
  RngStream rng{o.seed};
  Rig rig{o.seed, probing_config(groups), c.trace};
  GuidSource guids{rng.fork("guids")};
  Truth truth{groups};
  populate(rig, plan_arrivals(rig.sys.aps(), guids, rng.fork("arrivals"), members,
                              sim::usec(100), 0),
           truth, -1, c.report);
  rig.watch().apply_ms.clear();
  rig.watch().visible_ms.clear();
  rig.watch().fault_apply_ms.clear();
  std::unique_ptr<QueryPool> queries;
  if (mix.queries_per_s > 0) {
    queries = std::make_unique<QueryPool>(rig, truth, 8);
  }
  Churn churn(rig, truth, guids, rng.fork("churn"), mix);
  for (int i = 0; i < 4; ++i) rig.run_until(rig.sim.now() + kProbePeriod);
  c.setup_s = seconds_between(o.process_start, Clock::now());

  const sim::Duration round = sim::sec(5);
  const Counters before = Counters::read(rig);
  do {
    const sim::Time start = rig.sim.now();
    const std::vector<Planned> plan =
        churn.plan(start, round, mix.crashes_per_round);
    churn.schedule(plan, true, queries.get());
    for (const Planned& p : plan) c.ops += counts_as_op(p.act) ? 1 : 0;
    run_measured(rig, c, plan, start + round);
    if (c.rounds.size() == kRssRounds) c.peak_rss_mb = peak_rss_mb();
  } while (c.ticks.timed_s < o.seconds);
  c.measured.add_delta(before, Counters::read(rig));
  c.sync_ticks = c.ticks.count;
  c.sync_bytes = c.measured.viewsync_bytes;
  c.ring_links = rig.ring_links();
  take_latencies(rig.watch(), c);
  take_detections(rig.watch(), c);
  if (o.trace) layer_micro(rig, c.apply_ms, c.micro);

  if (queries) {
    // Let the last queries finish, then ask every group once, quiescent.
    settle(rig, truth, 160);
    const auto expected = truth.by_group();
    std::uint64_t next = 1;
    const sim::Time deadline = rig.sim.now() + sim::sec(60);
    while ((next <= groups || queries->done < queries->issued) &&
           rig.sim.now() < deadline) {
      while (next <= groups && queries->any_free()) {
        queries->issue(GroupId{next}, expected[next - 1]);
        ++next;
      }
      rig.run_until(rig.sim.now() + sim::msec(2));
    }
    c.extra_ops += groups;
    c.report.failed += queries->failed;
    if (queries->failed != 0) {
      c.report.problems.push_back(std::to_string(queries->failed) +
                                  " failed quer(y/ies)");
    }
    queries.reset();
  }
  if (mix.crashes_per_round == 0) {
    fault_probe(rig, rng.fork("fault"), c, 5);
  }
  final_checks(rig, truth, c.report, 160);
}

// --- metric assembly ----------------------------------------------------------

double safe_div(double a, double b) { return b == 0 ? 0 : a / b; }

/// The second value of `values` in `better` order (the only one if there
/// is one; 0 if none): the best round but one, so that one round run in
/// an unusually fast moment does not set the figure.
template <typename Better>
double second_best(std::vector<double> values, Better better) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end(), better);
  return values[std::min<std::size_t>(1, values.size() - 1)];
}

std::vector<Metric> end_to_end(const Collected& c) {
  double tick_ms =
      c.round_starts.empty()
          ? quantile(c.ticks.host_ms, kSteadyTickQuantile)
          : fastest_per_position(c.ticks.host_ms, c.round_starts);
  std::optional<double> round_ops_per_s;
  if (!c.rounds.empty()) {
    std::vector<double> rates;
    std::vector<double> round_tick_ms;
    for (const Collected::Round& r : c.rounds) {
      if (r.ticks == 0 || r.host_ms <= 0) continue;
      rates.push_back(static_cast<double>(r.ops) / (r.host_ms / 1e3));
      round_tick_ms.push_back(r.host_ms / static_cast<double>(r.ticks));
    }
    std::fprintf(stderr, "rounds: n=%zu ops/s min=%.1f med=%.1f max=%.1f\n",
                 rates.size(), quantile(rates, 0), quantile(rates, 0.5),
                 quantile(rates, 1));
    round_ops_per_s = second_best(rates, std::greater<>{});
    tick_ms = second_best(round_tick_ms, std::less<>{});
  }
  std::fprintf(stderr,
               "applies: %zu steady, %zu on a fault path (p50 %.1f, p99 "
               "%.1f ms)\n",
               c.apply_ms.size(), c.fault_apply_ms.size(),
               quantile(c.fault_apply_ms, 0.5),
               quantile(c.fault_apply_ms, 0.99));
  std::fprintf(stderr,
               "ticks: n=%zu p1=%.3f p2=%.3f p5=%.3f p10=%.3f p25=%.3f p50=%.3f p75=%.3f ms\n",
               c.ticks.host_ms.size(), quantile(c.ticks.host_ms, 0.01),
               quantile(c.ticks.host_ms, 0.02), quantile(c.ticks.host_ms, 0.05),
               quantile(c.ticks.host_ms, 0.10),
               quantile(c.ticks.host_ms, 0.25),
               quantile(c.ticks.host_ms, 0.50),
               quantile(c.ticks.host_ms, 0.75));
  const double ops_per_tick =
      safe_div(static_cast<double>(c.ticks.untraced_ops),
               static_cast<double>(c.ticks.host_ms.size()));
  const auto ops = static_cast<double>(c.ops);
  return {
      {"setup_s", c.setup_s, "s"},
      {"ops_per_s",
       round_ops_per_s.value_or(safe_div(ops_per_tick, tick_ms / 1e3)),
       "1/s"},
      {"tick_ms", tick_ms, "ms"},
      {"peak_rss_mb", c.peak_rss_mb.value_or(peak_rss_mb()), "MB"},
      {"join_visible_p50_ms", quantile(c.visible_ms, 0.50), "ms"},
      {"join_visible_p99_ms", quantile(c.visible_ms, 0.99), "ms"},
      {"dissem_p50_ms", quantile(c.apply_ms, 0.50), "ms"},
      {"dissem_p99_ms", quantile(c.apply_ms, 0.99), "ms"},
      {"detect_ms", quantile(c.detect_ms, 0.50), "ms"},
      {"msgs_per_op", safe_div(static_cast<double>(c.measured.sent), ops),
       "msg/op"},
      {"bytes_per_op", safe_div(static_cast<double>(c.measured.bytes), ops),
       "B/op"},
      {"bytes_per_link_tick",
       safe_div(static_cast<double>(c.sync_bytes),
                static_cast<double>(c.ring_links * c.sync_ticks)),
       "B"},
  };
}

const Metric* find_metric(const std::vector<Metric>& metrics,
                          const std::string& name) {
  for (const Metric& m : metrics) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

std::vector<Metric> per_layer(const Collected& c) {
  const LayerTrace& t = c.trace;
  const auto ops = static_cast<double>(c.ops);
  const auto ticks = static_cast<double>(c.ticks.count);
  std::vector<Metric> out;
  out.push_back({"sim.events_per_op",
                 safe_div(static_cast<double>(c.measured.events), ops),
                 "count"});
  out.push_back({"sim.events_per_tick",
                 safe_div(static_cast<double>(c.measured.events), ticks),
                 "count"});
  out.push_back({"sim.outside_deliver_s",
                 safe_div((t.run_ns - t.deliver_incl_ns - t.harness_ns) / 1e9,
                          t.sim_seconds),
                 "s/sim_s"});
  std::array<double, kFamilyCount> msgs{};
  std::array<double, kFamilyCount> bytes{};
  for (std::size_t k = 0; k < TapCounts::kKinds; ++k) {
    const Family f = family_of(static_cast<net::MessageKind>(k));
    msgs[f] += static_cast<double>(c.measured.tap_msgs[k]);
    bytes[f] += static_cast<double>(c.measured.tap_bytes[k]);
  }
  for (std::size_t f = 0; f < kFamilyCount; ++f) {
    out.push_back({std::string("net.msgs.") + family_name(f),
                   safe_div(msgs[f], ops), "msg/op"});
  }
  for (std::size_t f = 0; f < kFamilyCount; ++f) {
    out.push_back({std::string("net.bytes.") + family_name(f),
                   safe_div(bytes[f], ops), "B/op"});
  }
  out.push_back({"wire.size_ns_per_msg",
                 safe_div(t.sizer_ns, static_cast<double>(t.sizer_calls)),
                 "ns"});
  for (const char* name : {"wire.encode_ns_per_byte", "wire.decode_ns_per_byte"}) {
    out.push_back(*find_metric(c.micro, name));
  }
  for (std::size_t f = 0; f < kFamilyCount; ++f) {
    out.push_back({std::string("rgb.deliver_ns.") + family_name(f),
                   safe_div(t.deliver_ns[f],
                            static_cast<double>(t.deliver_count[f])),
                   "ns"});
  }
  out.push_back({"rgb.deliver_s", safe_div(t.deliver_self_ns / 1e9,
                                           t.sim_seconds),
                 "s/sim_s"});
  out.push_back({"rgb.ops_per_round",
                 safe_div(static_cast<double>(c.measured.applied),
                          static_cast<double>(c.measured.rounds) *
                              c.ring_size),
                 "ops"});
  out.push_back({"rgb.viewsync_fulls_per_tick",
                 safe_div(static_cast<double>(c.measured.fulls), ticks),
                 "count"});
  out.push_back({"rgb.fault_dissem_p50_ms", quantile(c.fault_apply_ms, 0.50),
                 "ms"});
  out.push_back({"rgb.fault_dissem_p99_ms", quantile(c.fault_apply_ms, 0.99),
                 "ms"});
  for (const Metric& m : c.micro) {
    if (m.name.rfind("wire.", 0) != 0) out.push_back(m);
  }
  const double traced_ms = quantile(c.ticks.traced_host_ms, 0.5);
  const double untraced_ms = quantile(c.ticks.host_ms, 0.5);
  out.push_back({"trace.harness_pct",
                 safe_div(t.harness_ns + t.harness_nested_ns, t.run_ns) * 100,
                 "%"});
  out.push_back({"trace.overhead_tick_pct",
                 (safe_div(traced_ms, untraced_ms) - 1) * 100, "%"});
  double traced_host = 0;
  double untraced_host = 0;
  for (const double ms : c.ticks.traced_host_ms) traced_host += ms;
  for (const double ms : c.ticks.host_ms) untraced_host += ms;
  const double traced_rate =
      safe_div(static_cast<double>(c.ticks.traced_ops), traced_host);
  const double untraced_rate =
      safe_div(static_cast<double>(c.ticks.untraced_ops), untraced_host);
  out.push_back({"trace.overhead_ops_pct",
                 (1 - safe_div(traced_rate, untraced_rate)) * 100, "%"});
  return out;
}

}  // namespace

bool known_workload(const std::string& name) {
  return name == "join_surge" || name == "steady_probe" ||
         name == "churn_mobile" || name == "groups_serving";
}

Result run_workload(const Options& o) {
  Collected c;
  c.trace.enabled = o.trace;
  if (o.workload == "join_surge") {
    join_surge(o, c);
  } else if (o.workload == "steady_probe") {
    steady_probe(o, c);
  } else if (o.workload == "churn_mobile") {
    churn_rounds(o, c, 1, o.smoke ? 2000 : 20000, ChurnMix{});
  } else {
    ChurnMix mix;
    mix.queries_per_s = 100;
    mix.crashes_per_round = 0;
    const std::uint64_t groups = o.smoke ? 50 : 500;
    churn_rounds(o, c, groups, groups * 20, mix);
  }
  std::fprintf(stderr, "phases: setup %.2f s, measured ticks %.2f s, total %.2f s\n",
               c.setup_s, c.ticks.timed_s,
               seconds_between(o.process_start, Clock::now()));
  Result r;
  r.correct = c.report.correct;
  r.failed = c.report.failed;
  r.attempted = c.ops + c.extra_ops;
  r.problems = c.report.problems;
  r.metrics = o.trace ? per_layer(c) : end_to_end(c);
  return r;
}

}  // namespace perfbench
