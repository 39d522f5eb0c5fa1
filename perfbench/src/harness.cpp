#include "harness.hpp"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include <sys/resource.h>

#include "wire/metering.hpp"
#include "wire/registry.hpp"

namespace perfbench {

namespace core = rgb::core;
namespace net = rgb::net;
namespace sim = rgb::sim;

/// Every link draws its delay from [1 ms, 3 ms]; the minimum bounds how
/// early a join can reach tier 0.
constexpr sim::Duration kMinLinkDelay = sim::msec(1);
constexpr sim::Duration kMaxLinkDelay = sim::msec(3);
/// Poll grid for a crashed AP's ring: fine until the splice (detect_ms),
/// coarse while waiting for the AP to rejoin.
constexpr sim::Duration kDetectPoll = sim::usec(500);
constexpr sim::Duration kRejoinPoll = sim::msec(5);

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double peak_rss_mb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

const char* family_name(std::size_t family) {
  static constexpr std::array<const char*, kFamilyCount> kNames = {
      "token", "notify", "viewsync", "snapshot", "query", "stability",
      "other"};
  return kNames[family];
}

Family family_of(net::MessageKind kind) {
  namespace k = core::kind;
  switch (kind) {
    case k::kToken:
    case k::kTokenPassAck:
    case k::kTokenRequest:
    case k::kTokenGrant:
    case k::kTokenRelease:
    case k::kProbe:
    case k::kProbeAck:
      return kFamToken;
    case k::kNotifyParent:
    case k::kNotifyChild:
    case k::kHolderAck:
      return kFamNotify;
    case k::kViewSync:
      return kFamViewSync;
    case k::kSnapshotRequest:
    case k::kSnapshot:
    case k::kSnapshotAck:
      return kFamSnapshot;
    case k::kQueryRequest:
    case k::kQueryReply:
      return kFamQuery;
    case k::kAlert:
    case k::kAlertAck:
      return kFamStability;
    default:
      return kFamOther;
  }
}

// --- ground truth -------------------------------------------------------------

void Truth::attach(Guid guid, NodeId ap) {
  const auto it = where_.find(guid);
  if (it != where_.end()) {
    it->second.ap = ap;
    return;
  }
  where_.emplace(guid, Slot{ap, members_.size()});
  members_.push_back(guid);
}

void Truth::detach(Guid guid) {
  const auto it = where_.find(guid);
  if (it == where_.end()) return;
  const std::size_t index = it->second.index;
  const Guid last = members_.back();
  members_[index] = last;
  where_[last].index = index;
  members_.pop_back();
  where_.erase(guid);
}

GroupId Truth::group_of(Guid guid) const {
  return core::member_groups(guid, groups_, 1).front();
}

NodeId Truth::ap_of(Guid guid) const {
  const auto it = where_.find(guid);
  return it == where_.end() ? NodeId{} : it->second.ap;
}

std::vector<std::vector<core::MemberRecord>> Truth::by_group() const {
  std::vector<std::vector<core::MemberRecord>> out(groups_);
  for (const auto& [guid, slot] : where_) {
    out[group_of(guid).value() - 1].push_back(core::MemberRecord{
        guid, slot.ap, core::MemberStatus::kOperational});
  }
  for (auto& group : out) {
    std::sort(group.begin(), group.end(),
              [](const core::MemberRecord& a, const core::MemberRecord& b) {
                return a.guid < b.guid;
              });
  }
  return out;
}

Guid GuidSource::next() {
  for (;;) {
    const std::uint64_t value = 1 + rng_.next_below(std::uint64_t{1} << 40);
    if (used_.insert(value).second) return Guid{value};
  }
}

// --- rig ----------------------------------------------------------------------

namespace {

core::RgbConfig rgb_config(const RigConfig& config) {
  core::RgbConfig out;
  out.groups = config.groups;
  out.groups_per_member = 1;
  out.probe_period = config.probe_period;
  return out;
}

double ns_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::nano>(b - a).count();
}

}  // namespace

void NeProbe::deliver(const net::Envelope& env) {
  if (trace_.active) {
    const double sizer_before = trace_.sizer_ns;
    const double nested_before = trace_.harness_nested_ns;
    trace_.in_deliver = true;
    const auto start = Clock::now();
    ne_.deliver(env);
    const double incl = ns_between(start, Clock::now());
    trace_.in_deliver = false;
    const double self = incl - (trace_.sizer_ns - sizer_before) -
                        (trace_.harness_nested_ns - nested_before);
    const Family family = family_of(env.kind);
    trace_.deliver_ns[family] += self;
    ++trace_.deliver_count[family];
    trace_.deliver_self_ns += self;
    trace_.deliver_incl_ns += incl;
  } else {
    ne_.deliver(env);
  }
  watch_.after_delivery(index_);
}

Rig::Rig(std::uint64_t seed, const RigConfig& rig_config, LayerTrace& trace)
    : net{sim, rgb::common::RngStream{seed}.fork("net"),
          net::LinkConfig{
              net::LatencyModel::uniform(kMinLinkDelay, kMaxLinkDelay), 0.0}},
      sys{net, rgb_config(rig_config),
          core::HierarchyLayout{rig_config.tiers, rig_config.ring_size}},
      config(rig_config),
      trace_(trace) {
  nes_ = sys.all_nes();
  for (std::size_t i = 0; i < nes_.size(); ++i) index_.emplace(nes_[i], i);
  watch_ = std::make_unique<Watch>(*this);
  for (std::size_t i = 0; i < nes_.size(); ++i) {
    probes_.push_back(
        std::make_unique<NeProbe>(*sys.entity(nes_[i]), i, *watch_, trace_));
    net.attach(nes_[i], probes_.back().get());
  }
  net.set_tap([this](const net::Envelope& env, bool delivered) {
    const HarnessTime timed{trace_};
    const std::size_t kind = env.kind < TapCounts::kKinds ? env.kind : 0;
    ++tap_.msgs[kind];
    tap_.bytes[kind] += env.size_bytes;
    if (delivered) {
      ++tap_.delivered;
    } else {
      ++tap_.dropped;
    }
    if (env.kind == core::kind::kViewSync &&
        env.payload.get<core::ViewSyncMsg>().phase ==
            core::ViewSyncMsg::Phase::kFull) {
      ++tap_.viewsync_fulls;
    }
    if (trace_.enabled && trace_.samples.size() < 4096 &&
        ++trace_.sample_stride_counter % 61 == 0) {
      trace_.samples.push_back(env);
    }
  });
}

Rig::~Rig() {
  net.set_tap(net::Network::Tap{});
  net.set_sizer(net::Network::Sizer{});
}

std::uint64_t Rig::ring_links() const {
  const core::HierarchyLayout& layout = sys.layout();
  return layout.ring_count() * static_cast<std::uint64_t>(layout.ring_size);
}

void Rig::set_sizer_timing(bool on) {
  if (!on) {
    rgb::wire::attach_encoded_metering(net);
    return;
  }
  net.set_sizer([this](const net::Envelope& env) -> std::uint32_t {
    const auto start = Clock::now();
    const std::uint32_t encoded =
        rgb::wire::WireRegistry::global().encoded_size(env.kind, env.payload);
    trace_.sizer_ns += ns_between(start, Clock::now());
    ++trace_.sizer_calls;
    return encoded;
  });
}

void Rig::schedule_at(sim::Time at, std::function<void()> fn) {
  sim.schedule_at(at, [this, fn = std::move(fn)]() {
    ++harness_events_;
    fn();
  });
}

void Rig::start_probing() {
  probing_since_ = sim.now();
  sys.start_probing();
}

void Rig::run_until(sim::Time deadline) {
  if (!trace_.active) {
    sim.run_until(deadline);
    return;
  }
  const sim::Time sim_before = sim.now();
  const auto start = Clock::now();
  sim.run_until(deadline);
  trace_.run_ns += ns_between(start, Clock::now());
  trace_.sim_seconds += static_cast<double>(sim.now() - sim_before) / 1e6;
}

// --- watch --------------------------------------------------------------------

Watch::Watch(Rig& rig)
    : rig_(rig),
      pending_(rig.nes().size()),
      last_digest_(rig.nes().size(), ~std::uint64_t{0}),
      tier0_(rig.nes().size()),
      down_(rig.nes().size(), false),
      ap_rings_(rig.sys.rings(rig.sys.tier_count() - 1)),
      min_root_latency_(kMinLinkDelay *
                        static_cast<std::uint64_t>(rig.sys.tier_count() - 1)) {
  for (std::size_t i = 0; i < rig.nes().size(); ++i) {
    tier0_[i] = rig.ne(i).tier() == 0;
  }
  for (std::size_t r = 0; r < ap_rings_.size(); ++r) {
    for (const NodeId ap : ap_rings_[r]) ring_of_ap_.emplace(ap, r);
  }
  ne_ring_.assign(rig.nes().size(), kNoRing);
  for (std::size_t i = 0; i < rig.nes().size(); ++i) {
    const auto ring = ring_of_ap_.find(rig.nes()[i]);
    if (ring != ring_of_ap_.end()) ne_ring_[i] = ring->second;
  }
}

bool Watch::faulted(std::size_t ring, sim::Time born, sim::Time now) const {
  return std::any_of(fault_windows_.begin(), fault_windows_.end(),
                     [&](const FaultWindow& w) {
                       return w.ring == ring && w.from <= now && born < w.to;
                     });
}

void Watch::add_fault_window(NodeId crashed_ap, sim::Time from,
                             sim::Time to) {
  fault_windows_.push_back(FaultWindow{ring_of_ap_.at(crashed_ap), from, to});
}

void Watch::follow(Guid guid, GroupId gid, NodeId ap, bool present,
                   bool join) {
  const HarnessTime timed{rig_.trace()};
  const auto id = static_cast<std::uint32_t>(ops_.size());
  const auto [latest, fresh] = latest_.try_emplace(guid, id);
  if (!fresh) {
    ops_[latest->second].superseded = true;
    latest->second = id;
  }
  ops_.push_back(Followed{guid, gid, ap, rig_.sim.now(), present, join});
  for (std::size_t i = 0; i < pending_.size(); ++i) {
    if (!down_[i]) pending_[i].push_back(id);
  }
}

bool Watch::holds(std::size_t ne_index, const Followed& op) const {
  const auto entry =
      rig_.sys.entity(rig_.nes()[ne_index])->directory().lookup(op.gid,
                                                                 op.guid);
  const bool operational =
      entry && entry->record.status == core::MemberStatus::kOperational;
  if (op.present) return operational && entry->record.access_proxy == op.ap;
  return !operational;
}

void Watch::after_delivery(std::size_t ne_index) {
  auto& list = pending_[ne_index];
  if (list.empty()) return;
  const HarnessTime timed{rig_.trace()};
  if (rig_.config.groups == 1) {
    // One table: nothing new can be visible unless its digest moved.
    const core::MemberTable& table = rig_.ne(ne_index).ring_members();
    const std::uint64_t digest =
        table.digest().hash ^ (table.size() * 0x9E3779B97F4A7C15ULL);
    if (digest == last_digest_[ne_index]) return;
    last_digest_[ne_index] = digest;
  }
  const sim::Time now = rig_.sim.now();
  for (std::size_t k = 0; k < list.size();) {
    Followed& op = ops_[list[k]];
    if (op.superseded) {
      list[k] = list.back();
      list.pop_back();
      continue;
    }
    if (!holds(ne_index, op)) {
      ++k;
      continue;
    }
    const sim::Duration age = now - op.born;
    const double age_ms = static_cast<double>(age) / 1000.0;
    const auto op_ring = ring_of_ap_.find(op.ap);
    const bool fault =
        (op_ring != ring_of_ap_.end() &&
         faulted(op_ring->second, op.born, now)) ||
        (ne_ring_[ne_index] != kNoRing &&
         faulted(ne_ring_[ne_index], op.born, now));
    (fault ? fault_apply_ms : apply_ms).push_back(age_ms);
    if (tier0_[ne_index] && op.join && !op.root_seen) {
      op.root_seen = true;
      if (!fault) visible_ms.push_back(age_ms);
      if (age < min_root_latency_) ++too_early;
    }
    list[k] = list.back();
    list.pop_back();
  }
}

void Watch::on_crash(NodeId ap) {
  const std::size_t index = rig_.index_of(ap);
  down_[index] = true;
  pending_[index].clear();
  std::size_t ring = 0;
  for (std::size_t r = 0; r < ap_rings_.size(); ++r) {
    if (std::find(ap_rings_[r].begin(), ap_rings_[r].end(), ap) !=
        ap_rings_[r].end()) {
      ring = r;
    }
  }
  faults_.push_back(Fault{ap, ring, rig_.sim.now()});
  // Re-arm on the fine grid; a poll already armed on the coarse one lapses.
  ++poll_generation_;
  poll_armed_ = false;
  arm_poll();
}

void Watch::on_recover(NodeId ap) {
  for (Fault& fault : faults_) {
    if (fault.ap == ap) fault.recovered = true;
  }
}

void Watch::arm_poll() {
  if (poll_armed_) return;
  poll_armed_ = true;
  const bool detecting =
      std::any_of(faults_.begin(), faults_.end(),
                  [](const Fault& fault) { return !fault.detected; });
  const sim::Duration grid = detecting ? kDetectPoll : kRejoinPoll;
  const sim::Time next = (rig_.sim.now() / grid + 1) * grid;
  rig_.schedule_at(next, [this, generation = poll_generation_]() {
    if (generation != poll_generation_) return;
    poll_armed_ = false;
    poll_faults();
    if (!faults_.empty()) arm_poll();
  });
}

void Watch::poll_faults() {
  const HarnessTime timed{rig_.trace()};
  const sim::Time now = rig_.sim.now();
  for (std::size_t f = 0; f < faults_.size();) {
    Fault& fault = faults_[f];
    const auto& ring = ap_rings_[fault.ring];
    bool spliced = false;
    bool whole = true;
    for (const NodeId member : ring) {
      const auto& roster = rig_.sys.entity(member)->roster();
      const bool lists_ap =
          std::find(roster.begin(), roster.end(), fault.ap) != roster.end();
      if (member != fault.ap && !rig_.net.is_crashed(member) && !lists_ap) {
        spliced = true;
      }
      if (!lists_ap || roster.size() != ring.size()) whole = false;
    }
    if (!fault.detected && spliced) {
      fault.detected = true;
      detect_ms.push_back(static_cast<double>(now - fault.crashed_at) /
                          1000.0);
    }
    if (fault.recovered && whole && !rig_.net.is_crashed(fault.ap)) {
      // Back in its ring everywhere: follow ops there again.
      const std::size_t index = rig_.index_of(fault.ap);
      down_[index] = false;
      last_digest_[index] = ~std::uint64_t{0};
      if (!fault.detected) ++unresolved_faults;  // never spliced
      faults_.erase(faults_.begin() + static_cast<std::ptrdiff_t>(f));
      continue;
    }
    ++f;
  }
}

// --- checks -------------------------------------------------------------------

bool digests_agree(Rig& rig) {
  bool first = true;
  core::ViewDigest reference;
  for (std::size_t i = 0; i < rig.nes().size(); ++i) {
    if (rig.net.is_crashed(rig.nes()[i])) continue;
    const core::ViewDigest digest =
        rig.config.groups == 1 ? rig.ne(i).ring_members().digest()
                               : rig.ne(i).directory().combined_digest();
    if (first) {
      reference = digest;
      first = false;
    } else if (!(digest == reference)) {
      return false;
    }
  }
  return true;
}

void check_tables(Rig& rig, const Truth& truth, CheckReport& report) {
  const auto expected = truth.by_group();
  std::unordered_set<Guid> wrong;
  for (std::size_t i = 0; i < rig.nes().size(); ++i) {
    if (rig.net.is_crashed(rig.nes()[i])) continue;
    const core::GroupDirectory& dir = rig.ne(i).directory();
    for (const auto& [gid, state] : dir.groups()) {
      if (gid.value() < 1 || gid.value() > truth.groups()) {
        report.fail_check("NE " + std::to_string(rig.nes()[i].value()) +
                          " holds unknown group " +
                          std::to_string(gid.value()));
      }
    }
    for (std::uint64_t g = 1; g <= truth.groups(); ++g) {
      const core::MemberTable* table = dir.table_if(GroupId{g});
      const std::vector<core::MemberRecord> have =
          table != nullptr ? table->snapshot()
                           : std::vector<core::MemberRecord>{};
      const auto& want = expected[g - 1];
      std::size_t a = 0;
      std::size_t b = 0;
      while (a < have.size() || b < want.size()) {
        if (b == want.size() ||
            (a < have.size() && have[a].guid < want[b].guid)) {
          wrong.insert(have[a++].guid);
        } else if (a == have.size() || want[b].guid < have[a].guid) {
          wrong.insert(want[b++].guid);
        } else {
          if (!(have[a] == want[b])) wrong.insert(want[b].guid);
          ++a;
          ++b;
        }
      }
      if (table == nullptr) continue;
      // The incremental digest against one recomputed from the entries.
      std::uint64_t hash = 0;
      const auto entries = table->export_entries();
      for (const core::TableEntry& e : entries) {
        hash ^= core::MemberTable::entry_hash(e.record, e.last_seq,
                                              e.claim_seq);
      }
      const core::ViewDigest digest = table->digest();
      if (digest.hash != hash || digest.count != entries.size()) {
        report.fail_check("NE " + std::to_string(rig.nes()[i].value()) +
                          " group " + std::to_string(g) +
                          ": incremental digest differs from recomputed");
      }
    }
  }
  report.failed += wrong.size();
  if (!wrong.empty()) {
    report.problems.push_back(std::to_string(wrong.size()) +
                              " member(s) with a wrong final record");
  }
}

void check_conservation(Rig& rig, CheckReport& report) {
  for (const NodeId id : rig.nes()) rig.net.crash(id);
  rig.sim.run_until(rig.sim.now() + 10 * kMaxLinkDelay);
  const auto& m = rig.net.metrics();
  const std::uint64_t dropped = m.dropped_loss + m.dropped_partition +
                                m.dropped_crash + m.dropped_unattached;
  const TapCounts& tap = rig.tap();
  if (m.sent != m.delivered + dropped) {
    report.fail_check("network: sent " + std::to_string(m.sent) +
                      " != delivered + dropped " +
                      std::to_string(m.delivered + dropped));
  }
  if (tap.delivered != m.delivered ||
      tap.dropped != dropped + m.dropped_src_crash) {
    report.fail_check("tap counted " + std::to_string(tap.delivered) + "/" +
                      std::to_string(tap.dropped) +
                      " delivered/dropped, network " +
                      std::to_string(m.delivered) + "/" +
                      std::to_string(dropped + m.dropped_src_crash));
  }
}

int settle(Rig& rig, const Truth& truth, int max_ticks) {
  const sim::Duration period = rig.config.probe_period;
  int ticks = 0;
  while (ticks < max_ticks) {
    rig.run_until(rig.sim.now() + period);
    ++ticks;
    if (rig.watch().faults_pending() || !digests_agree(rig)) continue;
    CheckReport probe;
    check_tables(rig, truth, probe);
    if (probe.correct && probe.failed == 0) break;
    // Agreeing but wrong: give anti-entropy a few more ticks between the
    // (O(NE x N)) full comparisons.
    for (int k = 0; k < 3 && ticks < max_ticks; ++k, ++ticks) {
      rig.run_until(rig.sim.now() + period);
    }
  }
  return ticks;
}

}  // namespace perfbench
