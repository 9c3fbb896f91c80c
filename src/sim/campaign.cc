#include "sim/campaign.h"

#include <algorithm>
#include <string>
#include <vector>

#include "util/audit.h"
#include "util/random.h"
#include "util/serde.h"

namespace tcvs {
namespace campaign {

namespace {

constexpr uint8_t kScheduleWireVersion = 1;

const char* StepKindName(core::AttackKind kind) {
  switch (kind) {
    case core::AttackKind::kFork:
      return "fork";
    case core::AttackKind::kRollback:
      return "rollback";
    case core::AttackKind::kReplaySegment:
      return "replay";
    case core::AttackKind::kEquivocate:
      return "equivocate";
    case core::AttackKind::kDrop:
      return "drop";
    case core::AttackKind::kDelay:
      return "delay";
    default:
      return "?";
  }
}

bool ValidStepKind(uint8_t kind) {
  switch (static_cast<core::AttackKind>(kind)) {
    case core::AttackKind::kFork:
    case core::AttackKind::kRollback:
    case core::AttackKind::kReplaySegment:
    case core::AttackKind::kEquivocate:
    case core::AttackKind::kDrop:
    case core::AttackKind::kDelay:
      return true;
    default:
      return false;
  }
}

}  // namespace

bool CampaignSchedule::IsHonest() const {
  for (const core::AttackStep& step : steps) {
    if (step.kind != core::AttackKind::kDelay) return false;
  }
  return true;
}

core::ScenarioConfig CampaignSchedule::ToConfig() const {
  core::ScenarioConfig config;
  config.protocol = protocol;
  config.num_users = num_users;
  config.sync_k = sync_k;
  config.seed = seed;
  config.attack.schedule = steps;
  return config;
}

workload::Workload CampaignSchedule::MakeWorkload() const {
  workload::CvsWorkloadOptions options;
  options.num_users = num_users;
  options.ops_per_user = ops_per_user;
  options.num_files = num_files;
  options.zipf_theta = 0.8;
  options.read_fraction = 0.35;
  options.mean_think_rounds = 3;
  options.offline_probability = 0.0;
  options.seed = seed;
  return workload::MakeCvsWorkload(options);
}

std::string CampaignSchedule::Describe() const {
  std::string out(core::ProtocolKindToString(protocol));
  out += " n=" + std::to_string(num_users);
  out += " k=" + std::to_string(sync_k);
  out += " ops=" + std::to_string(ops_per_user);
  out += " h=" + std::to_string(horizon);
  out += " |";
  if (steps.empty()) {
    out += " honest";
    return out;
  }
  for (const core::AttackStep& step : steps) {
    out += " ";
    out += StepKindName(step.kind);
    out += "@" + std::to_string(step.at);
    if (step.duration > 0) out += "+" + std::to_string(step.duration);
    if (step.arg > 0) out += "#" + std::to_string(step.arg);
    if (!step.victims.empty()) {
      out += "{";
      bool first = true;
      for (sim::AgentId v : step.victims) {
        if (!first) out += ",";
        first = false;
        out += std::to_string(v);
      }
      out += "}";
    }
  }
  return out;
}

Bytes CampaignSchedule::Serialize() const {
  util::Writer w;
  w.PutU8(kScheduleWireVersion);
  w.PutU64(seed);
  w.PutU8(static_cast<uint8_t>(protocol));
  w.PutU32(num_users);
  w.PutU32(sync_k);
  w.PutU64(horizon);
  w.PutU32(ops_per_user);
  w.PutU32(num_files);
  w.PutU32(static_cast<uint32_t>(steps.size()));
  for (const core::AttackStep& step : steps) {
    w.PutU8(static_cast<uint8_t>(step.kind));
    w.PutU64(step.at);
    w.PutU64(step.duration);
    w.PutU64(step.arg);
    w.PutU32(static_cast<uint32_t>(step.victims.size()));
    for (sim::AgentId v : step.victims) w.PutU32(v);
  }
  return w.Take();
}

Result<CampaignSchedule> CampaignSchedule::Deserialize(const Bytes& data) {
  util::Reader r(data);
  auto version = r.GetU8();
  if (!version.ok()) return std::move(version).status();
  if (*version != kScheduleWireVersion) {
    return Status::InvalidArgument("unsupported campaign schedule version");
  }
  CampaignSchedule s;
  TCVS_ASSIGN_OR_RETURN(s.seed, r.GetU64());
  auto protocol = r.GetU8();
  if (!protocol.ok()) return std::move(protocol).status();
  if (*protocol > static_cast<uint8_t>(core::ProtocolKind::kProtocolIII)) {
    return Status::InvalidArgument("unknown protocol kind in schedule");
  }
  s.protocol = static_cast<core::ProtocolKind>(*protocol);
  TCVS_ASSIGN_OR_RETURN(s.num_users, r.GetU32());
  TCVS_ASSIGN_OR_RETURN(s.sync_k, r.GetU32());
  TCVS_ASSIGN_OR_RETURN(s.horizon, r.GetU64());
  TCVS_ASSIGN_OR_RETURN(s.ops_per_user, r.GetU32());
  TCVS_ASSIGN_OR_RETURN(s.num_files, r.GetU32());
  if (s.num_users == 0 || s.sync_k == 0) {
    return Status::InvalidArgument("campaign schedule needs users and sync_k");
  }
  uint32_t count = 0;
  TCVS_ASSIGN_OR_RETURN(count, r.GetU32());
  if (count > 1024) {
    return Status::InvalidArgument("campaign schedule step count implausible");
  }
  for (uint32_t i = 0; i < count; ++i) {
    core::AttackStep step;
    auto kind = r.GetU8();
    if (!kind.ok()) return std::move(kind).status();
    if (!ValidStepKind(*kind)) {
      return Status::InvalidArgument("unknown attack step kind in schedule");
    }
    step.kind = static_cast<core::AttackKind>(*kind);
    TCVS_ASSIGN_OR_RETURN(step.at, r.GetU64());
    TCVS_ASSIGN_OR_RETURN(step.duration, r.GetU64());
    TCVS_ASSIGN_OR_RETURN(step.arg, r.GetU64());
    uint32_t victims = 0;
    TCVS_ASSIGN_OR_RETURN(victims, r.GetU32());
    if (victims > s.num_users) {
      return Status::InvalidArgument("campaign step victim count implausible");
    }
    for (uint32_t v = 0; v < victims; ++v) {
      uint32_t id = 0;
      TCVS_ASSIGN_OR_RETURN(id, r.GetU32());
      step.victims.insert(id);
    }
    s.steps.push_back(std::move(step));
  }
  if (!r.AtEnd()) {
    return Status::InvalidArgument("trailing bytes after campaign schedule");
  }
  return s;
}

uint64_t DetectionBound(uint32_t num_users, uint32_t sync_k) {
  // Paper guarantee: a deviation is caught within n·k operations (every user
  // syncs at least once in any n·k-op window). The additive slack covers
  // operations the server processes while sync-up reports and the detecting
  // response are in flight (message delay ≥ 1 round each way, n users still
  // operating meanwhile).
  return static_cast<uint64_t>(num_users) * sync_k + 4ull * num_users + 16;
}

ScheduleOutcome RunSchedule(const CampaignSchedule& schedule) {
  ScheduleOutcome out;
  const uint64_t cursor = util::AuditLog::Instance().total_emitted();
  core::Scenario scenario(schedule.ToConfig(), schedule.MakeWorkload());
  out.report = scenario.Run(schedule.horizon);
  out.engaged = out.report.attack_engaged_round != 0;
  out.detected = out.report.detected;
  const uint64_t bound = DetectionBound(schedule.num_users, schedule.sync_k);

  if (out.detected) {
    out.delay_ops = out.report.detection_delay_ops;
    if (schedule.IsHonest()) {
      out.false_alarm = true;
      out.violation =
          "false alarm: honest schedule detected (" +
          out.report.detection_reason + ")";
    } else if (!out.engaged) {
      out.false_alarm = true;
      out.violation =
          "false alarm: detection before any attack step engaged (" +
          out.report.detection_reason + ")";
    } else if (out.delay_ops > bound) {
      out.bound_violated = true;
      out.violation = "detection delay " + std::to_string(out.delay_ops) +
                      " ops exceeds n*k bound " + std::to_string(bound);
    }
    // Invariant (b): the detection must leave digest-pair fork evidence in
    // the audit log (kForkDetected / kVoMismatch carry both digests).
    const bool evidence =
        util::AuditLog::Instance().HasForkEvidenceSince(cursor);
    if (!evidence && out.violation.empty()) {
      out.missing_evidence = true;
      out.violation =
          "detection without digest-pair fork evidence in the audit log (" +
          out.report.detection_reason + ")";
    } else if (!evidence) {
      out.missing_evidence = true;
    }
  } else {
    // Undetected: an escape only counts once the run had a ground-truth
    // deviation AND enough post-attack operations that the n·k guarantee
    // should have fired (otherwise the horizon simply ended first).
    out.delay_ops = scenario.server()->ops_after_attack();
    if (out.report.ground_truth_deviation && out.delay_ops > bound) {
      out.escaped = true;
      out.violation = "escape: deviation survived " +
                      std::to_string(out.delay_ops) +
                      " post-attack ops undetected (bound " +
                      std::to_string(bound) + ")";
    }
  }
  return out;
}

bool HasProperty(const ScheduleOutcome& outcome, ScheduleProperty property) {
  switch (property) {
    case ScheduleProperty::kDetected:
      return outcome.detected && !outcome.Violated();
    case ScheduleProperty::kEscaped:
      return outcome.escaped;
    case ScheduleProperty::kViolation:
      return outcome.Violated();
  }
  return false;
}

CampaignSchedule MinimizeSchedule(const CampaignSchedule& schedule,
                                  ScheduleProperty property, uint32_t* runs) {
  uint32_t executed = 0;
  auto holds = [&executed, property](const CampaignSchedule& candidate) {
    ++executed;
    return HasProperty(RunSchedule(candidate), property);
  };

  CampaignSchedule best = schedule;
  if (!holds(best)) {
    if (runs != nullptr) *runs = executed;
    return best;  // Nothing to preserve: return the input unchanged.
  }

  // ddmin over steps. Schedules are short (≤ a handful of steps), so the
  // final granularity — single-step removal to fixpoint — IS the ddmin.
  bool shrunk = true;
  while (shrunk && best.steps.size() > 1) {
    shrunk = false;
    for (size_t i = 0; i < best.steps.size(); ++i) {
      CampaignSchedule candidate = best;
      candidate.steps.erase(candidate.steps.begin() +
                            static_cast<ptrdiff_t>(i));
      if (holds(candidate)) {
        best = std::move(candidate);
        shrunk = true;
        break;
      }
    }
  }

  // Per-step shrinking: drop victims, then halve windows and arguments.
  for (size_t i = 0; i < best.steps.size(); ++i) {
    bool victim_shrunk = true;
    while (victim_shrunk && best.steps[i].victims.size() > 1) {
      victim_shrunk = false;
      const std::vector<sim::AgentId> victims(best.steps[i].victims.begin(),
                                              best.steps[i].victims.end());
      for (sim::AgentId v : victims) {
        CampaignSchedule candidate = best;
        candidate.steps[i].victims.erase(v);
        if (holds(candidate)) {
          best = std::move(candidate);
          victim_shrunk = true;
          break;
        }
      }
    }
    while (best.steps[i].duration > 0) {
      CampaignSchedule candidate = best;
      candidate.steps[i].duration /= 2;
      if (!holds(candidate)) break;
      best = std::move(candidate);
    }
    while (best.steps[i].arg > 1) {
      CampaignSchedule candidate = best;
      candidate.steps[i].arg /= 2;
      if (!holds(candidate)) break;
      best = std::move(candidate);
    }
  }

  // Parameter shrinking: fewer operations and a shorter horizon make the
  // persisted regression fixture cheaper to replay.
  while (best.ops_per_user > best.sync_k + 4) {
    CampaignSchedule candidate = best;
    candidate.ops_per_user =
        std::max<uint32_t>(best.ops_per_user / 2, best.sync_k + 4);
    if (candidate.ops_per_user == best.ops_per_user) break;
    if (!holds(candidate)) break;
    best = std::move(candidate);
  }
  while (best.horizon > 200) {
    CampaignSchedule candidate = best;
    candidate.horizon = std::max<sim::Round>(best.horizon / 2, 200);
    if (candidate.horizon == best.horizon) break;
    if (!holds(candidate)) break;
    best = std::move(candidate);
  }

  if (runs != nullptr) *runs = executed;
  return best;
}

CampaignSchedule GenerateSchedule(uint64_t seed, bool honest) {
  util::Rng rng(seed);
  CampaignSchedule s;
  s.seed = seed;
  s.num_users = static_cast<uint32_t>(3 + rng.Uniform(4));   // 3..6
  s.sync_k = static_cast<uint32_t>(4 + rng.Uniform(5));      // 4..8
  s.ops_per_user =
      3 * s.sync_k + 8 + static_cast<uint32_t>(rng.Uniform(8));
  s.num_files = static_cast<uint32_t>(8 + rng.Uniform(9));
  s.horizon = 400 + static_cast<sim::Round>(s.ops_per_user) * 8;

  const size_t num_steps =
      honest ? rng.Uniform(3) : 1 + rng.Uniform(4);  // honest: 0..2 delays
  std::vector<sim::AgentId> all_users;
  for (uint32_t u = 1; u <= s.num_users; ++u) all_users.push_back(u);

  for (size_t i = 0; i < num_steps; ++i) {
    core::AttackStep step;
    if (honest) {
      step.kind = core::AttackKind::kDelay;
    } else {
      const uint64_t roll = rng.Uniform(100);
      if (roll < 25) {
        step.kind = core::AttackKind::kFork;
      } else if (roll < 40) {
        step.kind = core::AttackKind::kRollback;
      } else if (roll < 55) {
        step.kind = core::AttackKind::kReplaySegment;
      } else if (roll < 70) {
        step.kind = core::AttackKind::kEquivocate;
      } else if (roll < 85) {
        step.kind = core::AttackKind::kDrop;
      } else {
        step.kind = core::AttackKind::kDelay;
      }
    }
    // Engage in the first third of the horizon so the n·k window has room
    // to close before the run ends.
    step.at = 20 + rng.Uniform(s.horizon / 3);

    std::vector<sim::AgentId> pool = all_users;
    rng.Shuffle(&pool);
    const size_t nvictims =
        1 + rng.Uniform(std::max<uint64_t>(1, s.num_users / 2));
    for (size_t v = 0; v < nvictims && v < pool.size(); ++v) {
      step.victims.insert(pool[v]);
    }

    switch (step.kind) {
      case core::AttackKind::kEquivocate:
      case core::AttackKind::kDrop:
        step.duration = 8 + rng.Uniform(40);
        break;
      case core::AttackKind::kDelay:
        step.duration = 8 + rng.Uniform(40);
        step.arg = 2 + rng.Uniform(6);
        break;
      case core::AttackKind::kRollback:
        step.arg = 1 + rng.Uniform(4);
        step.victims.clear();  // Rollback hits the shared main branch.
        break;
      case core::AttackKind::kReplaySegment:
        step.arg = rng.Uniform(3);  // Initial transitions the cursor skips.
        break;
      default:
        break;  // kFork: victims + at are the whole step.
    }
    s.steps.push_back(std::move(step));
  }
  std::stable_sort(s.steps.begin(), s.steps.end(),
                   [](const core::AttackStep& a, const core::AttackStep& b) {
                     return a.at < b.at;
                   });
  return s;
}

uint64_t CampaignReport::DelayPercentile(double p) const {
  if (delays_ops.empty()) return 0;
  std::vector<uint64_t> sorted = delays_ops;
  std::sort(sorted.begin(), sorted.end());
  size_t idx = static_cast<size_t>(p * static_cast<double>(sorted.size() - 1));
  if (idx >= sorted.size()) idx = sorted.size() - 1;
  return sorted[idx];
}

namespace {
std::string JsonEscapeString(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out.push_back(c);
    }
  }
  return out;
}
}  // namespace

std::string CampaignReport::JsonFormat() const {
  // Deterministic by construction: integer fields only, no timestamps, and
  // the honest fraction rendered in percent. Same options ⇒ same bytes.
  std::string out = "{\"campaign\":{";
  out += "\"seed\":" + std::to_string(options.seed);
  out += ",\"scenarios\":" + std::to_string(options.scenarios);
  out += ",\"honest_pct\":" +
         std::to_string(
             static_cast<uint64_t>(options.honest_fraction * 100.0 + 0.5));
  out += ",\"minimize\":" + std::string(options.minimize ? "true" : "false");
  out += ",\"protocol\":\"" +
         std::string(core::ProtocolKindToString(options.protocol)) + "\"";
  out += "},\"counts\":{";
  out += "\"scenarios\":" + std::to_string(scenarios);
  out += ",\"honest_runs\":" + std::to_string(honest_runs);
  out += ",\"engaged\":" + std::to_string(engaged);
  out += ",\"detected\":" + std::to_string(detected);
  out += ",\"escapes\":" + std::to_string(escapes);
  out += ",\"bound_violations\":" + std::to_string(bound_violations);
  out += ",\"missing_evidence\":" + std::to_string(missing_evidence);
  out += ",\"false_alarms\":" + std::to_string(false_alarms);
  out += "},\"delay_ops\":{";
  out += "\"count\":" + std::to_string(delays_ops.size());
  out += ",\"p50\":" + std::to_string(DelayPercentile(0.5));
  out += ",\"p90\":" + std::to_string(DelayPercentile(0.9));
  out += ",\"max\":" + std::to_string(DelayPercentile(1.0));
  out += "},\"violations\":[";
  for (size_t i = 0; i < violations.size(); ++i) {
    const ViolationRecord& rec = violations[i];
    if (i > 0) out += ",";
    out += "{\"seed\":" + std::to_string(rec.schedule.seed);
    out += ",\"reason\":\"" + JsonEscapeString(rec.reason) + "\"";
    out += ",\"describe\":\"" + JsonEscapeString(rec.minimized.Describe()) +
           "\"";
    out += ",\"schedule\":\"" + util::HexEncode(rec.schedule.Serialize()) +
           "\"";
    out += ",\"minimized\":\"" + util::HexEncode(rec.minimized.Serialize()) +
           "\"}";
  }
  out += "],\"ok\":" + std::string(ok() ? "true" : "false") + "}";
  return out;
}

CampaignReport RunCampaign(const CampaignOptions& options) {
  CampaignReport report;
  report.options = options;
  util::Rng rng(options.seed);
  for (uint32_t i = 0; i < options.scenarios; ++i) {
    uint64_t scenario_seed = rng.Next();
    if (scenario_seed == 0) scenario_seed = 1;
    const bool honest = rng.NextDouble() < options.honest_fraction;
    CampaignSchedule schedule = GenerateSchedule(scenario_seed, honest);
    schedule.protocol = options.protocol;
    ScheduleOutcome outcome = RunSchedule(schedule);

    ++report.scenarios;
    if (schedule.IsHonest()) ++report.honest_runs;
    if (outcome.engaged) ++report.engaged;
    if (outcome.detected) {
      ++report.detected;
      report.delays_ops.push_back(outcome.delay_ops);
    }
    if (outcome.escaped) ++report.escapes;
    if (outcome.bound_violated) ++report.bound_violations;
    if (outcome.missing_evidence) ++report.missing_evidence;
    if (outcome.false_alarm) ++report.false_alarms;
    if (outcome.Violated()) {
      ViolationRecord rec;
      rec.schedule = schedule;
      rec.reason = outcome.violation;
      rec.minimized =
          options.minimize
              ? MinimizeSchedule(schedule, ScheduleProperty::kViolation)
              : schedule;
      report.violations.push_back(std::move(rec));
    }
  }
  return report;
}

std::string CampaignFixture::ToText() const {
  std::string out = "# tcvs-campaign-fixture v1\n";
  out += "name: " + name + "\n";
  out += "protocol: " +
         std::string(core::ProtocolKindToString(schedule.protocol)) + "\n";
  out += "describe: " + schedule.Describe() + "\n";
  out += "expect_detected: " + std::string(expect_detected ? "1" : "0") + "\n";
  out += "expect_escape: " + std::string(expect_escape ? "1" : "0") + "\n";
  out += "schedule: " + util::HexEncode(schedule.Serialize()) + "\n";
  return out;
}

Result<CampaignFixture> CampaignFixture::FromText(std::string_view text) {
  CampaignFixture fixture;
  bool header_seen = false;
  bool schedule_seen = false;
  size_t pos = 0;
  while (pos <= text.size()) {
    size_t eol = text.find('\n', pos);
    std::string_view line = text.substr(
        pos, eol == std::string_view::npos ? std::string_view::npos
                                           : eol - pos);
    pos = eol == std::string_view::npos ? text.size() + 1 : eol + 1;
    while (!line.empty() && (line.back() == '\r' || line.back() == ' ')) {
      line.remove_suffix(1);
    }
    if (line.empty()) continue;
    if (!header_seen) {
      if (line != "# tcvs-campaign-fixture v1") {
        return Status::InvalidArgument(
            "campaign fixture must start with '# tcvs-campaign-fixture v1'");
      }
      header_seen = true;
      continue;
    }
    if (line.front() == '#') continue;
    const size_t colon = line.find(": ");
    if (colon == std::string_view::npos) {
      return Status::InvalidArgument("campaign fixture line is not 'key: value'");
    }
    const std::string_view key = line.substr(0, colon);
    const std::string_view value = line.substr(colon + 2);
    if (key == "name") {
      fixture.name = std::string(value);
    } else if (key == "expect_detected" || key == "expect_escape") {
      if (value != "0" && value != "1") {
        return Status::InvalidArgument("campaign fixture expects 0 or 1 for " +
                                       std::string(key));
      }
      (key == "expect_detected" ? fixture.expect_detected
                                : fixture.expect_escape) = value == "1";
    } else if (key == "schedule") {
      auto bytes = util::HexDecode(value);
      if (!bytes.ok()) return std::move(bytes).status();
      auto schedule = CampaignSchedule::Deserialize(*bytes);
      if (!schedule.ok()) return std::move(schedule).status();
      fixture.schedule = std::move(schedule).ValueOrDie();
      schedule_seen = true;
    }
    // "protocol:" / "describe:" and unknown keys are informational.
  }
  if (!header_seen) {
    return Status::InvalidArgument("empty campaign fixture");
  }
  if (fixture.name.empty() || !schedule_seen) {
    return Status::InvalidArgument(
        "campaign fixture needs 'name:' and 'schedule:' lines");
  }
  return fixture;
}

}  // namespace campaign
}  // namespace tcvs
