#pragma once

// The traced run's per-layer ledger.
//
// Spans are recorded in memory at three boundaries of every operation:
//
//   cvs      VerifyingClient::Commit/Checkout, as the client loop calls it
//   rpc      the client's ServerApi call into rpc::RemoteServer
//   storage  rpc::Serve's ServerApi call into storage::DurableServer
//
// The two forwarding decorators below sit at the rpc and storage boundaries.
// Spans of one operation share the identifier (user id, per-user sequence
// number), which is unambiguous because every client issues its calls one at
// a time and the serve loop executes each request exactly once. A layer's
// self time is its span minus its child span, so the three self times add
// up to the client's operation time.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "cvs/trusted.h"
#include "util/mutex.h"
#include "util/result.h"

namespace e2e {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One reported figure. `samples` is the count it was computed over (printed
/// on the human-readable line; the JSON result carries value and unit only).
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  uint64_t samples = 0;
};

enum class Layer : int { kCvs = 0, kRpc = 1, kStorage = 2 };
inline constexpr int kLayers = 3;

struct Span {
  Layer layer = Layer::kCvs;
  uint32_t user = 0;
  uint32_t seq = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  /// Storage spans: time the call blocked on the covering WAL flush.
  int64_t fsync_wait_ns = 0;
};

/// Thread-safe in-memory span store. Decorators record only while
/// `recording` is on, so calls outside the traced window (the restart
/// check) neither record nor advance sequence numbers.
class SpanLog {
 public:
  void set_recording(bool on) {
    recording_.store(on, std::memory_order_release);
  }
  bool recording() const { return recording_.load(std::memory_order_acquire); }

  void Add(const Span& span);
  std::vector<Span> Take();

 private:
  std::atomic<bool> recording_{false};
  tcvs::util::Mutex mu_;
  std::vector<Span> spans_ TCVS_GUARDED_BY(mu_);
};

/// Forwards every ServerApi call to `inner`; the decorators below override
/// Transact, the only call the client loop makes.
class ForwardingApi : public tcvs::cvs::ServerApi {
 public:
  explicit ForwardingApi(tcvs::cvs::ServerApi* inner) : inner_(inner) {}

  tcvs::Result<tcvs::util::Tainted<tcvs::cvs::ServerReply>> Transact(
      uint32_t user, const std::vector<tcvs::cvs::FileOp>& ops) override {
    return inner_->Transact(user, ops);
  }
  tcvs::Result<tcvs::util::Tainted<tcvs::cvs::ListReply>> List(
      uint32_t user, const std::string& prefix) override {
    return inner_->List(user, prefix);
  }
  tcvs::Result<tcvs::util::Tainted<tcvs::cvs::LogCheckpointReply>>
  LogCheckpoint(uint64_t old_size) override {
    return inner_->LogCheckpoint(old_size);
  }
  tcvs::mtree::TreeParams tree_params() const override {
    return inner_->tree_params();
  }

 protected:
  tcvs::cvs::ServerApi* const inner_;
};

/// Client-side decorator: times each call into the transport (rpc span).
/// One per client; used only from that client's thread.
class TimedTransport : public ForwardingApi {
 public:
  TimedTransport(tcvs::cvs::ServerApi* inner, SpanLog* log)
      : ForwardingApi(inner), log_(log) {}

  tcvs::Result<tcvs::util::Tainted<tcvs::cvs::ServerReply>> Transact(
      uint32_t user, const std::vector<tcvs::cvs::FileOp>& ops) override;

 private:
  SpanLog* const log_;
  uint32_t next_seq_ = 0;
};

/// Server-side decorator: times each call from the serve loop into the
/// durable server (storage span), including the part blocked on the WAL
/// flush, read from the serve loop's per-request cost scope.
class TimedStore : public ForwardingApi {
 public:
  TimedStore(tcvs::cvs::ServerApi* inner, SpanLog* log)
      : ForwardingApi(inner), log_(log) {}

  tcvs::Result<tcvs::util::Tainted<tcvs::cvs::ServerReply>> Transact(
      uint32_t user, const std::vector<tcvs::cvs::FileOp>& ops) override;

 private:
  SpanLog* const log_;
  tcvs::util::Mutex mu_;
  std::map<uint32_t, uint32_t> next_seq_ TCVS_GUARDED_BY(mu_);
};

/// Per-layer totals over the traced operations.
struct LayerTotals {
  uint64_t ops = 0;
  int64_t duration_ns[kLayers] = {};
  int64_t self_ns[kLayers] = {};
  int64_t fsync_wait_ns = 0;
};

/// Links the spans into per-operation trees and attributes self time.
/// Fails unless every operation has exactly one span per layer, each child
/// lies inside its parent's interval, and the self times sum to the client
/// operation times.
tcvs::Result<LayerTotals> Attribute(const std::vector<Span>& spans);

/// Writes the spans as Chrome trace-event JSON (util::TraceDump's format).
tcvs::Status WriteChromeTrace(const std::vector<Span>& spans,
                              const std::string& path);

/// Counter values from util::MetricsRegistry::Snapshot().
using Counters = std::map<std::string, uint64_t>;
Counters SnapshotCounters();

/// The per-layer metrics of README.md's table, from the span totals, the
/// counter deltas over the traced window, and the client-side hash count.
std::vector<Metric> LayerMetrics(const LayerTotals& totals,
                                 const Counters& before, const Counters& after,
                                 uint64_t client_hashes);

}  // namespace e2e
