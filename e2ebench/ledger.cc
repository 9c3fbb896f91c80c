#include "ledger.h"

#include <fstream>
#include <unordered_map>

#include "util/cost.h"
#include "util/metrics.h"

namespace e2e {

namespace tc = tcvs;

namespace {

const char* const kSpanNames[kLayers] = {
    "e2e.cvs.client_op", "e2e.rpc.transport_call", "e2e.storage.server_call"};

// Ids of the operation (user, seq): the trace id, and one span id per layer.
uint64_t TraceId(const Span& s) {
  return (static_cast<uint64_t>(s.user) << 32) | s.seq;
}
uint64_t SpanId(uint64_t trace_id, int layer) {
  return trace_id * kLayers + static_cast<uint64_t>(layer) + 1;
}

uint64_t Delta(const Counters& before, const Counters& after,
               const std::string& name) {
  auto get = [&name](const Counters& c) -> uint64_t {
    auto it = c.find(name);
    return it == c.end() ? 0 : it->second;
  };
  return get(after) - get(before);
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

}  // namespace

void SpanLog::Add(const Span& span) {
  tc::util::MutexLock lock(&mu_);
  spans_.push_back(span);
}

std::vector<Span> SpanLog::Take() {
  tc::util::MutexLock lock(&mu_);
  return std::move(spans_);
}

tc::Result<tc::util::Tainted<tc::cvs::ServerReply>> TimedTransport::Transact(
    uint32_t user, const std::vector<tc::cvs::FileOp>& ops) {
  if (!log_->recording()) return inner_->Transact(user, ops);
  const uint32_t seq = next_seq_++;
  const int64_t start = NowNs();
  auto reply = inner_->Transact(user, ops);
  log_->Add({Layer::kRpc, user, seq, start, NowNs(), 0});
  return reply;
}

tc::Result<tc::util::Tainted<tc::cvs::ServerReply>> TimedStore::Transact(
    uint32_t user, const std::vector<tc::cvs::FileOp>& ops) {
  if (!log_->recording()) return inner_->Transact(user, ops);
  uint32_t seq;
  {
    tc::util::MutexLock lock(&mu_);
    seq = next_seq_[user]++;
  }
  // The serve loop arms one cost scope per request on this thread; the
  // durable server charges its WAL flush wait to it.
  const tc::util::CostCounters* cost = tc::util::CurrentCostCounters();
  const uint64_t wait_before_us = cost ? cost->wal_fsync_wait_us : 0;
  const int64_t start = NowNs();
  auto reply = inner_->Transact(user, ops);
  const int64_t end = NowNs();
  const uint64_t wait_us = cost ? cost->wal_fsync_wait_us - wait_before_us : 0;
  log_->Add({Layer::kStorage, user, seq, start, end,
             static_cast<int64_t>(wait_us) * 1000});
  return reply;
}

tc::Result<LayerTotals> Attribute(const std::vector<Span>& spans) {
  // Index: span id → position. Every id must be unique.
  std::unordered_map<uint64_t, size_t> by_id;
  by_id.reserve(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    const uint64_t id =
        SpanId(TraceId(spans[i]), static_cast<int>(spans[i].layer));
    if (!by_id.emplace(id, i).second) {
      return tc::Status::Internal("duplicate span for user " +
                                  std::to_string(spans[i].user) + " seq " +
                                  std::to_string(spans[i].seq));
    }
  }
  LayerTotals totals;
  std::vector<int64_t> child_cover(spans.size(), 0);
  std::vector<int> children(spans.size(), 0);
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const int layer = static_cast<int>(s.layer);
    if (s.end_ns < s.start_ns) return tc::Status::Internal("negative span");
    totals.duration_ns[layer] += s.end_ns - s.start_ns;
    if (s.layer == Layer::kStorage) totals.fsync_wait_ns += s.fsync_wait_ns;
    if (layer == 0) {
      ++totals.ops;
      continue;
    }
    auto parent = by_id.find(SpanId(TraceId(s), layer - 1));
    if (parent == by_id.end()) {
      return tc::Status::Internal(std::string(kSpanNames[layer]) +
                                  " span without a parent: user " +
                                  std::to_string(s.user) + " seq " +
                                  std::to_string(s.seq));
    }
    const Span& p = spans[parent->second];
    if (s.start_ns < p.start_ns || s.end_ns > p.end_ns) {
      return tc::Status::Internal(std::string(kSpanNames[layer]) +
                                  " span outside its parent: user " +
                                  std::to_string(s.user) + " seq " +
                                  std::to_string(s.seq));
    }
    child_cover[parent->second] += s.end_ns - s.start_ns;
    ++children[parent->second];
  }
  int64_t self_sum = 0;
  for (size_t i = 0; i < spans.size(); ++i) {
    const int layer = static_cast<int>(spans[i].layer);
    if (layer + 1 < kLayers && children[i] != 1) {
      return tc::Status::Internal(std::string(kSpanNames[layer]) + " span has " +
                                  std::to_string(children[i]) +
                                  " child spans, want 1");
    }
    const int64_t self = spans[i].end_ns - spans[i].start_ns - child_cover[i];
    totals.self_ns[layer] += self;
    self_sum += self;
  }
  if (self_sum != totals.duration_ns[0]) {
    return tc::Status::Internal("layer self times do not add up to the "
                                "client operation time");
  }
  return totals;
}

tc::Status WriteChromeTrace(const std::vector<Span>& spans,
                            const std::string& path) {
  tc::util::TraceDump dump;
  dump.events.reserve(spans.size());
  for (const Span& s : spans) {
    const int layer = static_cast<int>(s.layer);
    const uint64_t trace_id = TraceId(s);
    tc::util::TraceDump::Event e;
    e.name = kSpanNames[layer];
    e.start_us = static_cast<uint64_t>(s.start_ns / 1000);
    e.duration_us = static_cast<uint64_t>((s.end_ns - s.start_ns) / 1000);
    e.thread = s.user;
    e.trace_id = trace_id;
    e.span_id = SpanId(trace_id, layer);
    e.parent_span_id = layer == 0 ? 0 : SpanId(trace_id, layer - 1);
    dump.events.push_back(std::move(e));
  }
  std::ofstream out(path, std::ios::trunc);
  out << dump.ChromeTraceJson() << "\n";
  out.close();
  if (!out) return tc::Status::IOError("cannot write trace " + path);
  return tc::Status::OK();
}

Counters SnapshotCounters() {
  return tc::util::MetricsRegistry::Instance().Snapshot().counters;
}

std::vector<Metric> LayerMetrics(const LayerTotals& t, const Counters& before,
                                 const Counters& after,
                                 uint64_t client_hashes) {
  const double ops = static_cast<double>(t.ops);
  auto d = [&](const char* name) {
    return static_cast<double>(Delta(before, after, name));
  };
  auto per_op_us = [&](int64_t ns) { return Ratio(ns / 1000.0, ops); };
  const int kCvs = static_cast<int>(Layer::kCvs);
  const int kRpc = static_cast<int>(Layer::kRpc);
  const int kStorage = static_cast<int>(Layer::kStorage);
  const double cache_hits = d("mtree.vo.cache.hits_total");
  const double memo_hits = d("mtree.vo.cache.read_memo_hits_total");
  const uint64_t n = t.ops;
  return {
      {"cvs.verify_us_per_op", per_op_us(t.self_ns[kCvs]), "us", n},
      {"cvs.client_hashes_per_op",
       Ratio(static_cast<double>(client_hashes), ops), "count", n},
      {"mtree.vo_cache.hit_ratio",
       Ratio(cache_hits, cache_hits + d("mtree.vo.cache.misses_total")),
       "ratio", n},
      {"mtree.read_memo.hit_ratio",
       Ratio(memo_hits, memo_hits + d("mtree.vo.cache.read_memo_misses_total")),
       "ratio", n},
      {"mtree.vo_bytes_per_op",
       Ratio(d("rpc.serve.transact.cost.vo_bytes_total"), ops), "B", n},
      {"crypto.hashes_per_op", Ratio(d("crypto.sha256.hashes_total"), ops),
       "count", n},
      {"crypto.bytes_hashed_per_op",
       Ratio(d("crypto.sha256.compress_bytes_total"), ops), "B", n},
      {"rpc.call_us_per_op", per_op_us(t.duration_ns[kRpc]), "us", n},
      {"rpc.outside_server_us_per_op", per_op_us(t.self_ns[kRpc]), "us", n},
      {"rpc.serve_queue_us_per_op",
       Ratio(d("rpc.serve.transact.cost.queue_us_total"), ops), "us", n},
      {"rpc.retries_per_op", Ratio(d("rpc.client.retries_total"), ops),
       "count", n},
      {"net.bytes_per_op", Ratio(d("net.bytes_sent_total"), ops), "B", n},
      {"net.frames_per_op", Ratio(d("net.frames_sent_total"), ops), "count",
       n},
      {"storage.call_us_per_op", per_op_us(t.duration_ns[kStorage]), "us", n},
      {"storage.apply_us_per_op",
       per_op_us(t.duration_ns[kStorage] - t.fsync_wait_ns), "us", n},
      {"storage.fsyncs_per_op", Ratio(d("storage.wal.fsyncs_total"), ops),
       "count", n},
      {"storage.batch_factor",
       Ratio(d("storage.wal.appends_total"),
             d("storage.wal.group_commit.flushes_total")),
       "ratio", n},
      {"storage.fsync_wait_us_per_op",
       Ratio(d("rpc.serve.transact.cost.wal_fsync_wait_us_total"), ops), "us",
       n},
      {"storage.wal_bytes_per_op", Ratio(d("storage.wal.bytes_total"), ops),
       "B", n},
      {"ledger.client_op_us_per_op", per_op_us(t.duration_ns[kCvs]), "us", n},
      {"ledger.outside_server_share",
       Ratio(static_cast<double>(t.self_ns[kRpc]),
             static_cast<double>(t.duration_ns[kCvs])),
       "ratio", n},
  };
}

}  // namespace e2e
