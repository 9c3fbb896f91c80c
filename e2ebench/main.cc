// tcvs_e2e_bench: one seeded, closed-loop run of an end-to-end workload.
//
// One process hosts both sides over loopback TCP: a storage::DurableServer
// served by rpc::Serve (4 workers, default TreeParams), and 1 or 4
// cvs::VerifyingClients, each with its own rpc::RemoteServer connection.
// Each client issues its next operation only after it has verified the
// previous reply (the Protocol II registers chain), so the loop is closed.
//
//   tcvs_e2e_bench --workload NAME --seed N --seconds S --trace 0|1
//                  --data-dir DIR [--trace-out FILE]
//   tcvs_e2e_bench --workload NAME --seed N --stream-digest OPS_PER_CLIENT
//
// --trace 0 times the workload for S seconds and prints the end-to-end
// metrics; --trace 1 runs a fixed number of operations with span recording
// on and prints the per-layer ledger (see ledger.h). Either way the last
// stdout line is one JSON object {"correct","attempted","failed","metrics"},
// and the exit code is non-zero when any correctness check failed.

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <latch>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <unistd.h>
#include <unordered_map>
#include <vector>

#include "cvs/trusted.h"
#include "ledger.h"
#include "net/socket.h"
#include "rpc/remote.h"
#include "storage/durable.h"
#include "stream.h"
#include "util/cost.h"

namespace e2e {
namespace {

namespace tc = tcvs;
using tc::cvs::FileOp;
using tc::cvs::VerifyingClient;

constexpr int kServeThreads = 4;
/// Client users are 1..clients; the in-process preload client is apart.
constexpr uint32_t kPreloadUser = 100;
constexpr size_t kPreloadBatch = 250;
/// Set-ups per untraced run; setup_s is their median.
constexpr int kSetups = 5;

struct Args {
  const WorkloadSpec* spec = nullptr;
  uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string data_dir;
  std::string trace_out;
  int stream_digest_ops = 0;
};

double MedianOf(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  if (n == 0) return 0;
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// Linear interpolation between closest ranks; `sorted` must be sorted.
double Percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0;
  const double idx = p * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(idx));
  const size_t hi = static_cast<size_t>(std::ceil(idx));
  return sorted[lo] + (sorted[hi] - sorted[lo]) * (idx - static_cast<double>(lo));
}

double RssMb() {
  std::ifstream statm("/proc/self/statm");
  uint64_t size_pages = 0;
  uint64_t rss_pages = 0;
  statm >> size_pages >> rss_pages;
  return static_cast<double>(rss_pages) *
         static_cast<double>(::sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

/// Shortest round-trip decimal form of `v` (JSON has no NaN/Inf).
std::string Num(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

// ---------------------------------------------------------------------------
// Deployment: data directory + durable server + serve loop + clients.
// ---------------------------------------------------------------------------

class Deployment {
 public:
  /// Opens a fresh data directory at `dir`, preloads every file with batched
  /// CommitMany through an in-process verifying client, starts serving on
  /// an ephemeral loopback port and connects the clients. With `log`, the
  /// ledger decorators are placed on both sides of the transport.
  static tc::Result<std::unique_ptr<Deployment>> Create(
      const WorkloadSpec& spec, uint64_t seed, std::string dir, SpanLog* log) {
    std::unique_ptr<Deployment> d(new Deployment(spec, std::move(dir), log));
    std::error_code ec;
    std::filesystem::remove_all(d->dir_, ec);
    std::filesystem::create_directories(d->dir_, ec);
    if (ec) return tc::Status::IOError("cannot create " + d->dir_);
    TCVS_RETURN_NOT_OK(d->Open());

    d->preload_ = std::make_unique<VerifyingClient>(kPreloadUser,
                                                    d->durable_.get());
    for (uint32_t first = 0; first < spec.files; first += kPreloadBatch) {
      const uint32_t end = std::min<uint32_t>(first + kPreloadBatch, spec.files);
      std::vector<FileOp> ops;
      for (uint32_t f = first; f < end; ++f) {
        ops.push_back({FileOp::Kind::kCommit, FilePath(f),
                       PreloadContent(seed, f), 0});
      }
      TCVS_ASSIGN_OR_RETURN(std::vector<uint64_t> revisions,
                            d->preload_->CommitMany(ops));
      for (uint64_t r : revisions) {
        if (r != 1) return tc::Status::Internal("preload revision != 1");
      }
    }

    TCVS_ASSIGN_OR_RETURN(d->listener_, tc::net::TcpListener::Bind(0));
    d->StartServing();
    for (int c = 0; c < spec.clients; ++c) {
      TCVS_ASSIGN_OR_RETURN(
          std::unique_ptr<tc::rpc::RemoteServer> remote,
          tc::rpc::RemoteServer::Connect("127.0.0.1", d->listener_.port()));
      tc::cvs::ServerApi* api = remote.get();
      if (log != nullptr) {
        d->transports_.push_back(std::make_unique<TimedTransport>(api, log));
        api = d->transports_.back().get();
      }
      d->remotes_.push_back(std::move(remote));
      d->clients_.push_back(
          std::make_unique<VerifyingClient>(static_cast<uint32_t>(c + 1), api));
    }
    return d;
  }

  ~Deployment() {
    (void)Shutdown();
    store_.reset();
    durable_.reset();
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  VerifyingClient* client(int c) { return clients_[static_cast<size_t>(c)].get(); }

  /// Every client that ever transacted, the preload client included: the
  /// set the §4.3 sync-up must run over.
  std::vector<VerifyingClient*> everyone() {
    std::vector<VerifyingClient*> all = {preload_.get()};
    for (auto& c : clients_) all.push_back(c.get());
    return all;
  }

  /// Stops the serve loop through client 0's own connection, reopens the
  /// data directory with DurableServer::Open (recovery) and serves it again
  /// on the same listener. The clients' RemoteServers reconnect on their
  /// next call. The preload client is never called again, so its pointer to
  /// the old server does not matter.
  tc::Status Restart() {
    TCVS_RETURN_NOT_OK(remotes_[0]->Shutdown());
    serve_thread_.join();
    TCVS_RETURN_NOT_OK(serve_status_);
    store_.reset();
    durable_.reset();
    TCVS_RETURN_NOT_OK(Open());
    StartServing();
    return tc::Status::OK();
  }

  /// Disconnects the clients and stops the serve loop; returns its status.
  tc::Status Shutdown() {
    clients_.clear();
    transports_.clear();
    remotes_.clear();  // Closing the connections frees every worker.
    if (!serve_thread_.joinable()) return tc::Status::OK();
    auto remote = tc::rpc::RemoteServer::Connect("127.0.0.1", listener_.port());
    tc::Status st = remote.ok() ? (*remote)->Shutdown() : remote.status();
    if (!st.ok()) {
      // The serve thread cannot be stopped any other way; joining it would
      // hang, and destroying it unjoined aborts.
      std::fprintf(stderr, "e2e: cannot stop the serve loop: %s\n",
                   st.ToString().c_str());
      std::_Exit(3);
    }
    serve_thread_.join();
    return serve_status_;
  }

 private:
  Deployment(const WorkloadSpec& spec, std::string dir, SpanLog* log)
      : spec_(spec), dir_(std::move(dir)), log_(log) {}

  tc::Status Open() {
    tc::storage::DurableOptions options;
    options.fsync = spec_.fsync;
    options.emulated_sync_delay_us = spec_.emulated_sync_us;
    options.group_commit_window_us = spec_.group_commit_window_us;
    TCVS_ASSIGN_OR_RETURN(durable_, tc::storage::DurableServer::Open(
                                        dir_, tc::mtree::TreeParams{}, options));
    if (log_ != nullptr) {
      store_ = std::make_unique<TimedStore>(durable_.get(), log_);
    }
    return tc::Status::OK();
  }

  void StartServing() {
    tc::cvs::ServerApi* api =
        store_ ? static_cast<tc::cvs::ServerApi*>(store_.get()) : durable_.get();
    serve_thread_ = std::thread([this, api] {
      tc::rpc::ServeOptions options;
      options.num_threads = kServeThreads;
      serve_status_ = tc::rpc::Serve(&listener_, api, options);
    });
  }

  const WorkloadSpec& spec_;
  const std::string dir_;
  SpanLog* const log_;
  std::unique_ptr<tc::storage::DurableServer> durable_;
  std::unique_ptr<TimedStore> store_;
  std::unique_ptr<VerifyingClient> preload_;
  tc::net::TcpListener listener_;
  tc::Status serve_status_;
  std::thread serve_thread_;
  std::vector<std::unique_ptr<tc::rpc::RemoteServer>> remotes_;
  std::vector<std::unique_ptr<TimedTransport>> transports_;
  std::vector<std::unique_ptr<VerifyingClient>> clients_;
};

// ---------------------------------------------------------------------------
// Closed-loop client.
// ---------------------------------------------------------------------------

struct FileState {
  uint64_t revision = 0;
  std::string content;
};

class ClientLoop {
 public:
  ClientLoop(const WorkloadSpec& spec, uint64_t seed, int index,
             VerifyingClient* client, SpanLog* log)
      : spec_(spec),
        seed_(seed),
        index_(index),
        client_(client),
        log_(log),
        stream_(spec, seed, index),
        last_committed_file_(static_cast<uint32_t>(index)) {}

  /// Runs operations until `deadline_ns` (or `max_ops`, when positive), or
  /// until the first failed operation.
  void Run(int64_t deadline_ns, int max_ops) {
    for (uint32_t k = 0;; ++k) {
      if (max_ops > 0 ? static_cast<int>(k) >= max_ops : NowNs() >= deadline_ns) {
        break;
      }
      if (!Step(k)) break;
    }
    end_ns_ = NowNs();
  }

  /// The state this client expects of one of its own files.
  FileState Expected(uint32_t file) const {
    auto it = committed_.find(file);
    if (it != committed_.end()) return it->second;
    return {1, PreloadContent(seed_, file)};
  }

  /// Own file to check after a restart: the last one committed (before any
  /// commit, file `index`, which is in this client's partition).
  uint32_t last_committed_file() const { return last_committed_file_; }

  const std::vector<double>& commit_ms() const { return commit_ms_; }
  const std::vector<double>& checkout_ms() const { return checkout_ms_; }
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  const std::string& error() const { return error_; }
  int64_t end_ns() const { return end_ns_; }
  uint64_t client_hashes() const { return client_hashes_; }

 private:
  bool Step(uint32_t seq) {
    Op op = stream_.Next();
    ++attempted_;
    const std::string path = FilePath(op.file);
    std::optional<tc::util::CostScope> cost;
    if (log_ != nullptr) cost.emplace();
    tc::Status st;
    int64_t start = 0;
    int64_t end = 0;
    if (op.commit) {
      const FileState base = Expected(op.file);
      std::string content = op.content;
      start = NowNs();
      auto revision = client_->Commit(path, std::move(content), base.revision);
      end = NowNs();
      if (!revision.ok()) {
        st = revision.status();
      } else if (*revision != base.revision + 1) {
        st = tc::Status::Internal("commit of " + path + " returned revision " +
                                  std::to_string(*revision) + ", want " +
                                  std::to_string(base.revision + 1));
      } else {
        committed_[op.file] = {*revision, std::move(op.content)};
        last_committed_file_ = op.file;
        commit_ms_.push_back((end - start) / 1e6);
      }
    } else {
      start = NowNs();
      auto record = client_->Checkout(path);
      end = NowNs();
      st = record.ok() ? CheckCheckout(op.file, *record) : record.status();
      if (st.ok()) checkout_ms_.push_back((end - start) / 1e6);
    }
    if (log_ != nullptr) {
      client_hashes_ += cost->counters().hashes;
      log_->Add({Layer::kCvs, client_->user_id(), seq, start, end, 0});
    }
    if (!st.ok()) {
      ++failed_;
      error_ = "client " + std::to_string(index_) + " op " +
               std::to_string(seq) + ": " + st.ToString();
      return false;
    }
    return true;
  }

  tc::Status CheckCheckout(uint32_t file, const tc::cvs::FileRecord& got) const {
    const std::string path = FilePath(file);
    if (Owner(file, spec_.clients) == index_) {
      const FileState want = Expected(file);
      if (got.revision != want.revision || got.content != want.content) {
        return tc::Status::Internal(
            "checkout of own file " + path + " returned revision " +
            std::to_string(got.revision) + ", want " +
            std::to_string(want.revision) + " with the last committed bytes");
      }
      return tc::Status::OK();
    }
    // Another client's file: any revision it committed, never older than
    // the preload, always a whole file; revision 1 is the preload's bytes.
    if (got.revision < 1 || got.content.size() != kContentBytes ||
        (got.revision == 1 && got.content != PreloadContent(seed_, file))) {
      return tc::Status::Internal("checkout of " + path +
                                  " returned unexpected revision " +
                                  std::to_string(got.revision));
    }
    return tc::Status::OK();
  }

  const WorkloadSpec& spec_;
  const uint64_t seed_;
  const int index_;
  VerifyingClient* const client_;
  SpanLog* const log_;
  OpStream stream_;
  std::unordered_map<uint32_t, FileState> committed_;
  uint32_t last_committed_file_;
  std::vector<double> commit_ms_;
  std::vector<double> checkout_ms_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::string error_;
  int64_t end_ns_ = 0;
  uint64_t client_hashes_ = 0;
};

// ---------------------------------------------------------------------------
// One run.
// ---------------------------------------------------------------------------

struct Outcome {
  std::vector<Metric> metrics;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;
  bool correct() const { return failed == 0 && errors.empty(); }
};

/// After a restart, each client checks out the own file it committed last
/// through its same VerifyingClient: the acknowledged revision and bytes
/// must have survived, and the verified reply proves the Protocol II
/// registers continue across the restart.
void CheckAfterRestart(const std::vector<std::unique_ptr<ClientLoop>>& loops,
                       Deployment* d, Outcome* out) {
  for (size_t c = 0; c < loops.size(); ++c) {
    const uint32_t file = loops[c]->last_committed_file();
    const FileState want = loops[c]->Expected(file);
    auto got = d->client(static_cast<int>(c))->Checkout(FilePath(file));
    if (!got.ok()) {
      out->errors.push_back("checkout after restart: " + got.status().ToString());
    } else if (got->revision != want.revision || got->content != want.content) {
      out->errors.push_back("after restart " + FilePath(file) + " is revision " +
                            std::to_string(got->revision) + ", acknowledged " +
                            std::to_string(want.revision));
    }
  }
}

void AddLatency(const char* name, std::vector<double> ms,
                std::vector<Metric>* metrics) {
  std::sort(ms.begin(), ms.end());
  const std::string base(name);
  metrics->push_back({base + "_p50_ms", Percentile(ms, 0.5), "ms", ms.size()});
  metrics->push_back({base + "_p90_ms", Percentile(ms, 0.9), "ms", ms.size()});
}

/// Human-readable report on stdout, then the JSON result as the last line.
void PrintReport(const WorkloadSpec& spec, uint64_t seed, bool trace,
                 const Outcome& out) {
  std::printf("workload %s seed %llu clients %d files %u trace %d\n", spec.name,
              static_cast<unsigned long long>(seed), spec.clients, spec.files,
              trace ? 1 : 0);
  for (const Metric& m : out.metrics) {
    std::printf("  %-32s %14s %-6s n=%llu\n", m.name.c_str(),
                Num(m.value).c_str(), m.unit.c_str(),
                static_cast<unsigned long long>(m.samples));
  }
  std::printf("  %-32s %14s %-6s failed=%llu attempted=%llu\n", "error_rate",
              Num(out.attempted ? static_cast<double>(out.failed) /
                                      static_cast<double>(out.attempted)
                                : 0)
                  .c_str(),
              "ratio", static_cast<unsigned long long>(out.failed),
              static_cast<unsigned long long>(out.attempted));
  for (const std::string& e : out.errors) {
    std::printf("  FAILED: %s\n", e.c_str());
  }
  std::string json = std::string("{\"correct\": ") +
                     (out.correct() ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(out.attempted) +
                     ", \"failed\": " + std::to_string(out.failed) +
                     ", \"metrics\": {";
  for (size_t i = 0; i < out.metrics.size(); ++i) {
    const Metric& m = out.metrics[i];
    json += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " + Num(m.value) +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

int Run(const Args& args) {
  const WorkloadSpec& spec = *args.spec;
  std::optional<SpanLog> log;
  if (args.trace) log.emplace();
  Outcome out;
  std::vector<double> setup_s;

  int64_t t0 = NowNs();
  auto created = Deployment::Create(spec, args.seed, args.data_dir + "/setup0",
                                    log ? &*log : nullptr);
  if (!created.ok()) {
    std::fprintf(stderr, "e2e: set-up failed: %s\n",
                 created.status().ToString().c_str());
    return 1;
  }
  setup_s.push_back((NowNs() - t0) / 1e9);
  const double rss_mb = RssMb();
  std::unique_ptr<Deployment> d = std::move(created).ValueOrDie();

  std::vector<std::unique_ptr<ClientLoop>> loops;
  for (int c = 0; c < spec.clients; ++c) {
    loops.push_back(std::make_unique<ClientLoop>(spec, args.seed, c,
                                                 d->client(c),
                                                 log ? &*log : nullptr));
  }
  const Counters before = SnapshotCounters();
  if (log) log->set_recording(true);
  std::latch go(1);
  int64_t start_ns = 0;
  std::vector<std::thread> threads;
  for (auto& loop : loops) {
    threads.emplace_back([&go, &start_ns, &args, &spec, l = loop.get()] {
      go.wait();
      l->Run(start_ns + static_cast<int64_t>(args.seconds * 1e9),
             args.trace ? spec.traced_ops_per_client : 0);
    });
  }
  start_ns = NowNs();
  go.count_down();
  for (auto& t : threads) t.join();
  if (log) log->set_recording(false);
  const Counters after = SnapshotCounters();

  int64_t end_ns = start_ns;
  uint64_t client_hashes = 0;
  std::vector<double> commit_ms;
  std::vector<double> checkout_ms;
  for (const auto& loop : loops) {
    out.attempted += loop->attempted();
    out.failed += loop->failed();
    if (!loop->error().empty()) out.errors.push_back(loop->error());
    end_ns = std::max(end_ns, loop->end_ns());
    client_hashes += loop->client_hashes();
    commit_ms.insert(commit_ms.end(), loop->commit_ms().begin(),
                     loop->commit_ms().end());
    checkout_ms.insert(checkout_ms.end(), loop->checkout_ms().begin(),
                       loop->checkout_ms().end());
  }
  const uint64_t completed = commit_ms.size() + checkout_ms.size();
  const double ops_per_s = completed / ((end_ns - start_ns) / 1e9);

  tc::Status sync = VerifyingClient::SyncUp(d->everyone());
  if (!sync.ok()) out.errors.push_back("sync-up: " + sync.ToString());
  if (spec.restart_check && out.correct()) {
    tc::Status st = d->Restart();
    if (!st.ok()) {
      out.errors.push_back("restart: " + st.ToString());
    } else {
      CheckAfterRestart(loops, d.get(), &out);
      sync = VerifyingClient::SyncUp(d->everyone());
      if (!sync.ok()) {
        out.errors.push_back("sync-up after restart: " + sync.ToString());
      }
    }
  }
  loops.clear();
  tc::Status served = d->Shutdown();
  if (!served.ok()) out.errors.push_back("serve loop: " + served.ToString());
  d.reset();

  if (args.trace) {
    const std::vector<Span> spans = log->Take();
    if (!args.trace_out.empty()) {
      tc::Status st = WriteChromeTrace(spans, args.trace_out);
      if (!st.ok()) out.errors.push_back(st.ToString());
    }
    auto totals = Attribute(spans);
    if (!totals.ok()) {
      out.errors.push_back("ledger: " + totals.status().ToString());
    } else {
      out.metrics = LayerMetrics(*totals, before, after, client_hashes);
      out.metrics.push_back({"trace.ops_per_s", ops_per_s, "1/s", completed});
    }
  } else {
    for (int i = 1; i < kSetups; ++i) {
      t0 = NowNs();
      auto again = Deployment::Create(spec, args.seed,
                                      args.data_dir + "/setup" + std::to_string(i),
                                      nullptr);
      setup_s.push_back((NowNs() - t0) / 1e9);
      if (!again.ok()) out.errors.push_back(again.status().ToString());
    }
    out.metrics.push_back({"ops_per_s", ops_per_s, "1/s", completed});
    AddLatency("commit", commit_ms, &out.metrics);
    AddLatency("checkout", checkout_ms, &out.metrics);
    out.metrics.push_back({"setup_s", MedianOf(setup_s), "s", setup_s.size()});
    out.metrics.push_back({"rss_mb", rss_mb, "MB", 1});
  }

  PrintReport(spec, args.seed, args.trace, out);
  return out.correct() ? 0 : 1;
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "e2e: %s\nusage: tcvs_e2e_bench --workload NAME --seed N "
               "--seconds S --trace 0|1 --data-dir DIR [--trace-out FILE]\n"
               "       tcvs_e2e_bench --workload NAME --seed N "
               "--stream-digest OPS_PER_CLIENT\n",
               why);
  return 2;
}

int Main(int argc, char** argv) {
  Args args;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        args.spec = FindWorkload(value);
        if (args.spec == nullptr) return Usage("unknown workload");
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
        have_seed = true;
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--trace") {
        args.trace = std::stoi(value) != 0;
      } else if (flag == "--data-dir") {
        args.data_dir = value;
      } else if (flag == "--trace-out") {
        args.trace_out = value;
      } else if (flag == "--stream-digest") {
        args.stream_digest_ops = std::stoi(value);
      } else {
        return Usage(("unknown flag " + flag).c_str());
      }
    } catch (const std::exception&) {
      return Usage(("bad value for " + flag).c_str());
    }
  }
  if (args.spec == nullptr || !have_seed) {
    return Usage("--workload and --seed are required");
  }
  if (args.stream_digest_ops > 0) {
    std::printf("%s\n",
                StreamDigest(*args.spec, args.seed, args.stream_digest_ops).c_str());
    return 0;
  }
  if (args.data_dir.empty()) return Usage("--data-dir is required");
  if (!args.trace && !(args.seconds > 0)) return Usage("--seconds must be > 0");
  return Run(args);
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) { return e2e::Main(argc, argv); }
