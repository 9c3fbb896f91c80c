#pragma once

// Workload definitions and the seeded operation stream.
//
// The stream is the only thing the system under test receives: a client's
// k-th operation is a pure function of (workload, seed, client, k), so the
// same seed always yields a byte-identical stream (see StreamDigest).

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/random.h"

namespace e2e {

/// One benchmark workload (README.md, "Workloads", says why each exists).
struct WorkloadSpec {
  const char* name;
  /// Verifying clients, each with its own RemoteServer connection.
  int clients;
  /// Files preloaded before timing; every operation targets one of them.
  uint32_t files;
  /// Share of operations that are commits; the rest are checkouts.
  double commit_share;
  /// DurableOptions for the data directory.
  bool fsync;
  uint32_t emulated_sync_us;
  uint32_t group_commit_window_us;
  /// Operations per client in a traced run (fixed, so counts repeat).
  int traced_ops_per_client;
  /// After the run, restart the durable server from its data directory and
  /// check every client's last acknowledged commit through it.
  bool restart_check;
};

const std::vector<WorkloadSpec>& Workloads();
/// nullptr when no workload has that name.
const WorkloadSpec* FindWorkload(std::string_view name);

/// Bytes of every file version, preloaded or committed.
inline constexpr size_t kContentBytes = 1024;
/// Zipf exponent of key popularity.
inline constexpr double kZipfTheta = 0.99;

/// Repository path of file `file`.
std::string FilePath(uint32_t file);

/// The client (0-based) whose partition holds `file`; only that client ever
/// commits it.
inline int Owner(uint32_t file, int clients) {
  return static_cast<int>(file % static_cast<uint32_t>(clients));
}

/// Revision-1 content of `file`, as the preload commits it.
std::string PreloadContent(uint64_t seed, uint32_t file);

struct Op {
  bool commit = false;
  uint32_t file = 0;
  std::string content;  // Commits only.
};

/// The infinite operation stream of one client. Commits target the client's
/// own partition, checkouts range over all files; both draw their key rank
/// from a Zipf distribution and map it through a fixed permutation so the
/// hot files are spread over the key space and over the partitions.
class OpStream {
 public:
  OpStream(const WorkloadSpec& spec, uint64_t seed, int client);

  Op Next();

 private:
  const WorkloadSpec& spec_;
  int client_;
  uint32_t partition_size_;
  tcvs::util::Rng rng_;
  tcvs::util::ZipfGenerator all_;
  tcvs::util::ZipfGenerator own_;
};

/// SHA-256 (hex) over the first `ops_per_client` operations of every
/// client's stream, serialized in client order: the byte-identity witness
/// for seed handling.
std::string StreamDigest(const WorkloadSpec& spec, uint64_t seed,
                         int ops_per_client);

}  // namespace e2e
