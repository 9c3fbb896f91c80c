#include "stream.h"

#include <cstdio>

#include "crypto/sha256.h"
#include "util/bytes.h"
#include "util/serde.h"

namespace e2e {

namespace {

// Multiplier of the rank → file permutation: a prime coprime with every
// file and partition count used here (all are of the form 2^a·5^b).
constexpr uint64_t kSpread = 7919;

// Sub-seed of an independent stream derived from the workload seed.
uint64_t SubSeed(uint64_t seed, uint64_t stream) {
  return seed ^ (0x9E3779B97F4A7C15ULL * (stream + 1));
}

// Preload contents draw from streams disjoint from the clients' ones.
constexpr uint64_t kPreloadStreamBase = 1ULL << 32;

std::string RandomContent(tcvs::util::Rng* rng) {
  return tcvs::util::ToString(rng->RandomBytes(kContentBytes));
}

}  // namespace

const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec> kWorkloads = {
      {"solo_edit", 1, 1000, 0.5, false, 0, 0, 200, false},
      {"team_commit", 4, 1000, 0.8, true, 2000, 2000, 100, true},
      {"team_read", 4, 20000, 0.1, false, 0, 0, 100, false},
  };
  return kWorkloads;
}

const WorkloadSpec* FindWorkload(std::string_view name) {
  for (const auto& spec : Workloads()) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

std::string FilePath(uint32_t file) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "src/file%05u.c", file);
  return buf;
}

std::string PreloadContent(uint64_t seed, uint32_t file) {
  tcvs::util::Rng rng(SubSeed(seed, kPreloadStreamBase + file));
  return RandomContent(&rng);
}

OpStream::OpStream(const WorkloadSpec& spec, uint64_t seed, int client)
    : spec_(spec),
      client_(client),
      partition_size_((spec.files - static_cast<uint32_t>(client) +
                       static_cast<uint32_t>(spec.clients) - 1) /
                      static_cast<uint32_t>(spec.clients)),
      rng_(SubSeed(seed, static_cast<uint64_t>(client))),
      all_(spec.files, kZipfTheta),
      own_(partition_size_, kZipfTheta) {}

Op OpStream::Next() {
  Op op;
  op.commit = rng_.Bernoulli(spec_.commit_share);
  if (op.commit) {
    const uint64_t local = own_.Next(&rng_) * kSpread % partition_size_;
    op.file = static_cast<uint32_t>(local * spec_.clients + client_);
    op.content = RandomContent(&rng_);
  } else {
    op.file = static_cast<uint32_t>(all_.Next(&rng_) * kSpread % spec_.files);
  }
  return op;
}

std::string StreamDigest(const WorkloadSpec& spec, uint64_t seed,
                         int ops_per_client) {
  tcvs::crypto::Sha256 h;
  for (int c = 0; c < spec.clients; ++c) {
    OpStream stream(spec, seed, c);
    for (int k = 0; k < ops_per_client; ++k) {
      const Op op = stream.Next();
      tcvs::util::Writer w;
      w.PutU32(static_cast<uint32_t>(c));
      w.PutU8(op.commit ? 1 : 0);
      w.PutU32(op.file);
      w.PutString(op.content);
      h.Update(w.buffer());
    }
  }
  return tcvs::util::HexEncode(h.Finish());
}

}  // namespace e2e
