#include "core/registers.h"

#include "core/fingerprint.h"
#include "util/audit.h"
#include "util/logging.h"

namespace tcvs {
namespace core {

namespace {

// XOR of two equal-length byte strings. Every caller in this file has
// checked the sizes, so a mismatch is a programming error.
Bytes XorBytes(const Bytes& a, const Bytes& b) {
  TCVS_CHECK(a.size() == b.size());
  Bytes out(a.size());
  for (size_t i = 0; i < a.size(); ++i) out[i] = a[i] ^ b[i];
  return out;
}

}  // namespace

Registers Registers::Initial(bool tagged) {
  return Registers{Bytes(crypto::kDigestSize, 0), InitialFingerprint(tagged), 0,
                   0};
}

void Registers::Fold(const crypto::Digest& pre_fp,
                     const crypto::Digest& post_fp, uint64_t ctr) {
  sigma = XorBytes(XorBytes(sigma, pre_fp), post_fp);
  last = post_fp;
  Count(ctr);
}

void Registers::Count(uint64_t ctr) {
  gctr = ctr + 1;
  ++lctr;
}

Telescope::Telescope(Closure closure, std::vector<Bytes> starts)
    : closure_(closure),
      starts_(std::move(starts)),
      sigma_(crypto::kDigestSize, 0) {
  for (const Bytes& start : starts_) {
    if (start.size() != crypto::kDigestSize) malformed_ = true;
  }
}

void Telescope::Pool(const Bytes& sigma, uint64_t lctr) {
  if (sigma.size() != crypto::kDigestSize) {
    malformed_ = true;
    return;
  }
  sigma_ = XorBytes(sigma_, sigma);
  lctr_sum_ += lctr;
}

void Telescope::Candidate(const Registers& regs) {
  if (regs.last.size() != crypto::kDigestSize) {
    malformed_ = true;
    return;
  }
  candidates_.push_back(regs);
}

void Telescope::Add(const Registers& regs) {
  Pool(regs.sigma, regs.lctr);
  Candidate(regs);
}

bool Telescope::closed() const {
  if (malformed_) return false;
  for (const Registers& end : candidates_) {
    if (closure_ == Closure::kCounters) {
      if (end.gctr == lctr_sum_) return true;
      continue;
    }
    for (const Bytes& start : starts_) {
      if (XorBytes(start, end.last) == sigma_) return true;
    }
  }
  return false;
}

Status Telescope::Verdict(uint32_t user, const Registers& observer,
                          uint64_t epoch, const std::string& where) const {
  if (malformed_) {
    return Status::InvalidArgument("malformed register in " + where);
  }
  auto event = [&](util::AuditEventKind kind) {
    util::AuditEvent e(kind);
    e.user = user;
    e.ctr = observer.gctr;
    e.gctr = observer.gctr;
    e.epoch = epoch;
    e.lctr_sum = lctr_sum_;
    return e;
  };
  if (closed()) {
    util::AuditLog::Instance().Emit(event(util::AuditEventKind::kSyncUpPass));
    return Status::OK();
  }
  util::AuditEvent fail = event(util::AuditEventKind::kSyncUpFail);
  fail.detail = where + ": no participant's state explains the pooled "
                        "registers";
  util::AuditLog::Instance().Emit(std::move(fail));
  // The paper's fork signal: the pooled transitions do not telescope onto
  // a single path, so at least two users were shown diverging histories.
  util::AuditEvent fork = event(util::AuditEventKind::kForkDetected);
  if (closure_ == Closure::kFingerprints && !starts_.empty()) {
    fork.expected_digest = XorBytes(starts_.front(), observer.last);
    fork.actual_digest = sigma_;
  }
  fork.detail = "fork/partition detected at " + where;
  util::AuditLog::Instance().Emit(std::move(fork));
  return Status::DeviationDetected(
      where + " failed: the participants' observed transitions do not form "
              "a single serial history — the server forked or replayed state");
}

}  // namespace core
}  // namespace tcvs
