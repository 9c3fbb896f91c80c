#include "crypto/signature.h"

#include <string>

#include "crypto/lamport.h"
#include "crypto/merkle_sig.h"
#include "crypto/winternitz.h"
#include "util/audit.h"
#include "util/cost.h"

namespace tcvs {
namespace crypto {

std::string_view SchemeIdToString(SchemeId id) {
  switch (id) {
    case SchemeId::kLamport:
      return "Lamport";
    case SchemeId::kWinternitz:
      return "Winternitz";
    case SchemeId::kMerkleSig:
      return "MerkleSig";
  }
  return "Unknown";
}

namespace {

/// Every failed verification, whatever the scheme, is security-significant:
/// this dispatcher is the one choke point all schemes pass through.
Status Audited(SchemeId scheme, Status st) {
  if (!st.ok()) {
    util::AuditEvent event(util::AuditEventKind::kSignatureVerifyFailure);
    event.detail =
        std::string(SchemeIdToString(scheme)) + ": " + st.ToString();
    util::AuditLog::Instance().Emit(std::move(event));
  }
  return st;
}

}  // namespace

Status Verify(SchemeId scheme, const Bytes& public_key, const Bytes& message,
              const Bytes& signature) {
  if (util::CostCounters* cost = util::CurrentCostCounters()) {
    cost->sig_verifies++;
  }
  switch (scheme) {
    case SchemeId::kLamport:
      return Audited(scheme, LamportSigner::VerifySignature(public_key, message,
                                                            signature));
    case SchemeId::kWinternitz:
      return Audited(scheme, WinternitzSigner::VerifySignature(
                                 public_key, message, signature));
    case SchemeId::kMerkleSig:
      return Audited(scheme, MerkleSigner::VerifySignature(public_key, message,
                                                           signature));
  }
  return Status::InvalidArgument("unknown signature scheme");
}

}  // namespace crypto
}  // namespace tcvs
