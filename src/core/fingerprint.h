#pragma once

#include "crypto/sha256.h"
#include "mtree/vo.h"
#include "util/bytes.h"

namespace tcvs {
namespace core {

/// Reserved "creator" id of the initial database state D₀ (no user made it).
inline constexpr uint32_t kInitialCreator = 0;

/// \brief State fingerprint h(M(D) ‖ ctr ‖ creator) of Protocol II: the
/// database root digest, the operation counter, and the id of the user whose
/// operation produced this state. Tagging states with their creating user is
/// what forces in-degree ≤ 1 in the state-transition graph (Lemma 4.1 P2)
/// and defeats the Figure-3 replay.
crypto::Digest StateFingerprint(const crypto::Digest& root, uint64_t ctr,
                                uint32_t creator);

/// \brief Untagged fingerprint h(M(D) ‖ ctr): the "first attempt" the paper
/// shows insecure via the Figure-3 scenario. Kept as the ablation arm of
/// experiment F3.
crypto::Digest StateFingerprintUntagged(const crypto::Digest& root, uint64_t ctr);

/// \brief Fingerprint of the initial state (D₀, ctr=0), common knowledge to
/// all users.
crypto::Digest InitialFingerprint(bool tagged);

/// \brief Preimage the last writer signs in Protocol I: h(M(D) ‖ ctr).
Bytes SignedStatePreimage(const crypto::Digest& root, uint64_t ctr);

}  // namespace core
}  // namespace tcvs
