#pragma once

#include <memory>
#include <string>

#include "crypto/sha256.h"
#include "util/bytes.h"
#include "util/result.h"

namespace tcvs {
namespace crypto {

/// Identifies a signature scheme on the wire.
enum class SchemeId : uint8_t {
  kLamport = 1,
  kWinternitz = 2,
  kMerkleSig = 3,
};

std::string_view SchemeIdToString(SchemeId id);

/// \brief A signing key. Hash-based schemes are *stateful*: each Sign call
/// may consume a one-time key, so Sign is non-const and can fail with
/// FailedPrecondition once the key is exhausted.
class Signer {
 public:
  virtual ~Signer() = default;

  /// Signs `message` (arbitrary length; schemes hash it internally).
  virtual Result<Bytes> Sign(const Bytes& message) = 0;

  /// Serialized public key for distribution / certificates.
  virtual const Bytes& public_key() const = 0;

  virtual SchemeId scheme() const = 0;

  /// How many more messages this key can sign (one-time keys return 1 or 0;
  /// many-time keys return the remaining leaf count).
  virtual uint64_t remaining_signatures() const = 0;
};

/// \brief Verifies `signature` over `message` under `public_key` for the
/// scheme identified by `scheme`.
///
/// \return OK if valid; VerificationFailure if the signature does not verify;
///         InvalidArgument if the signature is malformed.
Status Verify(SchemeId scheme, const Bytes& public_key, const Bytes& message,
              const Bytes& signature);

}  // namespace crypto
}  // namespace tcvs
