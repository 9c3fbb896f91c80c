#pragma once

#include "crypto/signature.h"

namespace tcvs {
namespace crypto {

/// \brief Parameters of a Winternitz one-time signature.
///
/// `w` is the number of message bits consumed per hash chain; larger w means
/// shorter signatures but longer chains (2^w − 1 hash steps). Supported
/// values: 1, 2, 4, 8.
struct WotsParams {
  int w = 4;

  /// Chains covering the 256-bit message digest.
  size_t message_chains() const { return (256 + w - 1) / w; }
  /// Maximum chunk value = chain length.
  uint32_t chain_len() const { return (1u << w) - 1; }
  /// Chains covering the checksum.
  size_t checksum_chains() const;
  size_t total_chains() const { return message_chains() + checksum_chains(); }
};

/// \brief Advances chains[i] by steps[i] hash applications: chains[i] ←
/// cᵏ(chains[i]) with k = steps[i]. The chains are independent, so instead
/// of walking them one at a time, every still-active chain takes one step
/// per round through the multi-buffer SHA-256 engine (HashManyInto) — the
/// amortization behind WOTS keygen, signing and verification. The result is
/// bit-identical to the sequential walk.
void AdvanceChains(std::vector<Digest>* chains, std::vector<uint32_t> steps);

/// \brief Winternitz one-time signatures (WOTS) with a *compressed* 32-byte
/// public key: pk = H(end₀ ‖ end₁ ‖ … ‖ end_{L−1}).
///
/// The compressed key is what makes WOTS the right leaf primitive for the
/// Merkle signature scheme (merkle_sig.h).
class WinternitzSigner : public Signer {
 public:
  WinternitzSigner(const Bytes& seed, WotsParams params = WotsParams{});

  Result<Bytes> Sign(const Bytes& message) override;
  const Bytes& public_key() const override { return public_key_; }
  SchemeId scheme() const override { return SchemeId::kWinternitz; }
  uint64_t remaining_signatures() const override { return used_ ? 0 : 1; }

  const WotsParams& params() const { return params_; }

  /// Recomputes the compressed public key implied by `signature` on
  /// `message`. The caller compares it against a trusted key (directly or
  /// through a Merkle authentication path).
  static Result<Bytes> PublicKeyFromSignature(const Bytes& message,
                                              const Bytes& signature,
                                              WotsParams params = WotsParams{});

  /// Verifies against an explicit public key; see crypto::Verify.
  static Status VerifySignature(const Bytes& public_key, const Bytes& message,
                                const Bytes& signature,
                                WotsParams params = WotsParams{});

  /// Splits H(message) into base-2^w chunks followed by checksum chunks.
  /// Exposed for tests.
  static std::vector<uint32_t> Chunks(const Digest& md, const WotsParams& params);

 private:
  WotsParams params_;
  Bytes seed_;
  Bytes public_key_;  // 32 bytes, compressed.
  bool used_ = false;
};

}  // namespace crypto
}  // namespace tcvs
