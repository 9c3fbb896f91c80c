#include "crypto/winternitz.h"

#include "crypto/hmac.h"

namespace tcvs {
namespace crypto {

namespace {

// Domain-separation tag for WOTS chain starts ("w0ts" in ASCII).
constexpr uint64_t kWotsDomain = 0x77307473ULL;

Digest ChainStart(const Bytes& seed, size_t chain_index) {
  return Prf2(seed, kWotsDomain, chain_index);
}

// Compresses chain ends into the 32-byte public key: H(end₀ ‖ … ‖ endₙ).
Bytes FoldPublicKey(const std::vector<Digest>& ends) {
  Sha256 h;
  for (const Digest& end : ends) h.Update(end);
  return h.Finish();
}

}  // namespace

void AdvanceChains(std::vector<Digest>* chains, std::vector<uint32_t> steps) {
  std::vector<const Bytes*> active;
  std::vector<size_t> index;
  std::vector<Digest> out;
  active.reserve(chains->size());
  index.reserve(chains->size());
  for (;;) {
    active.clear();
    index.clear();
    for (size_t i = 0; i < chains->size(); ++i) {
      if (steps[i] > 0) {
        active.push_back(&(*chains)[i]);
        index.push_back(i);
      }
    }
    if (active.empty()) return;
    out.resize(active.size());
    HashManyInto(active.data(), active.size(), out.data());
    for (size_t k = 0; k < active.size(); ++k) {
      (*chains)[index[k]] = std::move(out[k]);
      --steps[index[k]];
    }
  }
}

size_t WotsParams::checksum_chains() const {
  // Max checksum value: message_chains() * chain_len().
  uint64_t max_checksum = uint64_t(message_chains()) * chain_len();
  size_t digits = 0;
  uint64_t v = max_checksum;
  while (v > 0) {
    ++digits;
    v >>= w;
  }
  return digits == 0 ? 1 : digits;
}

std::vector<uint32_t> WinternitzSigner::Chunks(const Digest& md,
                                               const WotsParams& params) {
  std::vector<uint32_t> chunks;
  chunks.reserve(params.total_chains());
  const int w = params.w;
  const uint32_t mask = params.chain_len();
  // Message chunks, MSB-first within each byte.
  int bits_taken = 0;
  uint32_t acc = 0;
  int acc_bits = 0;
  size_t byte_idx = 0;
  while (bits_taken < 256) {
    while (acc_bits < w && byte_idx < md.size()) {
      acc = (acc << 8) | md[byte_idx++];
      acc_bits += 8;
    }
    chunks.push_back((acc >> (acc_bits - w)) & mask);
    acc_bits -= w;
    acc &= (acc_bits > 0) ? ((1u << acc_bits) - 1) : 0;
    bits_taken += w;
  }
  // Checksum chunks (base-2^w little-endian digits of the checksum).
  uint64_t checksum = 0;
  for (uint32_t c : chunks) checksum += params.chain_len() - c;
  for (size_t i = 0; i < params.checksum_chains(); ++i) {
    chunks.push_back(static_cast<uint32_t>(checksum & mask));
    checksum >>= w;
  }
  return chunks;
}

WinternitzSigner::WinternitzSigner(const Bytes& seed, WotsParams params)
    : params_(params), seed_(seed) {
  std::vector<Digest> chains;
  chains.reserve(params_.total_chains());
  for (size_t i = 0; i < params_.total_chains(); ++i) {
    chains.push_back(ChainStart(seed_, i));
  }
  AdvanceChains(&chains, std::vector<uint32_t>(params_.total_chains(),
                                              params_.chain_len()));
  public_key_ = FoldPublicKey(chains);
}

Result<Bytes> WinternitzSigner::Sign(const Bytes& message) {
  if (used_) {
    return Status::FailedPrecondition("Winternitz key already used");
  }
  used_ = true;
  Digest md = Sha256::Hash(message);
  std::vector<uint32_t> chunks = Chunks(md, params_);
  std::vector<Digest> chains;
  chains.reserve(chunks.size());
  for (size_t i = 0; i < chunks.size(); ++i) {
    chains.push_back(ChainStart(seed_, i));
  }
  AdvanceChains(&chains, chunks);
  Bytes sig;
  sig.reserve(chains.size() * kDigestSize);
  for (const auto& chain : chains) util::Append(&sig, chain);
  return sig;
}

Result<Bytes> WinternitzSigner::PublicKeyFromSignature(const Bytes& message,
                                                       const Bytes& signature,
                                                       WotsParams params) {
  Digest md = Sha256::Hash(message);
  std::vector<uint32_t> chunks = Chunks(md, params);
  if (signature.size() != chunks.size() * kDigestSize) {
    return Status::InvalidArgument("Winternitz signature has wrong size");
  }
  // Chain i holds the signature's i-th value; chain_len − chunk steps remain
  // to reach its end.
  std::vector<Digest> chains;
  std::vector<uint32_t> steps;
  chains.reserve(chunks.size());
  steps.reserve(chunks.size());
  for (size_t i = 0; i < chunks.size(); ++i) {
    chains.emplace_back(signature.begin() + i * kDigestSize,
                        signature.begin() + (i + 1) * kDigestSize);
    steps.push_back(params.chain_len() - chunks[i]);
  }
  AdvanceChains(&chains, std::move(steps));
  return FoldPublicKey(chains);
}

Status WinternitzSigner::VerifySignature(const Bytes& public_key,
                                         const Bytes& message,
                                         const Bytes& signature, WotsParams params) {
  TCVS_ASSIGN_OR_RETURN(Bytes implied,
                        PublicKeyFromSignature(message, signature, params));
  if (!util::ConstantTimeEqual(implied, public_key)) {
    return Status::VerificationFailure("Winternitz signature mismatch");
  }
  return Status::OK();
}

}  // namespace crypto
}  // namespace tcvs
