#include "core/fingerprint.h"

#include "util/serde.h"

namespace tcvs {
namespace core {

crypto::Digest StateFingerprint(const crypto::Digest& root, uint64_t ctr,
                                uint32_t creator) {
  util::Writer w;
  w.PutRaw(root);
  w.PutU64(ctr);
  w.PutU32(creator);
  return crypto::Sha256::Hash(w.buffer());
}

crypto::Digest StateFingerprintUntagged(const crypto::Digest& root, uint64_t ctr) {
  util::Writer w;
  w.PutRaw(root);
  w.PutU64(ctr);
  return crypto::Sha256::Hash(w.buffer());
}

crypto::Digest InitialFingerprint(bool tagged) {
  crypto::Digest m0 = mtree::EmptyRootDigest();
  return tagged ? StateFingerprint(m0, 0, kInitialCreator)
                : StateFingerprintUntagged(m0, 0);
}

Bytes SignedStatePreimage(const crypto::Digest& root, uint64_t ctr) {
  util::Writer w;
  w.PutString("tcvs-p1-state");
  w.PutRaw(root);
  w.PutU64(ctr);
  return crypto::Sha256::Hash(w.buffer());
}

}  // namespace core
}  // namespace tcvs
