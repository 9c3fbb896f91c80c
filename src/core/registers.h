#pragma once

#include <string>
#include <vector>

#include "crypto/sha256.h"
#include "util/bytes.h"
#include "util/status.h"
#include "util/taint_annotations.h"

namespace tcvs {
namespace core {

/// \brief One user's protocol registers (§4.2–4.4): σ, the XOR of every
/// state fingerprint its transactions consumed or produced; `last`, the
/// fingerprint of the state its latest transaction produced; gctr, the
/// counter it expects next; lctr, how many transactions it ran.
///
/// The simulator's ProtocolUser and the deployed cvs::VerifyingClient both
/// hold one, so the fold the campaigns exercise is the fold tcvs runs.
struct Registers {
  Bytes sigma;
  Bytes last;
  uint64_t gctr = 0;
  uint64_t lctr = 0;

  /// σ = 0 and last = f0, the fingerprint of the initial state every user
  /// knows (InitialFingerprint).
  static Registers Initial(bool tagged);

  /// Folds one verified transaction that took the database from the state
  /// fingerprinted `pre_fp` (counter `ctr`) to `post_fp` (counter ctr + 1):
  /// σ ⊕= pre_fp ⊕ post_fp, last = post_fp, then Count(ctr). The
  /// fingerprints must derive from an endorsed reply — this is the register
  /// trusted sink.
  TCVS_TRUSTED_SINK void Fold(const crypto::Digest& pre_fp,
                              const crypto::Digest& post_fp, uint64_t ctr);

  /// The counter half of Fold (gctr = ctr + 1, lctr += 1), alone for the
  /// protocols that keep no fingerprint registers.
  void Count(uint64_t ctr);

  bool operator==(const Registers&) const = default;
};

/// How a sync-up decides that pooled registers describe one serial history.
enum class Closure : uint8_t {
  /// Protocol I: some participant's gctr equals Σ lctr.
  kCounters,
  /// Protocols II/III (Lemma 4.1): ⊕σ equals start ⊕ last for some start
  /// fingerprint and some participant's last — on a single path every
  /// interior state cancels, leaving only the path's two ends.
  kFingerprints,
};

/// \brief The XOR-telescope sync-up check, the one implementation behind
/// the broadcast and aggregation-tree sync-ups, Protocol III's epoch audit
/// and the deployed client's SyncCheck.
///
/// Pool() accumulates ⊕σ and Σ lctr; Candidate() offers a possible end of
/// the history; the check closes when the pool closes on some candidate. A
/// register of the wrong size — a malformed peer report — marks the check
/// malformed instead of aborting, so it surfaces as a detection.
class Telescope {
 public:
  /// `starts` are the fingerprints a serial history may begin at: f0, or
  /// Protocol III's previous-epoch `last`s. kCounters ignores them.
  Telescope(Closure closure, std::vector<Bytes> starts);

  /// Pools one σ and lctr: a participant's registers, or a subtree's
  /// aggregate in the aggregation tree.
  void Pool(const Bytes& sigma, uint64_t lctr);
  /// Offers `regs` as the end of the history.
  void Candidate(const Registers& regs);
  /// Pool and Candidate for one participant's reported registers.
  void Add(const Registers& regs);

  bool malformed() const { return malformed_; }
  bool closed() const;
  const Bytes& sigma() const { return sigma_; }
  uint64_t lctr_sum() const { return lctr_sum_; }

  /// Records the verdict in the audit log, naming `user` as the reporter,
  /// `observer`'s gctr and `epoch`; `where` names the check in details.
  /// Closed: one kSyncUpPass. Open: kSyncUpFail plus kForkDetected whose
  /// digest pair is what the history would fold to had it ended at
  /// `observer` (first start ⊕ observer.last) against the pooled ⊕σ
  /// (kCounters has no digests to offer).
  /// \return OK when closed; InvalidArgument, with no events, when
  ///         malformed; DeviationDetected otherwise.
  Status Verdict(uint32_t user, const Registers& observer, uint64_t epoch,
                 const std::string& where) const;

 private:
  Closure closure_;
  std::vector<Bytes> starts_;
  std::vector<Registers> candidates_;
  Bytes sigma_;
  uint64_t lctr_sum_ = 0;
  bool malformed_ = false;
};

}  // namespace core
}  // namespace tcvs
