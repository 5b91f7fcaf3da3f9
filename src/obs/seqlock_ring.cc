#include "obs/seqlock_ring.h"

namespace xdb {
namespace obs {

bool ClaimSlot(std::atomic<uint64_t>* stamp, uint64_t ticket) {
  const uint64_t claimed = ticket * 2 + 1;
  uint64_t cur = stamp->load(std::memory_order_relaxed);
  while ((cur & 1) == 0 && cur < claimed) {
    // Acquire: the previous owner's field stores happen before ours, so ours
    // come later in every field's modification order.
    if (stamp->compare_exchange_strong(cur, claimed,
                                      std::memory_order_acquire,
                                      std::memory_order_relaxed)) {
      // Orders the claim before the field stores that follow: a reader that
      // copies any of them then sees the claim (or later) in SlotUnchanged.
      std::atomic_thread_fence(std::memory_order_release);
      return true;
    }
  }
  return false;
}

bool SlotUnchanged(const std::atomic<uint64_t>& stamp, uint64_t ticket) {
  std::atomic_thread_fence(std::memory_order_acquire);
  return stamp.load(std::memory_order_relaxed) == ticket * 2 + 2;
}

}  // namespace obs
}  // namespace xdb
