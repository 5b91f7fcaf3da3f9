// The lock-free ring behind EventLog and SlowQueryLog: a fixed power-of-two
// array of slots, overwrite-oldest, with a seqlock stamp per slot. Every
// byte readers can observe is an atomic word, so the rings are TSan-clean
// without locks and a reader never writes shared state.
//
// Writers take tickets from one counter; ticket t writes slot t % capacity.
// The stamp is odd (t*2+1) while a writer owns the slot and t*2+2 once the
// record is published. A writer claims its slot by CAS, and only from an
// older published stamp: when the ring has wrapped onto a slot an older
// writer is still filling, or a newer ticket got there first, the record is
// dropped rather than two writers sharing the slot. The stamp is therefore
// monotone per slot, so a reader that sees ticket t's published stamp both
// before and after copying the slot holds an untorn record.
#ifndef XDB_OBS_SEQLOCK_RING_H_
#define XDB_OBS_SEQLOCK_RING_H_

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

namespace xdb {
namespace obs {

/// Writer: CAS-claims `stamp` for `ticket`; false means drop the record.
bool ClaimSlot(std::atomic<uint64_t>* stamp, uint64_t ticket);
/// Reader, after copying a slot whose stamp was `ticket`'s published one:
/// true when no writer touched the slot during the copy.
bool SlotUnchanged(const std::atomic<uint64_t>& stamp, uint64_t ticket);

/// A string of at most kCap bytes held in a slot as atomic words. Store
/// truncates; a Load racing a writer may return garbage, which the
/// reader's SlotUnchanged check discards.
template <size_t kCap>
class InlineString {
  static_assert(kCap % 8 == 0, "capacity must be a whole number of words");

 public:
  void Store(const std::string& s) {
    const size_t len = std::min(s.size(), kCap);
    len_.store(len, std::memory_order_relaxed);
    for (size_t i = 0; i * 8 < len; ++i) {
      uint64_t word = 0;
      std::memcpy(&word, s.data() + i * 8, std::min<size_t>(8, len - i * 8));
      words_[i].store(word, std::memory_order_relaxed);
    }
  }

  std::string Load() const {
    const size_t len = std::min<size_t>(
        static_cast<size_t>(len_.load(std::memory_order_relaxed)), kCap);
    char buf[kCap];
    for (size_t i = 0; i * 8 < len; ++i) {
      const uint64_t word = words_[i].load(std::memory_order_relaxed);
      std::memcpy(buf + i * 8, &word, std::min<size_t>(8, len - i * 8));
    }
    return std::string(buf, len);
  }

 private:
  std::atomic<uint64_t> len_{0};
  std::array<std::atomic<uint64_t>, kCap / 8> words_{};
};

/// `Slot` is a struct of atomic fields with a `std::atomic<uint64_t> stamp`.
template <typename Slot>
class SeqlockRing {
 public:
  /// `capacity` is rounded up to a power of two (minimum 8).
  explicit SeqlockRing(size_t capacity)
      : slots_(std::max<size_t>(8, std::bit_ceil(capacity))),
        mask_(slots_.size() - 1) {}

  /// Never blocks: fill(Slot&) stores the record's fields into the next
  /// ticket's slot, which is then published; a record whose slot cannot be
  /// claimed is dropped.
  template <typename Fill>
  void Write(const Fill& fill) {
    const uint64_t ticket = next_.fetch_add(1, std::memory_order_relaxed);
    Slot& slot = slots_[ticket & mask_];
    if (!ClaimSlot(&slot.stamp, ticket)) return;
    fill(slot);
    // Release: a reader that sees the published stamp sees every field.
    slot.stamp.store(ticket * 2 + 2, std::memory_order_release);
  }

  /// The newest records, at most `max`, oldest first: read(const Slot&)
  /// copies a slot into a T, whose `seq` is set to the ticket. Slots being
  /// overwritten, and dropped records, are skipped.
  template <typename T, typename Read>
  std::vector<T> Recent(size_t max, const Read& read) const {
    const uint64_t head = next_.load(std::memory_order_acquire);
    uint64_t first = head > slots_.size() ? head - slots_.size() : 0;
    if (head - first > max) first = head - max;
    std::vector<T> out;
    out.reserve(static_cast<size_t>(head - first));
    for (uint64_t ticket = first; ticket < head; ++ticket) {
      const Slot& slot = slots_[ticket & mask_];
      if (slot.stamp.load(std::memory_order_acquire) != ticket * 2 + 2)
        continue;
      T record = read(slot);
      if (!SlotUnchanged(slot.stamp, ticket)) continue;
      record.seq = ticket;
      out.push_back(std::move(record));
    }
    return out;
  }

  /// Records ever written, dropped ones included.
  uint64_t written() const { return next_.load(std::memory_order_relaxed); }
  /// Records pushed out of the ring since construction.
  uint64_t overwritten() const {
    const uint64_t head = written();
    return head > slots_.size() ? head - slots_.size() : 0;
  }
  size_t capacity() const { return slots_.size(); }

 private:
  std::vector<Slot> slots_;
  size_t mask_;
  std::atomic<uint64_t> next_{0};  // next ticket == total written
};

}  // namespace obs
}  // namespace xdb

#endif  // XDB_OBS_SEQLOCK_RING_H_
