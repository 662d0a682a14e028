#ifndef STARBURST_COMMON_STRIPED_SET_H_
#define STARBURST_COMMON_STRIPED_SET_H_

#include <cstddef>
#include <mutex>
#include <unordered_set>
#include <vector>

namespace starburst {

/// A concurrent hash set striped across independently locked shards, used
/// as the work-stealing explorer's shared visited set / interner: a state
/// interned by ANY worker is seen by every other worker, so states shared
/// between subtrees are counted once globally.
///
/// Each key hashes to exactly one stripe (its own mutex + unordered_set),
/// so two inserts contend only when their keys land on the same stripe —
/// with the explorer's 128-bit fingerprints the stripe index is uniformly
/// distributed and contention stays near zero for any realistic worker
/// count. Insert() takes the stripe lock with try_lock first and counts
/// the misses, feeding the explorer's contention histogram.
///
/// Thread-safety: Insert() may be called concurrently from any number of
/// threads. Size() and ContendedLocks() sum per-stripe values under the
/// stripe locks; they are intended for quiesced use (after a parallel
/// region joins) where they are exact.
template <typename Key, typename Hasher>
class StripedHashSet {
 public:
  /// `stripes` is rounded up to a power of two (minimum 1).
  explicit StripedHashSet(size_t stripes = kDefaultStripes) {
    size_t n = 1;
    while (n < stripes) n <<= 1;
    stripes_ = std::vector<Stripe>(n);
    mask_ = n - 1;
  }

  /// Inserts `key`; returns true when the key was not present (fresh).
  bool Insert(const Key& key) {
    Stripe& s = stripes_[hasher_(key) & mask_];
    std::unique_lock<std::mutex> lock(s.mu, std::try_to_lock);
    if (!lock.owns_lock()) {
      lock.lock();
      ++s.contended;  // counted under the lock; the miss already happened
    }
    return s.keys.insert(key).second;
  }

  /// True when `key` is present (point-in-time answer under concurrency).
  bool Contains(const Key& key) const {
    const Stripe& s = stripes_[hasher_(key) & mask_];
    std::lock_guard<std::mutex> lock(s.mu);
    return s.keys.count(key) != 0;
  }

  /// Total keys across all stripes.
  size_t Size() const {
    size_t total = 0;
    for (const Stripe& s : stripes_) {
      std::lock_guard<std::mutex> lock(s.mu);
      total += s.keys.size();
    }
    return total;
  }

  /// Total Insert() calls that found their stripe lock held.
  long ContendedLocks() const {
    long total = 0;
    for (const Stripe& s : stripes_) {
      std::lock_guard<std::mutex> lock(s.mu);
      total += s.contended;
    }
    return total;
  }

  size_t num_stripes() const { return stripes_.size(); }

 private:
  static constexpr size_t kDefaultStripes = 64;

  struct Stripe {
    mutable std::mutex mu;
    std::unordered_set<Key, Hasher> keys;
    long contended = 0;
  };

  Hasher hasher_;
  std::vector<Stripe> stripes_;
  size_t mask_ = 0;
};

}  // namespace starburst

#endif  // STARBURST_COMMON_STRIPED_SET_H_
