#include "collector/shard_index.h"

namespace dta::collector {

namespace {

bool entry_below_key(const IndexEntry& e, const proto::TelemetryKey& k) {
  return index_key_less(e.key, k);
}

}  // namespace

std::size_t ShardIndexVersion::first_leaf_not_below(
    const proto::TelemetryKey& key) const {
  // Leaves partition the key space in order; find the first leaf whose
  // last entry is >= key.
  std::size_t lo = 0, hi = leaves_.size();
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    const auto& entries = leaves_[mid]->entries;
    if (!entries.empty() && index_key_less(entries.back().key, key)) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

std::uint8_t ShardIndexVersion::lookup(const proto::TelemetryKey& key) const {
  const std::size_t leaf = first_leaf_not_below(key);
  if (leaf >= leaves_.size()) return 0;
  const auto& entries = leaves_[leaf]->entries;
  const auto it =
      std::lower_bound(entries.begin(), entries.end(), key, entry_below_key);
  if (it == entries.end() || it->key != key) return 0;
  return it->primitives;
}

ShardIndexBuilder::ShardIndexBuilder(std::uint32_t target_leaf_entries)
    : target_leaf_entries_(std::max<std::uint32_t>(target_leaf_entries, 2)) {}

void ShardIndexBuilder::apply(IndexDelta delta) {
  generation_ = std::max(generation_, delta.generation);
  for (const auto& [list, entries] : delta.append_deltas) {
    if (list >= append_heads_.size()) append_heads_.resize(list + 1, 0);
    append_heads_[list] += entries;
  }
  if (delta.keys.empty()) return;

  // Sort the delta's keys and OR-merge duplicate masks, so each
  // affected leaf is located and copied at most once per apply.
  std::vector<IndexEntry>& keys = delta.keys;
  std::sort(keys.begin(), keys.end(),
            [](const IndexEntry& a, const IndexEntry& b) {
              return index_key_less(a.key, b.key);
            });
  std::size_t unique = 0;
  for (std::size_t i = 1; i < keys.size(); ++i) {
    if (keys[i].key == keys[unique].key) {
      keys[unique].primitives |= keys[i].primitives;
    } else {
      keys[++unique] = keys[i];
    }
  }
  keys.resize(unique + 1);

  if (leaves_.empty()) {
    leaves_.push_back(std::make_shared<IndexLeaf>(IndexLeaf{std::move(keys)}));
    key_count_ = leaves_.back()->entries.size();
  } else {
    // Walk the sorted delta, grouping the run of keys that lands in one
    // leaf, and COW-merge that leaf once per group.
    std::size_t i = 0;
    while (i < keys.size()) {
      // Last leaf whose first entry is <= keys[i] (every leaf is
      // non-empty by construction).
      std::size_t lo = 0, hi = leaves_.size() - 1;
      while (lo < hi) {
        const std::size_t mid = lo + (hi - lo + 1) / 2;
        if (index_key_less(keys[i].key, leaves_[mid]->entries.front().key)) {
          hi = mid - 1;
        } else {
          lo = mid;
        }
      }
      const std::size_t target = lo;
      // The group: every delta key before the next leaf's first key.
      std::size_t j = i + 1;
      if (target + 1 < leaves_.size()) {
        const proto::TelemetryKey& next_first =
            leaves_[target + 1]->entries.front().key;
        while (j < keys.size() && index_key_less(keys[j].key, next_first)) {
          ++j;
        }
      } else {
        j = keys.size();
      }

      const std::vector<IndexEntry>& old = leaves_[target]->entries;
      // A group that adds no key and no mask bit leaves the leaf as it
      // is: shared with the published versions, not copied.
      bool changes = false;
      auto at = old.begin();
      for (std::size_t k = i; k < j && !changes; ++k) {
        at = std::lower_bound(at, old.end(), keys[k].key, entry_below_key);
        changes = at == old.end() || at->key != keys[k].key ||
                  (keys[k].primitives & ~at->primitives) != 0;
      }
      if (!changes) {
        i = j;
        continue;
      }
      auto merged = std::make_shared<IndexLeaf>();
      merged->entries.reserve(old.size() + (j - i));
      std::size_t a = 0, b = i;
      while (a < old.size() || b < j) {
        if (a == old.size()) {
          merged->entries.push_back(keys[b++]);
          ++key_count_;
        } else if (b == j) {
          merged->entries.push_back(old[a++]);
        } else if (index_key_less(old[a].key, keys[b].key)) {
          merged->entries.push_back(old[a++]);
        } else if (index_key_less(keys[b].key, old[a].key)) {
          merged->entries.push_back(keys[b++]);
          ++key_count_;
        } else {
          IndexEntry entry = old[a++];
          entry.primitives |= keys[b++].primitives;
          merged->entries.push_back(entry);
        }
      }
      ++leaf_copies_;
      leaves_[target] = std::move(merged);
      i = j;
    }
  }

  // Cut every leaf grown past 2 x target into ceil(n / target) even
  // pieces — a first or large delta can grow a leaf by any factor.
  // Only fresh, unshared leaves are ever oversized.
  const std::size_t cap = target_leaf_entries_;
  for (std::size_t l = 0; l < leaves_.size(); ++l) {
    const std::size_t n = leaves_[l]->entries.size();
    if (n <= 2 * cap) continue;
    const std::size_t pieces = (n + cap - 1) / cap;
    const auto first = leaves_[l]->entries.begin();
    std::vector<std::shared_ptr<const IndexLeaf>> cut;
    cut.reserve(pieces);
    for (std::size_t p = 0; p < pieces; ++p) {
      cut.push_back(std::make_shared<IndexLeaf>(
          IndexLeaf{{first + n * p / pieces, first + n * (p + 1) / pieces}}));
    }
    leaves_[l] = cut.front();
    leaves_.insert(leaves_.begin() + l + 1, cut.begin() + 1, cut.end());
    l += pieces - 1;
  }
}

std::shared_ptr<const ShardIndexVersion> ShardIndexBuilder::publish() const {
  return std::make_shared<const ShardIndexVersion>(generation_, leaves_,
                                                   append_heads_, key_count_);
}

}  // namespace dta::collector
