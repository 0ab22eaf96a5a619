// A string-keyed map kept as one sorted vector: the type of design points
// and metric sets on the evaluation path.
//
// An evaluation copies its point and its metric set from stage to stage
// (cache claim and publish, single-flight result, the lane's run, the
// explored list, the scoring ladder). A node-based std::map costs one heap
// allocation per entry on every copy; FlatMap costs one per copy, and two
// points compare as one contiguous walk. It keeps the std::map subset the
// code uses, with the same key order (std::string's operator<, bytewise),
// the same ==, and the same < (lexicographic over (key, value) pairs), so
// everything that writes, hashes or orders a point sees what a std::map
// would give it.
//
// Unlike std::map, an insert or erase moves elements: a reference or
// iterator into a FlatMap is invalidated by any insert or erase on it.
#pragma once

#include <algorithm>
#include <concepts>
#include <cstddef>
#include <initializer_list>
#include <map>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace dovado::util {

template <typename V>
class FlatMap {
 public:
  using value_type = std::pair<std::string, V>;
  using iterator = typename std::vector<value_type>::iterator;
  using const_iterator = typename std::vector<value_type>::const_iterator;

  FlatMap() = default;
  /// As std::map's: entries in any order; of duplicate keys the first wins.
  FlatMap(std::initializer_list<value_type> init) : items_(init) {
    std::stable_sort(items_.begin(), items_.end(), key_less);
    items_.erase(std::unique(items_.begin(), items_.end(),
                             [](const value_type& a, const value_type& b) {
                               return a.first == b.first;
                             }),
                 items_.end());
  }

  [[nodiscard]] iterator begin() { return items_.begin(); }
  [[nodiscard]] iterator end() { return items_.end(); }
  [[nodiscard]] const_iterator begin() const { return items_.begin(); }
  [[nodiscard]] const_iterator end() const { return items_.end(); }

  [[nodiscard]] std::size_t size() const { return items_.size(); }
  [[nodiscard]] bool empty() const { return items_.empty(); }
  void clear() { items_.clear(); }
  void reserve(std::size_t n) { items_.reserve(n); }

  [[nodiscard]] iterator find(std::string_view key) {
    auto it = lower_bound(key);
    return it != items_.end() && it->first == key ? it : items_.end();
  }
  [[nodiscard]] const_iterator find(std::string_view key) const {
    auto it = lower_bound(key);
    return it != items_.end() && it->first == key ? it : items_.end();
  }
  [[nodiscard]] std::size_t count(std::string_view key) const {
    return find(key) == end() ? 0 : 1;
  }

  [[nodiscard]] V& at(std::string_view key) {
    auto it = find(key);
    if (it == end()) throw std::out_of_range("FlatMap::at: no key '" + std::string(key) + "'");
    return it->second;
  }
  [[nodiscard]] const V& at(std::string_view key) const {
    auto it = find(key);
    if (it == end()) throw std::out_of_range("FlatMap::at: no key '" + std::string(key) + "'");
    return it->second;
  }

  /// Inserts {key, args...} unless `key` is present; the key is moved in
  /// when it is an rvalue std::string.
  template <typename K, typename... Args>
    requires std::convertible_to<const K&, std::string_view>
  std::pair<iterator, bool> try_emplace(K&& key, Args&&... args) {
    auto it = lower_bound(key);
    if (it != items_.end() && it->first == std::string_view(key)) return {it, false};
    it = items_.emplace(it, std::piecewise_construct,
                        std::forward_as_tuple(std::string(std::forward<K>(key))),
                        std::forward_as_tuple(std::forward<Args>(args)...));
    return {it, true};
  }
  template <typename K, typename... Args>
    requires std::convertible_to<const K&, std::string_view>
  std::pair<iterator, bool> emplace(K&& key, Args&&... args) {
    return try_emplace(std::forward<K>(key), std::forward<Args>(args)...);
  }
  /// O(1) when `key` belongs right before `hint` (appending in key order
  /// with end() as the hint); a plain search otherwise.
  template <typename K, typename... Args>
    requires std::convertible_to<const K&, std::string_view>
  iterator emplace_hint(const_iterator hint, K&& key, Args&&... args) {
    const std::string_view k(key);
    if ((hint == items_.cbegin() || std::prev(hint)->first < k) &&
        (hint == items_.cend() || k < hint->first)) {
      return items_.emplace(hint, std::piecewise_construct,
                            std::forward_as_tuple(std::string(std::forward<K>(key))),
                            std::forward_as_tuple(std::forward<Args>(args)...));
    }
    return try_emplace(std::forward<K>(key), std::forward<Args>(args)...).first;
  }

  template <typename K>
    requires std::convertible_to<const K&, std::string_view>
  V& operator[](K&& key) {
    return try_emplace(std::forward<K>(key)).first->second;
  }

  std::size_t erase(std::string_view key) {
    auto it = find(key);
    if (it == end()) return 0;
    items_.erase(it);
    return 1;
  }
  iterator erase(const_iterator pos) { return items_.erase(pos); }

  friend bool operator==(const FlatMap& a, const FlatMap& b) { return a.items_ == b.items_; }
  friend bool operator<(const FlatMap& a, const FlatMap& b) {
    return std::lexicographical_compare(a.begin(), a.end(), b.begin(), b.end());
  }

  /// The one conversion: perfbench's output checker takes a
  /// `const std::map<std::string, double>&` (perfbench/workloads.cpp,
  /// Checker::check) and is handed EvalMetrics::values and a serve
  /// response's metrics. Nothing converts the other way.
  operator std::map<std::string, V>() const { return {items_.begin(), items_.end()}; }

 private:
  iterator lower_bound(std::string_view key) {
    return std::lower_bound(items_.begin(), items_.end(), key, entry_less);
  }
  const_iterator lower_bound(std::string_view key) const {
    return std::lower_bound(items_.begin(), items_.end(), key, entry_less);
  }
  static bool key_less(const value_type& a, const value_type& b) { return a.first < b.first; }
  static bool entry_less(const value_type& a, std::string_view key) { return a.first < key; }

  std::vector<value_type> items_;
};

}  // namespace dovado::util
