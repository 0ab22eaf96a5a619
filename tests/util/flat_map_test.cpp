// Differential test of util::FlatMap against std::map<std::string, V>.
//
// Seeded random sequences of every operation the code uses run on a FlatMap
// and on a std::map side by side. After each step the two must hold the
// same entries in the same order, and ==/< against a second random map
// (often a near copy, so comparisons reach deep) must agree. The keys
// differ by case, by prefix, by '_' and by a byte above 0x7f, and straddle
// the 15/16-character small-string edge, so a map that orders keys
// case-insensitively or as signed chars, or whose < looks at sizes first,
// fails here.
#include "src/util/flat_map.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "src/util/rng.hpp"

namespace dovado::util {
namespace {

const std::vector<std::string> kKeys = {
    "",
    "A",
    "a",
    "AB",
    "Ab",
    "ab",
    "a_b",
    "a_",
    "_a",
    "_",
    "B",
    "b",
    "Z",
    "z",
    "\xc3\xa9",              // a UTF-8 byte above 0x7f sorts after 'z'
    "DATA_WIDTH",
    "data_width",
    "DEPTH",
    "aaaaaaaaaaaaaaa",       // 15 characters: the last in-place string
    "aaaaaaaaaaaaaaaa",      // 16: the first heap string, a prefix extension
    "aaaaaaaaaaaaaab",       // 15
    "AAAAAAAAAAAAAAAA",      // 16
    "aaaaaaaaaaaaaaa_",      // 16
};

template <typename V>
V random_value(Xoshiro256& rng) {
  return static_cast<V>(static_cast<std::int64_t>(rng() % 7) - 3);
}

const std::string& random_key(Xoshiro256& rng) { return kKeys[rng() % kKeys.size()]; }

template <typename V>
std::vector<std::pair<std::string, V>> entries(const FlatMap<V>& m) {
  return {m.begin(), m.end()};
}
template <typename V>
std::vector<std::pair<std::string, V>> entries(const std::map<std::string, V>& m) {
  return {m.begin(), m.end()};
}

/// A map to compare against: half the time a copy of `base` with one entry
/// changed, added or removed, otherwise a fresh random map.
template <typename V>
std::map<std::string, V> random_other(const std::map<std::string, V>& base, Xoshiro256& rng) {
  std::map<std::string, V> other;
  if (rng() % 2 == 0) {
    other = base;
    switch (rng() % 4) {
      case 0: other[random_key(rng)] = random_value<V>(rng); break;
      case 1: other.erase(random_key(rng)); break;
      case 2: other.emplace(random_key(rng), random_value<V>(rng)); break;
      default: break;  // an equal map
    }
    return other;
  }
  const std::size_t n = rng() % 5;
  for (std::size_t i = 0; i < n; ++i) other[random_key(rng)] = random_value<V>(rng);
  return other;
}

template <typename V>
FlatMap<V> flat_copy(const std::map<std::string, V>& m) {
  FlatMap<V> out;
  for (const auto& [k, v] : m) out.emplace_hint(out.end(), k, v);
  return out;
}

template <typename V>
void run_sequence(std::uint64_t seed, int steps) {
  Xoshiro256 rng(seed);
  FlatMap<V> flat;
  std::map<std::string, V> ref;
  for (int step = 0; step < steps; ++step) {
    const std::string& key = random_key(rng);
    const V value = random_value<V>(rng);
    const int op = static_cast<int>(rng() % 11);
    SCOPED_TRACE("seed " + std::to_string(seed) + " step " + std::to_string(step) + " op " +
                 std::to_string(op) + " key '" + key + "'");
    switch (op) {
      case 0:
        flat[key] = value;
        ref[key] = value;
        break;
      case 1:
        ASSERT_EQ(flat[key], ref[key]);
        break;
      case 2: {
        const auto [fit, finserted] = flat.emplace(key, value);
        const auto [rit, rinserted] = ref.emplace(key, value);
        ASSERT_EQ(finserted, rinserted);
        ASSERT_EQ(fit->first, rit->first);
        ASSERT_EQ(fit->second, rit->second);
        break;
      }
      case 3: {
        const std::size_t at = rng() % (ref.size() + 1);
        const auto fit = flat.emplace_hint(std::next(flat.begin(), static_cast<long>(at)),
                                           key, value);
        const auto rit = ref.emplace_hint(std::next(ref.begin(), static_cast<long>(at)),
                                          key, value);
        ASSERT_EQ(fit->first, rit->first);
        ASSERT_EQ(fit->second, rit->second);
        break;
      }
      case 4: {
        std::string moved = key;
        const auto [fit, finserted] = flat.try_emplace(std::move(moved), value);
        const auto [rit, rinserted] = ref.try_emplace(key, value);
        ASSERT_EQ(finserted, rinserted);
        ASSERT_EQ(fit->first, rit->first);
        ASSERT_EQ(fit->second, rit->second);
        break;
      }
      case 5:
        ASSERT_EQ(flat.erase(key), ref.erase(key));
        break;
      case 6: {
        if (ref.empty()) break;
        const std::size_t at = rng() % ref.size();
        const auto fnext = flat.erase(std::next(flat.begin(), static_cast<long>(at)));
        const auto rnext = ref.erase(std::next(ref.begin(), static_cast<long>(at)));
        ASSERT_EQ(fnext == flat.end(), rnext == ref.end());
        if (rnext != ref.end()) {
          ASSERT_EQ(fnext->first, rnext->first);
        }
        break;
      }
      case 7: {
        const auto fit = flat.find(key);
        const auto rit = ref.find(key);
        ASSERT_EQ(fit == flat.end(), rit == ref.end());
        if (rit != ref.end()) {
          ASSERT_EQ(fit->second, rit->second);
        }
        break;
      }
      case 8: {
        bool fthrew = false;
        bool rthrew = false;
        V fv{};
        V rv{};
        try { fv = flat.at(key); } catch (const std::out_of_range&) { fthrew = true; }
        try { rv = ref.at(key); } catch (const std::out_of_range&) { rthrew = true; }
        ASSERT_EQ(fthrew, rthrew);
        ASSERT_EQ(fv, rv);
        break;
      }
      case 9:
        ASSERT_EQ(flat.count(key), ref.count(key));
        break;
      default:
        if (rng() % 8 == 0) {
          flat.clear();
          ref.clear();
        }
        break;
    }

    ASSERT_EQ(flat.size(), ref.size());
    ASSERT_EQ(flat.empty(), ref.empty());
    ASSERT_EQ(entries(flat), entries(ref));
    const std::map<std::string, V> converted = flat;
    ASSERT_TRUE(converted == ref);

    const std::map<std::string, V> other_ref = random_other(ref, rng);
    const FlatMap<V> other = flat_copy(other_ref);
    ASSERT_EQ(entries(other), entries(other_ref));
    ASSERT_EQ(flat == other, ref == other_ref);
    ASSERT_EQ(flat != other, ref != other_ref);
    ASSERT_EQ(flat < other, ref < other_ref);
    ASSERT_EQ(other < flat, other_ref < ref);
    const FlatMap<V> copy = flat;
    ASSERT_TRUE(copy == flat);
    ASSERT_FALSE(copy < flat);
  }
}

TEST(FlatMapDifferential, IntegerValuesMatchStdMap) {
  for (std::uint64_t seed = 1; seed <= 60 && !HasFatalFailure(); ++seed) {
    run_sequence<std::int64_t>(seed, 400);
  }
}

TEST(FlatMapDifferential, DoubleValuesMatchStdMap) {
  for (std::uint64_t seed = 101; seed <= 130 && !HasFatalFailure(); ++seed) {
    run_sequence<double>(seed, 400);
  }
}

TEST(FlatMapDifferential, InitializerListSortsAndKeepsTheFirstDuplicate) {
  Xoshiro256 rng(7);
  for (int round = 0; round < 500; ++round) {
    std::vector<std::pair<std::string, std::int64_t>> e;
    for (int i = 0; i < 6; ++i) e.emplace_back(random_key(rng), random_value<std::int64_t>(rng));
    const FlatMap<std::int64_t> flat = {e[0], e[1], e[2], e[3], e[4], e[5]};
    const std::map<std::string, std::int64_t> ref = {e[0], e[1], e[2], e[3], e[4], e[5]};
    ASSERT_EQ(entries(flat), entries(ref)) << "round " << round;
  }
}

}  // namespace
}  // namespace dovado::util
