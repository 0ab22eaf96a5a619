// Parameter domains of the design space.
//
// The paper's formulation (Sec. III-B.1) is integer multi-objective
// optimization where "designers may apply further restrictions to the
// design space; for instance, they can limit the range of a given parameter
// to only power of two values" — reducing the explored volume and enforcing
// meaningful configurations. A ParamDomain is an ordered finite set of
// integers addressed by index; the optimizer searches index space and the
// domain decodes back to parameter values.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/util/flat_map.hpp"

namespace dovado::core {

/// A concrete design point: parameter name -> value.
using DesignPoint = util::FlatMap<std::int64_t>;

class ParamDomain {
 public:
  enum class Kind { kRange, kValues, kPowerOfTwo };

  /// Inclusive arithmetic range {lo, lo+step, ...} up to hi.
  [[nodiscard]] static ParamDomain range(std::int64_t lo, std::int64_t hi,
                                         std::int64_t step = 1);

  /// Explicit value list (kept in the given order, duplicates removed).
  [[nodiscard]] static ParamDomain values(std::vector<std::int64_t> values);

  /// {2^min_exp, ..., 2^max_exp} — the paper's power-of-two restriction.
  [[nodiscard]] static ParamDomain power_of_two(int min_exp, int max_exp);

  /// {0, 1} for boolean parameters (treated as integers per the paper).
  [[nodiscard]] static ParamDomain boolean() { return range(0, 1); }

  [[nodiscard]] Kind kind() const { return kind_; }

  /// Number of values in the domain (always >= 1 for a valid domain).
  [[nodiscard]] std::int64_t size() const;

  /// i-th value (0 <= i < size()); out-of-range indices are clamped.
  [[nodiscard]] std::int64_t value_at(std::int64_t index) const;

  /// Index of a value; nullopt when the value is not in the domain.
  [[nodiscard]] std::optional<std::int64_t> index_of(std::int64_t value) const;

  [[nodiscard]] bool contains(std::int64_t value) const { return index_of(value).has_value(); }

  /// Smallest/largest value in the domain (value lists may be unordered,
  /// so these scan rather than index).
  [[nodiscard]] std::int64_t min_value() const;
  [[nodiscard]] std::int64_t max_value() const;

  /// Raw arithmetic-range fields (meaningful for kRange only; the linter
  /// inspects them for unreachable-bound diagnostics).
  [[nodiscard]] std::int64_t range_lo() const { return lo_; }
  [[nodiscard]] std::int64_t range_hi() const { return hi_; }
  [[nodiscard]] std::int64_t range_step() const { return step_; }

  /// Human-readable description, e.g. "[8..512 step 4]" or "2^[1..15]".
  [[nodiscard]] std::string describe() const;

 private:
  ParamDomain() = default;
  Kind kind_ = Kind::kRange;
  std::int64_t lo_ = 0;
  std::int64_t hi_ = 0;
  std::int64_t step_ = 1;
  int min_exp_ = 0;
  int max_exp_ = 0;
  std::vector<std::int64_t> values_;
};

/// One free parameter of the design space.
struct ParamSpec {
  std::string name;
  ParamDomain domain;
};

/// An ordered collection of parameter specs (the search space).
struct DesignSpace {
  std::vector<ParamSpec> params;

  [[nodiscard]] std::size_t size() const { return params.size(); }

  /// Product of domain sizes (saturating at 2^62).
  [[nodiscard]] std::int64_t volume() const;

  /// Decode an index-space genome into a design point. Genome length must
  /// equal size(); indices are clamped into their domains.
  [[nodiscard]] DesignPoint decode(const std::vector<std::int64_t>& genome) const;

  /// Encode a design point into index space; nullopt if any parameter is
  /// missing or its value is outside its domain.
  [[nodiscard]] std::optional<std::vector<std::int64_t>> encode(
      const DesignPoint& point) const;
};

}  // namespace dovado::core
