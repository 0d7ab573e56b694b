#ifndef OLITE_RDB_VALUE_H_
#define OLITE_RDB_VALUE_H_

#include <compare>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

namespace olite::rdb {

/// Column type of the relational engine.
enum class ValueType : uint8_t { kInt, kDouble, kString };

const char* ValueTypeName(ValueType t);

/// Shortest decimal rendering of `v` that parses back (strtod) to the
/// identical double — `%.15g` … `%.17g`, first precision that round-trips.
std::string FormatDoubleRoundTrip(double v);

/// A typed SQL value. Its identity is the individual the mappings make of
/// it: two values are the same when they have the same type and the same
/// `ToName`. So INT compares by value and TEXT by bytes, and DOUBLE by bit
/// pattern with every NaN of one sign folded into one: +0.0 ("0") and
/// -0.0 ("-0") are two values, and every NaN of one sign ("nan", "-nan")
/// is one. `==`, `<` and `Hash` all derive from that identity, and every
/// layer (joins, filters, distinct rows, the source index and constraint
/// inference) compares through them.
///
/// Values of different types are never the same, although the chase names
/// `Int(1)`, `Double(1.0)` and `Str("1")` alike ("1"); a column has one
/// type, so this only separates values of columns of different types.
class Value {
 public:
  Value() : data_(int64_t{0}) {}
  explicit Value(int64_t v) : data_(v) {}
  explicit Value(double v) : data_(DoubleKey::Of(v)) {}
  explicit Value(std::string v) : data_(std::move(v)) {}
  static Value Int(int64_t v) { return Value(v); }
  static Value Double(double v) { return Value(v); }
  static Value Str(std::string v) { return Value(std::move(v)); }

  ValueType type() const { return static_cast<ValueType>(data_.index()); }
  int64_t AsInt() const { return std::get<int64_t>(data_); }
  double AsDouble() const { return std::get<DoubleKey>(data_).Get(); }
  const std::string& AsString() const { return std::get<std::string>(data_); }

  /// SQL-literal rendering: strings are single-quoted.
  std::string ToString() const;

  /// Individual-name rendering for answer tuples and ABox materialisation:
  /// strings verbatim, numbers in round-trip precision (distinct doubles
  /// always render distinctly — `std::to_string`'s fixed 6 digits do not).
  std::string ToName() const;

  /// The inverse of `ToName`: the value of type `type` that renders to
  /// `name`, or nullopt when there is none (e.g. "007" or "1e5" for INT,
  /// "1e5" for DOUBLE, whose names are "7" and "100000").
  static std::optional<Value> FromName(std::string_view name, ValueType type);

  bool operator==(const Value& o) const { return data_ == o.data_; }
  /// Total order that agrees with `==`: by type tag, then INT and DOUBLE
  /// numerically (-0.0 before +0.0, -NaN first and +NaN last) and TEXT by
  /// bytes.
  bool operator<(const Value& o) const { return data_ < o.data_; }

  /// 64-bit hash; equal values hash equally. INT and DOUBLE mix their 64
  /// bits (DOUBLE offset by a constant, so an INT and a DOUBLE of one bit
  /// pattern hash apart), TEXT is FNV-1a.
  uint64_t Hash() const;

 private:
  /// A DOUBLE stored as its identity: the bit pattern with every NaN of
  /// one sign folded into one, mapped so that unsigned order is the total
  /// order above.
  struct DoubleKey {
    static DoubleKey Of(double d);
    double Get() const;
    auto operator<=>(const DoubleKey&) const = default;
    uint64_t key;
  };

  std::variant<int64_t, DoubleKey, std::string> data_;
};

/// Hasher for hashed containers keyed by `Value`.
struct ValueHasher {
  size_t operator()(const Value& v) const {
    return static_cast<size_t>(v.Hash());
  }
};

/// Hasher for hashed containers keyed by a tuple of values (a `Row` or a
/// join key): combines the element hashes order-sensitively.
struct ValueVecHasher {
  size_t operator()(const std::vector<Value>& vs) const;
};

}  // namespace olite::rdb

#endif  // OLITE_RDB_VALUE_H_
