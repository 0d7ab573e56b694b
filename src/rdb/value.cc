#include "rdb/value.h"

#include <bit>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "common/hash.h"

namespace olite::rdb {

const char* ValueTypeName(ValueType t) {
  switch (t) {
    case ValueType::kInt: return "INT";
    case ValueType::kDouble: return "DOUBLE";
    case ValueType::kString: return "TEXT";
  }
  return "?";
}

std::string FormatDoubleRoundTrip(double v) {
  // Shortest %g rendering that parses back to the identical double
  // (std::to_string's fixed 6 digits collapses distinct values): 15
  // significant digits suffice for most doubles, 17 always do.
  char buf[40];
  for (int precision = 15; precision <= 17; ++precision) {
    std::snprintf(buf, sizeof(buf), "%.*g", precision, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  return buf;
}

namespace {

uint64_t Mix(uint64_t x) {  // splitmix64 finaliser
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

constexpr uint64_t kSignBit = uint64_t{1} << 63;

}  // namespace

Value::DoubleKey Value::DoubleKey::Of(double d) {
  uint64_t bits = std::bit_cast<uint64_t>(d);
  if (std::isnan(d)) bits = (bits & kSignBit) | 0x7ff8000000000000ULL;
  return {(bits & kSignBit) != 0 ? ~bits : bits | kSignBit};
}

double Value::DoubleKey::Get() const {
  return std::bit_cast<double>((key & kSignBit) != 0 ? key ^ kSignBit : ~key);
}

uint64_t Value::Hash() const {
  switch (type()) {
    case ValueType::kInt:
      return Mix(static_cast<uint64_t>(AsInt()));
    case ValueType::kDouble:
      return Mix(std::get<DoubleKey>(data_).key ^ 0x9e3779b97f4a7c15ULL);
    case ValueType::kString:
      return Fnv1a(AsString());
  }
  return 0;
}

size_t ValueVecHasher::operator()(const std::vector<Value>& vs) const {
  uint64_t h = kFnv1aBasis;
  for (const Value& v : vs) h = Fnv1aWord(v.Hash(), h);
  return static_cast<size_t>(h);
}

std::string Value::ToName() const {
  switch (type()) {
    case ValueType::kString:
      return AsString();
    case ValueType::kInt:
      return std::to_string(AsInt());
    case ValueType::kDouble:
      return FormatDoubleRoundTrip(AsDouble());
  }
  return "?";
}

std::optional<Value> Value::FromName(std::string_view name, ValueType type) {
  if (type == ValueType::kString) return Value::Str(std::string(name));
  auto parse = [name](auto number) {
    std::from_chars(name.data(), name.data() + name.size(), number);
    return Value(number);
  };
  const Value v = type == ValueType::kInt ? parse(int64_t{0}) : parse(0.0);
  // A failed or partial parse, or another spelling of the number, does not
  // render back to `name`.
  if (v.ToName() != name) return std::nullopt;
  return v;
}

std::string Value::ToString() const {
  switch (type()) {
    case ValueType::kInt:
      return std::to_string(AsInt());
    case ValueType::kDouble:
      return FormatDoubleRoundTrip(AsDouble());
    case ValueType::kString: {
      std::string out = "'";
      for (char c : AsString()) {
        if (c == '\'') out += "''";
        else out += c;
      }
      out += "'";
      return out;
    }
  }
  return "?";
}

}  // namespace olite::rdb
