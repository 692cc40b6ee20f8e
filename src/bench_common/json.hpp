#pragma once
/// \file json.hpp
/// Minimal hand-rolled JSON value + writer for the benchmark reporting
/// subsystem. Deliberately tiny: objects, arrays, strings, numbers,
/// booleans and null — exactly what `BenchReport` needs, with
/// round-trip-exact doubles (%.17g) so a reader (scripts/bench_compare.py)
/// gets the recorded bits back. There is no parser: Python reads every
/// report. Not a general-purpose JSON library (no \uXXXX emission beyond
/// control characters, no streaming).

#include <cstddef>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace gespmm::bench {

/// A JSON document node. Object keys keep insertion order on write
/// via a parallel key list so dumped baselines diff cleanly.
class Json {
 public:
  enum class Kind { Null, Bool, Number, String, Array, Object };

  Json() = default;
  static Json null();
  static Json boolean(bool b);
  static Json number(double v);
  static Json string(std::string s);
  static Json array();
  static Json object();

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::Null; }
  bool is_bool() const { return kind_ == Kind::Bool; }
  bool is_number() const { return kind_ == Kind::Number; }
  bool is_string() const { return kind_ == Kind::String; }
  bool is_array() const { return kind_ == Kind::Array; }
  bool is_object() const { return kind_ == Kind::Object; }

  /// Typed accessors; throw std::runtime_error on kind mismatch.
  bool as_bool() const;
  double as_number() const;
  const std::string& as_string() const;
  const std::vector<Json>& items() const;

  /// Array building.
  void push_back(Json v);

  /// Object access. `set` keeps first-insertion key order; `get` throws
  /// on a missing key, `find` returns nullptr instead.
  void set(const std::string& key, Json v);
  const Json& get(const std::string& key) const;
  const Json* find(const std::string& key) const;
  const std::vector<std::string>& keys() const;

  /// Serialize. `indent` > 0 pretty-prints with that many spaces.
  std::string dump(int indent = 0) const;

 private:
  Kind kind_ = Kind::Null;
  bool bool_ = false;
  double num_ = 0.0;
  std::string str_;
  std::vector<Json> arr_;
  std::vector<std::string> keys_;
  std::map<std::string, Json> obj_;

  void dump_to(std::string& out, int indent, int depth) const;
};

}  // namespace gespmm::bench
