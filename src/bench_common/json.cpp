#include "bench_common/json.hpp"

#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace gespmm::bench {

Json Json::null() { return Json(); }

Json Json::boolean(bool b) {
  Json j;
  j.kind_ = Kind::Bool;
  j.bool_ = b;
  return j;
}

Json Json::number(double v) {
  Json j;
  j.kind_ = Kind::Number;
  j.num_ = v;
  return j;
}

Json Json::string(std::string s) {
  Json j;
  j.kind_ = Kind::String;
  j.str_ = std::move(s);
  return j;
}

Json Json::array() {
  Json j;
  j.kind_ = Kind::Array;
  return j;
}

Json Json::object() {
  Json j;
  j.kind_ = Kind::Object;
  return j;
}

namespace {
[[noreturn]] void kind_error(const char* want) {
  throw std::runtime_error(std::string("json: value is not a ") + want);
}
}  // namespace

bool Json::as_bool() const {
  if (!is_bool()) kind_error("bool");
  return bool_;
}

double Json::as_number() const {
  if (!is_number()) kind_error("number");
  return num_;
}

const std::string& Json::as_string() const {
  if (!is_string()) kind_error("string");
  return str_;
}

const std::vector<Json>& Json::items() const {
  if (!is_array()) kind_error("array");
  return arr_;
}

void Json::push_back(Json v) {
  if (!is_array()) kind_error("array");
  arr_.push_back(std::move(v));
}

void Json::set(const std::string& key, Json v) {
  if (!is_object()) kind_error("object");
  if (obj_.find(key) == obj_.end()) keys_.push_back(key);
  obj_[key] = std::move(v);
}

const Json& Json::get(const std::string& key) const {
  const Json* v = find(key);
  if (!v) throw std::runtime_error("json: missing key \"" + key + "\"");
  return *v;
}

const Json* Json::find(const std::string& key) const {
  if (!is_object()) kind_error("object");
  auto it = obj_.find(key);
  return it == obj_.end() ? nullptr : &it->second;
}

const std::vector<std::string>& Json::keys() const {
  if (!is_object()) kind_error("object");
  return keys_;
}

namespace {

void escape_into(std::string& out, const std::string& s) {
  out += '"';
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

void number_into(std::string& out, double v) {
  if (!std::isfinite(v)) {
    // JSON has no Inf/NaN; null is the conventional stand-in.
    out += "null";
    return;
  }
  // Integers print without exponent/decimals so ids and counts stay clean;
  // everything else uses %.17g for exact double round-trip.
  if (v == std::floor(v) && std::fabs(v) < 1e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.0f", v);
    out += buf;
    return;
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out += buf;
}

}  // namespace

void Json::dump_to(std::string& out, int indent, int depth) const {
  const std::string pad(static_cast<std::size_t>(indent) * (depth + 1), ' ');
  const std::string closepad(static_cast<std::size_t>(indent) * depth, ' ');
  const char* nl = indent > 0 ? "\n" : "";
  switch (kind_) {
    case Kind::Null: out += "null"; break;
    case Kind::Bool: out += bool_ ? "true" : "false"; break;
    case Kind::Number: number_into(out, num_); break;
    case Kind::String: escape_into(out, str_); break;
    case Kind::Array: {
      if (arr_.empty()) {
        out += "[]";
        break;
      }
      out += '[';
      out += nl;
      for (std::size_t i = 0; i < arr_.size(); ++i) {
        out += pad;
        arr_[i].dump_to(out, indent, depth + 1);
        if (i + 1 < arr_.size()) out += ',';
        out += nl;
      }
      out += closepad;
      out += ']';
      break;
    }
    case Kind::Object: {
      if (keys_.empty()) {
        out += "{}";
        break;
      }
      out += '{';
      out += nl;
      for (std::size_t i = 0; i < keys_.size(); ++i) {
        out += pad;
        escape_into(out, keys_[i]);
        out += indent > 0 ? ": " : ":";
        obj_.at(keys_[i]).dump_to(out, indent, depth + 1);
        if (i + 1 < keys_.size()) out += ',';
        out += nl;
      }
      out += closepad;
      out += '}';
      break;
    }
  }
}

std::string Json::dump(int indent) const {
  std::string out;
  dump_to(out, indent, 0);
  return out;
}

}  // namespace gespmm::bench
