// Minimal command-line option parsing for the benchmark binaries.
//
// Supports "--key=value", "--key value" and bare "--flag" forms. Unknown
// arguments are reported so that typos in sweep scripts fail loudly: a
// token that is not an option exits(2) at parse time, and every --key the
// binary never read exits(2) at reject_unread(), which each main calls
// once it has read its options and before any run starts. So do malformed
// numbers: "--ops=10k" or "--threads=2;4" exit(2) with the offending token
// instead of silently parsing a prefix, and counts are unsigned: "--ops=-1"
// or "--threads=4294967296" exit(2) instead of wrapping.
#pragma once

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <type_traits>
#include <vector>

namespace semstm {

namespace detail {

/// Strict end-pointer numeric parse: the whole token must be consumed.
/// `what` names the flag ("--ops") in the error.
[[noreturn]] inline void die_bad_number(const char* what, const char* tok) {
  std::fprintf(stderr, "error: %s: malformed number '%s'\n", what, tok);
  std::exit(2);
}

/// Decimal digits only: strtoull would accept a sign (and negate "-1" to
/// 2^64-1) or leading blanks, so the first character must be a digit.
inline std::uint64_t parse_u64(const char* what, const std::string& tok) {
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(tok.c_str(), &end, 10);
  if (tok.empty() || tok[0] < '0' || tok[0] > '9' ||
      end != tok.c_str() + tok.size() || errno == ERANGE) {
    die_bad_number(what, tok.c_str());
  }
  return static_cast<std::uint64_t>(v);
}

/// parse_u64 narrowed to the caller's unsigned type: a value above T's
/// maximum exits(2) rather than being truncated.
template <class T>
T parse_uint(const char* what, const std::string& tok) {
  static_assert(std::is_unsigned_v<T>, "counts are unsigned");
  constexpr std::uint64_t kMax = std::numeric_limits<T>::max();
  const std::uint64_t v = parse_u64(what, tok);
  if (v > kMax) {
    std::fprintf(stderr, "error: %s: %s is out of range (max %llu)\n", what,
                 tok.c_str(), static_cast<unsigned long long>(kMax));
    std::exit(2);
  }
  return static_cast<T>(v);
}

inline double parse_f64(const char* what, const std::string& tok) {
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(tok.c_str(), &end);
  if (tok.empty() || end != tok.c_str() + tok.size() || errno == ERANGE) {
    die_bad_number(what, tok.c_str());
  }
  return v;
}

}  // namespace detail

class Cli {
 public:
  Cli(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg.rfind("--", 0) != 0) {
        std::fprintf(stderr, "unrecognized argument: %s\n", arg.c_str());
        std::exit(2);
      }
      arg = arg.substr(2);
      auto eq = arg.find('=');
      if (eq != std::string::npos) {
        kv_[arg.substr(0, eq)] = arg.substr(eq + 1);
      } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
        kv_[arg] = argv[++i];
      } else {
        kv_[arg] = "1";  // bare flag
      }
    }
  }

  bool has(const std::string& key) const { return find(key) != kv_.end(); }

  std::string get(const std::string& key, const std::string& dflt) const {
    auto it = find(key);
    return it == kv_.end() ? dflt : it->second;
  }

  /// An unsigned count of the caller's type, e.g. get_uint<unsigned>.
  template <class T>
  T get_uint(const std::string& key, T dflt) const {
    auto it = find(key);
    if (it == kv_.end()) return dflt;
    return detail::parse_uint<T>(("--" + key).c_str(), it->second);
  }

  double get_double(const std::string& key, double dflt) const {
    auto it = find(key);
    if (it == kv_.end()) return dflt;
    return detail::parse_f64(("--" + key).c_str(), it->second);
  }

  /// Parse "1,2,4,8" style lists (used for thread sweeps). Every element
  /// must be a complete unsigned number: "2;4" or "4x" fail loudly.
  std::vector<unsigned> get_list(const std::string& key,
                                 std::vector<unsigned> dflt) const {
    auto it = find(key);
    if (it == kv_.end()) return dflt;
    std::vector<unsigned> out;
    const std::string& s = it->second;
    const std::string what = "--" + key;
    std::size_t pos = 0;
    while (pos <= s.size()) {
      auto comma = s.find(',', pos);
      if (comma == std::string::npos) comma = s.size();
      const std::string tok = s.substr(pos, comma - pos);
      out.push_back(detail::parse_uint<unsigned>(what.c_str(), tok));
      pos = comma + 1;
    }
    return out;
  }

  /// Exit(2), naming each one, if any --key given on the command line was
  /// never read through has() or get*(): a leftover or misspelt option
  /// would otherwise silently run the default.
  void reject_unread() const {
    bool unread = false;
    for (const auto& [key, value] : kv_) {
      if (read_.count(key) == 0) {
        std::fprintf(stderr, "unrecognized option: --%s\n", key.c_str());
        unread = true;
      }
    }
    if (unread) std::exit(2);
  }

 private:
  /// Every lookup marks its key as read, present or not.
  std::map<std::string, std::string>::const_iterator find(
      const std::string& key) const {
    read_.insert(key);
    return kv_.find(key);
  }

  std::map<std::string, std::string> kv_;
  mutable std::set<std::string> read_;
};

}  // namespace semstm
