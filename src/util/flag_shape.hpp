// The one diagnosis every front end gives a known flag typed in the wrong
// shape: "--port 7" for "--port=7", or "--strict=1" for "--strict".  The
// unknown-argument branch asks this first, so it never answers "unknown
// argument '--port' (did you mean --port?)".  Also the front ends' and the
// benches' one parser of unsigned integer flag values.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <span>
#include <string>
#include <string_view>

namespace ssr {

/// "<flag> takes no value" when `arg` gives one of `switches` a value;
/// "<flag> needs a value (<flag>=...)" when `arg` is any other of `flags`
/// without "=value"; "" otherwise.
inline std::string flag_shape_error(
    std::string_view arg, std::span<const std::string_view> flags,
    std::span<const std::string_view> switches) {
  const std::size_t eq = arg.find('=');
  const bool has_value = eq != std::string_view::npos;
  const std::string name(arg.substr(0, eq));
  const auto listed = [&](std::span<const std::string_view> list) {
    return std::find(list.begin(), list.end(), name) != list.end();
  };
  if (listed(switches)) return has_value ? name + " takes no value" : "";
  if (listed(flags) && !has_value) {
    return name + " needs a value (" + name + "=...)";
  }
  return "";
}

/// The decimal value of `flag`'s `text`.  An empty value, a character
/// other than a digit, or a value above 2^64-1 is a usage error: it prints
/// "error: <flag> ..." to stderr and exits 2.  Unlike util::parse_u64, it
/// never wraps.
inline std::uint64_t parse_u64_flag(std::string_view flag,
                                    std::string_view text) {
  std::uint64_t value = 0;
  if (text.empty()) {
    std::cerr << "error: " << flag << " needs a value\n";
    std::exit(2);
  }
  for (const char c : text) {
    if (c < '0' || c > '9') {
      std::cerr << "error: " << flag << " expects an unsigned integer, got '"
                << text << "'\n";
      std::exit(2);
    }
    const auto digit = static_cast<std::uint64_t>(c - '0');
    if (value > (UINT64_MAX - digit) / 10) {
      std::cerr << "error: " << flag << " exceeds 2^64-1, got '" << text
                << "'\n";
      std::exit(2);
    }
    value = value * 10 + digit;
  }
  return value;
}

}  // namespace ssr
