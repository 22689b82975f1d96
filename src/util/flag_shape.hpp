// The one diagnosis every front end gives a known flag typed in the wrong
// shape: "--port 7" for "--port=7", or "--strict=1" for "--strict".  The
// unknown-argument branch asks this first, so it never answers "unknown
// argument '--port' (did you mean --port?)".
#pragma once

#include <algorithm>
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

}  // namespace ssr
