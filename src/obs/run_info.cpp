#include "obs/run_info.hpp"

#include <array>
#include <cstdio>

#if !defined(_WIN32)
#include <stdio.h>  // popen/pclose
#endif

namespace ssr::obs {

namespace {

std::string query_git_revision() {
#if defined(_WIN32)
  return "unknown";
#else
  FILE* pipe = ::popen("git rev-parse HEAD 2>/dev/null", "r");
  if (pipe == nullptr) return "unknown";
  std::array<char, 128> buffer{};
  std::string rev;
  while (std::fgets(buffer.data(), buffer.size(), pipe) != nullptr) {
    rev += buffer.data();
  }
  const int status = ::pclose(pipe);
  while (!rev.empty() && (rev.back() == '\n' || rev.back() == '\r')) {
    rev.pop_back();
  }
  if (status != 0 || rev.empty()) return "unknown";
  return rev;
#endif
}

}  // namespace

std::string git_revision() {
  // One fork per process: the journal header, every bundle manifest and
  // every report of a run all ask.
  static const std::string rev = query_git_revision();
  return rev;
}

}  // namespace ssr::obs
