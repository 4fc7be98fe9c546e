// Whole-file reads into one string.
#pragma once

#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <system_error>

namespace parulel {

/// Read all of `path` into *out: one sized read for a regular file, a
/// streamed read for pipes and other unsized files. False when the file
/// is a directory or cannot be opened or read.
inline bool read_file(const std::string& path, std::string* out) {
  std::error_code ec;
  if (std::filesystem::is_directory(path, ec)) return false;
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  const std::uintmax_t size = std::filesystem::file_size(path, ec);
  if (ec) {
    out->assign(std::istreambuf_iterator<char>(in),
                std::istreambuf_iterator<char>());
    return !in.bad();
  }
  out->resize(static_cast<std::size_t>(size));
  in.read(out->data(), static_cast<std::streamsize>(size));
  out->resize(static_cast<std::size_t>(in.gcount()));  // if it shrank
  return !in.bad();
}

}  // namespace parulel
