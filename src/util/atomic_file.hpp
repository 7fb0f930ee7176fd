#pragma once

/// \file atomic_file.hpp
/// The one crash-safe file writer for every artifact the toolchain emits:
/// Liberty libraries, run manifests, flow checkpoints, bench JSON baselines,
/// and PGM images. Content is written to a unique temp sibling
/// (`<path>.tmp.<pid>.<seq>`), fsync'd, and published with an atomic rename
/// followed by a directory fsync, so a concurrent reader — or a reader after
/// `kill -9` mid-write, or after a power cut right after publish — only ever
/// sees the previous complete file or the new complete file, never a
/// truncated hybrid. Parent directories are created on demand. `read_file`
/// is the matching whole-file reader.

#include <string>
#include <string_view>

namespace rw::util {

/// Unique temp sibling of `path` (`<path>.tmp.<pid>.<seq>`): pid
/// distinguishes processes, the sequence counter threads/writes within one.
std::string temp_sibling(const std::string& path);

/// Atomically replaces `path` with `content` (binary-safe).
/// \throws std::runtime_error when the temp file cannot be written or the
/// rename fails (the temp file is cleaned up first).
void write_file_atomic(const std::string& path, std::string_view content);

/// Best-effort variant for optimization-only artifacts (caches,
/// checkpoints): failures are swallowed and reported via the return value,
/// never by an exception. Returns true when the rename landed.
bool write_file_atomic_nothrow(const std::string& path, std::string_view content) noexcept;

/// Reads the whole file at `path` into `out` (binary-safe). False when it
/// cannot be opened or read.
bool read_file(const std::string& path, std::string& out);

}  // namespace rw::util
