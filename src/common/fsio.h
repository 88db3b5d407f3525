// Durable file I/O for artifacts and checkpoints.
//
// Anything the repo writes that a later run (or a CI gate) will trust must
// survive a SIGKILL mid-write: a reader must see either the old complete
// file or the new complete file, never a torn one. write_file_atomic gives
// that guarantee the POSIX way — write to a staging file unique to this
// writer (`<path>.<pid>.<seq>.tmp`, so concurrent writers of one path never
// share it), fsync the data, rename over the target, fsync the directory —
// and fails loudly (throws) on any error instead of leaving a silent
// partial write behind.
#pragma once

#include <optional>
#include <string>
#include <string_view>

namespace rmrsim {

/// Atomically replaces `path` with `bytes`: tmp file + fsync + rename +
/// directory fsync. Throws (common/check.h) with the failing path and errno
/// text on any error; on failure the target file is untouched and the tmp
/// file is removed.
void write_file_atomic(const std::string& path, std::string_view bytes);

/// Reads a whole file; std::nullopt if it cannot be opened or read.
std::optional<std::string> read_file(const std::string& path);

/// mkdir -p: creates `path` and any missing parents. Throws on failure.
void ensure_dir(const std::string& path);

}  // namespace rmrsim
