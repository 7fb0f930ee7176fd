#pragma once

/// \file cli.hpp
/// The command-line layer of the rw* tools. `Cursor` walks argv once and
/// turns every malformed argument — a flag without its value, a number that
/// `util::parse_number` rejects or that is out of range, an unknown flag —
/// into a "<tool>: ..." line on stderr and exit 64 before the tool does any
/// work. The functions below it are what every netlist tool shares: the
/// library pool, the IO001 diagnostic, the severity -> exit code map and the
/// stress input-model flags.
///
/// `Cursor` is header-only: rwserved uses nothing else from this layer, so
/// it still builds from its own source file plus the library.

#include <cstdlib>
#include <functional>
#include <iostream>
#include <string>
#include <string_view>
#include <vector>

#include "liberty/library.hpp"
#include "lint/diagnostic.hpp"
#include "stress/analyzer.hpp"
#include "util/number.hpp"
#include "util/thread_pool.hpp"

namespace rw::cli {

/// One pass over argv:
///
///   cli::Cursor args("rwtool", argc, argv, print_usage);
///   while (args.next()) {
///     if (args.is("--lib")) libs.emplace_back(args.value());
///     else if (args.is("--iterations")) n = args.number<int>("a positive count", positive);
///     else if (args.flag()) args.unknown();
///     else netlist = args.arg();
///   }
class Cursor {
 public:
  using Usage = void (*)(std::ostream&);

  Cursor(const char* tool, int argc, char** argv, Usage usage)
      : tool_(tool), argc_(argc), argv_(argv), usage_(usage) {}

  /// Steps to the next argument; false once argv is exhausted.
  bool next() {
    if (i_ + 1 >= argc_) return false;
    arg_ = argv_[++i_];
    return true;
  }

  [[nodiscard]] const std::string& arg() const { return arg_; }
  [[nodiscard]] bool is(std::string_view flag) const { return arg_ == flag; }
  /// The current argument starts with '-'.
  [[nodiscard]] bool flag() const { return !arg_.empty() && arg_[0] == '-'; }

  /// The current flag's value (the next argument), or "<flag> needs a value".
  const char* value() {
    if (i_ + 1 >= argc_) fail(arg_ + " needs a value");
    return argv_[++i_];
  }

  /// The current flag's value as a `T` that `ok` accepts, or
  /// "<flag> wants <wants>".
  template <typename T, typename Ok>
  T number(std::string_view wants, Ok ok) {
    T v{};
    if (!util::parse_number(value(), v) || !ok(v)) fail(arg_ + " wants " + std::string(wants));
    return v;
  }
  template <typename T>
  T number(std::string_view wants) {
    return number<T>(wants, [](T) { return true; });
  }

  /// "<tool>: <message>" on stderr, then exit 64.
  [[noreturn]] void fail(const std::string& message) const { util::usage_exit(tool_, message); }

  /// `message` (when not empty) and the usage text on stderr, then exit 64.
  [[noreturn]] void fail_with_usage(const std::string& message) const {
    if (!message.empty()) std::cerr << tool_ << ": " << message << "\n";
    usage_(std::cerr);
    std::exit(util::kExitUsage);
  }

  /// The current argument is not one the tool takes.
  [[noreturn]] void unknown() const { fail_with_usage("unknown argument " + arg_); }

 private:
  const char* tool_;
  int argc_;
  char** argv_;
  Usage usage_;
  int i_ = 0;
  std::string arg_;
};

inline bool positive(int n) { return n >= 1; }
inline bool non_negative(double v) { return v >= 0.0; }

/// Consumes the stress input-model flags shared by rwstress, rwactivity and
/// rwprove — `--input NET=LO:HI`, `--default LO:HI`, `--clock P` and
/// `--iterations N` — into `options`. False when the current argument is
/// none of them.
bool stress_flag(Cursor& args, stress::AnalyzeOptions& options);

/// An unreadable or unparsable input file as an IO001 error, so the report
/// (and its JSON form) stays complete.
lint::Diagnostic io_error(const std::string& path, const std::string& what);

/// Adds `library`'s cells to `pool`; a cell name already pooled keeps its
/// first definition.
void add_cells(liberty::Library& pool, const liberty::Library& library);

/// Parses every `paths` library, hands it to `each` (when set), then pools
/// its cells (see `add_cells`); a file that does not parse becomes an IO001
/// entry in `report`.
void pool_libraries(const std::vector<std::string>& paths, liberty::Library& pool,
                    std::vector<lint::Diagnostic>& report,
                    const std::function<void(const liberty::Library&)>& each = nullptr);

/// 2 when `diagnostics` holds an error, 1 for a warning, else 0.
int exit_code(const std::vector<lint::Diagnostic>& diagnostics);

}  // namespace rw::cli
