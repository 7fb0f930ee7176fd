#include "cli.hpp"

#include <exception>

#include "liberty/parser.hpp"
#include "stress/interval.hpp"

namespace rw::cli {

bool stress_flag(Cursor& args, stress::AnalyzeOptions& options) {
  if (args.is("--input")) {
    std::string net;
    stress::Interval interval;
    if (!stress::parse_net_interval(args.value(), net, interval)) {
      args.fail("--input wants NET=LO:HI with 0 <= LO <= HI <= 1");
    }
    options.input_intervals[net] = interval;
  } else if (args.is("--default")) {
    if (!stress::parse_interval(args.value(), options.default_input)) {
      args.fail("--default wants LO:HI with 0 <= LO <= HI <= 1");
    }
  } else if (args.is("--clock")) {
    options.clock_probability = args.number<double>(
        "a probability in [0,1]", [](double p) { return p >= 0.0 && p <= 1.0; });
  } else if (args.is("--iterations")) {
    options.max_iterations = args.number<int>("a positive count", positive);
  } else {
    return false;
  }
  return true;
}

lint::Diagnostic io_error(const std::string& path, const std::string& what) {
  return lint::Diagnostic{"IO001", lint::Severity::kError, path, what,
                          "fix the file or the flag pointing at it"};
}

void add_cells(liberty::Library& pool, const liberty::Library& library) {
  for (const auto& cell : library.cells()) {
    if (pool.find(cell.name) == nullptr) pool.add_cell(cell);
  }
}

void pool_libraries(const std::vector<std::string>& paths, liberty::Library& pool,
                    std::vector<lint::Diagnostic>& report,
                    const std::function<void(const liberty::Library&)>& each) {
  for (const auto& path : paths) {
    try {
      const liberty::Library library = liberty::parse_library_file(path);
      if (each) each(library);
      add_cells(pool, library);
    } catch (const std::exception& e) {
      report.push_back(io_error(path, e.what()));
    }
  }
}

int exit_code(const std::vector<lint::Diagnostic>& diagnostics) {
  switch (lint::worst_severity(diagnostics)) {
    case lint::Severity::kError:
      return 2;
    case lint::Severity::kWarning:
      return 1;
    case lint::Severity::kInfo:
      return 0;
  }
  return 0;
}

}  // namespace rw::cli
