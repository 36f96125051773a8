// keddah-archlint: architecture-layering + hot-path-allocation checker.
// Walks the given files/directories, checks the #include graph against the
// declared layer DAG (cycles, upward edges, .cpp includes, fan-in budget),
// and scans `// keddah:hot` regions for allocation-prone constructs. See
// src/lint/archlint.h for the rules and the
// `// archlint:allow(<rule>): <justification>` escape hatch.
//
//   keddah-archlint [--report=json] [--strict-modules] [--layers=FILE] src/ [more paths...]
#include <cstring>
#include <iostream>

#include "lint/archlint.h"
#include "util/diagnostic.h"

namespace kl = keddah::lint;

namespace {

int usage(int code) {
  std::cerr << "usage: keddah-archlint [options] <file-or-dir> [more paths...]\n"
            << "Checks module layering and hot-path allocation behaviour. Options:\n"
            << "  --report=json     print the full machine-readable report to stdout\n"
            << "  --strict-modules  every scanned module must be in the layer table\n"
            << "  --layers=FILE     load the layer table from FILE instead of the\n"
            << "                    built-in one (a layers.json directly inside a\n"
            << "                    scanned directory is picked up automatically)\n"
            << "Rules:\n";
  for (const auto& rule : kl::archlint_rule_ids()) std::cerr << "  " << rule << "\n";
  std::cerr << "Suppress a justified finding with\n"
            << "  // archlint:allow(<rule>): <justification>\n"
            << "Exits 1 if any unsuppressed finding remains.\n";
  return code;
}

}  // namespace

int main(int argc, char** argv) {
  bool report_json = false;
  bool strict = false;
  std::string layers_file;
  std::vector<std::string> paths;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") return usage(0);
    if (arg == "--report=json") {
      report_json = true;
    } else if (arg == "--strict-modules") {
      strict = true;
    } else if (arg.rfind("--layers=", 0) == 0) {
      layers_file = arg.substr(9);
    } else if (arg.rfind("--", 0) == 0) {
      std::cerr << "error: unknown flag " << arg << "\n";
      return usage(2);
    } else {
      paths.push_back(arg);
    }
  }
  if (paths.empty()) return usage(2);

  kl::ArchlintReport report;
  try {
    if (!layers_file.empty()) {
      kl::LayerSpec spec =
          kl::layer_spec_from_json(keddah::util::Json::load_file(layers_file));
      spec.strict_modules = spec.strict_modules || strict;
      report = kl::archlint_paths(paths, &spec);
    } else if (strict) {
      kl::LayerSpec spec = kl::default_layer_spec();
      spec.strict_modules = true;
      report = kl::archlint_paths(paths, &spec);
    } else {
      report = kl::archlint_paths(paths);
    }
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }

  if (report_json) {
    std::cout << report.to_json().dump(2) << "\n";
  } else {
    for (const auto& d : report.diagnostics) {
      keddah::util::print_diagnostic_line(std::cout, /*is_error=*/true, d.to_string());
    }
  }
  std::cerr << report.files_scanned << " file(s) scanned, " << report.diagnostics.size()
            << " finding(s), " << report.suppressions_used << " suppression(s), "
            << report.hot_regions.size() << " hot region(s)\n";
  return report.ok() ? 0 : 1;
}
