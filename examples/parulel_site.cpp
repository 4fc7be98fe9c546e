// parulel_site — one cluster site as an OS process.
//
// Normally spawned by the cluster driver (`parulel_cli --cluster N`),
// but designed to be started by hand for manual deployments:
//
//   parulel_site --program rules.clp --site-id 0 --sites 3
//       --driver 127.0.0.1:7400 --journal /var/lib/parulel/site-0.wal
//
// (one command line, wrapped here).
//
// The process dials the driver, joins the cluster, and serves barriers
// until the driver sends cc-stop. Exit codes: 0 clean stop, 1 I/O
// error, 2 usage error, 3 program parse error, 4 runtime failure.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <sstream>
#include <string>

#include "parulel.hpp"
#include "distrib/site_runner.hpp"
#include "support/read_file.hpp"

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --program FILE --site-id K --sites N "
               "--driver HOST:PORT\n"
               "          [--listen-port N] [--journal FILE] "
               "[--partition TEMPLATE=SLOT,...]\n"
               "          [--fault-plan SPEC] [--checkpoint-every N] "
               "[--no-fsync]\n",
               argv0);
  return 2;
}

bool parse_partition_spec(const std::string& spec,
                          std::unordered_map<std::string, std::string>& out) {
  std::stringstream ss(spec);
  std::string entry;
  while (std::getline(ss, entry, ',')) {
    if (entry.empty()) continue;
    const auto eq = entry.find('=');
    if (eq == std::string::npos || eq == 0 || eq + 1 == entry.size()) {
      return false;
    }
    out[entry.substr(0, eq)] = entry.substr(eq + 1);
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string program_path;
  std::string driver;
  parulel::SiteOptions opt;
  bool have_site_id = false, have_sites = false;
  std::string fault_spec;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return (i + 1 < argc) ? argv[++i] : nullptr;
    };
    if (arg == "--program") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      program_path = v;
    } else if (arg == "--site-id") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      opt.site_id = static_cast<unsigned>(std::strtoul(v, nullptr, 10));
      have_site_id = true;
    } else if (arg == "--sites") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      opt.sites = static_cast<unsigned>(std::strtoul(v, nullptr, 10));
      have_sites = true;
    } else if (arg == "--driver") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      driver = v;
    } else if (arg == "--listen-port") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      opt.listen_port =
          static_cast<std::uint16_t>(std::strtoul(v, nullptr, 10));
    } else if (arg == "--journal") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      opt.journal_path = v;
    } else if (arg == "--partition") {
      const char* v = next();
      if (!v || !parse_partition_spec(v, opt.partition)) {
        std::fprintf(stderr, "%s: bad --partition spec\n", argv[0]);
        return 2;
      }
    } else if (arg == "--fault-plan") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      fault_spec = v;
    } else if (arg == "--checkpoint-every") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      opt.checkpoint_every = std::strtoull(v, nullptr, 10);
    } else if (arg == "--no-fsync") {
      opt.fsync = false;
    } else if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
      return 0;
    } else {
      std::fprintf(stderr, "%s: unknown flag %s\n", argv[0], arg.c_str());
      return 2;
    }
  }

  if (program_path.empty() || !have_site_id || !have_sites ||
      driver.empty() || opt.sites == 0 || opt.site_id >= opt.sites) {
    return usage(argv[0]);
  }
  const auto colon = driver.rfind(':');
  if (colon == std::string::npos || colon == 0) {
    std::fprintf(stderr, "%s: --driver wants HOST:PORT\n", argv[0]);
    return 2;
  }
  opt.driver_host = driver.substr(0, colon);
  opt.driver_port = static_cast<std::uint16_t>(
      std::strtoul(driver.c_str() + colon + 1, nullptr, 10));

  std::string source;
  if (!parulel::read_file(program_path, &source)) {
    std::fprintf(stderr, "%s: cannot read %s\n", argv[0],
                 program_path.c_str());
    return 1;
  }

  try {
    if (!fault_spec.empty()) {
      opt.faults = parulel::FaultPlan::parse(fault_spec);
    }
    parulel::Program program = parulel::parse_program(source);
    parulel::SiteRunner runner(program, source, std::move(opt));
    return runner.run();
  } catch (const parulel::ParseError& e) {
    std::fprintf(stderr, "parse error: %s\n", e.what());
    return 3;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "site %u: %s\n", opt.site_id, e.what());
    return 4;
  }
}
