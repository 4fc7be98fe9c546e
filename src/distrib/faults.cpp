#include "distrib/faults.hpp"

#include <cstdlib>
#include <sstream>

#include "support/error.hpp"

namespace parulel {

namespace {

[[noreturn]] void bad_spec(const std::string& what) {
  throw ParseError("fault plan: " + what);
}

double parse_rate(const std::string& key, const std::string& value) {
  char* end = nullptr;
  const double rate = std::strtod(value.c_str(), &end);
  if (end == value.c_str() || *end != '\0' || rate < 0.0 || rate >= 1.0) {
    bad_spec(key + " must be a rate in [0, 1), got '" + value + "'");
  }
  return rate;
}

std::uint64_t parse_u64(const std::string& key, const std::string& value) {
  char* end = nullptr;
  const unsigned long long n = std::strtoull(value.c_str(), &end, 10);
  if (end == value.c_str() || *end != '\0') {
    bad_spec(key + " must be an integer, got '" + value + "'");
  }
  return n;
}

FaultPlan::Crash parse_crash(const std::string& entry) {
  // SITE@CYCLE+DOWN, e.g. 1@5+4 = site 1 dies at cycle 5 for 4 cycles.
  const std::size_t at = entry.find('@');
  const std::size_t plus = entry.find('+', at == std::string::npos ? 0 : at);
  if (at == std::string::npos || plus == std::string::npos || plus < at) {
    bad_spec("crash entry must be SITE@CYCLE+DOWN, got '" + entry + "'");
  }
  FaultPlan::Crash crash;
  crash.site = static_cast<unsigned>(
      parse_u64("crash site", entry.substr(0, at)));
  crash.at_cycle = parse_u64("crash cycle", entry.substr(at + 1, plus - at - 1));
  crash.down_cycles = parse_u64("crash downtime", entry.substr(plus + 1));
  if (crash.down_cycles == 0) bad_spec("crash downtime must be >= 1");
  return crash;
}

}  // namespace

FaultPlan FaultPlan::parse(const std::string& spec) {
  FaultPlan plan;
  std::istringstream stream(spec);
  std::string pair;
  while (std::getline(stream, pair, ',')) {
    if (pair.empty()) continue;
    const std::size_t eq = pair.find('=');
    if (eq == std::string::npos) {
      bad_spec("expected key=value, got '" + pair + "'");
    }
    const std::string key = pair.substr(0, eq);
    const std::string value = pair.substr(eq + 1);
    if (key == "loss") {
      plan.loss_rate = parse_rate(key, value);
    } else if (key == "dup") {
      plan.duplicate_rate = parse_rate(key, value);
    } else if (key == "delay") {
      plan.delay_rate = parse_rate(key, value);
    } else if (key == "maxdelay") {
      plan.max_delay_cycles = static_cast<unsigned>(parse_u64(key, value));
      if (plan.max_delay_cycles == 0) bad_spec("maxdelay must be >= 1");
    } else if (key == "seed") {
      plan.seed = parse_u64(key, value);
    } else if (key == "crash") {
      std::istringstream entries(value);
      std::string entry;
      while (std::getline(entries, entry, ';')) {
        if (!entry.empty()) plan.crashes.push_back(parse_crash(entry));
      }
    } else {
      bad_spec("unknown key '" + key + "'");
    }
  }
  return plan;
}

std::uint64_t site_seed(std::uint64_t plan_seed, unsigned site_id) {
  std::uint64_t z = plan_seed + 0x9E3779B97F4A7C15ull * (site_id + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

FaultVerdict FaultInjector::roll() {
  ++rolls_;
  FaultVerdict v;
  // Each fault class draws its own uniform so rates compose
  // independently and stay deterministic in consumption order.
  if (plan_.loss_rate > 0.0 && rng_.unit() < plan_.loss_rate) {
    v.drop = true;
    return v;  // a dropped attempt has no duplicate or delay to decide
  }
  if (plan_.duplicate_rate > 0.0 && rng_.unit() < plan_.duplicate_rate) {
    v.duplicate = true;
  }
  if (plan_.delay_rate > 0.0 && rng_.unit() < plan_.delay_rate) {
    v.delay = 1 + static_cast<unsigned>(rng_.below(plan_.max_delay_cycles));
  }
  return v;
}

}  // namespace parulel
