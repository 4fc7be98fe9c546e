#include "distrib/dist_engine.hpp"

#include <algorithm>
#include <sstream>
#include <unordered_map>

#include "obs/report.hpp"
#include "support/error.hpp"
#include "support/timer.hpp"

namespace parulel {

struct DistributedEngine::Site {
  /// The live incarnation; while down, an empty placeholder core stands
  /// in (a crash loses working memory, matcher, inbox and held sends).
  std::unique_ptr<SiteCore> core;
  bool up = true;
  std::uint64_t down_until = 0;   ///< restart cycle while down
  std::vector<std::string> wal;   ///< in-memory WAL record payloads
  SiteCounters retired;           ///< counters of dead incarnations
  SiteOutput out;                 ///< this cycle's outputs
  std::uint64_t busy_ns = 0;      ///< this cycle's core time
};

DistributedEngine::DistributedEngine(const Program& program,
                                     PartitionScheme scheme,
                                     DistConfig config)
    : program_(program),
      scheme_(std::move(scheme)),
      config_(config),
      meta_(program) {
  if (config_.sites == 0) config_.sites = 1;
  if (config_.strict_partitioning) {
    const auto offending = scheme_.validate(program_);
    if (!offending.empty()) {
      std::ostringstream os;
      os << "partition scheme cannot co-locate rules:";
      for (const auto& name : offending) os << ' ' << name;
      throw RuntimeError(os.str());
    }
  }
  for (const auto& crash : config_.faults.crashes) {
    if (crash.site >= config_.sites) {
      throw RuntimeError("fault plan crashes site " +
                         std::to_string(crash.site) + " but only " +
                         std::to_string(config_.sites) + " sites exist");
    }
  }
  const unsigned threads =
      config_.threads == 0 ? config_.sites : config_.threads;
  pool_ = std::make_unique<ThreadPool>(threads);
  journaling_ =
      !config_.faults.crashes.empty() || config_.checkpoint_every > 0;
  crash_done_.assign(config_.faults.crashes.size(), false);
  sites_.reserve(config_.sites);
  for (unsigned s = 0; s < config_.sites; ++s) {
    sites_.push_back(std::make_unique<Site>());
    sites_[s]->core = make_core(s);
  }
}

DistributedEngine::~DistributedEngine() = default;

std::unique_ptr<SiteCore> DistributedEngine::make_core(unsigned site) const {
  return std::make_unique<SiteCore>(
      program_, scheme_, meta_,
      SiteCoreOptions{site, config_.sites, config_.faults,
                      config_.checkpoint_every, journaling_});
}

const WorkingMemory& DistributedEngine::site_wm(unsigned site) const {
  return sites_[site]->core->wm();
}

void DistributedEngine::assert_initial_facts() {
  for (auto& site : sites_) {
    site->core->assert_initial_facts();
    write_wal(*site, site->core->take_output().journal);
  }
}

void DistributedEngine::write_wal(Site& site,
                                  std::vector<SiteJournalWrite> writes) {
  for (SiteJournalWrite& w : writes) {
    if (w.snapshot) site.wal.clear();
    site.wal.push_back(std::move(w.payload));
  }
}

// ------------------------------------------------------- crash timeline

void DistributedEngine::process_fault_timeline(DistStats& stats) {
  // Crashes first, then restarts — the cluster driver's order: kill -9
  // at the barrier boundary, then respawn whoever is due.
  for (std::size_t i = 0; i < config_.faults.crashes.size(); ++i) {
    const FaultPlan::Crash& crash = config_.faults.crashes[i];
    if (crash_done_[i] || crash.at_cycle != now_) continue;
    crash_done_[i] = true;
    Site& site = *sites_[crash.site];
    if (!site.up) continue;
    // Volatile state dies with the process: the undrained inbox and the
    // delayed sends the core still held never reach anyone.
    stats.faults.wiped += site.core->inbox_size();
    stats.faults.dropped += site.core->held_sends();
    site.retired += site.core->counters();
    site.core = make_core(crash.site);
    site.up = false;
    site.down_until = now_ + std::max<std::uint64_t>(1, crash.down_cycles);
    ++stats.faults.crashes;
  }
  for (unsigned s = 0; s < sites_.size(); ++s) {
    Site& site = *sites_[s];
    if (site.up || now_ < site.down_until) continue;
    site.core->recover(replay_site_records(site.wal, program_, config_.sites,
                                           "site-" + std::to_string(s)));
    write_wal(site, site.core->take_output().journal);
    site.up = true;
    ++stats.faults.restores;
  }
}

// ------------------------------------------------------------- cycle

void DistributedEngine::deliver_output(unsigned from, DistStats& stats,
                                       CycleStats& cycle) {
  Site& site = *sites_[from];
  SiteOutput& out = site.out;
  write_wal(site, std::move(out.journal));
  for (const SiteAck& ack : out.acks) {
    Site& sender = *sites_[ack.to];
    if (sender.up) sender.core->on_ack(from, ack.epoch, ack.seqs);
  }
  for (SiteSend& send : out.sends) {
    Site& dest = *sites_[send.to];
    if (!dest.up) {
      ++stats.faults.dropped;  // the target isn't listening
      continue;
    }
    ++stats.faults.delivered;
    dest.core->deliver(from, send.epoch, send.seq, std::move(send.op));
  }
  if (config_.output && !out.printout.empty()) *config_.output << out.printout;
  if (site.core->halted()) halted_ = true;
  cycle.fired += out.fired;
  cycle.redacted += out.redacted;
  stats.messages += out.messages;
  stats.broadcasts += out.broadcasts;
}

bool DistributedEngine::cycle(DistStats& stats) {
  now_ = stats.run.cycles;
  process_fault_timeline(stats);

  // Every up core runs its cycle concurrently. Down sites sit the cycle
  // out; the survivors keep the run degrading gracefully instead of
  // stalling behind the failure.
  CycleStats cycle_stats;
  cycle_stats.cycle = now_;
  {
    ScopedAccumulator t(cycle_stats.match_ns);  // dominant phase
    std::vector<std::function<void(unsigned)>> jobs;
    jobs.reserve(sites_.size());
    for (auto& site_ptr : sites_) {
      Site* site = site_ptr.get();
      if (!site->up) continue;
      jobs.push_back([this, site](unsigned) {
        Timer busy;
        site->core->run_cycle(now_);
        site->out = site->core->take_output();
        site->busy_ns = busy.elapsed_ns();
      });
    }
    pool_->run_batch(jobs);
  }

  // Simulated concurrent wall time: cores overlap, delivery is serial.
  std::uint64_t slowest_site = 0;
  for (const auto& site : sites_) {
    if (site->up) slowest_site = std::max(slowest_site, site->busy_ns);
  }
  stats.sim_wall_ns += slowest_site;

  const std::uint64_t cycle_messages_before = stats.messages;
  std::vector<SiteReport> reports(sites_.size());
  {
    ScopedAccumulator t(cycle_stats.merge_ns);
    for (unsigned s = 0; s < sites_.size(); ++s) {
      if (sites_[s]->up) deliver_output(s, stats, cycle_stats);
    }
    for (unsigned s = 0; s < sites_.size(); ++s) {
      const Site& site = *sites_[s];
      if (!site.up) continue;
      reports[s] = {true, site.out.fired, site.out.applied,
                    site.core->pending(), site.core->inbox_size()};
      cycle_stats.conflict_set_size += site.core->conflict_set_size();
    }
  }
  stats.sim_wall_ns += cycle_stats.merge_ns;

  stats.run.absorb(cycle_stats);
  if (config_.trace_cycles) {
    stats.run.per_cycle.push_back(cycle_stats);
    stats.per_cycle_messages.push_back(stats.messages -
                                       cycle_messages_before);
  }
  PARULEL_OBS_ONLY({
    if (config_.trace) {
      obs::CycleActivity activity;
      activity.engine = "distributed";
      activity.threads = pool_->thread_count();
      const PoolStatsSnapshot pool_now = pool_->stats();
      obs::fill_pool_activity(activity, pool_now, trace_prev_pool_);
      trace_prev_pool_ = pool_now;
      config_.trace->cycle(cycle_stats, activity);
    }
  })

  if (halted_) {
    stats.run.halted = true;
    return false;
  }
  // Crashes scheduled after quiescence never occur.
  if (sites_quiescent(reports)) {
    stats.run.quiescent = true;
    return false;
  }
  return true;
}

DistStats DistributedEngine::run() {
  DistStats stats;
  Timer wall;
  while (stats.run.cycles < config_.max_cycles) {
    if (!cycle(stats)) break;
  }
  stats.run.wall_ns = wall.elapsed_ns();
  stats.run.termination = stats.run.halted ? TerminationReason::Halted
                          : stats.run.quiescent
                              ? TerminationReason::Quiescent
                              : TerminationReason::CycleLimit;
  const bool accounted = config_.faults.enabled() || config_.checkpoint_every > 0;
  FaultStats& f = stats.faults;
  for (const auto& site : sites_) {
    SiteCounters c = site->retired;
    c += site->core->counters();
    stats.per_site_firings.push_back(c.firings);
    f.sent += c.sent;
    f.applied += c.applied;
    f.dropped += c.dropped;
    f.delayed += c.delayed;
    f.retries += c.retries;
    f.dup_suppressed += c.dup;
    f.checkpoints += c.snapshots;
  }
  if (!accounted) f = FaultStats{};
  PARULEL_OBS_ONLY({
    if (config_.trace) {
      config_.trace->run(stats.run, "distributed", accounted ? &f : nullptr);
    }
    if (config_.metrics) {
      stats.run.publish(*config_.metrics);
      f.publish(*config_.metrics);
      obs::publish_pool_stats(*config_.metrics, pool_->stats());
      config_.metrics->set("dist.sites", config_.sites);
      config_.metrics->set("dist.messages", stats.messages);
      config_.metrics->set("dist.broadcasts", stats.broadcasts);
    }
  })
  return stats;
}

std::uint64_t DistributedEngine::global_fingerprint() const {
  // Distinct alive contents across all sites (replicated facts dedupe).
  // Dedup verifies full content equality, never hash alone. Content
  // hashes come cached from each site's store.
  std::unordered_multimap<std::uint64_t, FactView> seen;
  std::uint64_t fp = 0x5bd1e995u;
  for (const auto& site : sites_) {
    const WorkingMemory& wm = site->core->wm();
    for (FactId id = 1; id <= wm.high_water(); ++id) {
      if (!wm.alive(id)) continue;
      const FactView fact = wm.view(id);
      const std::uint64_t raw = fact.content_hash();
      bool duplicate = false;
      auto [lo, hi] = seen.equal_range(raw);
      for (auto it = lo; it != hi; ++it) {
        if (it->second.same_content(fact)) {
          duplicate = true;
          break;
        }
      }
      if (duplicate) continue;
      seen.emplace(raw, fact);
      fp ^= fingerprint_mix(raw);
    }
  }
  return fp;
}

}  // namespace parulel
