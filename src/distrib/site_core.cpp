#include "distrib/site_core.hpp"

#include <algorithm>
#include <iterator>
#include <utility>

#include "engine/actions.hpp"
#include "support/error.hpp"

namespace parulel {

namespace {

// Retransmission backoff in barrier cycles. A batch sent at cycle c is
// drained (and acked) at c+1, so the first timeout fires at c+2; the
// backoff doubles per retry up to the cap, bounding the retry storm a
// long outage can cause while keeping recovery latency low.
constexpr std::uint64_t kInitialBackoff = 2;
constexpr std::uint64_t kMaxBackoff = 16;

}  // namespace

SiteCounters& SiteCounters::operator+=(const SiteCounters& o) {
  sent += o.sent;
  applied += o.applied;
  dup += o.dup;
  retries += o.retries;
  dropped += o.dropped;
  delayed += o.delayed;
  redials += o.redials;
  batches += o.batches;
  snapshots += o.snapshots;
  firings += o.firings;
  return *this;
}

bool sites_quiescent(std::span<const SiteReport> reports) {
  return std::all_of(reports.begin(), reports.end(), [](const SiteReport& r) {
    return r.up && !r.fired && !r.applied && !r.pending && !r.inbox;
  });
}

SiteCore::SiteCore(const Program& program, const PartitionScheme& scheme,
                   const MetaEngine& meta, SiteCoreOptions options)
    : program_(program),
      scheme_(scheme),
      meta_(meta),
      opt_(std::move(options)),
      wm_(std::make_unique<WorkingMemory>(program.schema)),
      matcher_(make_matcher(MatcherKind::Treat, program)),
      recv_(opt_.sites),
      channels_(opt_.sites) {
  if (opt_.site_id >= opt_.sites) {
    throw RuntimeError("site id " + std::to_string(opt_.site_id) +
                       " out of range for " + std::to_string(opt_.sites) +
                       " sites");
  }
  if (opt_.faults.any_network_faults()) {
    FaultPlan plan = opt_.faults;
    plan.crashes.clear();  // crashes are the driver's job
    plan.seed = site_seed(plan.seed, opt_.site_id);
    injector_ = std::make_unique<FaultInjector>(plan);
  }
}

SiteCore::~SiteCore() = default;

void SiteCore::assert_initial_facts() {
  SiteBatchRecord rec;
  for (const auto& fact : program_.initial_facts) {
    const bool mine =
        scheme_.replicated(fact.tmpl) ||
        scheme_.site_of(fact.tmpl, fact.slots, opt_.sites) == opt_.site_id;
    if (!mine) continue;
    wm_->assert_fact(fact.tmpl, fact.slots);
    rec.local.push_back({ClusterOp::Kind::Assert, fact.tmpl, fact.slots});
  }
  journal(std::move(rec));
}

void SiteCore::recover(SiteRecovery recovery) {
  wm_ = std::move(recovery.wm);
  recv_ = std::move(recovery.recv);
  recv_.resize(opt_.sites);
  epoch_ = recovery.next_epoch;
  wal_seq_ = recovery.last_seq;
  // The epoch marker: journaled BEFORE this incarnation sends anything,
  // so a rapid double crash still yields strictly increasing epochs.
  SiteBatchRecord marker;
  marker.cycle = recovery.cycle;
  journal(std::move(marker));
}

void SiteCore::deliver(unsigned from, std::uint32_t epoch, std::uint64_t seq,
                       ClusterOp op) {
  if (from >= opt_.sites || from == opt_.site_id) return;
  inbox_.push_back({from, epoch, seq, std::move(op)});
}

void SiteCore::on_ack(unsigned peer, std::uint32_t epoch,
                      const AppliedSeqs& acked) {
  if (epoch != epoch_ || peer >= opt_.sites) return;
  // Ack-after-durable: everything the receiver acked is in its WAL, so
  // pruning here is final — no replay obligation survives.
  std::erase_if(channels_[peer].pending,
                [&](const auto& kv) { return acked.contains(kv.first); });
}

SiteOutput SiteCore::take_output() { return std::exchange(out_, {}); }

std::uint64_t SiteCore::pending() const {
  std::uint64_t n = delayed_.size();
  for (const Channel& ch : channels_) n += ch.pending.size();
  return n;
}

std::size_t SiteCore::conflict_set_size() const {
  return matcher_->conflict_set().size();
}

void SiteCore::journal(SiteBatchRecord rec) {
  if (!opt_.journal) return;
  rec.seq = ++wal_seq_;
  rec.epoch = epoch_;
  out_.journal.push_back(
      {false, encode_site_batch(rec, *program_.symbols, program_.schema)});
  ++counters_.batches;
}

void SiteCore::snapshot(std::uint64_t cycle) {
  SiteCheckpoint cp = capture_checkpoint(cycle, *wm_, recv_);
  SiteSnapshotRecord snap;
  snap.seq = wal_seq_;
  snap.epoch = epoch_;
  snap.cycle = cycle;
  snap.facts = std::move(cp.facts);
  snap.recv = std::move(cp.recv);
  out_.journal.push_back(
      {true, encode_site_snapshot(snap, *program_.symbols, program_.schema)});
  batches_since_snapshot_ = 0;
  ++counters_.snapshots;
}

void SiteCore::route_op(const PendingOp& op,
                        std::vector<ClusterOp>& local_ops) {
  auto deliver_to = [&](unsigned to, ClusterOp cop) {
    if (to == opt_.site_id) {
      // Local: apply immediately, preserving op order at this site, and
      // record for the WAL — replay must reproduce it. Loopback never
      // traverses the network, so no faults apply.
      apply_cluster_op(*wm_, cop);
      local_ops.push_back(std::move(cop));
      return;
    }
    Channel& ch = channels_[to];
    OutEntry entry;
    entry.op = std::move(cop);
    entry.backoff = kInitialBackoff;
    entry.next_retry = cycle_;  // transmit this cycle
    ch.pending.emplace(ch.next_seq++, std::move(entry));
    ++out_.messages;
  };
  auto route_content = [&](ClusterOp cop) {
    if (scheme_.replicated(cop.tmpl)) {
      ++out_.broadcasts;
      for (unsigned s = 0; s < opt_.sites; ++s) deliver_to(s, cop);
    } else {
      const unsigned owner = scheme_.site_of(cop.tmpl, cop.slots, opt_.sites);
      deliver_to(owner, std::move(cop));
    }
  };
  switch (op.kind) {
    case PendingOp::Kind::Assert:
      route_content({ClusterOp::Kind::Assert, op.tmpl, op.slots});
      break;
    case PendingOp::Kind::Retract: {
      const FactView fact = wm_->view(op.retract_id);
      route_content({ClusterOp::Kind::Retract, fact.tmpl(),
                     fact.copy_slots()});
      break;
    }
    case PendingOp::Kind::Modify: {
      const FactView fact = wm_->view(op.retract_id);
      route_content({ClusterOp::Kind::Retract, fact.tmpl(),
                     fact.copy_slots()});
      route_content({ClusterOp::Kind::Assert, op.tmpl, op.slots});
      break;
    }
  }
}

void SiteCore::transmit(unsigned to, std::uint64_t seq, OutEntry& entry) {
  if (entry.attempted) {
    ++counters_.retries;
    entry.backoff = std::min(entry.backoff * 2, kMaxBackoff);
  }
  entry.attempted = true;
  entry.next_retry = cycle_ + entry.backoff;
  ++counters_.sent;
  const FaultVerdict v = injector_ ? injector_->roll() : FaultVerdict{};
  if (v.drop) {
    ++counters_.dropped;  // lost on the wire; the ack timeout covers it
    return;
  }
  SiteSend send{to, epoch_, seq, entry.op};
  if (v.delay > 0) {
    ++counters_.delayed;
    delayed_.push_back({cycle_ + 1 + v.delay, std::move(send)});
    return;
  }
  if (v.duplicate) {
    ++counters_.sent;
    out_.sends.push_back(send);
  }
  out_.sends.push_back(std::move(send));
}

void SiteCore::run_cycle(std::uint64_t cycle) {
  cycle_ = cycle;

  // Phase 0: delayed transmissions falling due this cycle.
  auto due = std::stable_partition(
      delayed_.begin(), delayed_.end(),
      [&](const Delayed& d) { return d.due > cycle; });
  for (auto it = due; it != delayed_.end(); ++it) {
    out_.sends.push_back(std::move(it->send));
  }
  delayed_.erase(due, delayed_.end());

  // Phase 1: drain the inbox — dedup by (from, epoch, seq), apply fresh
  // messages, remember them for the WAL, and owe each sender an ack.
  std::vector<SiteAppliedMsg> applied;
  for (SiteAppliedMsg& msg : inbox_) {
    Channel& ch = channels_[msg.from];
    ch.ack_needed = true;
    ch.ack_epoch = msg.epoch;
    AppliedSeqs& seqs = recv_[msg.from].by_epoch[msg.epoch];
    if (seqs.contains(msg.seq)) {
      ++counters_.dup;
      continue;
    }
    seqs.add(msg.seq);
    apply_cluster_op(*wm_, msg.op);
    applied.push_back(std::move(msg));
  }
  inbox_.clear();
  out_.applied = applied.size();
  counters_.applied += applied.size();

  // Phase 2: match + meta-redact + fire against the local snapshot.
  std::vector<PendingOps> pending;
  matcher_->apply_delta(*wm_, wm_->drain_delta());
  ConflictSet& cs = matcher_->conflict_set();
  const std::vector<InstId> eligible = cs.alive_ids();
  if (!eligible.empty()) {
    std::vector<InstId> to_fire;
    if (meta_.active()) {
      const MetaOutcome outcome = meta_.run(*wm_, cs, eligible, nullptr);
      out_.redacted = outcome.redacted.size();
      std::set_difference(eligible.begin(), eligible.end(),
                          outcome.redacted.begin(), outcome.redacted.end(),
                          std::back_inserter(to_fire));
    } else {
      to_fire = eligible;
    }
    pending.resize(to_fire.size());
    for (std::size_t i = 0; i < to_fire.size(); ++i) {
      fire_buffered(program_, cs.get(to_fire[i]), *wm_, pending[i]);
      cs.mark_fired(to_fire[i]);
    }
    out_.fired = to_fire.size();
    counters_.firings += to_fire.size();
  }

  // Phase 3: route buffered ops — local ops apply in place, remote ops
  // join their channel's pending map.
  std::vector<ClusterOp> local_ops;
  for (const PendingOps& po : pending) {
    for (const PendingOp& op : po.ops) route_op(op, local_ops);
    out_.printout += po.printout;
    if (po.halt) halted_ = true;
  }

  // Phase 4: make the cycle durable, THEN ack — ack-after-durable is
  // the invariant the whole pruning scheme rests on.
  if (!applied.empty() || !local_ops.empty()) {
    SiteBatchRecord rec;
    rec.cycle = cycle;
    rec.applied = std::move(applied);
    rec.local = std::move(local_ops);
    journal(std::move(rec));
    if (opt_.journal && opt_.checkpoint_every > 0 &&
        ++batches_since_snapshot_ >= opt_.checkpoint_every) {
      snapshot(cycle);
    }
  }
  for (unsigned s = 0; s < opt_.sites; ++s) {
    Channel& ch = channels_[s];
    if (!ch.ack_needed) continue;
    ch.ack_needed = false;
    out_.acks.push_back({s, ch.ack_epoch, recv_[s].by_epoch[ch.ack_epoch]});
  }

  // Phase 5: transmit everything due (new sends and backoff retries).
  for (unsigned to = 0; to < opt_.sites; ++to) {
    for (auto& [seq, entry] : channels_[to].pending) {
      if (cycle >= entry.next_retry) transmit(to, seq, entry);
    }
  }
}

}  // namespace parulel
