// Per-site write-ahead log for the multi-process cluster.
//
// Each parulel_site process journals what it APPLIED, not what it sent:
// one SiteBatch record per cycle that changed anything, carrying the
// peer messages applied that cycle (with their (from, epoch, seq) dedup
// identity) and the ops the site's own rule firings applied locally.
// The record is written — and fsynced — BEFORE the site acks the peer
// messages it covers; that ack-after-durable ordering is what lets
// senders prune acked entries immediately: anything acked IS on disk at
// the receiver. A kill -9 can only lose unacked messages, and those the
// sender retransmits to the recovered incarnation.
//
// Recovery replays the WAL into a fresh WorkingMemory (snapshot facts,
// then each batch's peer ops and local ops in applied order — content
// idempotence makes replay safe even across the torn tail), restores
// the receive-side dedup state so retransmits of already-durable
// messages are suppressed, and bumps the epoch: the recovered
// incarnation journals an empty epoch-marker batch before sending
// anything, so a rapid double-crash still yields strictly increasing
// epochs.
//
// Records ride the service journal's file machinery (service/
// journal.hpp): same CRC framing, torn-tail tolerance, atomic
// header+snapshot rewrite. Only the payload codecs are cluster-specific
// (RecordType::SiteBatch / SiteSnapshot).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "distrib/checkpoint.hpp"
#include "distrib/wire.hpp"

namespace parulel {

/// One peer message this site applied, with its stream identity — the
/// durable form of an inbox entry. Replay re-adds (from, epoch, seq) to
/// the dedup state so the sender's retransmit is suppressed, then
/// re-applies the op.
struct SiteAppliedMsg {
  std::uint32_t from = 0;
  std::uint32_t epoch = 1;
  std::uint64_t seq = 0;
  ClusterOp op;
};

/// Everything one cycle made durable. `seq` is 1-based and contiguous
/// per WAL (gap-checked on replay); `epoch` is the incarnation that
/// wrote the record — recovery's next_epoch is max(epoch seen) + 1. An
/// empty record (no applied, no local) is an epoch marker.
struct SiteBatchRecord {
  std::uint64_t seq = 0;
  std::uint32_t epoch = 1;
  std::uint64_t cycle = 0;
  std::vector<SiteAppliedMsg> applied;
  std::vector<ClusterOp> local;

  bool empty() const { return applied.empty() && local.empty(); }
};

/// The site checkpoint a truncation rewrite folds the log into: alive
/// fact contents plus per-sender applied-seq state (the same shape as
/// SiteCheckpoint — checkpoint.hpp).
struct SiteSnapshotRecord {
  std::uint64_t seq = 0;    ///< seq of the last batch folded in
  std::uint32_t epoch = 1;  ///< incarnation that wrote the snapshot
  std::uint64_t cycle = 0;
  std::vector<std::pair<TemplateId, std::vector<Value>>> facts;
  std::vector<ChannelRecvState> recv;
};

// -- payload codecs (first byte = RecordType::SiteBatch/SiteSnapshot) --

std::string encode_site_batch(const SiteBatchRecord& rec,
                              const SymbolTable& symbols,
                              const Schema& schema);
SiteBatchRecord decode_site_batch(std::string_view payload,
                                  SymbolTable& symbols, const Schema& schema);

std::string encode_site_snapshot(const SiteSnapshotRecord& rec,
                                 const SymbolTable& symbols,
                                 const Schema& schema);
SiteSnapshotRecord decode_site_snapshot(std::string_view payload,
                                        SymbolTable& symbols,
                                        const Schema& schema);

/// Apply one op to a working memory with the cluster's content
/// semantics: asserts absorb into set semantics, retract-of-missing is
/// a no-op. Shared by the live site cycle and WAL replay — one
/// definition of "apply" keeps replay exact.
void apply_cluster_op(WorkingMemory& wm, const ClusterOp& op);

/// What replay_site_records rebuilt from one site's WAL.
struct SiteRecovery {
  std::uint32_t next_epoch = 1;  ///< epoch the new incarnation must use
  std::uint64_t last_seq = 0;    ///< last batch record seq (0 = none)
  std::uint64_t cycle = 0;       ///< cycle of the last record replayed
  std::uint64_t batches = 0;     ///< batch records replayed (post-snapshot)
  std::unique_ptr<WorkingMemory> wm;   ///< replayed fact store
  std::vector<ChannelRecvState> recv;  ///< replayed dedup state
  std::uint64_t torn_bytes = 0;        ///< dropped torn-tail bytes
  std::string torn_kind;               ///< which record kind was torn
  std::uint64_t torn_offset = 0;       ///< byte offset of the torn frame
};

/// Replay a site WAL's record payloads, in log order — the one replay
/// path: a recovering parulel_site feeds it the records of its WAL file
/// (recover_site_wal below), the simulator the payloads it kept in
/// memory. Throws service::JournalError on a sequence gap or a foreign
/// record; `origin` names the WAL in those errors. `site_count` sizes
/// the recv vector for senders the log never heard from.
SiteRecovery replay_site_records(std::span<const std::string> payloads,
                                 const Program& program, unsigned site_count,
                                 const std::string& origin);

/// Scan + replay an existing site WAL file. Throws service::JournalError
/// on corruption, version skew, or a header whose program text differs
/// from `program` (the WAL belongs to a different run — fail closed).
SiteRecovery recover_site_wal(const std::string& path,
                              const Program& program,
                              const std::string& program_text,
                              unsigned site_count);

}  // namespace parulel
