// Checkpoint state: a site's alive facts plus its receive-side dedup
// state, and the content-only snapshot a Session restores from.
//
// AppliedSeqs / ChannelRecvState record exactly which (sender, epoch,
// sequence-number) messages a site has applied; the site core dedups
// against them and its WAL snapshots carry them (site_core.hpp,
// site_journal.hpp). A SiteCheckpoint captures alive fact contents plus
// that state; restore_working_memory rebuilds a fresh WorkingMemory from
// it (the full fact set lands in the pending delta, so a rebuilt
// matcher re-derives the conflict set on the next cycle).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "wm/working_memory.hpp"

namespace parulel {

/// Compressed set of applied sequence numbers on one (sender, epoch)
/// stream: a contiguous prefix [1, floor] plus a sparse out-of-order
/// tail — delays and duplicates keep the tail tiny in practice.
struct AppliedSeqs {
  std::uint64_t floor = 0;         ///< every seq <= floor was applied
  std::set<std::uint64_t> sparse;  ///< applied seqs > floor, non-contiguous

  bool contains(std::uint64_t seq) const {
    return seq <= floor || sparse.count(seq) != 0;
  }

  void add(std::uint64_t seq) {
    if (contains(seq)) return;
    if (seq == floor + 1) {
      ++floor;
      auto it = sparse.begin();
      while (it != sparse.end() && *it == floor + 1) {
        ++floor;
        it = sparse.erase(it);
      }
    } else {
      sparse.insert(seq);
    }
  }
};

/// Receive-side dedup state for one incoming channel. Keyed by the
/// sender's incarnation number (epoch): a restarted sender begins a
/// fresh sequence stream, so seqs are only comparable within an epoch.
struct ChannelRecvState {
  std::map<std::uint32_t, AppliedSeqs> by_epoch;
};

/// One site's durable snapshot.
struct SiteCheckpoint {
  std::uint64_t cycle = 0;
  /// Alive fact contents (ids are site-local and not preserved).
  std::vector<std::pair<TemplateId, std::vector<Value>>> facts;
  /// Per-sender applied-message record, indexed by sender site.
  std::vector<ChannelRecvState> recv;
};

/// Snapshot `wm`'s alive facts and the receive-side channel state.
SiteCheckpoint capture_checkpoint(std::uint64_t cycle,
                                  const WorkingMemory& wm,
                                  const std::vector<ChannelRecvState>& recv);

/// Build a fresh working memory holding exactly the checkpointed facts.
/// All of them land in the pending delta, so a fresh matcher picks the
/// whole store up on the next apply_delta.
std::unique_ptr<WorkingMemory> restore_working_memory(
    const Schema& schema, const SiteCheckpoint& checkpoint);

}  // namespace parulel
