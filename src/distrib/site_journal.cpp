#include "distrib/site_journal.hpp"

#include "service/journal.hpp"

namespace parulel {

namespace {

using service::ByteReader;
using service::ByteWriter;
using service::JournalError;
using service::RecordType;

void encode_op_body(ByteWriter& w, const ClusterOp& op,
                    const SymbolTable& symbols, const Schema& schema) {
  w.str(encode_op_wire(op, symbols, schema));
}

ClusterOp decode_op_body(ByteReader& r, SymbolTable& symbols,
                         const Schema& schema) {
  return decode_op_wire(r.str(), symbols, schema);
}

void expect_type(ByteReader& r, RecordType want, const char* what) {
  const auto got = r.u8();
  if (got != static_cast<std::uint8_t>(want)) {
    throw JournalError(std::string("site WAL payload is not a ") + what +
                       " record (type " + std::to_string(got) + ")");
  }
}

}  // namespace

std::string encode_site_batch(const SiteBatchRecord& rec,
                              const SymbolTable& symbols,
                              const Schema& schema) {
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(RecordType::SiteBatch));
  w.u64(rec.seq);
  w.u32(rec.epoch);
  w.u64(rec.cycle);
  w.u32(static_cast<std::uint32_t>(rec.applied.size()));
  for (const SiteAppliedMsg& msg : rec.applied) {
    w.u32(msg.from);
    w.u32(msg.epoch);
    w.u64(msg.seq);
    encode_op_body(w, msg.op, symbols, schema);
  }
  w.u32(static_cast<std::uint32_t>(rec.local.size()));
  for (const ClusterOp& op : rec.local) {
    encode_op_body(w, op, symbols, schema);
  }
  return w.take();
}

SiteBatchRecord decode_site_batch(std::string_view payload,
                                  SymbolTable& symbols, const Schema& schema) {
  ByteReader r(payload);
  expect_type(r, RecordType::SiteBatch, "site-batch");
  SiteBatchRecord rec;
  rec.seq = r.u64();
  rec.epoch = r.u32();
  rec.cycle = r.u64();
  rec.applied.resize(r.u32());
  for (SiteAppliedMsg& msg : rec.applied) {
    msg.from = r.u32();
    msg.epoch = r.u32();
    msg.seq = r.u64();
    msg.op = decode_op_body(r, symbols, schema);
  }
  rec.local.resize(r.u32());
  for (ClusterOp& op : rec.local) {
    op = decode_op_body(r, symbols, schema);
  }
  r.finish();
  return rec;
}

std::string encode_site_snapshot(const SiteSnapshotRecord& rec,
                                 const SymbolTable& symbols,
                                 const Schema& schema) {
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(RecordType::SiteSnapshot));
  w.u64(rec.seq);
  w.u32(rec.epoch);
  w.u64(rec.cycle);
  w.u32(static_cast<std::uint32_t>(rec.facts.size()));
  for (const auto& [tmpl, slots] : rec.facts) {
    w.str(encode_fact_wire(tmpl, slots, symbols, schema));
  }
  w.u32(static_cast<std::uint32_t>(rec.recv.size()));
  for (const ChannelRecvState& chan : rec.recv) {
    w.u32(static_cast<std::uint32_t>(chan.by_epoch.size()));
    for (const auto& [epoch, seqs] : chan.by_epoch) {
      w.u32(epoch);
      w.u64(seqs.floor);
      w.u32(static_cast<std::uint32_t>(seqs.sparse.size()));
      for (const std::uint64_t seq : seqs.sparse) w.u64(seq);
    }
  }
  return w.take();
}

SiteSnapshotRecord decode_site_snapshot(std::string_view payload,
                                        SymbolTable& symbols,
                                        const Schema& schema) {
  ByteReader r(payload);
  expect_type(r, RecordType::SiteSnapshot, "site-snapshot");
  SiteSnapshotRecord rec;
  rec.seq = r.u64();
  rec.epoch = r.u32();
  rec.cycle = r.u64();
  rec.facts.resize(r.u32());
  for (auto& fact : rec.facts) {
    fact = decode_fact_wire(r.str(), symbols, schema);
  }
  rec.recv.resize(r.u32());
  for (ChannelRecvState& chan : rec.recv) {
    const std::uint32_t epochs = r.u32();
    for (std::uint32_t i = 0; i < epochs; ++i) {
      const std::uint32_t epoch = r.u32();
      AppliedSeqs& seqs = chan.by_epoch[epoch];
      seqs.floor = r.u64();
      const std::uint32_t sparse = r.u32();
      for (std::uint32_t k = 0; k < sparse; ++k) seqs.sparse.insert(r.u64());
    }
  }
  r.finish();
  return rec;
}

void apply_cluster_op(WorkingMemory& wm, const ClusterOp& op) {
  if (op.kind == ClusterOp::Kind::Assert) {
    wm.assert_fact(op.tmpl, op.slots);
  } else if (auto id = wm.find(op.tmpl, op.slots)) {
    wm.retract(*id);
  }
}

SiteRecovery replay_site_records(std::span<const std::string> payloads,
                                 const Program& program, unsigned site_count,
                                 const std::string& origin) {
  SiteRecovery rec;
  rec.wm = std::make_unique<WorkingMemory>(program.schema);
  rec.recv.resize(site_count);

  std::uint32_t max_epoch = 0;
  for (const std::string& payload : payloads) {
    switch (service::record_type(payload)) {
      case RecordType::SiteSnapshot: {
        SiteSnapshotRecord snap =
            decode_site_snapshot(payload, *program.symbols, program.schema);
        // A snapshot replaces everything replayed so far (it is the
        // fold of all earlier records); batches after it replay on top.
        rec.wm = std::make_unique<WorkingMemory>(program.schema);
        for (const auto& [tmpl, slots] : snap.facts) {
          rec.wm->assert_fact(tmpl, slots);
        }
        rec.recv.assign(site_count, {});
        for (std::size_t i = 0; i < snap.recv.size() && i < site_count; ++i) {
          rec.recv[i] = std::move(snap.recv[i]);
        }
        rec.last_seq = snap.seq;
        rec.cycle = snap.cycle;
        rec.batches = 0;
        if (snap.epoch > max_epoch) max_epoch = snap.epoch;
        break;
      }
      case RecordType::SiteBatch: {
        SiteBatchRecord batch =
            decode_site_batch(payload, *program.symbols, program.schema);
        if (batch.seq != rec.last_seq + 1) {
          throw JournalError("site WAL '" + origin + "' has a sequence gap: " +
                             std::to_string(rec.last_seq) + " -> " +
                             std::to_string(batch.seq));
        }
        for (const SiteAppliedMsg& msg : batch.applied) {
          if (msg.from < site_count) {
            rec.recv[msg.from].by_epoch[msg.epoch].add(msg.seq);
          }
          apply_cluster_op(*rec.wm, msg.op);
        }
        for (const ClusterOp& op : batch.local) {
          apply_cluster_op(*rec.wm, op);
        }
        rec.last_seq = batch.seq;
        rec.cycle = batch.cycle;
        ++rec.batches;
        if (batch.epoch > max_epoch) max_epoch = batch.epoch;
        break;
      }
      default:
        throw JournalError("site WAL '" + origin +
                           "' holds a service record (type " +
                           std::to_string(static_cast<std::uint8_t>(
                               service::record_type(payload))) +
                           "); it is not a site WAL");
    }
  }
  rec.next_epoch = max_epoch + 1;
  return rec;
}

SiteRecovery recover_site_wal(const std::string& path, const Program& program,
                              const std::string& program_text,
                              unsigned site_count) {
  const service::JournalScan scan = service::scan_journal(path);
  if (scan.header.program_text != program_text) {
    throw JournalError("site WAL '" + path +
                       "' was written by a different program text; refusing "
                       "to replay it into this run");
  }
  SiteRecovery rec =
      replay_site_records(scan.payloads, program, site_count, path);
  rec.torn_bytes = scan.torn_bytes;
  rec.torn_kind = scan.torn_kind;
  rec.torn_offset = scan.torn_offset;
  return rec;
}

}  // namespace parulel
