// Replication tests: the WAL-shipping pipeline end to end — durable-prefix
// tailing (WalLog::ReadDurable), the segment codec, both transports, the
// replica apply path with its CSN watermark, freshness-bounded reads,
// WAL retention across primary checkpoints, replica restart/checkpoint
// resume, DDL replication, and the promotion path.
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/coding.h"

#include "engine/engine.h"
#include "leak_check.h"
#include "obs/event_log.h"
#include "repl/replica_applier.h"
#include "repl/ship_transport.h"
#include "repl/wal_segment.h"
#include "repl/wal_shipper.h"
#include "storage/wal_log.h"
#include "testing/fault_injector.h"
#include "util/workload.h"

namespace xdb {
namespace repl {
namespace {

class ReplTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const std::string stem =
        (std::filesystem::temp_directory_path() /
         ("xdb_repl_" + std::to_string(::getpid()) + "_" +
          std::to_string(counter_++)))
            .string();
    primary_dir_ = stem + "_p";
    replica_dir_ = stem + "_r";
    spool_dir_ = stem + "_s";
    for (const std::string& d : {primary_dir_, replica_dir_, spool_dir_}) {
      std::filesystem::remove_all(d);
      std::filesystem::create_directories(d);
    }
  }
  void TearDown() override {
    for (const std::string& d : {primary_dir_, replica_dir_, spool_dir_})
      std::filesystem::remove_all(d);
  }

  EngineOptions PrimaryOptions() {
    EngineOptions opts;
    opts.dir = primary_dir_;
    return opts;
  }
  EngineOptions ReplicaOptions() {
    EngineOptions opts;
    opts.dir = replica_dir_;
    opts.replica = true;
    return opts;
  }

  /// Ship/apply rounds until both sides go idle. Multiple rounds let
  /// resync requests (which need another shipper pass) converge.
  static void Pump(WalShipper* shipper, ReplicaApplier* applier,
                   int rounds = 8) {
    for (int i = 0; i < rounds; i++) {
      Status s = shipper->ShipAll();
      ASSERT_TRUE(s.ok()) << s.ToString();
      s = applier->CatchUp();
      ASSERT_TRUE(s.ok()) << s.ToString();
    }
  }

  std::string primary_dir_, replica_dir_, spool_dir_;
  static int counter_;
};
int ReplTest::counter_ = 0;

// --- segment codec ---

TEST(WalSegmentTest, RoundTripsAndRejectsDamage) {
  WalSegment seg;
  seg.stream_offset = 12345;
  seg.wal_gen = 3;
  seg.record_count = 7;
  seg.payload = "framed-record-bytes-go-here";
  std::string wire;
  EncodeSegment(seg, &wire);

  auto back = DecodeSegment(wire);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back.value().stream_offset, 12345u);
  EXPECT_EQ(back.value().wal_gen, 3u);
  EXPECT_EQ(back.value().record_count, 7u);
  EXPECT_EQ(back.value().payload, seg.payload);
  EXPECT_EQ(back.value().end_csn(), 12345u + seg.payload.size());

  // Truncated at every length: never OK, never a crash.
  for (size_t n = 0; n < wire.size(); n++) {
    auto r = DecodeSegment(Slice(wire.data(), n));
    EXPECT_TRUE(r.status().IsCorruption()) << "len=" << n;
  }
  // A flipped payload byte fails the CRC; a flipped magic byte the magic.
  std::string flipped = wire;
  flipped[kSegmentHeaderSize + 3] ^= 0x40;
  EXPECT_TRUE(DecodeSegment(flipped).status().IsCorruption());
  flipped = wire;
  flipped[0] ^= 0x01;
  EXPECT_TRUE(DecodeSegment(flipped).status().IsCorruption());
}

// --- ReadDurable: the durable-prefix tailing contract ---

TEST(ReadDurableTest, StopsAtDurableBoundaryAndPaginates) {
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("xdb_repl_wal_" + std::to_string(::getpid())))
          .string();
  std::remove(path.c_str());
  auto wal = WalLog::Open(path).MoveValue();

  ASSERT_TRUE(wal->Append(WalRecordType::kCommit, "one").ok());
  ASSERT_TRUE(wal->Append(WalRecordType::kCommit, "two").ok());

  // Nothing synced yet: a tailer sees an empty durable prefix.
  std::string out;
  uint64_t end = 99;
  uint32_t count = 99;
  ASSERT_TRUE(wal->ReadDurable(0, 1 << 20, &out, &end, &count).ok());
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(end, 0u);
  EXPECT_EQ(count, 0u);

  ASSERT_TRUE(wal->Commit().ok());
  uint64_t third = wal->Append(WalRecordType::kCommit, "three").value();
  // "three" is appended but not yet synced: only two records are readable.
  ASSERT_TRUE(wal->ReadDurable(0, 1 << 20, &out, &end, &count).ok());
  EXPECT_EQ(count, 2u);
  EXPECT_EQ(end, third);
  EXPECT_EQ(out.size(), third);

  // max_bytes = 1 still returns the first record whole (always progress),
  // and the second call resumes exactly where the first stopped.
  ASSERT_TRUE(wal->Commit().ok());
  ASSERT_TRUE(wal->ReadDurable(0, 1, &out, &end, &count).ok());
  EXPECT_EQ(count, 1u);
  uint64_t resume = end;
  ASSERT_TRUE(wal->ReadDurable(resume, 1 << 20, &out, &end, &count).ok());
  EXPECT_EQ(count, 2u);
  EXPECT_EQ(end, wal->size());

  // Raw bytes re-append verbatim into another log and replay identically —
  // the exact path a replica's ApplyReplicatedRecords takes.
  ASSERT_TRUE(wal->ReadDurable(0, 1 << 20, &out, &end, &count).ok());
  const std::string path2 = path + "2";
  std::remove(path2.c_str());
  auto wal2 = WalLog::Open(path2).MoveValue();
  ASSERT_TRUE(wal2->AppendRaw(out).ok());
  std::vector<std::string> payloads;
  WalReplayInfo info;
  ASSERT_TRUE(wal2->Replay(
                      [&](uint64_t, WalRecordType, Slice p) {
                        payloads.push_back(p.ToString());
                        return Status::OK();
                      },
                      &info)
                  .ok());
  ASSERT_EQ(payloads.size(), 3u);
  EXPECT_EQ(payloads[0], "one");
  EXPECT_EQ(payloads[1], "two");
  EXPECT_EQ(payloads[2], "three");
  EXPECT_FALSE(info.torn_tail);
  std::remove(path.c_str());
  std::remove(path2.c_str());
}

// --- end to end over the in-process transport ---

TEST_F(ReplTest, ShipsDocumentsAndServesFreshReads) {
  auto primary = Engine::Open(PrimaryOptions()).MoveValue();
  auto replica = Engine::Open(ReplicaOptions()).MoveValue();
  InProcessTransport transport;
  WalShipper shipper(primary.get(), &transport);
  auto applier =
      ReplicaApplier::Attach(replica.get(), &transport).MoveValue();

  Collection* coll = primary->CreateCollection("docs").value();
  for (int i = 0; i < 20; i++) {
    ASSERT_TRUE(coll->InsertDocument(nullptr, "<d><n>" + std::to_string(i) +
                                                  "</n></d>")
                    .ok());
  }
  Pump(&shipper, applier.get());

  EXPECT_EQ(replica->applied_csn(), shipper.shipped_csn());
  Collection* rcoll = replica->GetCollection("docs").value();
  EXPECT_EQ(rcoll->DocCount().value(), 20u);
  EXPECT_EQ(rcoll->GetDocumentText(nullptr, 5).value(), "<d><n>4</n></d>");

  // Read-your-writes: a query demanding the shipped CSN succeeds with no
  // timeout budget at all, because the replica is caught up.
  QueryOptions fresh;
  fresh.min_csn = shipper.shipped_csn();
  auto res = rcoll->Query(nullptr, "/d/n", fresh);
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  EXPECT_EQ(res.value().nodes.size(), 20u);

  const auto snap = replica->MetricsSnapshot();
  EXPECT_GT(snap.Value("repl.apply.segments"), 0u);
  EXPECT_EQ(snap.Value("repl.apply.csn"), replica->applied_csn());
  EXPECT_EQ(snap.Value("repl.apply.gaps"), 0u);
}

TEST_F(ReplTest, StaleReplicaFailsFreshReadsUntilCaughtUp) {
  auto primary = Engine::Open(PrimaryOptions()).MoveValue();
  auto replica = Engine::Open(ReplicaOptions()).MoveValue();
  InProcessTransport transport;
  WalShipper shipper(primary.get(), &transport);
  auto applier =
      ReplicaApplier::Attach(replica.get(), &transport).MoveValue();

  Collection* coll = primary->CreateCollection("docs").value();
  ASSERT_TRUE(coll->InsertDocument(nullptr, "<a>1</a>").ok());
  Pump(&shipper, applier.get());
  Collection* rcoll = replica->GetCollection("docs").value();

  // More primary writes that never ship.
  ASSERT_TRUE(coll->InsertDocument(nullptr, "<a>2</a>").ok());
  ASSERT_TRUE(shipper.ShipAll().ok());  // queued on the transport...
  // ...but not applied. A bounded wait times out as kStale.
  QueryOptions fresh;
  fresh.min_csn = shipper.shipped_csn();
  fresh.freshness_timeout_us = 2000;
  EXPECT_TRUE(rcoll->Query(nullptr, "/a", fresh).status().IsStale());
  // And an unbounded-past read (min_csn = 0) still serves the stale image.
  EXPECT_EQ(rcoll->Query(nullptr, "/a").value().nodes.size(), 1u);

  ASSERT_TRUE(applier->CatchUp().ok());
  auto res = rcoll->Query(nullptr, "/a", fresh);
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  EXPECT_EQ(res.value().nodes.size(), 2u);

  // WaitForFreshness on the *primary* never blocks: its reads are fresh by
  // definition.
  EXPECT_TRUE(primary->WaitForFreshness(1 << 30, 0).ok());
}

TEST_F(ReplTest, ReplicaRejectsEveryLocalMutation) {
  auto primary = Engine::Open(PrimaryOptions()).MoveValue();
  auto replica = Engine::Open(ReplicaOptions()).MoveValue();
  InProcessTransport transport;
  WalShipper shipper(primary.get(), &transport);
  auto applier =
      ReplicaApplier::Attach(replica.get(), &transport).MoveValue();
  Collection* coll = primary->CreateCollection("docs").value();
  ASSERT_TRUE(coll->InsertDocument(nullptr, "<a><b>x</b></a>").ok());
  Pump(&shipper, applier.get());

  Collection* rcoll = replica->GetCollection("docs").value();
  EXPECT_TRUE(
      rcoll->InsertDocument(nullptr, "<a/>").status().IsNotSupported());
  EXPECT_TRUE(rcoll->DeleteDocument(nullptr, 1).IsNotSupported());
  EXPECT_TRUE(rcoll->UpdateTextNode(nullptr, 1, "\x01", "y")
                  .IsNotSupported());
  EXPECT_TRUE(
      rcoll->CreateValueIndex({"i", "/a/b", ValueType::kString, 64})
          .IsNotSupported());
  EXPECT_TRUE(rcoll->DropValueIndex("i").IsNotSupported());
  EXPECT_TRUE(
      rcoll->CreateStructuralIndex({"structure", ""}).IsNotSupported());
  EXPECT_TRUE(rcoll->DropStructuralIndex("structure").IsNotSupported());
  EXPECT_TRUE(
      replica->CreateCollection("nope").status().IsNotSupported());
  EXPECT_TRUE(replica->DropCollection("docs").IsNotSupported());
  EXPECT_TRUE(
      replica->RegisterSchema("s", "<schema/>").IsNotSupported());
  // Reads still fine.
  EXPECT_EQ(rcoll->DocCount().value(), 1u);
}

// --- WAL retention vs checkpoints, and the stream-base fold ---

TEST_F(ReplTest, CheckpointRetainsUnackedWalThenTruncatesAfterAck) {
  auto primary = Engine::Open(PrimaryOptions()).MoveValue();
  auto replica = Engine::Open(ReplicaOptions()).MoveValue();
  InProcessTransport transport;
  WalShipper shipper(primary.get(), &transport);
  auto applier =
      ReplicaApplier::Attach(replica.get(), &transport).MoveValue();

  Collection* coll = primary->CreateCollection("docs").value();
  ASSERT_TRUE(coll->InsertDocument(nullptr, "<a>pre</a>").ok());

  // Nothing shipped yet: the checkpoint must NOT truncate the WAL.
  const uint64_t before = primary->wal()->size();
  ASSERT_GT(before, 0u);
  ASSERT_TRUE(primary->Checkpoint().ok());
  EXPECT_EQ(primary->wal()->size(), before)
      << "checkpoint truncated WAL bytes the replica never received";

  Pump(&shipper, applier.get());
  // Fully shipped and acked: now the checkpoint may truncate.
  ASSERT_TRUE(primary->Checkpoint().ok());
  EXPECT_EQ(primary->wal()->size(), 0u);

  // Writes after the truncation keep the stream CSN monotonic (base fold)
  // and keep replicating.
  ASSERT_TRUE(coll->InsertDocument(nullptr, "<a>post</a>").ok());
  const uint64_t before_csn = shipper.shipped_csn();
  Pump(&shipper, applier.get());
  EXPECT_GT(shipper.shipped_csn(), before_csn);
  EXPECT_EQ(replica->applied_csn(), shipper.shipped_csn());
  Collection* rcoll = replica->GetCollection("docs").value();
  EXPECT_EQ(rcoll->DocCount().value(), 2u);
}

// --- replica durability: restart resumes from the watermark ---

TEST_F(ReplTest, ReplicaRestartResumesExactlyOnce) {
  auto primary = Engine::Open(PrimaryOptions()).MoveValue();
  InProcessTransport transport;
  WalShipper shipper(primary.get(), &transport);
  Collection* coll = primary->CreateCollection("docs").value();

  {
    Engine* replica = IntentionallyLeaked(
        Engine::Open(ReplicaOptions()).MoveValue().release());
    auto applier = ReplicaApplier::Attach(replica, &transport).MoveValue();
    for (int i = 0; i < 10; i++)
      ASSERT_TRUE(
          coll->InsertDocument(nullptr, "<a>" + std::to_string(i) + "</a>")
              .ok());
    Pump(&shipper, applier.get());
    ASSERT_EQ(replica->applied_csn(), shipper.shipped_csn());
    // Crash the replica: no checkpoint, no clean shutdown.
  }

  // More primary traffic while the replica is down.
  for (int i = 10; i < 15; i++)
    ASSERT_TRUE(
        coll->InsertDocument(nullptr, "<a>" + std::to_string(i) + "</a>")
            .ok());

  auto replica = Engine::Open(ReplicaOptions()).MoveValue();
  // The reopened watermark equals base + intact local WAL: everything the
  // dead applier acknowledged survived in the replica's own log.
  EXPECT_GT(replica->applied_csn(), 0u);
  auto applier =
      ReplicaApplier::Attach(replica.get(), &transport).MoveValue();
  Pump(&shipper, applier.get());
  Collection* rcoll = replica->GetCollection("docs").value();
  EXPECT_EQ(rcoll->DocCount().value(), 15u);
  for (uint64_t d = 1; d <= 15; d++)
    EXPECT_EQ(rcoll->GetDocumentText(nullptr, d).value(),
              "<a>" + std::to_string(d - 1) + "</a>");
}

TEST_F(ReplTest, ReplicaCheckpointFoldsWalIntoBaseAndSurvivesRestart) {
  auto primary = Engine::Open(PrimaryOptions()).MoveValue();
  InProcessTransport transport;
  WalShipper shipper(primary.get(), &transport);
  Collection* coll = primary->CreateCollection("docs").value();

  // Tiny checkpoint threshold: the replica checkpoints (and truncates its
  // local WAL, moving the catalog's stream base) mid-stream.
  ApplierOptions aopts;
  aopts.checkpoint_every_bytes = 1;
  uint64_t mid_csn = 0;
  {
    Engine* replica = IntentionallyLeaked(
        Engine::Open(ReplicaOptions()).MoveValue().release());
    auto applier =
        ReplicaApplier::Attach(replica, &transport, aopts).MoveValue();
    for (int i = 0; i < 8; i++)
      ASSERT_TRUE(
          coll->InsertDocument(nullptr, "<a>" + std::to_string(i) + "</a>")
              .ok());
    Pump(&shipper, applier.get());
    mid_csn = replica->applied_csn();
    ASSERT_EQ(mid_csn, shipper.shipped_csn());
    // Local WAL was truncated by the applier-driven checkpoints; the
    // watermark now lives (mostly) in the catalog's stream base.
    EXPECT_LT(replica->wal()->size(), mid_csn);
  }

  auto replica = Engine::Open(ReplicaOptions()).MoveValue();
  EXPECT_EQ(replica->applied_csn(), mid_csn)
      << "stream base + local WAL must reconstruct the exact watermark";
  auto applier =
      ReplicaApplier::Attach(replica.get(), &transport, aopts).MoveValue();
  for (int i = 8; i < 12; i++)
    ASSERT_TRUE(
        coll->InsertDocument(nullptr, "<a>" + std::to_string(i) + "</a>")
            .ok());
  Pump(&shipper, applier.get());
  EXPECT_EQ(replica->GetCollection("docs").value()->DocCount().value(), 12u);
}

// --- DDL over the stream ---

TEST_F(ReplTest, DdlReplicates) {
  auto primary = Engine::Open(PrimaryOptions()).MoveValue();
  auto replica = Engine::Open(ReplicaOptions()).MoveValue();
  InProcessTransport transport;
  WalShipper shipper(primary.get(), &transport);
  auto applier =
      ReplicaApplier::Attach(replica.get(), &transport).MoveValue();

  ASSERT_TRUE(
      primary->RegisterSchema("catalog", workload::CatalogSchemaText()).ok());
  CollectionOptions copts;
  copts.schema = "catalog";
  Collection* coll = primary->CreateCollection("cat", copts).value();
  Collection* doomed = primary->CreateCollection("doomed").value();
  ASSERT_TRUE(doomed->InsertDocument(nullptr, "<x/>").ok());
  ASSERT_TRUE(
      coll->CreateValueIndex({"pidx", "/catalog/product/price",
                              ValueType::kDouble, 128})
          .ok());
  ASSERT_TRUE(coll->CreateStructuralIndex({"structure", ""}).ok());
  Random rng(7);
  for (int i = 0; i < 5; i++)
    ASSERT_TRUE(
        coll->InsertDocument(nullptr, workload::GenCatalogXml(&rng, {})).ok());
  ASSERT_TRUE(primary->DropCollection("doomed").ok());

  Pump(&shipper, applier.get());

  // Collection, schema, index and drop all arrived.
  Collection* rcoll = replica->GetCollection("cat").value();
  EXPECT_EQ(rcoll->DocCount().value(), 5u);
  EXPECT_TRUE(replica->GetCollection("doomed").status().IsNotFound());
  EXPECT_TRUE(replica->FindSchema("catalog").ok());
  EXPECT_NE(rcoll->FindValueIndex("pidx"), nullptr);

  // The replicated index actually serves queries: planner-picked access
  // (which may probe pidx) agrees with a forced full scan.
  QueryOptions force_scan;
  force_scan.force = ForceMethod::kScan;
  auto planned = rcoll->Query(nullptr, "/catalog/product[price >= 0]");
  auto scan = rcoll->Query(nullptr, "/catalog/product[price >= 0]",
                           force_scan);
  ASSERT_TRUE(planned.ok()) << planned.status().ToString();
  ASSERT_TRUE(scan.ok());
  EXPECT_EQ(planned.value().nodes.size(), scan.value().nodes.size());

  // The structural index arrived too, was backfilled over the replicated
  // documents, and a forced structural scan matches the full scan.
  ASSERT_NE(rcoll->FindStructuralIndex("structure"), nullptr);
  QueryOptions force_structural;
  force_structural.force = ForceMethod::kStructural;
  auto structural =
      rcoll->Query(nullptr, "//product", force_structural);
  auto sscan = rcoll->Query(nullptr, "//product", force_scan);
  ASSERT_TRUE(structural.ok()) << structural.status().ToString();
  ASSERT_TRUE(sscan.ok());
  ASSERT_EQ(structural.value().nodes.size(), sscan.value().nodes.size());
  for (size_t i = 0; i < structural.value().nodes.size(); i++) {
    EXPECT_EQ(structural.value().nodes[i].doc_id,
              sscan.value().nodes[i].doc_id);
    EXPECT_EQ(structural.value().nodes[i].node_id,
              sscan.value().nodes[i].node_id);
  }
}

// The DDL WAL records also close a latent single-node hole: DDL after the
// last checkpoint used to vanish on crash (the catalog only persists at
// checkpoint), taking every subsequent document record down with it.
TEST_F(ReplTest, PostCheckpointDdlSurvivesCrash) {
  {
    Engine* crashed = IntentionallyLeaked(
        Engine::Open(PrimaryOptions()).MoveValue().release());
    Collection* old = crashed->CreateCollection("old").value();
    ASSERT_TRUE(old->InsertDocument(nullptr, "<o/>").ok());
    ASSERT_TRUE(crashed->Checkpoint().ok());
    // Everything below is post-checkpoint and must be rebuilt from the WAL.
    ASSERT_TRUE(
        crashed->RegisterSchema("catalog", workload::CatalogSchemaText())
            .ok());
    CollectionOptions copts;
    copts.schema = "catalog";
    Collection* fresh = crashed->CreateCollection("fresh", copts).value();
    ASSERT_TRUE(
        fresh->CreateValueIndex({"pidx", "/catalog/product/price",
                                 ValueType::kDouble, 128})
            .ok());
    Random rng(11);
    ASSERT_TRUE(
        fresh->InsertDocument(nullptr, workload::GenCatalogXml(&rng, {}))
            .ok());
    ASSERT_TRUE(crashed->DropCollection("old").ok());
  }
  auto engine = Engine::Open(PrimaryOptions()).MoveValue();
  Collection* fresh = engine->GetCollection("fresh").value();
  EXPECT_EQ(fresh->DocCount().value(), 1u);
  EXPECT_NE(fresh->FindValueIndex("pidx"), nullptr);
  EXPECT_TRUE(engine->FindSchema("catalog").ok());
  EXPECT_TRUE(engine->GetCollection("old").status().IsNotFound());
  // The recovered index is consistent with a forced scan.
  QueryOptions force_scan;
  force_scan.force = ForceMethod::kScan;
  EXPECT_EQ(fresh->Query(nullptr, "/catalog/product[price >= 0]")
                .value()
                .nodes.size(),
            fresh->Query(nullptr, "/catalog/product[price >= 0]", force_scan)
                .value()
                .nodes.size());
}

// --- promotion ---

TEST_F(ReplTest, PromoteLiftsReadOnlyGateAndRefusesFurtherSegments) {
  auto primary = Engine::Open(PrimaryOptions()).MoveValue();
  auto replica = Engine::Open(ReplicaOptions()).MoveValue();
  InProcessTransport transport;
  WalShipper shipper(primary.get(), &transport);
  auto applier =
      ReplicaApplier::Attach(replica.get(), &transport).MoveValue();
  Collection* coll = primary->CreateCollection("docs").value();
  ASSERT_TRUE(coll->InsertDocument(nullptr, "<a>1</a>").ok());
  Pump(&shipper, applier.get());

  // Promoting a primary is nonsense.
  EXPECT_FALSE(primary->Promote().ok());

  ASSERT_TRUE(applier->Promote().ok());
  EXPECT_FALSE(replica->is_replica());
  bool saw_promoted = false;
  for (const auto& e : replica->RecentEvents())
    if (e.kind == obs::EventKind::kPromoted) saw_promoted = true;
  EXPECT_TRUE(saw_promoted);

  // The promoted node accepts writes...
  Collection* rcoll = replica->GetCollection("docs").value();
  ASSERT_TRUE(rcoll->InsertDocument(nullptr, "<a>promoted</a>").ok());
  EXPECT_EQ(rcoll->DocCount().value(), 2u);

  // ...and refuses segments from the stale primary: the old timeline can
  // never overwrite the new one.
  ASSERT_TRUE(coll->InsertDocument(nullptr, "<a>stale</a>").ok());
  ASSERT_TRUE(shipper.ShipAll().ok());
  EXPECT_TRUE(applier->CatchUp().IsNotSupported());
  EXPECT_EQ(rcoll->DocCount().value(), 2u);
}

// --- the file-spool transport ---

TEST_F(ReplTest, FileTransportShipsThroughSpoolFiles) {
  auto primary = Engine::Open(PrimaryOptions()).MoveValue();
  auto replica = Engine::Open(ReplicaOptions()).MoveValue();
  auto transport = FileTransport::Open(spool_dir_).MoveValue();
  WalShipper shipper(primary.get(), transport.get());
  auto applier =
      ReplicaApplier::Attach(replica.get(), transport.get()).MoveValue();

  Collection* coll = primary->CreateCollection("docs").value();
  for (int i = 0; i < 6; i++)
    ASSERT_TRUE(
        coll->InsertDocument(nullptr, "<f>" + std::to_string(i) + "</f>")
            .ok());
  Pump(&shipper, applier.get());

  Collection* rcoll = replica->GetCollection("docs").value();
  EXPECT_EQ(rcoll->DocCount().value(), 6u);
  // The spool retained its segments (it doubles as a shipping archive).
  EXPECT_GT(transport->next_write_seq(), 0u);
  size_t files = 0;
  for (const auto& e : std::filesystem::directory_iterator(spool_dir_))
    files += e.is_regular_file() ? 1 : 0;
  EXPECT_EQ(files, transport->next_write_seq());
}

// --- injected network faults heal without data loss ---

TEST_F(ReplTest, DuplicateReorderAndDropDeliveriesAllConverge) {
  auto primary = Engine::Open(PrimaryOptions()).MoveValue();
  auto replica = Engine::Open(ReplicaOptions()).MoveValue();
  InProcessTransport transport;
  ShipperOptions sopts;
  sopts.max_segment_bytes = 64;  // many small segments → many deliveries
  WalShipper shipper(primary.get(), &transport, sopts);
  auto applier =
      ReplicaApplier::Attach(replica.get(), &transport).MoveValue();
  Collection* coll = primary->CreateCollection("docs").value();

  testing::ScopedFaultInjector fi;
  // 2nd delivery duplicated, 4th reordered behind the 5th, 6th dropped.
  fi->Arm(testing::FaultPoint::kShipTransport, 2,
          testing::FaultKind::kNetworkError, 2);
  fi->Arm(testing::FaultPoint::kShipTransport, 4,
          testing::FaultKind::kNetworkError, 3);
  fi->Arm(testing::FaultPoint::kShipTransport, 6,
          testing::FaultKind::kNetworkError, 1);

  for (int i = 0; i < 30; i++)
    ASSERT_TRUE(
        coll->InsertDocument(nullptr, "<a>" + std::to_string(i) + "</a>")
            .ok());
  Pump(&shipper, applier.get(), /*rounds=*/12);

  EXPECT_EQ(replica->applied_csn(), shipper.shipped_csn());
  Collection* rcoll = replica->GetCollection("docs").value();
  EXPECT_EQ(rcoll->DocCount().value(), 30u);
  for (uint64_t d = 1; d <= 30; d++)
    EXPECT_EQ(rcoll->GetDocumentText(nullptr, d).value(),
              "<a>" + std::to_string(d - 1) + "</a>");

  const auto snap = replica->MetricsSnapshot();
  EXPECT_GT(snap.Value("repl.apply.duplicates") +
                snap.Value("repl.apply.gaps"),
            0u);
}

// Regression: the retention hook is generation-aware. After a checkpoint
// truncates the WAL, the shipper's position stays in the OLD log's
// coordinates until its next ShipOnce folds the reset into the stream base.
// A second checkpoint arriving inside that window used to compare the stale
// position (old log size) against the new log and truncate unshipped bytes
// whenever fewer bytes had been appended than the old log held — they
// vanished from the stream with no error and the replica silently diverged.
TEST_F(ReplTest, SecondCheckpointBeforeNextShipRetainsUnshippedBytes) {
  auto primary = Engine::Open(PrimaryOptions()).MoveValue();
  auto replica = Engine::Open(ReplicaOptions()).MoveValue();
  InProcessTransport transport;
  WalShipper shipper(primary.get(), &transport);
  auto applier =
      ReplicaApplier::Attach(replica.get(), &transport).MoveValue();

  Collection* coll = primary->CreateCollection("docs").value();
  // A fat first epoch: its size is the stale retain floor the bug compares
  // against the new log.
  for (int i = 0; i < 5; i++)
    ASSERT_TRUE(coll->InsertDocument(nullptr, "<d><pad>" +
                                                  std::string(200, 'x') +
                                                  "</pad></d>")
                    .ok());
  Pump(&shipper, applier.get());

  // Fully shipped + acked: this checkpoint truncates and bumps the reset
  // generation. The shipper has NOT run since, so it has not folded.
  ASSERT_TRUE(primary->Checkpoint().ok());
  ASSERT_EQ(primary->wal()->size(), 0u);

  // Fewer bytes than the old log held, all unshipped.
  ASSERT_TRUE(coll->InsertDocument(nullptr, "<d>tail</d>").ok());
  const uint64_t unshipped = primary->wal()->size();
  ASSERT_GT(unshipped, 0u);

  // The second checkpoint must refuse to truncate: the only copy of the new
  // bytes is this log.
  ASSERT_TRUE(primary->Checkpoint().ok());
  EXPECT_EQ(primary->wal()->size(), unshipped)
      << "checkpoint truncated unshipped bytes behind the stale retain floor";

  Pump(&shipper, applier.get());
  EXPECT_EQ(replica->applied_csn(), shipper.shipped_csn());
  Collection* rcoll = replica->GetCollection("docs").value();
  EXPECT_EQ(rcoll->DocCount().value(), 6u);
  EXPECT_EQ(rcoll->GetDocumentText(nullptr, 6).value(), "<d>tail</d>");
}

// Regression: a segment whose bytes land in the replica's local WAL but then
// fail to apply must be truncated back out. Leaving them appended breaks the
// `applied_csn == base + local-WAL-bytes` reconstruction at reopen: the
// resync re-ships the same stream bytes, they get appended AGAIN, and the
// replica starts skipping real segments.
TEST_F(ReplTest, FailedSegmentApplyRollsBackLocalWal) {
  auto replica = Engine::Open(ReplicaOptions()).MoveValue();

  // A framed, CRC-intact record whose PAYLOAD is semantically corrupt: a
  // name-dictionary entry far ahead of the dictionary ("out of order").
  std::string payload;
  PutFixed32(&payload, 7);
  std::string framed;
  PutFixed32(&framed, static_cast<uint32_t>(payload.size()));
  framed.push_back(static_cast<char>(WalRecordType::kDefineName));
  PutFixed32(&framed, Crc32(payload.data(), payload.size()));
  framed.append(payload);

  Status s = replica->ApplyReplicatedRecords(framed, framed.size());
  ASSERT_FALSE(s.ok());
  // The failed segment left no trace: watermark unmoved, local WAL empty.
  EXPECT_EQ(replica->applied_csn(), 0u);
  EXPECT_EQ(replica->wal()->size(), 0u)
      << "failed apply left unacknowledged bytes in the local WAL";

  // The stream accounting is intact: a real pipeline attaches at CSN 0 and
  // converges normally.
  auto primary = Engine::Open(PrimaryOptions()).MoveValue();
  InProcessTransport transport;
  WalShipper shipper(primary.get(), &transport);
  auto applier =
      ReplicaApplier::Attach(replica.get(), &transport).MoveValue();
  Collection* coll = primary->CreateCollection("docs").value();
  ASSERT_TRUE(coll->InsertDocument(nullptr, "<a>ok</a>").ok());
  Pump(&shipper, applier.get());
  EXPECT_EQ(replica->applied_csn(), shipper.shipped_csn());
  EXPECT_EQ(
      replica->GetCollection("docs").value()->DocCount().value(), 1u);
}

// Regression: a replica recovering a local WAL with mid-log damage (CRC-dead
// records with intact ones after them) must NOT count the skipped records as
// applied — acking them would lose their updates forever with no resync. The
// watermark stops at the first damaged record and the range is re-shipped.
TEST_F(ReplTest, ReplicaRecoveryAfterMidLogDamageResyncsInsteadOfAcking) {
  auto primary = Engine::Open(PrimaryOptions()).MoveValue();
  InProcessTransport transport;
  WalShipper shipper(primary.get(), &transport);
  Collection* coll = primary->CreateCollection("docs").value();

  uint64_t total = 0;
  {
    Engine* replica = IntentionallyLeaked(
        Engine::Open(ReplicaOptions()).MoveValue().release());
    auto applier = ReplicaApplier::Attach(replica, &transport).MoveValue();
    for (int i = 0; i < 10; i++)
      ASSERT_TRUE(
          coll->InsertDocument(nullptr, "<a>" + std::to_string(i) + "</a>")
              .ok());
    Pump(&shipper, applier.get());
    total = replica->applied_csn();
    ASSERT_EQ(total, shipper.shipped_csn());
    // Crash: no checkpoint, the whole stream still lives in the local WAL.
  }

  // Flip one payload byte of a middle record: mid-log corruption (intact
  // records follow), the signature recovery used to ack right through.
  const std::string wal_path = replica_dir_ + "/wal.log";
  std::string buf;
  {
    std::ifstream in(wal_path, std::ios::binary);
    buf.assign(std::istreambuf_iterator<char>(in),
               std::istreambuf_iterator<char>());
  }
  std::vector<size_t> payload_offsets;
  ASSERT_TRUE(ScanWalRecords(
                  Slice(buf),
                  0,
                  [&](uint64_t, WalRecordType, Slice p) {
                    payload_offsets.push_back(
                        static_cast<size_t>(p.data() - buf.data()));
                    return Status::OK();
                  },
                  nullptr)
                  .ok());
  ASSERT_GT(payload_offsets.size(), 4u);
  const size_t flip_at = payload_offsets[payload_offsets.size() / 2];
  {
    std::fstream f(wal_path,
                   std::ios::in | std::ios::out | std::ios::binary);
    f.seekg(static_cast<std::streamoff>(flip_at));
    char c = static_cast<char>(f.get());
    f.seekp(static_cast<std::streamoff>(flip_at));
    f.put(static_cast<char>(c ^ 0x20));
  }

  // Reopen: never fails to open, and the watermark stops BEFORE the damaged
  // record (its start precedes the flipped payload byte).
  auto replica = Engine::Open(ReplicaOptions()).MoveValue();
  EXPECT_LT(replica->applied_csn(), total)
      << "damaged stream bytes were acknowledged as applied";
  EXPECT_LE(replica->applied_csn(), flip_at);

  // New primary traffic makes the replica see the gap, resync, and converge
  // — including the re-shipped damaged range.
  auto applier =
      ReplicaApplier::Attach(replica.get(), &transport).MoveValue();
  ASSERT_TRUE(coll->InsertDocument(nullptr, "<a>post</a>").ok());
  Pump(&shipper, applier.get(), /*rounds=*/12);
  EXPECT_EQ(replica->applied_csn(), shipper.shipped_csn());
  Collection* rcoll = replica->GetCollection("docs").value();
  EXPECT_EQ(rcoll->DocCount().value(), 11u);
  for (uint64_t d = 1; d <= 10; d++)
    EXPECT_EQ(rcoll->GetDocumentText(nullptr, d).value(),
              "<a>" + std::to_string(d - 1) + "</a>");
}

// Regression: the replica read-only gate is thread-scoped. While the applier
// thread is mid-ApplyReplicatedRecords, client mutations on other threads
// used to slip past the engine-wide "replaying" flag (TOCTOU) and append
// local writes to the replica's WAL. Every attempt must fail kNotSupported,
// no matter how it interleaves with the apply.
TEST_F(ReplTest, ClientMutationsDuringApplyAlwaysRejected) {
  auto primary = Engine::Open(PrimaryOptions()).MoveValue();
  auto replica = Engine::Open(ReplicaOptions()).MoveValue();
  InProcessTransport transport;
  ShipperOptions sopts;
  sopts.max_segment_bytes = 64;  // many segments → a wide apply window
  WalShipper shipper(primary.get(), &transport, sopts);
  auto applier =
      ReplicaApplier::Attach(replica.get(), &transport).MoveValue();
  Collection* coll = primary->CreateCollection("docs").value();
  ASSERT_TRUE(coll->InsertDocument(nullptr, "<a>seed</a>").ok());
  Pump(&shipper, applier.get());
  Collection* rcoll = replica->GetCollection("docs").value();

  for (int i = 0; i < 50; i++)
    ASSERT_TRUE(
        coll->InsertDocument(nullptr, "<a>" + std::to_string(i) + "</a>")
            .ok());
  ASSERT_TRUE(shipper.ShipAll().ok());  // queue everything, apply nothing

  const uint64_t wal_before_storm = replica->wal()->size();
  std::atomic<bool> done{false};
  std::atomic<int> rejected{0};
  std::atomic<int> leaked_writes{0};
  std::thread writer([&] {
    while (!done.load(std::memory_order_acquire)) {
      Status s = rcoll->InsertDocument(nullptr, "<a>local</a>").status();
      if (s.IsNotSupported())
        rejected.fetch_add(1, std::memory_order_relaxed);
      else
        leaked_writes.fetch_add(1, std::memory_order_relaxed);
    }
  });
  // Don't let a fast apply win by default: the storm is provably underway
  // before the first segment is applied.
  while (rejected.load(std::memory_order_relaxed) +
             leaked_writes.load(std::memory_order_relaxed) ==
         0)
    std::this_thread::yield();
  Status apply_status = applier->CatchUp();
  done.store(true, std::memory_order_release);
  writer.join();
  ASSERT_TRUE(apply_status.ok()) << apply_status.ToString();

  EXPECT_EQ(leaked_writes.load(), 0)
      << "a client write slipped past the replica read-only gate mid-apply";
  EXPECT_GT(rejected.load(), 0);
  // Stream accounting intact: local WAL grew by exactly the shipped bytes.
  EXPECT_EQ(replica->applied_csn(), shipper.shipped_csn());
  EXPECT_GT(replica->wal()->size(), wal_before_storm);
  EXPECT_EQ(rcoll->DocCount().value(), 51u);
}

// Regression: value-index DDL and its WAL record are atomic. Concurrent
// create+drop of the same index used to be able to log in the opposite order
// of their application, so crash replay (and any replica) converged to the
// opposite final state from the primary.
TEST_F(ReplTest, ConcurrentIndexDdlReplayConvergesToPrimaryState) {
  Engine* primary = IntentionallyLeaked(
      Engine::Open(PrimaryOptions()).MoveValue().release());
  auto replica = Engine::Open(ReplicaOptions()).MoveValue();
  InProcessTransport transport;
  WalShipper shipper(primary, &transport);
  auto applier =
      ReplicaApplier::Attach(replica.get(), &transport).MoveValue();
  Collection* coll = primary->CreateCollection("docs").value();
  ASSERT_TRUE(coll->InsertDocument(nullptr, "<a><b>1</b></a>").ok());

  const ValueIndexDef def{"i", "/a/b", ValueType::kString, 64};
  std::thread creator([&] {
    for (int i = 0; i < 40; i++) (void)coll->CreateValueIndex(def);
  });
  std::thread dropper([&] {
    for (int i = 0; i < 40; i++) (void)coll->DropValueIndex("i");
  });
  creator.join();
  dropper.join();

  const bool on_primary = coll->FindValueIndex("i") != nullptr;
  Pump(&shipper, applier.get());
  Collection* rcoll = replica->GetCollection("docs").value();
  EXPECT_EQ(rcoll->FindValueIndex("i") != nullptr, on_primary)
      << "replica converged to the opposite index state (log order inverted "
         "against application order)";

  // Crash (no clean close, so no catalog save): the reopened engine rebuilds
  // the index state purely from WAL replay — the log IS the application
  // order, so it must land on the same final state.
  auto reopened = Engine::Open(PrimaryOptions()).MoveValue();
  Collection* rcoll2 = reopened->GetCollection("docs").value();
  EXPECT_EQ(rcoll2->FindValueIndex("i") != nullptr, on_primary);
}

TEST_F(ReplTest, TransientShipErrorsAreRetriedWithBackoff) {
  auto primary = Engine::Open(PrimaryOptions()).MoveValue();
  auto replica = Engine::Open(ReplicaOptions()).MoveValue();
  InProcessTransport transport;

  /// Records sleeps instead of sleeping (same trick as the io_retry tests).
  class FakeClock : public IoClock {
   public:
    void SleepMicros(uint64_t us) override { sleeps.push_back(us); }
    std::vector<uint64_t> sleeps;
  };
  FakeClock clock;
  ShipperOptions sopts;
  sopts.clock = &clock;
  WalShipper shipper(primary.get(), &transport, sopts);
  auto applier =
      ReplicaApplier::Attach(replica.get(), &transport).MoveValue();
  Collection* coll = primary->CreateCollection("docs").value();
  ASSERT_TRUE(coll->InsertDocument(nullptr, "<a>x</a>").ok());

  testing::ScopedFaultInjector fi;
  fi->Arm(testing::FaultPoint::kShipTransport, 1,
          testing::FaultKind::kNetworkError, 0);  // one transient send error
  Pump(&shipper, applier.get());

  EXPECT_GE(clock.sleeps.size(), 1u) << "retry should have backed off";
  EXPECT_EQ(replica->GetCollection("docs").value()->DocCount().value(), 1u);
}

}  // namespace
}  // namespace repl
}  // namespace xdb
