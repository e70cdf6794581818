// Durability & failure-recovery tests: the chaos harness.
//
// The contract under test (service/service.h, DurabilityOptions): with
// checkpointing and recovery on, *no injected fault changes what a caller
// observes*.  Dispatch exceptions are retried from last-good snapshots,
// forced evictions round-trip sessions through verified disk checkpoints
// (possibly migrating them across shards), torn checkpoint writes abort the
// spill instead of committing damage — and every reply stays bit-identical
// to a fault-free run, every promise is settled, and no shard thread ever
// dies.  The seed sweep at the bottom asserts exactly that; the CI chaos
// lane replays this suite under ASan with NSC_THREADS=4.
#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <future>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "exec/fault_injection.h"
#include "nsc/nsc.h"
#include "service/checkpoint.h"
#include "service/service.h"
#include "service/session_table.h"

namespace nsc::svc {
namespace {

namespace fs = std::filesystem;

// A tiny scale-by-k pipeline: y = k * x over 8 words (the same fixture the
// service suite uses).
std::string tripleScript(double k) {
  std::ostringstream script;
  script << R"(
pipeline "triple"
place doublet at 300,200
setop fu4 mul
connect plane0.read fu4.a
const fu4 b )" << k << R"(
connect fu4.out plane1.write
dma plane0.read base=0 stride=1 count=8 var=x
dma plane1.write base=0 stride=1 count=8 var=y
seq halt
)";
  return script.str();
}

// The same script split in two at a line boundary — the stateful-session
// form (PR 5 split-session parity makes the split replay bit-identical).
std::pair<std::string, std::string> tripleScriptSplit(double k) {
  const std::string whole = tripleScript(k);
  const std::size_t cut = whole.find("connect fu4.out");
  return {whole.substr(0, cut), whole.substr(cut)};
}

std::vector<double> rampInput() {
  std::vector<double> x(8);
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = 0.5 * static_cast<double>(i) + 0.25;
  }
  return x;
}

// A per-test checkpoint directory under the gtest temp root, wiped clean at
// acquisition so reruns never see stale checkpoints.
std::string freshDir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / ("nsc_chaos_" + name);
  fs::remove_all(dir);
  return dir.string();
}

void expectRunStatsEq(const sim::RunStats& got, const sim::RunStats& want,
                      const std::string& where) {
  EXPECT_EQ(got.total_cycles, want.total_cycles) << where;
  EXPECT_EQ(got.total_flops, want.total_flops) << where;
  EXPECT_EQ(got.total_hazards, want.total_hazards) << where;
  EXPECT_EQ(got.instructions_executed, want.instructions_executed) << where;
  EXPECT_EQ(got.halted, want.halted) << where;
  EXPECT_EQ(got.error, want.error) << where;
  EXPECT_EQ(got.fu_launches, want.fu_launches) << where;
}

// Behavioural reply equality: everything a caller can act on must match.
// Scheduling artifacts (timings, shard placement, retry and restore counts,
// cache/pool observations) are exactly what chaos is allowed to perturb.
void expectReplyEq(const ServiceReply& got, const ServiceReply& want,
                   const std::string& where) {
  EXPECT_EQ(got.status.isOk(), want.status.isOk()) << where;
  EXPECT_EQ(got.status.message(), want.status.message()) << where;
  EXPECT_EQ(got.ok(), want.ok()) << where;
  EXPECT_EQ(got.stats.rejected, want.stats.rejected) << where;
  EXPECT_EQ(got.stats.session, want.stats.session) << where;
  EXPECT_EQ(got.session.commands, want.session.commands) << where;
  EXPECT_EQ(got.session.failures, want.session.failures) << where;
  EXPECT_EQ(got.session.log, want.session.log) << where;
  EXPECT_EQ(got.generation.ok, want.generation.ok) << where;
  expectRunStatsEq(got.run, want.run, where);
  ASSERT_EQ(got.ensemble.size(), want.ensemble.size()) << where;
  for (std::size_t i = 0; i < got.ensemble.size(); ++i) {
    expectRunStatsEq(got.ensemble[i], want.ensemble[i],
                     where + " replica " + std::to_string(i));
  }
  EXPECT_EQ(got.outputs, want.outputs) << where;
}

// ---------------------------------------------------------------------------
// WorkbenchCore checkpoint round trip
// ---------------------------------------------------------------------------

TEST(CheckpointStateTest, SerializeRestoreIsBitIdentical) {
  WorkbenchContext context;
  WorkbenchCore original(context);

  const auto [part1, part2] = tripleScriptSplit(3.0);
  original.runSession(part1);
  original.runSession(part2);
  original.node().writePlane(0, 0, rampInput());
  ASSERT_TRUE(original.generateAndRun().ok());

  const common::Json state = original.serializeState();
  WorkbenchCore restored(context);
  const common::Status status = restored.restoreState(state);
  ASSERT_TRUE(status.isOk()) << status.message();

  // Same serialized state (round-trip idempotence, counters included) ...
  EXPECT_EQ(restored.serializeState().dump(), state.dump());
  EXPECT_EQ(restored.checkpoint().resets, original.checkpoint().resets);
  EXPECT_EQ(restored.checkpoint().scripts_run,
            original.checkpoint().scripts_run);
  // ... same memory images ...
  EXPECT_EQ(restored.node().readPlane(1, 0, 8),
            original.node().readPlane(1, 0, 8));
  // ... and the same future: the restored core and a control core that
  // never moved must serve the next request identically (warm replayed
  // editor + node memory, not just equal dumps).
  WorkbenchCore control(context);
  control.runSession(part1);
  control.runSession(part2);
  control.node().writePlane(0, 0, rampInput());
  ASSERT_TRUE(control.generateAndRun().ok());
  ASSERT_TRUE(restored.generateAndRun().ok());
  ASSERT_TRUE(control.generateAndRun().ok());
  EXPECT_EQ(restored.node().readPlane(1, 0, 8),
            control.node().readPlane(1, 0, 8));
  EXPECT_EQ(restored.serializeState().dump(), control.serializeState().dump());
}

TEST(CheckpointStateTest, RestoreRejectsBadPayloadsAndStaysUsable) {
  WorkbenchContext context;
  WorkbenchCore core(context);
  core.runSession(tripleScript(2.0));

  common::Json wrong_format = core.serializeState();
  wrong_format["format"] = common::Json("not-a-checkpoint");
  EXPECT_FALSE(core.restoreState(wrong_format).isOk());

  // Envelope validation happens before any mutation, so the failed restore
  // above left the script state intact for this serialize.
  common::Json wrong_version = core.serializeState();
  wrong_version["version"] = common::Json(99);
  const common::Status version_status = core.restoreState(wrong_version);
  ASSERT_FALSE(version_status.isOk());
  EXPECT_NE(version_status.message().find("version"), std::string::npos);

  common::Json bad_words = core.serializeState();
  bad_words["node"]["planes"].asArray().clear();
  common::JsonObject entry;
  entry["plane"] = common::Json(0);
  entry["words"] = common::Json("zz");  // not hex, not 16-char aligned
  bad_words["node"]["planes"].asArray().emplace_back(std::move(entry));
  EXPECT_FALSE(core.restoreState(bad_words).isOk());

  // A plane id no int holds is refused, never cast.
  common::Json nan_plane = core.serializeState();
  common::JsonObject nan_entry;
  nan_entry["plane"] = common::Json(std::numeric_limits<double>::quiet_NaN());
  nan_plane["node"]["planes"].asArray().emplace_back(std::move(nan_entry));
  const common::Status nan_status = core.restoreState(nan_plane);
  ASSERT_FALSE(nan_status.isOk());
  EXPECT_NE(nan_status.message().find("field plane: out of range"),
            std::string::npos)
      << nan_status.message();

  // After every rejection the core still serves like a fresh one.
  const ed::SessionResult replay = core.runSession(tripleScript(2.0));
  EXPECT_EQ(replay.failures, 0);
  core.node().writePlane(0, 0, rampInput());
  EXPECT_TRUE(core.generateAndRun().ok());
}

// Drives a core to the state tests/data/checkpoint_fig11.json holds: the
// Figure-11 sweep run over host-written problem planes, plus one cache
// buffer written from the host (the sweep itself touches no cache).
void figure11CheckpointState(WorkbenchCore& core) {
  core.runSession(figure11SessionScript());
  std::vector<double> u(640);
  for (std::size_t i = 0; i < u.size(); ++i) {
    u[i] = 0.25 * static_cast<double>((i * 37) % 11);
  }
  for (arch::PlaneId p = 0; p < 4; ++p) core.node().writePlane(p, 0, u);
  std::vector<double> f(640);
  for (std::size_t i = 0; i < f.size(); ++i) {
    f[i] = 0.125 * static_cast<double>((i * 13) % 7);
  }
  core.node().writePlane(8, 0, f);
  core.node().writePlane(10, 0, std::vector<double>(640, 1.0));
  std::vector<double> cache(16);
  for (std::size_t i = 0; i < cache.size(); ++i) {
    cache[i] = 1.5 + static_cast<double>(i);
  }
  core.node().writeCache(5, 1, 0, cache);
  ASSERT_TRUE(core.generateAndRun().ok());
}

// Checkpoint compatibility: the committed fixture was written by the
// node engine that kept every cache buffer allocated and zero-filled from
// construction.  A checkpoint written before an engine change must still
// restore, re-serialize byte for byte, and serve the next request exactly
// like a core that never left memory; the current engine, driven through
// the same steps, must also write the very same checkpoint.
TEST(CheckpointStateTest, CommittedFixtureRestoresAndReserializesByteForByte) {
  const std::string path =
      std::string(NSC_REPO_DIR) + "/tests/data/checkpoint_fig11.json";
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good()) << path << " missing";
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string fixture = buffer.str();
  const common::Result<common::Json> parsed = common::Json::parse(fixture);
  ASSERT_TRUE(parsed.isOk()) << parsed.message();

  WorkbenchContext context;
  WorkbenchCore restored(context);
  const common::Status status = restored.restoreState(parsed.value());
  ASSERT_TRUE(status.isOk()) << status.message();
  EXPECT_EQ(restored.serializeState().dump(), fixture);

  WorkbenchCore control(context);
  figure11CheckpointState(control);
  EXPECT_EQ(control.serializeState().dump(), fixture);

  const RunOutcome restored_run = restored.generateAndRun();
  const RunOutcome control_run = control.generateAndRun();
  ASSERT_TRUE(control_run.ok());
  EXPECT_EQ(restored_run.generation.ok, control_run.generation.ok);
  expectRunStatsEq(restored_run.run, control_run.run, "follow-up run");
  for (const arch::PlaneId plane : {4, 5, 6, 7, 9}) {
    EXPECT_EQ(restored.node().readPlane(plane, 0, 640),
              control.node().readPlane(plane, 0, 640))
        << "plane " << plane;
  }
  EXPECT_EQ(restored.node().readCache(5, 1, 0, 16),
            control.node().readCache(5, 1, 0, 16));
  EXPECT_EQ(restored.serializeState().dump(), control.serializeState().dump());
}

// ---------------------------------------------------------------------------
// CheckpointStore: framing, verification, typed errors
// ---------------------------------------------------------------------------

class CheckpointStoreTest : public ::testing::Test {
 protected:
  std::string dir_ = freshDir("store");
  exec::FaultInjector inert_;
  CheckpointStore store_{dir_, &inert_};
  WorkbenchContext context_;

  common::Json sampleState() {
    WorkbenchCore core(context_);
    core.runSession(tripleScript(4.0));
    return core.serializeState();
  }

  void writeRaw(std::uint64_t id, const std::string& bytes) {
    fs::create_directories(dir_);
    std::ofstream out(store_.pathFor(id), std::ios::binary | std::ios::trunc);
    out << bytes;
  }
};

TEST_F(CheckpointStoreTest, WriteReadRoundTrip) {
  const common::Json state = sampleState();
  ASSERT_TRUE(store_.write(7, state).isOk());
  EXPECT_TRUE(store_.exists(7));
  const CheckpointStore::ReadResult result = store_.read(7);
  ASSERT_TRUE(result.ok()) << result.message;
  EXPECT_EQ(result.payload.dump(), state.dump());
  EXPECT_EQ(store_.listSessions(), std::vector<std::uint64_t>{7});
  store_.remove(7);
  EXPECT_FALSE(store_.exists(7));
  EXPECT_TRUE(store_.listSessions().empty());
}

TEST_F(CheckpointStoreTest, TypedErrorsForEveryKindOfDamage) {
  const std::string framed = CheckpointStore::frame(sampleState().dump());

  EXPECT_EQ(store_.read(1).error, CheckpointError::kIo);  // missing file

  writeRaw(2, "");
  EXPECT_EQ(store_.read(2).error, CheckpointError::kTruncated);  // empty

  writeRaw(3, "some other file format entirely\n{}");
  EXPECT_EQ(store_.read(3).error, CheckpointError::kBadMagic);

  // Torn mid-payload: header intact, payload short of the declared size.
  writeRaw(4, framed.substr(0, framed.size() - 10));
  EXPECT_EQ(store_.read(4).error, CheckpointError::kTruncated);

  // Bit rot: one payload byte flipped under an intact header + checksum.
  std::string rotted = framed;
  rotted[rotted.size() - 3] =
      static_cast<char>(rotted[rotted.size() - 3] ^ 0x20);
  writeRaw(5, rotted);
  EXPECT_EQ(store_.read(5).error, CheckpointError::kChecksum);

  // Frame verifies but the payload is not JSON.
  writeRaw(6, CheckpointStore::frame("{not json"));
  EXPECT_EQ(store_.read(6).error, CheckpointError::kParse);

  // Valid JSON from a future payload version.
  writeRaw(7, CheckpointStore::frame(
                  R"({"format":"nsc-session-checkpoint","version":99})"));
  EXPECT_EQ(store_.read(7).error, CheckpointError::kBadVersion);

  // A future *frame* version is simply not our magic.
  writeRaw(8, "NSCKPT2 0123456789abcdef 2\n{}");
  EXPECT_EQ(store_.read(8).error, CheckpointError::kBadMagic);
}

TEST_F(CheckpointStoreTest, InjectedTornWriteIsCaughtAndLeavesNoFile) {
  exec::FaultInjector torn;
  exec::FaultPlan plan;
  plan.seed = 11;
  plan.torn_write = 1.0;
  torn.configure(plan);
  CheckpointStore store(dir_, &torn);
  EXPECT_FALSE(store.write(9, sampleState()).isOk());
  EXPECT_FALSE(store.exists(9));
  EXPECT_GE(torn.counters().writes_torn, 1u);
  // No temp debris either: the failed spill leaves the directory empty.
  std::size_t files = 0;
  for (const auto& file : fs::directory_iterator(dir_)) {
    (void)file;
    ++files;
  }
  EXPECT_EQ(files, 0u);
}

// ---------------------------------------------------------------------------
// SessionTable: spill, migration, restart inventory
// ---------------------------------------------------------------------------

TEST(SessionTableDurabilityTest, SpillRestoreMigratesAcrossShards) {
  const std::string dir = freshDir("migrate");
  exec::FaultInjector inert;
  CheckpointStore store(dir, &inert);
  WorkbenchContext context;
  SessionTable table(context, 2, &store, /*keep_last_good=*/true);

  const auto a = table.open(16, 0);
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->shard, 0);
  WorkbenchCore* core = table.claim(a->id, a->shard, 0);
  ASSERT_NE(core, nullptr);
  core->runSession(tripleScript(5.0));
  core->node().writePlane(0, 0, rampInput());
  const std::string before = core->serializeState().dump();

  const SessionTable::SweepResult swept = table.forceSpill(0);
  EXPECT_EQ(swept.spilled, 1u);
  EXPECT_EQ(swept.write_failures, 0u);
  EXPECT_EQ(table.spilledCount(), 1u);
  EXPECT_EQ(table.residentCount(), 0u);
  EXPECT_TRUE(store.exists(a->id));

  // Load shard 0 so the spilled session's next route picks shard 1 —
  // migration away from its original home.
  ASSERT_EQ(table.open(16, 0)->shard, 0);
  ASSERT_EQ(table.open(16, 0)->shard, 1);
  ASSERT_EQ(table.open(16, 0)->shard, 0);
  const int routed = table.shardOf(a->id);
  EXPECT_EQ(routed, 1);

  SessionTable::ClaimInfo info;
  WorkbenchCore* restored = table.claim(a->id, routed, 1, &info);
  ASSERT_NE(restored, nullptr);
  EXPECT_TRUE(info.restored);
  EXPECT_EQ(restored->serializeState().dump(), before);
  EXPECT_EQ(restored->node().readPlane(0, 0, 8), rampInput());
}

TEST(SessionTableDurabilityTest, StaleShardPinAdoptsSpilledSession) {
  // A command routed while the session was live arrives pinned to the old
  // shard after a spill cleared the affinity; the claim must adopt and
  // restore, not fail — this races in production whenever a sweep lands
  // between routing and dispatch.
  const std::string dir = freshDir("stale_pin");
  exec::FaultInjector inert;
  CheckpointStore store(dir, &inert);
  WorkbenchContext context;
  SessionTable table(context, 2, &store, true);
  const auto a = table.open(16, 0);
  ASSERT_TRUE(a.has_value());
  ASSERT_EQ(table.forceSpill(a->shard).spilled, 1u);
  SessionTable::ClaimInfo info;
  WorkbenchCore* restored = table.claim(a->id, a->shard, 0, &info);
  ASSERT_NE(restored, nullptr);
  EXPECT_TRUE(info.restored);
  EXPECT_EQ(table.shardOf(a->id), a->shard);
}

TEST(SessionTableDurabilityTest, RestartAdoptsCheckpointsAndContinuesIds) {
  const std::string dir = freshDir("restart");
  exec::FaultInjector inert;
  WorkbenchContext context;
  std::uint64_t id1 = 0;
  std::uint64_t id2 = 0;
  std::string state1;
  {
    CheckpointStore store(dir, &inert);
    SessionTable table(context, 2, &store, true);
    id1 = table.open(16, 0)->id;
    id2 = table.open(16, 0)->id;
    WorkbenchCore* core = table.claim(id1, table.shardOf(id1), 0);
    ASSERT_NE(core, nullptr);
    core->runSession(tripleScript(6.0));
    state1 = core->serializeState().dump();
    const SessionTable::SweepResult flushed = table.flushAll();
    EXPECT_EQ(flushed.spilled, 2u);
  }
  CheckpointStore store(dir, &inert);
  SessionTable adopted(context, 2, &store, true);
  EXPECT_EQ(adopted.size(), 2u);
  EXPECT_EQ(adopted.residentCount(), 0u);
  // Ids never restart over adopted inventory.
  EXPECT_EQ(adopted.open(16, 0)->id, id2 + 1);
  const int shard = adopted.shardOf(id1);
  ASSERT_GE(shard, 0);
  WorkbenchCore* core = adopted.claim(id1, shard, 0);
  ASSERT_NE(core, nullptr);
  EXPECT_EQ(core->serializeState().dump(), state1);
}

// ---------------------------------------------------------------------------
// Service-level durability
// ---------------------------------------------------------------------------

ServiceOptions durableOptions(const std::string& dir,
                              exec::FaultInjector* injector, int shards = 1) {
  ServiceOptions options;
  options.shards = shards;
  options.durability.checkpoint_dir = dir;
  options.durability.recover = true;
  options.injector = injector;
  return options;
}

TEST(ServiceDurabilityTest, SessionSurvivesServiceRestartBitIdentically) {
  const std::string dir = freshDir("service_restart");
  exec::FaultInjector inert;
  const auto [part1, part2] = tripleScriptSplit(3.0);
  SessionCommand finish;
  finish.script = part2;
  finish.run = true;
  finish.inputs = {PlaneImage{0, 0, rampInput()}};
  finish.outputs = {PlaneRange{1, 0, 8}};

  // Control: one service serves the whole session, no restart.
  ServiceReply control;
  {
    WorkbenchService service(
        durableOptions(freshDir("service_restart_ctl"), &inert));
    const ServiceReply opened =
        service.submit(Request{OpenSession{part1}}).get();
    ASSERT_TRUE(opened.ok());
    finish.session = opened.stats.session;
    control = service.submit(Request{finish}).get();
    ASSERT_TRUE(control.ok());
  }

  // Durable: open + first half, stop (graceful flush), then a new service
  // on the same directory finishes the script.  The finishing reply must
  // match the control bit for bit.
  {
    WorkbenchService service(durableOptions(dir, &inert));
    const ServiceReply opened =
        service.submit(Request{OpenSession{part1}}).get();
    ASSERT_TRUE(opened.ok());
    finish.session = opened.stats.session;
  }  // ~WorkbenchService -> stop() -> flushAll
  WorkbenchService revived(durableOptions(dir, &inert));
  EXPECT_EQ(revived.sessionCount(), 1u);
  const ServiceReply reply = revived.submit(Request{finish}).get();
  EXPECT_TRUE(reply.stats.restored_from_disk);
  expectReplyEq(reply, control, "restart");
  EXPECT_GE(revived.shardStats(reply.stats.shard).sessions_restored, 1u);
}

TEST(ServiceDurabilityTest, CorruptCheckpointYieldsTypedRejectAndServiceLives) {
  const std::string dir = freshDir("service_corrupt");
  exec::FaultInjector inert;
  std::uint64_t session_id = 0;
  {
    WorkbenchService service(durableOptions(dir, &inert));
    const ServiceReply opened =
        service.submit(Request{OpenSession{tripleScript(2.0)}}).get();
    ASSERT_TRUE(opened.ok());
    session_id = opened.stats.session;
  }
  // Damage the flushed checkpoint on disk (checksum cannot match).
  CheckpointStore store(dir, &inert);
  {
    std::ofstream out(store.pathFor(session_id),
                      std::ios::binary | std::ios::trunc);
    out << "NSCKPT1 0000000000000000 4\ngarb";
  }
  WorkbenchService revived(durableOptions(dir, &inert));
  SessionCommand command;
  command.session = session_id;
  command.script = "status";
  const ServiceReply reply = revived.submit(Request{command}).get();
  EXPECT_EQ(reply.stats.rejected, Reject::kUnknownSession);
  EXPECT_NE(reply.status.message().find("checkpoint unusable"),
            std::string::npos);
  EXPECT_GE(revived.shardStats(reply.stats.shard).restore_failures, 1u);
  // The session and its dead checkpoint are gone — honestly unknown now,
  // not endlessly re-failing — and the service still serves fresh work.
  EXPECT_FALSE(store.exists(session_id));
  const ServiceReply again = revived.submit(Request{command}).get();
  EXPECT_EQ(again.stats.rejected, Reject::kUnknownSession);
  EXPECT_TRUE(
      revived.submit(Request{OpenSession{tripleScript(2.0)}}).get().ok());
}

TEST(ServiceDurabilityTest, DispatchFaultsRecoverBitIdentically) {
  exec::FaultInjector inert;
  const auto [part1, part2] = tripleScriptSplit(3.0);
  const auto runArm = [&](exec::FaultInjector* injector,
                          const std::string& dir) {
    WorkbenchService service(durableOptions(dir, injector));
    std::vector<ServiceReply> replies;
    replies.push_back(service.submit(Request{OpenSession{part1}}).get());
    SessionCommand finish;
    finish.session = replies.back().stats.session;
    finish.script = part2;
    finish.run = true;
    finish.inputs = {PlaneImage{0, 0, rampInput()}};
    finish.outputs = {PlaneRange{1, 0, 8}};
    const std::uint64_t id = finish.session;
    replies.push_back(service.submit(Request{finish}).get());
    replies.push_back(
        service.submit(Request{GenerateAndRun{tripleScript(7.0),
                                              {PlaneImage{0, 0, rampInput()}},
                                              {PlaneRange{1, 0, 8}}}})
            .get());
    replies.push_back(service.submit(Request{CloseSession{id}}).get());
    return replies;
  };

  const std::vector<ServiceReply> baseline =
      runArm(&inert, freshDir("recover_base"));

  exec::FaultInjector chaotic;
  exec::FaultPlan plan;
  plan.seed = 3;
  plan.dispatch_throw = 1.0;  // every first attempt faults
  chaotic.configure(plan);
  const std::vector<ServiceReply> faulted =
      runArm(&chaotic, freshDir("recover_chaos"));

  ASSERT_EQ(faulted.size(), baseline.size());
  for (std::size_t i = 0; i < faulted.size(); ++i) {
    const std::string where = "request " + std::to_string(i);
    expectReplyEq(faulted[i], baseline[i], where);
    EXPECT_TRUE(faulted[i].ok()) << where;
    EXPECT_EQ(faulted[i].stats.retries, 1) << where;
  }
  EXPECT_GE(chaotic.counters().throws_injected, faulted.size());
}

TEST(ServiceDurabilityTest, WithoutRecoveryFaultIsStructuredInternalReject) {
  exec::FaultInjector chaotic;
  exec::FaultPlan plan;
  plan.seed = 5;
  plan.dispatch_throw = 1.0;
  chaotic.configure(plan);
  ServiceOptions options;
  options.shards = 1;
  options.injector = &chaotic;  // durability stays off
  WorkbenchService service(options);
  const ServiceReply reply =
      service.submit(Request{SubmitSession{tripleScript(2.0)}}).get();
  EXPECT_EQ(reply.stats.rejected, Reject::kInternal);
  EXPECT_FALSE(reply.status.isOk());
  EXPECT_NE(reply.status.message().find("internal error"), std::string::npos);
  const ShardStats stats = service.shardStats(0);
  EXPECT_GE(stats.dispatch_faults, 1u);
  EXPECT_GE(stats.internal_rejects, 1u);
  // The shard thread survived: the next request still settles its promise.
  const ServiceReply next =
      service.submit(Request{SubmitSession{tripleScript(2.0)}}).get();
  EXPECT_EQ(next.stats.rejected, Reject::kInternal);
}

TEST(ServiceDurabilityTest, RepeatedlyFaultingSessionIsQuarantined) {
  exec::FaultInjector chaotic;
  exec::FaultPlan plan;
  plan.seed = 9;
  plan.session_throw = 1.0;  // every session command faults mid-request
  chaotic.configure(plan);
  ServiceOptions options = durableOptions(freshDir("quarantine"), &chaotic);
  options.durability.quarantine_after = 1;  // the first fault is the last
  WorkbenchService service(options);
  // kSession only fires inside a SessionCommand, so the open succeeds.
  const ServiceReply opened = service.submit(Request{OpenSession{""}}).get();
  ASSERT_TRUE(opened.ok());
  SessionCommand command;
  command.session = opened.stats.session;
  command.script = tripleScript(2.0);
  const ServiceReply reply = service.submit(Request{command}).get();
  EXPECT_EQ(reply.stats.rejected, Reject::kInternal);
  EXPECT_EQ(service.shardStats(reply.stats.shard).sessions_quarantined, 1u);
  // The quarantined session is gone — honestly unknown from here on.
  const ServiceReply after = service.submit(Request{command}).get();
  EXPECT_EQ(after.stats.rejected, Reject::kUnknownSession);
}

// ---------------------------------------------------------------------------
// Settle-all-promises audit
// ---------------------------------------------------------------------------

TEST(ServiceShutdownTest, AbruptStopSettlesEveryAdmittedPromise) {
  ServiceOptions options;
  options.shards = 2;
  options.queue_capacity = 32;
  options.start = false;  // admit, never serve
  WorkbenchService service(options);

  // Stateless, session-opening (reserves a core + pins affinity — the jobs
  // pop(-1) would leave stranded), and batch work: every admission path
  // that could strand a promise.
  std::vector<std::future<ServiceReply>> futures;
  futures.push_back(service.submit(Request{SubmitSession{tripleScript(2.0)}}));
  futures.push_back(service.submit(Request{OpenSession{tripleScript(3.0)}}));
  futures.push_back(service.submit(Request{OpenSession{""}}));
  futures.push_back(service.submit(Request{RunEnsemble{tripleScript(4.0), 2}}));
  EXPECT_EQ(service.queueDepth(), futures.size());

  service.stop();
  for (std::size_t i = 0; i < futures.size(); ++i) {
    ASSERT_EQ(futures[i].wait_for(std::chrono::seconds(0)),
              std::future_status::ready)
        << "future " << i << " left unsettled by stop()";
    const ServiceReply reply = futures[i].get();
    EXPECT_FALSE(reply.status.isOk()) << i;
    EXPECT_NE(reply.status.message().find("stopped"), std::string::npos) << i;
  }
  // The cores the OpenSession admissions reserved were dropped with their
  // jobs — the ids were never handed out.
  EXPECT_EQ(service.sessionCount(), 0u);
  // Post-stop submission resolves immediately with an error, never hangs.
  EXPECT_FALSE(service.submit(Request{SubmitSession{"x"}}).get().ok());
}

// ---------------------------------------------------------------------------
// NSC_FAULTS plan parsing
// ---------------------------------------------------------------------------

TEST(FaultPlanTest, ParsesFullSpec) {
  std::string error;
  const exec::FaultPlan plan = exec::parseFaultPlan(
      "seed=7,dispatch=0.2,session=0.1,evict=0.3,torn=0.5,corrupt=0.25,"
      "delay=0.1,delay_us=200",
      &error);
  EXPECT_TRUE(error.empty()) << error;
  EXPECT_EQ(plan.seed, 7u);
  EXPECT_DOUBLE_EQ(plan.dispatch_throw, 0.2);
  EXPECT_DOUBLE_EQ(plan.session_throw, 0.1);
  EXPECT_DOUBLE_EQ(plan.force_evict, 0.3);
  EXPECT_DOUBLE_EQ(plan.torn_write, 0.5);
  EXPECT_DOUBLE_EQ(plan.corrupt_write, 0.25);
  EXPECT_DOUBLE_EQ(plan.delay, 0.1);
  EXPECT_EQ(plan.delay_us, 200);
  EXPECT_TRUE(plan.enabled());
}

TEST(FaultPlanTest, MalformedSpecsDisableThePlan) {
  for (const char* spec : {"dispatch=1.5", "dispatch=x", "unknown=0.5",
                           "seed=-1", "seed", "delay_us=9999999"}) {
    std::string error;
    const exec::FaultPlan plan = exec::parseFaultPlan(spec, &error);
    EXPECT_FALSE(error.empty()) << spec;
    EXPECT_FALSE(plan.enabled()) << spec;
  }
}

// ---------------------------------------------------------------------------
// The chaos sweep
// ---------------------------------------------------------------------------

// One serving scenario: three split-script sessions with runs, interleaved
// stateless runs and a batch ensemble, then an explicit close and a
// post-migration read-back; the remaining sessions are left open for the
// shutdown flush.  Returns every reply in submission order.
std::vector<ServiceReply> runScenario(const std::string& dir,
                                      exec::FaultInjector* injector) {
  WorkbenchService service(durableOptions(dir, injector, /*shards=*/3));
  const std::vector<double> ks = {2.0, 3.0, 5.0};
  std::vector<ServiceReply> replies;
  std::vector<std::uint64_t> ids;
  // Opens first: their replies carry the ids the commands need.
  for (const double k : ks) {
    const ServiceReply opened =
        service.submit(Request{OpenSession{tripleScriptSplit(k).first}}).get();
    ids.push_back(opened.stats.session);
    replies.push_back(opened);
  }
  // Then a concurrent wave: each session's finishing command plus stateless
  // traffic, all in flight at once across the shards.
  std::vector<std::future<ServiceReply>> wave;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    SessionCommand finish;
    finish.session = ids[i];
    finish.script = tripleScriptSplit(ks[i]).second;
    finish.run = true;
    finish.inputs = {PlaneImage{0, 0, rampInput()}};
    finish.outputs = {PlaneRange{1, 0, 8}};
    wave.push_back(service.submit(Request{finish}));
    wave.push_back(
        service.submit(Request{GenerateAndRun{tripleScript(ks[i] + 0.5),
                                              {PlaneImage{0, 0, rampInput()}},
                                              {PlaneRange{1, 0, 8}}}}));
  }
  wave.push_back(service.submit(Request{RunEnsemble{tripleScript(4.0), 4}}));
  for (std::future<ServiceReply>& pending : wave) {
    replies.push_back(pending.get());
  }
  // After the wave settles: close one session, then read back another that
  // may have been force-evicted and migrated in the meantime.
  replies.push_back(service.submit(Request{CloseSession{ids[0]}}).get());
  SessionCommand readback;
  readback.session = ids[1];
  readback.outputs = {PlaneRange{1, 0, 8}};
  replies.push_back(service.submit(Request{readback}).get());
  service.stop();
  return replies;
}

TEST(ChaosSweepTest, SeededFaultsNeverChangeReplies) {
  exec::FaultInjector inert;
  const std::vector<ServiceReply> baseline =
      runScenario(freshDir("sweep_baseline"), &inert);
  for (std::size_t i = 0; i < baseline.size(); ++i) {
    ASSERT_NE(baseline[i].stats.rejected, Reject::kInternal) << i;
  }

  exec::FaultInjector::Counters total;
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    exec::FaultInjector chaotic;
    exec::FaultPlan plan;
    plan.seed = seed;
    plan.dispatch_throw = 0.15;
    plan.session_throw = 0.15;
    plan.force_evict = 0.30;
    plan.torn_write = 0.30;
    plan.corrupt_write = 0.20;
    plan.delay = 0.20;
    plan.delay_us = 200;
    chaotic.configure(plan);

    const std::vector<ServiceReply> replies =
        runScenario(freshDir("sweep_" + std::to_string(seed)), &chaotic);
    ASSERT_EQ(replies.size(), baseline.size()) << "seed " << seed;
    for (std::size_t i = 0; i < replies.size(); ++i) {
      expectReplyEq(replies[i], baseline[i],
                    "seed " + std::to_string(seed) + " request " +
                        std::to_string(i));
    }
    const exec::FaultInjector::Counters counters = chaotic.counters();
    total.throws_injected += counters.throws_injected;
    total.delays_injected += counters.delays_injected;
    total.evictions_forced += counters.evictions_forced;
    total.writes_torn += counters.writes_torn;
    total.writes_corrupted += counters.writes_corrupted;
  }
  // The sweep must have actually exercised the machinery — a vacuous pass
  // with an inert injector proves nothing.
  EXPECT_GT(total.throws_injected, 0u);
  EXPECT_GT(total.evictions_forced, 0u);
  EXPECT_GT(total.delays_injected, 0u);
}

}  // namespace
}  // namespace nsc::svc
