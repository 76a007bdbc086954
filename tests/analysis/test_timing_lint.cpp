// Static WCET & schedulability analyzer (analysis/timing_lint).
//
// The analyzer's soundness rests on three legs, each tested here:
//   1. the opcode table's machine cycles, and the CDATA accesses the cost
//      model charges, agree with core8051::step() for every one of the 256
//      opcodes (exhaustive differential tests, not a sample);
//   2. loop bounds: counted DJNZ/CJNE inference, ;@loop-bound/;@loop-wait
//      annotations (including their parse errors), and the hard error on a
//      back edge with neither;
//   3. composition: exact hand-computed WCETs for straight-line code, nested
//      counted loops, calls, ISRs and cache-miss charging.
// Plus the schedulability checker's units and regression pins over the
// shipped firmware corpus (bench/wcet_validation proves the same numbers
// dynamically against the ISS).
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/firmware_corpus.hpp"
#include "analysis/timing_lint.hpp"
#include "mcu/assembler.hpp"
#include "mcu/bus.hpp"
#include "mcu/cache_ctrl.hpp"
#include "mcu/core8051.hpp"
#include "mcu/disassembler.hpp"
#include "mcu/opcode_table.hpp"

namespace ascp::analysis {
namespace {

/// Package an assembled source the way platform_lint does: image rebased to
/// the entry, annotations carried over.
FirmwareImage make_fw(const std::string& src, const std::string& name = "test") {
  mcu::Assembler as;
  const mcu::AsmResult r = as.assemble(src);
  FirmwareImage fw;
  fw.name = name;
  fw.base = r.entry;
  fw.entry = r.entry;
  fw.image.assign(r.image.begin() + r.entry, r.image.end());
  for (const auto& [addr, a] : r.loop_annots) fw.loop_annots[addr] = LoopAnnot{a.bound, a.wait};
  return fw;
}

const FunctionWcet* find_kind(const WcetResult& w, FunctionWcet::Kind k) {
  for (const auto& f : w.functions)
    if (f.kind == k) return &f;
  return nullptr;
}

// ---- 1. cycle table ---------------------------------------------------------

TEST(CycleTable, AgreesWithIssForAllOpcodes) {
  // Execute every opcode once on a fresh core (benign operand bytes, RAM-
  // backed XDATA bus so MOVX lands somewhere real) and compare the cycles
  // step() charges with the static table. This is the exhaustive proof that
  // the WCET base costs are exact, not approximate.
  for (int op = 0; op < 256; ++op) {
    mcu::Core8051 core;
    mcu::BridgedBus bus(4096);
    core.set_xdata_bus(&bus);
    core.load_program({static_cast<std::uint8_t>(op), 0x42, 0x03});
    const int executed = core.step();
    EXPECT_EQ(executed, mcu::opcode_info(static_cast<std::uint8_t>(op)).cycles)
        << "opcode 0x" << std::hex << op;
    EXPECT_EQ(static_cast<long>(executed), core.cycle_count())
        << "opcode 0x" << std::hex << op;
  }
}

TEST(CycleTable, CacheAccessesAgreeWithIss) {
  // The cache model charges the miss penalty once per CDATA access. With
  // both operand bytes naming CDATA, every opcode's charged accesses must
  // equal the cache accesses one ISS step makes (hits + misses on a cold
  // cache), read-modify-write forms counting their read and their write.
  constexpr long kPenalty = 34;
  for (int op = 0; op < 256; ++op) {
    std::vector<std::uint8_t> image = {static_cast<std::uint8_t>(op), 0xA4, 0xA4};
    mcu::Core8051 core;
    mcu::BridgedBus bus(4096);
    mcu::CacheController cache;
    core.set_xdata_bus(&bus);
    core.attach_sfr_device(&cache);
    core.load_program(image);
    core.step();
    const long iss_accesses = cache.hits() + cache.misses();

    // The same instruction as a one-instruction image parked on SJMP $.
    image.resize(static_cast<std::size_t>(mcu::disassemble_one(image, 0).size));
    image.insert(image.end(), {0x80, 0xFE});
    FirmwareImage fw;
    fw.name = "op";
    fw.image = image;
    TimingOptions opt;
    opt.cache_miss_penalty = static_cast<int>(kPenalty);
    opt.cache_data_sfr = static_cast<std::uint8_t>(cache.config().sfr_base + 3);
    const long charged = analyze_wcet(fw, opt).find(0)->cycles - analyze_wcet(fw).find(0)->cycles;
    EXPECT_EQ(charged, kPenalty * iss_accesses) << "opcode 0x" << std::hex << op;
  }
}

// ---- 2. annotations ---------------------------------------------------------

TEST(LoopAnnotations, BindToTheBackEdgeInstruction) {
  mcu::Assembler as;
  const auto r = as.assemble(
      "        ORG 0\n"
      "lp:     NOP\n"
      "        DJNZ R2,lp       ;@loop-bound 12 ; prose after the second ';'\n"
      "w:      JNB RI,w         ;@loop-wait\n");
  ASSERT_EQ(r.loop_annots.size(), 2u);
  ASSERT_TRUE(r.loop_annots.count(0x0001));  // the DJNZ
  EXPECT_EQ(r.loop_annots.at(0x0001).bound, 12);
  EXPECT_FALSE(r.loop_annots.at(0x0001).wait);
  ASSERT_TRUE(r.loop_annots.count(0x0003));  // the JNB
  EXPECT_TRUE(r.loop_annots.at(0x0003).wait);
}

TEST(LoopAnnotations, CommentOnlyLineBindsToNextInstruction) {
  mcu::Assembler as;
  const auto r = as.assemble(
      "        ORG 0\n"
      "        ;@loop-bound 7\n"
      "lp:     DJNZ R3,lp\n");
  ASSERT_TRUE(r.loop_annots.count(0x0000));
  EXPECT_EQ(r.loop_annots.at(0x0000).bound, 7);
}

TEST(LoopAnnotations, MalformedBoundIsAnAssemblyError) {
  mcu::Assembler as;
  EXPECT_THROW(as.assemble("lp: DJNZ R2,lp ;@loop-bound zero\n"), mcu::AsmError);
  EXPECT_THROW(as.assemble("lp: DJNZ R2,lp ;@loop-bound 0\n"), mcu::AsmError);
  EXPECT_THROW(as.assemble("lp: DJNZ R2,lp ;@loop-bound -3\n"), mcu::AsmError);
  EXPECT_THROW(as.assemble("lp: DJNZ R2,lp ;@loop-bound\n"), mcu::AsmError);
  // Typo'd annotation names must not be silently ignored.
  EXPECT_THROW(as.assemble("lp: DJNZ R2,lp ;@loop-bond 4\n"), mcu::AsmError);
}

TEST(LoopAnnotations, DanglingOrDataBoundAnnotationsAreErrors) {
  mcu::Assembler as;
  EXPECT_THROW(as.assemble("        NOP\n        ;@loop-bound 4\n"), mcu::AsmError);
  EXPECT_THROW(as.assemble("        ;@loop-bound 4\n        DB 1, 2\n"), mcu::AsmError);
  EXPECT_THROW(
      as.assemble("        ;@loop-bound 4\n        ;@loop-bound 5\n        NOP\n"),
      mcu::AsmError);
}

// ---- 3. WCET composition ----------------------------------------------------

TEST(Wcet, StraightLineEntryAndParkLoop) {
  const auto w = analyze_wcet(make_fw("        MOV A,#5\n"
                                      "        ADD A,#3\n"
                                      "done:   SJMP done\n"));
  EXPECT_TRUE(w.report.clean());
  const auto* entry = find_kind(w, FunctionWcet::Kind::TopLevel);
  ASSERT_NE(entry, nullptr);
  EXPECT_TRUE(entry->bounded);
  EXPECT_EQ(entry->cycles, 2);  // MOV(1) + ADD(1); the park loop is the main loop
  const auto* loop = find_kind(w, FunctionWcet::Kind::MainLoop);
  ASSERT_NE(loop, nullptr);
  EXPECT_EQ(loop->cycles, 2);  // one SJMP round
}

TEST(Wcet, CountedDjnzLoopIsInferredFromItsInitializer) {
  const auto w = analyze_wcet(make_fw("        MOV R2,#10\n"
                                      "lp:     NOP\n"
                                      "        DJNZ R2,lp\n"
                                      "done:   SJMP done\n"));
  EXPECT_TRUE(w.report.clean());
  const auto* entry = find_kind(w, FunctionWcet::Kind::TopLevel);
  ASSERT_NE(entry, nullptr);
  // MOV(1) + 10 × (NOP 1 + DJNZ 2)
  EXPECT_EQ(entry->cycles, 31);
}

TEST(Wcet, NestedCountedLoopsMultiply) {
  const auto w = analyze_wcet(make_fw("        MOV R4,#3\n"
                                      "outer:  MOV R5,#4\n"
                                      "inner:  NOP\n"
                                      "        DJNZ R5,inner\n"
                                      "        DJNZ R4,outer\n"
                                      "done:   SJMP done\n"));
  EXPECT_TRUE(w.report.clean());
  const auto* entry = find_kind(w, FunctionWcet::Kind::TopLevel);
  ASSERT_NE(entry, nullptr);
  // 1 + 3 × (1 + 4×(1+2) + 2)
  EXPECT_EQ(entry->cycles, 46);
}

TEST(Wcet, CjneIncrementIdiomIsInferred) {
  const auto w = analyze_wcet(make_fw("        MOV R3,#0\n"
                                      "lp:     INC R3\n"
                                      "        CJNE R3,#5,lp\n"
                                      "done:   SJMP done\n"));
  EXPECT_TRUE(w.report.clean());
  const auto* entry = find_kind(w, FunctionWcet::Kind::TopLevel);
  ASSERT_NE(entry, nullptr);
  // 1 + 5 × (INC 1 + CJNE 2)
  EXPECT_EQ(entry->cycles, 16);
}

TEST(Wcet, AnnotatedBoundIsHonored) {
  const auto w = analyze_wcet(make_fw("start:  MOV A,#0C3h\n"
                                      "lp:     RRC A\n"
                                      "        JNZ lp           ;@loop-bound 8\n"
                                      "done:   SJMP done\n"));
  EXPECT_TRUE(w.report.clean());
  const auto* entry = find_kind(w, FunctionWcet::Kind::TopLevel);
  ASSERT_NE(entry, nullptr);
  // MOV(1) + 8 × (RRC 1 + JNZ 2)
  EXPECT_EQ(entry->cycles, 25);
}

TEST(Wcet, WaitLoopsCostNothingAndExportTheirPcs) {
  const auto w = analyze_wcet(make_fw("        MOV A,#1\n"
                                      "w:      JNB RI,w         ;@loop-wait\n"
                                      "        MOV A,SBUF\n"
                                      "done:   SJMP done\n"));
  EXPECT_TRUE(w.report.clean());
  const auto* entry = find_kind(w, FunctionWcet::Kind::TopLevel);
  ASSERT_NE(entry, nullptr);
  // MOV(1) + wait(0) + MOV(1): the spin contributes nothing busy.
  EXPECT_EQ(entry->cycles, 2);
  EXPECT_TRUE(w.wait_pcs.count(0x0002));  // the JNB itself
}

TEST(Wcet, UnannotatedDataDependentBackEdgeIsAHardError) {
  const auto w = analyze_wcet(make_fw("start:  MOV A,#0C3h\n"
                                      "lp:     RRC A\n"
                                      "        JNZ lp\n"
                                      "done:   SJMP done\n"));
  EXPECT_FALSE(w.report.clean());
  EXPECT_TRUE(w.report.mentions("loop-bound"));
  const auto* entry = find_kind(w, FunctionWcet::Kind::TopLevel);
  ASSERT_NE(entry, nullptr);
  EXPECT_FALSE(entry->bounded);
}

TEST(Wcet, CacheMissPenaltyChargedPerDataWindowAccess) {
  TimingOptions opt;
  opt.cache_miss_penalty = 34;
  opt.cache_data_sfr = 0xA4;
  const auto fw = make_fw("        MOV 0A4h,A\n"
                          "        MOV A,0A4h\n"
                          "done:   SJMP done\n");
  const auto w = analyze_wcet(fw, opt);
  EXPECT_TRUE(w.report.clean());
  const auto* entry = find_kind(w, FunctionWcet::Kind::TopLevel);
  ASSERT_NE(entry, nullptr);
  // (1+34) + (1+34): the static model assumes every CDATA access misses.
  EXPECT_EQ(entry->cycles, 70);
  // Without the cache model the same code costs 2.
  const auto plain = analyze_wcet(fw);
  EXPECT_EQ(find_kind(plain, FunctionWcet::Kind::TopLevel)->cycles, 2);
}

TEST(Wcet, CallsComposeAndRoutineIncludesItsRet) {
  const auto w = analyze_wcet(make_fw("        LCALL sub\n"
                                      "done:   SJMP done\n"
                                      "sub:    NOP\n"
                                      "        RET\n"));
  EXPECT_TRUE(w.report.clean());
  const auto* sub = find_kind(w, FunctionWcet::Kind::Routine);
  ASSERT_NE(sub, nullptr);
  EXPECT_EQ(sub->cycles, 3);  // NOP(1) + RET(2); the LCALL belongs to the caller
  const auto* entry = find_kind(w, FunctionWcet::Kind::TopLevel);
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->cycles, 5);  // LCALL(2) + sub(3)
}

TEST(Wcet, RecursionIsDiagnosedNotLoopedForever) {
  const auto w = analyze_wcet(make_fw("        LCALL sub\n"
                                      "done:   SJMP done\n"
                                      "sub:    LCALL sub\n"
                                      "        RET\n"));
  EXPECT_FALSE(w.report.clean());
  EXPECT_TRUE(w.report.mentions("recursi"));
}

TEST(Wcet, EnabledInterruptVectorGetsAnIsrBound) {
  const auto w = analyze_wcet(make_fw("        ORG 0\n"
                                      "        LJMP main\n"
                                      "        ORG 3\n"
                                      "        RETI\n"
                                      "main:   MOV IE,#81h\n"
                                      "done:   SJMP done\n"));
  EXPECT_TRUE(w.report.clean());
  const auto* isr = find_kind(w, FunctionWcet::Kind::Isr);
  ASSERT_NE(isr, nullptr);
  EXPECT_EQ(isr->entry, 0x0003);
  EXPECT_TRUE(isr->bounded);
  EXPECT_EQ(isr->cycles, 4);  // 2-cycle dispatch + RETI(2)
}

// ---- schedulability ---------------------------------------------------------

TEST(Schedulability, CleanTaskSetPassesWithUtilizationReported) {
  ScheduleSpec s;
  s.name = "t";
  s.base_rate_hz = 1875.0;
  s.cycles_per_tick = 100;
  s.tasks = {{"a", 1, 0, 40}, {"b", 4, 1, 50}};
  const Report r = check_schedule(s);
  EXPECT_TRUE(r.clean());
  EXPECT_EQ(r.warnings(), 0);  // worst tick: 40 + 50 = 90 <= 100
  EXPECT_TRUE(r.mentions("utilization 52.5%"));  // 40/100 + 50/400
}

TEST(Schedulability, SlotOverrunIsAnError) {
  ScheduleSpec s;
  s.name = "t";
  s.cycles_per_tick = 100;
  s.tasks = {{"fat", 1, 0, 150}};
  const Report r = check_schedule(s);
  EXPECT_FALSE(r.clean());
  EXPECT_TRUE(r.mentions("slot overrun"));
}

TEST(Schedulability, NearSaturationWarnsAndOverSubscriptionErrors) {
  ScheduleSpec s;
  s.name = "t";
  s.cycles_per_tick = 100;
  s.tasks = {{"a", 1, 0, 45}, {"b", 1, 0, 45}};
  const Report warm = check_schedule(s);
  EXPECT_TRUE(warm.clean());
  EXPECT_EQ(warm.warnings(), 1);  // 90% > 85%
  s.tasks = {{"a", 1, 0, 60}, {"b", 1, 0, 60}};
  const Report over = check_schedule(s);
  EXPECT_FALSE(over.clean());
  EXPECT_TRUE(over.mentions("over-subscribed"));
}

TEST(Schedulability, PhaseAlignmentTransientOverrunIsAWarning) {
  ScheduleSpec s;
  s.name = "t";
  s.cycles_per_tick = 100;
  // 35% total utilization, but both fire on the same tick every 4th tick.
  s.tasks = {{"a", 4, 0, 70}, {"b", 4, 0, 70}};
  const Report aligned = check_schedule(s);
  EXPECT_TRUE(aligned.clean());
  EXPECT_TRUE(aligned.mentions("transient tick overrun"));
  // Phase-shifting one task resolves the collision.
  s.tasks = {{"a", 4, 0, 70}, {"b", 4, 2, 70}};
  const Report shifted = check_schedule(s);
  EXPECT_TRUE(shifted.clean());
  EXPECT_EQ(shifted.warnings(), 0);
}

TEST(Schedulability, InvalidDividerOrPhaseIsAnError) {
  ScheduleSpec s;
  s.name = "t";
  s.cycles_per_tick = 100;
  s.tasks = {{"bad", 2, 2, 10}};  // phase must be < divider
  EXPECT_FALSE(check_schedule(s).clean());
  s.tasks = {};
  EXPECT_TRUE(check_schedule(s).clean());  // empty set: trivially schedulable
}

// ---- corpus regression pins -------------------------------------------------

TEST(Corpus, EveryShippedImageIsFullyBoundedAndClean) {
  TimingOptions opt;
  opt.cache_miss_penalty = 34;
  for (const auto& fw : corpus::shipped_firmware()) {
    const auto w = analyze_wcet(fw, opt);
    EXPECT_TRUE(w.report.clean()) << fw.name << "\n" << w.report.format();
    for (const auto& f : w.functions)
      EXPECT_TRUE(f.bounded) << fw.name << "/" << f.name;
  }
}

TEST(Corpus, MonitorRomRoundWcetIsPinned) {
  // Regression pin: the monitor ROM's command-dispatch round. A change here
  // means the resident firmware's timing changed — bench/wcet_validation has
  // verified 47 is exact (observed == static on the ISS).
  for (const auto& fw : corpus::shipped_firmware()) {
    if (fw.name != "monitor_rom") continue;
    const auto w = analyze_wcet(fw);
    const auto* loop = find_kind(w, FunctionWcet::Kind::MainLoop);
    ASSERT_NE(loop, nullptr);
    EXPECT_EQ(loop->cycles, 47);
    EXPECT_EQ(w.uart_frame_bits, 10);  // mode 1
    return;
  }
  FAIL() << "monitor_rom missing from the corpus";
}

TEST(Corpus, TelemetryMonitorInferredRoundIsPinned) {
  // The telemetry monitor's delay loops carry no annotations on purpose:
  // this pins the DJNZ/CJNE inference on real firmware (60 × (500 + 3) plus
  // the service code; ISS-verified exact by the validation bench).
  for (const auto& fw : corpus::shipped_firmware()) {
    if (fw.name != "telemetry_monitor") continue;
    const auto w = analyze_wcet(fw);
    const auto* loop = find_kind(w, FunctionWcet::Kind::MainLoop);
    ASSERT_NE(loop, nullptr);
    EXPECT_EQ(loop->cycles, 30214);
    return;
  }
  FAIL() << "telemetry_monitor missing from the corpus";
}

// ---- negative fixture + unresolved jumps ------------------------------------

TEST(Fixtures, UnboundedLoopAsmFailsTimingButPassesFirmwareLint) {
  std::ifstream in(std::string(ASCP_FIXTURE_DIR) + "/unbounded_loop.asm");
  ASSERT_TRUE(in.good());
  std::stringstream ss;
  ss << in.rdbuf();
  const FirmwareImage fw = make_fw(ss.str(), "unbounded_loop.asm");
  EXPECT_TRUE(check_firmware(fw).clean());  // structurally fine
  const auto w = analyze_wcet(fw);
  EXPECT_FALSE(w.report.clean());
  EXPECT_TRUE(w.report.mentions("unbounded loop"));
}

TEST(FirmwareLint, IndirectJumpIsFlaggedAsUnresolved) {
  const FirmwareImage fw = make_fw("        MOV A,#2\n"
                                   "        MOV DPTR,#table\n"
                                   "        JMP @A+DPTR\n"
                                   "table:  SJMP table\n");
  const Report r = check_firmware(fw);
  EXPECT_TRUE(r.mentions("unresolved-jump"));
}

}  // namespace
}  // namespace ascp::analysis
