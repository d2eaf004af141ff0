// Static micro-ISA verifier: CFG/dataflow and abstract-interpretation
// checks over isa::Programs.
//
// The paper's TLP/SPR variants depend on hand-emitted synchronization; a
// single mis-emitted register silently corrupts the counter data the
// figures are built from. lint_program catches the emitter-level mistakes
// before a single cycle is simulated:
//
//   uninit-read        a path reaches a register read with no prior write
//                      (must-written register dataflow; registers listed
//                      in LintOptions::assumed_written are exempt) [error]
//   sync-region-write  an instruction inside an emitter-annotated
//                      SyncRegion writes a register outside the region's
//                      declared may_write set (register discipline) [error]
//   missing-pause      a spin region emitted with SpinKind::kPause
//                      contains no pause instruction             [warning]
//   lock-pairing       double acquire, release without acquire, lock held
//                      at exit, or inconsistent lock state where paths
//                      join (the lock domain below)               [error]
//   out-of-extent      a store/xchg whose address range — from the
//                      interval analysis (analysis/absint.h) — falls
//                      outside the workload's registered extents: error
//                      when provably always outside, warning when the
//                      range only partially escapes (off-by-one loop
//                      bounds); only when LintOptions::extents_complete
//   unreachable        code no path from the entry reaches        [warning]
//   fall-off-end       a reachable path can run past the program end, or
//                      a branch target is unresolved / out of range [error]
//
// lint_concurrency adds the cross-program (per logical CPU) checks:
//
//   barrier-mismatch   a barrier-wait episode is not reached on every
//                      path to exit, or the participating programs reach
//                      different numbers of barrier episodes       [error]
//   lock-order         two programs acquire the same pair of lock words
//                      in opposite orders while holding the other — a
//                      potential deadlock the FastTrack detector can only
//                      see if the interleaving actually deadlocks [error]
//
// Every dataflow check is a domain of the one fixpoint engine,
// analysis::Fixpoint (analysis/absint.h): uninit-read solves a
// must-written register bitmask, out-of-extent reads the interval
// analysis, and lock-pairing and lock-order share one lock domain that
// holds {bottom, free, held, conflict} per annotated lock word. A LockOp
// completes on a step from a pc inside [begin, end) to exactly `end`
// (ops completing on one step apply in annotation order); a word is
// may-held when it is held or conflict. One replay of the lock solution
// yields both the pairing diagnostics and the (held, acquired) pairs
// lock-order compares across programs.
//
// The lint never aborts on malformed programs — every defect is returned
// as a diagnostic — but it does abort (SMT_CHECK) on an opcode it cannot
// classify, so ISA additions must extend reg_reads/reg_writes before
// they can slip past the checker (guarded by a test over all opcodes).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.h"
#include "isa/instr.h"
#include "isa/program.h"

namespace smt::analysis {

enum class Check : uint8_t {
  kUninitRead,
  kSyncRegionWrite,
  kMissingPause,
  kLockPairing,
  kOutOfExtentStore,
  kUnreachable,
  kFallOffEnd,
  kBarrierMismatch,
  kLockOrder,
  kNumChecks,
};
const char* name(Check c);

enum class Severity : uint8_t { kWarning, kError };
const char* name(Severity s);

/// One verifier finding. Diagnostics are deterministic: lint_program and
/// lint_concurrency return them deduplicated and stably sorted by
/// (pc, check, severity, message).
struct Diagnostic {
  Check check = Check::kNumChecks;
  Severity severity = Severity::kError;
  uint32_t pc = 0;     // anchor instruction index
  uint32_t block = 0;  // CFG basic block containing pc
  std::string message;
};

/// One registered guest-memory extent (a mem::MemoryLayout region).
struct Extent {
  Addr base = 0;
  size_t bytes = 0;
  std::string name;
};

struct LintOptions {
  /// RegId bitmask of registers assumed written at program entry (an
  /// ArchState init handed to load_program). Default: none — reads rely
  /// on architectural zero-initialization, which is almost always an
  /// emitter bug.
  uint32_t assumed_written = 0;
  /// Registered data + sync extents of the workload owning the program.
  std::vector<Extent> extents;
  /// The extents cover every legal guest access; enables the
  /// out-of-extent check.
  bool extents_complete = false;
};

/// Register-source bitmask (flat RegIds) of one instruction, per the
/// functional interpreter's semantics (cpu/interp.cc). Aborts on an
/// unclassifiable opcode.
uint32_t reg_reads(const isa::Instr& in);
/// Register-destination bitmask of one instruction.
uint32_t reg_writes(const isa::Instr& in);

/// Runs every single-program check.
std::vector<Diagnostic> lint_program(const isa::Program& p,
                                     const LintOptions& opt = {});

/// Runs the cross-program concurrency checks (barrier matching, lock
/// acquisition order) over one workload's per-logical-CPU programs.
/// Result [i] holds the diagnostics attributed to programs[i].
std::vector<std::vector<Diagnostic>> lint_concurrency(
    const std::vector<isa::Program>& programs);

/// The canonical diagnostic order: by pc, then check, then severity, then
/// message.
bool diagnostic_before(const Diagnostic& a, const Diagnostic& b);

/// Counts diagnostics of the given severity.
size_t count_severity(const std::vector<Diagnostic>& diags, Severity s);

/// Formats diagnostics as "<program>:<pc>: <severity>: <check>: <message>"
/// lines.
std::string format_diagnostics(const isa::Program& p,
                               const std::vector<Diagnostic>& diags);

}  // namespace smt::analysis
