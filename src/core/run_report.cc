#include "core/run_report.h"

#include <cstdio>

#include "common/io.h"
#include "common/json.h"

namespace smt::core {

namespace {

void write_cache_config(JsonWriter& w, const mem::CacheConfig& c) {
  w.begin_object();
  w.kv("name", c.name);
  w.kv("size_bytes", static_cast<uint64_t>(c.size_bytes));
  w.kv("assoc", c.assoc);
  w.kv("line_bytes", c.line_bytes);
  w.end_object();
}

void write_core_config(JsonWriter& w, const cpu::CoreConfig& c) {
  w.begin_object();
  w.kv("fetch_width", c.fetch_width);
  w.kv("dispatch_width", c.dispatch_width);
  w.kv("retire_width", c.retire_width);
  w.kv("issue_width", c.issue_width);
  w.kv("uop_queue_size", c.uop_queue_size);
  w.kv("rob_size", c.rob_size);
  w.kv("load_queue_size", c.load_queue_size);
  w.kv("store_buffer_size", c.store_buffer_size);
  w.kv("static_partitioning", c.static_partitioning);
  w.kv("sched_window", c.sched_window);
  w.kv("alu0_per_cycle", c.alu0_per_cycle);
  w.kv("alu1_per_cycle", c.alu1_per_cycle);
  w.kv("lat_simple_alu", c.lat_simple_alu);
  w.kv("lat_shift", c.lat_shift);
  w.kv("lat_imul", c.lat_imul);
  w.kv("lat_idiv", c.lat_idiv);
  w.kv("lat_fadd", c.lat_fadd);
  w.kv("lat_fmul", c.lat_fmul);
  w.kv("lat_fdiv", c.lat_fdiv);
  w.kv("lat_fmov", c.lat_fmov);
  w.kv("lat_branch", c.lat_branch);
  w.kv("fdiv_unpipelined", c.fdiv_unpipelined);
  w.kv("idiv_unpipelined", c.idiv_unpipelined);
  w.kv("pause_fetch_stall", c.pause_fetch_stall);
  w.kv("halt_enter_cost", c.halt_enter_cost);
  w.kv("halt_wake_cost", c.halt_wake_cost);
  w.kv("machine_clear_penalty", c.machine_clear_penalty);
  w.kv("machine_clear_window", c.machine_clear_window);
  w.kv("event_skip", c.event_skip);
  w.end_object();
}

void write_mem_config(JsonWriter& w, const mem::HierConfig& c) {
  w.begin_object();
  w.key("l1");
  write_cache_config(w, c.l1);
  w.key("l2");
  write_cache_config(w, c.l2);
  w.kv("l1_hit_lat", c.l1_hit_lat);
  w.kv("l2_hit_lat", c.l2_hit_lat);
  w.kv("mem_lat", c.mem_lat);
  w.kv("num_mshrs", c.num_mshrs);
  w.kv("bus_cycles_per_line", c.bus_cycles_per_line);
  w.kv("l2_cycles_per_access", c.l2_cycles_per_access);
  w.kv("hw_stream_prefetch", c.hw_stream_prefetch);
  w.kv("hw_prefetch_streams", c.hw_prefetch_streams);
  w.kv("hw_prefetch_degree", c.hw_prefetch_degree);
  w.end_object();
}

void write_breakdown(JsonWriter& w, const perfmon::CpuCycleBreakdown& b) {
  w.begin_object();
  w.kv("total", b.total);
  w.kv("active", b.active);
  w.kv("halted", b.halted);
  w.kv("idle", b.idle);
  w.kv("fetch_stalled", b.fetch_stalled);
  w.kv("resource_stalled", b.resource_stalled);
  w.kv("stall_rob", b.stall_rob);
  w.kv("stall_load_queue", b.stall_load_queue);
  w.kv("stall_store_buffer", b.stall_store_buffer);
  w.kv("uop_queue_full", b.uop_queue_full);
  w.kv("memory_bound", b.memory_bound);
  w.kv("issue_bound", b.issue_bound);
  w.kv("flowing", b.flowing);
  w.kv("instr_retired", b.instr_retired);
  w.kv("uops_retired", b.uops_retired);
  w.kv("cpi", b.cpi);
  w.kv("ipc", b.ipc);
  w.kv("uops_per_cycle", b.uops_per_cycle);
  w.end_object();
}

void write_timeseries(JsonWriter& w, const trace::CounterSampler& s) {
  w.begin_object();
  w.kv("window_cycles", s.window_cycles());
  w.key("windows");
  w.begin_array();
  for (const trace::CounterWindow& win : s.windows()) {
    w.begin_object();
    w.kv("begin", win.begin);
    w.kv("end", win.end);
    w.key("cpus");
    w.begin_array();
    for (int i = 0; i < kNumLogicalCpus; ++i) {
      const CpuId cpu = static_cast<CpuId>(i);
      w.begin_object();
      w.kv("cpu", i);
      w.key("events");
      w.begin_object();
      // Nonzero deltas only: most events are silent in most windows, and
      // readers treat an absent key as zero.
      for (int e = 0; e < perfmon::kNumEventValues; ++e) {
        const perfmon::Event ev = static_cast<perfmon::Event>(e);
        const uint64_t d = win.delta.get(cpu, ev);
        if (d != 0) w.kv(perfmon::name(ev), d);
      }
      w.end_object();
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.end_object();
}

void write_block_reason_map(JsonWriter& w,
                            const std::array<uint64_t, cpu::kNumBlockReasons>&
                                stalls) {
  w.begin_object();
  for (int r = 0; r < cpu::kNumBlockReasons; ++r) {
    w.kv(cpu::name(static_cast<cpu::BlockReason>(r)), stalls[r]);
  }
  w.end_object();
}

template <typename T>
void write_port_map(JsonWriter& w,
                    const std::array<T, cpu::kNumIssuePorts>& ports) {
  w.begin_object();
  for (int p = 0; p < cpu::kNumIssuePorts; ++p) {
    w.kv(cpu::name(static_cast<cpu::IssuePort>(p)), ports[p]);
  }
  w.end_object();
}

void write_profile(JsonWriter& w, const profile::PcProfiler& prof,
                   const cpu::CoreConfig& core_cfg) {
  w.begin_object();
  w.key("hotspots");
  w.begin_array();
  for (int i = 0; i < kNumLogicalCpus; ++i) {
    const CpuId cpu = static_cast<CpuId>(i);
    w.begin_object();
    w.kv("cpu", i);
    w.key("pcs");
    w.begin_array();
    for (const auto& [pc, s] : prof.pcs(cpu)) {
      w.begin_object();
      w.kv("pc", static_cast<uint64_t>(pc));
      w.kv("disasm", prof.disasm(cpu, pc));
      w.kv("retired_instrs", s.retired_instrs);
      w.kv("retired_uops", s.retired_uops);
      w.kv("l1_misses", s.l1_misses);
      w.kv("l2_misses", s.l2_misses);
      w.key("stalls");
      write_block_reason_map(w, s.stalls);
      w.key("ports");
      write_port_map(w, s.port_uops);
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }
  w.end_array();

  w.key("port_occupancy");
  w.begin_array();
  for (int i = 0; i < kNumLogicalCpus; ++i) {
    w.begin_object();
    w.kv("cpu", i);
    w.key("ports");
    write_port_map(w, prof.port_totals(static_cast<CpuId>(i)));
    w.end_object();
  }
  w.end_array();

  // Per-cycle issue caps for each port, from the port model
  // (cpu/ports.h). check_run_report bounds occupancy by cap * cycles, and
  // smt_annotate computes utilization against them.
  w.key("port_caps_per_cycle");
  write_port_map(w, cpu::port_caps(core_cfg));

  w.end_object();
}

void write_interference_ports(
    JsonWriter& w,
    const std::array<uint64_t, cpu::kNumIssuePorts + 1>& ports) {
  w.begin_object();
  for (int p = 0; p < cpu::kNumIssuePorts; ++p) {
    w.kv(cpu::name(static_cast<cpu::IssuePort>(p)), ports[p]);
  }
  // Lost to raw issue-slot exhaustion rather than a specific port.
  w.kv("issue_bandwidth", ports[profile::CpuInterference::kIssueBandwidth]);
  w.end_object();
}

void write_interference(JsonWriter& w,
                        const profile::InterferenceProfiler& prof) {
  w.begin_array();
  for (int i = 0; i < kNumLogicalCpus; ++i) {
    const profile::CpuInterference& s =
        prof.stats(static_cast<CpuId>(i));
    w.begin_object();
    w.kv("cpu", i);
    // Invariant checked by core::check_run_report: self + sibling per
    // reason equals the corresponding stall counter of this CPU
    // bit-exactly.
    w.key("self");
    write_block_reason_map(w, s.self);
    w.key("sibling");
    write_block_reason_map(w, s.sibling);
    w.key("port_conflict");
    w.begin_object();
    w.key("self");
    write_interference_ports(w, s.port_self);
    w.key("sibling");
    write_interference_ports(w, s.port_sibling);
    w.end_object();
    w.kv("l2_sibling_evictions", s.l2_sibling_evictions);
    w.end_object();
  }
  w.end_array();
}

}  // namespace

RunReport RunReport::from(const RunStats& stats) {
  RunReport r;
  r.stats = stats;
  r.accounting = perfmon::account_cycles(stats.events, stats.cycles);
  return r;
}

std::string RunReport::to_json() const {
  JsonWriter w;
  w.begin_object();
  w.kv("schema", "smt-run-report/1");
  w.kv("workload", stats.workload);
  w.kv("cycles", static_cast<uint64_t>(stats.cycles));
  w.kv("verified", stats.verified);

  w.key("config");
  w.begin_object();
  w.key("core");
  write_core_config(w, stats.config.core);
  w.key("mem");
  write_mem_config(w, stats.config.mem);
  w.end_object();

  w.key("cpus");
  w.begin_array();
  for (int i = 0; i < kNumLogicalCpus; ++i) {
    const CpuId cpu = static_cast<CpuId>(i);
    w.begin_object();
    w.kv("cpu", i);
    w.key("events");
    w.begin_object();
    for (int e = 0; e < perfmon::kNumEventValues; ++e) {
      const perfmon::Event ev = static_cast<perfmon::Event>(e);
      w.kv(perfmon::name(ev), stats.events.get(cpu, ev));
    }
    w.end_object();
    w.key("breakdown");
    write_breakdown(w, accounting.cpu[i]);
    w.end_object();
  }
  w.end_array();

  w.key("totals");
  w.begin_object();
  const uint64_t instr = stats.total(perfmon::Event::kInstrRetired);
  w.kv("instr_retired", instr);
  w.kv("uops_retired", stats.total(perfmon::Event::kUopsRetired));
  w.kv("ipc", stats.cycles > 0
                  ? static_cast<double>(instr) / static_cast<double>(stats.cycles)
                  : 0.0);
  w.end_object();

  // One schema: each optional section below is present exactly when its
  // instrument was attached (the time series also needs a closed window).
  if (stats.telemetry != nullptr &&
      !stats.telemetry->sampler().windows().empty()) {
    w.key("timeseries");
    write_timeseries(w, stats.telemetry->sampler());
  }

  if (stats.pc_profile != nullptr) {
    w.key("profile");
    write_profile(w, *stats.pc_profile, stats.config.core);
  }

  if (stats.interference != nullptr) {
    w.key("interference");
    write_interference(w, *stats.interference);
  }

  w.end_object();
  return w.str();
}

std::string RunReport::to_table() const {
  char head[256];
  std::snprintf(head, sizeof head, "run report: %s  (%llu cycles, %s)\n",
                stats.workload.c_str(),
                static_cast<unsigned long long>(stats.cycles),
                stats.verified ? "verified" : "NOT VERIFIED");
  return head + perfmon::to_table(accounting);
}

RunReport report_from_machine(const Machine& m, std::string workload,
                              bool verified) {
  return RunReport::from(stats_from_machine(m, std::move(workload), verified));
}

std::string machine_config_json(const MachineConfig& cfg) {
  JsonWriter w;
  w.begin_object();
  w.key("core");
  write_core_config(w, cfg.core);
  w.key("mem");
  write_mem_config(w, cfg.mem);
  w.end_object();
  return w.str();
}

bool RunReport::write_json_file(const std::string& path) const {
  // write_text_file creates missing parent directories (a report dir
  // pointing at a not-yet-existing path is the common first-run case) and
  // logs the precise reason for any failure.
  return write_text_file(path, to_json());
}

}  // namespace smt::core
