// Figure 1: average CPI for different TLP and ILP execution modes of the
// common instruction streams (fadd, fmul, fadd-mul, iadd, iload).
//
// For each stream the paper reports six bars: {1 thread, 2 threads} x
// {min, med, max ILP}. Dual-threaded CPI is measured per logical CPU over
// the fully-overlapped window and the two contexts run identical streams,
// so one value per configuration suffices (they are symmetric).
#include "bench/bench_util.h"
#include "streams/stream_gen.h"
#include "streams/stream_runner.h"

namespace smt::bench {
namespace {

using streams::IlpLevel;
using streams::StreamKind;
using streams::StreamSpec;

constexpr StreamKind kStreams[] = {
    StreamKind::kFAdd, StreamKind::kFMul, StreamKind::kFAddMul,
    StreamKind::kIAdd, StreamKind::kILoad,
};
constexpr IlpLevel kIlp[] = {IlpLevel::kMin, IlpLevel::kMed, IlpLevel::kMax};

StreamSpec spec_for(StreamKind k, IlpLevel l) {
  StreamSpec s;
  s.kind = k;
  s.ilp = l;
  // Divide-free streams are fast; keep every run around a million cycles.
  s.ops = 300'000;
  return s;
}

std::string key(StreamKind k, IlpLevel l, int threads) {
  return std::string(streams::name(k)) + "." + streams::name(l) + "." +
         std::to_string(threads) + "thr";
}

void run_all() {
  auto& res = Results::instance();
  for (StreamKind k : kStreams) {
    for (IlpLevel l : kIlp) {
      const auto one = streams::run_single(spec_for(k, l));
      res.put_value(key(k, l, 1), one.cpi[0]);
      res.put(key(k, l, 1), one.stats);
      const auto two = streams::run_pair(spec_for(k, l), spec_for(k, l));
      res.put_value(key(k, l, 2), two.cpi[0]);
      res.put(key(k, l, 2), two.stats);
    }
  }
}

void print_all() {
  TextTable t({"stream", "1thr-minILP", "1thr-medILP", "1thr-maxILP",
               "2thr-minILP", "2thr-medILP", "2thr-maxILP"});
  for (StreamKind k : kStreams) {
    std::vector<std::string> row{streams::name(k)};
    for (int threads : {1, 2}) {
      for (IlpLevel l : kIlp) {
        row.push_back(fmt(Results::instance().value(key(k, l, threads)), 2));
      }
    }
    t.add_row(std::move(row));
  }
  print_table("Figure 1: average CPI per TLP/ILP execution mode", t);
  std::printf(
      "\nPaper shape check: fadd/fmul min-ILP CPI is flat from 1thr to 2thr\n"
      "(pure TLP win); best throughput at 1thr-maxILP; 2thr-maxILP gains\n"
      "nothing over 1thr-maxILP; iadd is ~flat everywhere.\n");
}

}  // namespace
}  // namespace smt::bench

int main(int argc, char** argv) {
  return smt::bench::bench_main(argc, argv, smt::bench::run_all,
                                smt::bench::print_all);
}
