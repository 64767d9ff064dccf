// Prints a golden corpus, one tab-separated entry per line: the route
// corpus (golden_corpus.hpp) in the order of tests/golden/digests.tsv,
// with the argument `sim` the simulator corpus (golden_sim_corpus.hpp) in
// the order of tests/golden/sim_digests.tsv, or with the argument
// `sketch` the sketch corpus (golden_sketch_corpus.hpp) in the order of
// tests/golden/sketch_digests.tsv. Run it through
// tests/golden/regenerate.sh, never by hand into the files.
#include <cstdio>
#include <cstring>
#include <vector>

#include "golden_corpus.hpp"
#include "golden_sim_corpus.hpp"
#include "golden_sketch_corpus.hpp"

int main(int argc, char** argv) {
  using namespace oblivious;
  if (argc > 1 && std::strcmp(argv[1], "sim") == 0) {
    std::printf("# simulator path-set policy/flits variant\tcompleted\t"
                "makespan\tC\tD\tlat_count\tlat_sum\tlat_min\tlat_max\t"
                "queueing_sum\tdelivered\tdropped\tmax_node_queue\n");
    for (const golden::SimEntry& e : golden::sim_entries()) {
      std::printf("%s\n", e.line().c_str());
    }
    return 0;
  }
  if (argc > 1 && std::strcmp(argv[1], "sketch") == 0) {
    obs::set_metrics_enabled(true);
    std::printf("# mesh algorithm seed threads\tedge_hash\tmax_load\tp50\t"
                "p99\tcharges\tchurn\n");
    for (const golden::SketchEntry& e : golden::sketch_entries()) {
      std::printf("%s\n", e.line().c_str());
    }
    return 0;
  }
  std::vector<SegmentPath> paths;
  std::printf("# algorithm mesh workload seed\tpackets\tseg_hash\tC\tD\t"
              "max_stretch\trng_hash\tnode_hash\n");
  golden::for_each_case([&](Algorithm algorithm, const golden::MeshCase& mc,
                            const golden::WorkloadCase& wc,
                            std::uint64_t seed) {
    std::printf("%s\n",
                golden::route_entry(algorithm, mc, wc, seed, paths).line().c_str());
  });
  return 0;
}
