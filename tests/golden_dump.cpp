// Prints the golden corpus (see golden_corpus.hpp), one tab-separated
// entry per line, in the order of tests/golden/digests.tsv. Run it
// through tests/golden/regenerate.sh, never by hand into the file.
#include <cstdio>
#include <vector>

#include "golden_corpus.hpp"

int main() {
  using namespace oblivious;
  std::vector<SegmentPath> paths;
  std::printf("# algorithm mesh workload seed\tpackets\tseg_hash\tC\tD\t"
              "max_stretch\trng_hash\n");
  golden::for_each_case([&](Algorithm algorithm, const golden::MeshCase& mc,
                            const golden::WorkloadCase& wc,
                            std::uint64_t seed) {
    std::printf("%s\n",
                golden::route_entry(algorithm, mc, wc, seed, paths).line().c_str());
  });
  return 0;
}
