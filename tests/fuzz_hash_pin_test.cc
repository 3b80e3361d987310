// Pins the per-seed fuzz history hashes (DESIGN.md section 13). A history
// hash covers every delivered message and the final store of every node, so
// a refactor that must not change behaviour leaves every hash where it was.
// The pinned table is tests/fuzz_hashes.txt: quick seeds 1-500 and full
// seeds 1-100. A change that moves hashes on purpose regenerates it from
// the file this test writes on a mismatch, and names the moved seeds.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <utility>

#include "threev/fuzz/fuzz.h"

namespace threev {
namespace {

constexpr uint64_t kQuickSeeds = 500;
constexpr uint64_t kFullSeeds = 100;

constexpr char kHeader[] =
    "# Fuzz history hashes pinned by tests/fuzz_hash_pin_test.cc.\n"
    "# One line per run: profile (quick|full), seed, history hash (hex).\n"
    "# Regenerate: DESIGN.md section 13.\n";

// (profile, seed) -> hash; profile is "quick" or "full".
using HashTable = std::map<std::pair<std::string, uint64_t>, uint64_t>;

HashTable LoadPinned(const std::string& path) {
  HashTable table;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string profile;
    uint64_t seed = 0;
    uint64_t hash = 0;
    fields >> profile >> seed >> std::hex >> hash;
    table[{profile, seed}] = hash;
  }
  return table;
}

std::string FormatLine(const std::string& profile, uint64_t seed,
                       uint64_t hash) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%s %llu %016llx", profile.c_str(),
                static_cast<unsigned long long>(seed),
                static_cast<unsigned long long>(hash));
  return buf;
}

TEST(FuzzHashPinTest, EverySeedKeepsItsPinnedHash) {
  const std::string pinned_path =
      std::string(THREEV_TESTS_DIR) + "/fuzz_hashes.txt";
  const HashTable pinned = LoadPinned(pinned_path);

  fuzz::FuzzOptions options;
  options.scratch_dir =
      (std::filesystem::path(::testing::TempDir()) / "threev_hash_pin")
          .string();
  HashTable current;
  for (uint64_t seed = 1; seed <= kQuickSeeds; ++seed) {
    current[{"quick", seed}] =
        fuzz::RunSeed(seed, /*quick=*/true, options).history_hash;
  }
  for (uint64_t seed = 1; seed <= kFullSeeds; ++seed) {
    current[{"full", seed}] =
        fuzz::RunSeed(seed, /*quick=*/false, options).history_hash;
  }

  std::string moved;
  for (const auto& [key, hash] : current) {
    auto it = pinned.find(key);
    if (it != pinned.end() && it->second == hash) continue;
    moved += "  " + FormatLine(key.first, key.second, hash) + "\n";
  }
  if (moved.empty()) return;

  // The regenerated table, ready to replace the pinned one.
  const std::string fresh_path =
      (std::filesystem::path(::testing::TempDir()) / "fuzz_hashes.txt")
          .string();
  std::ofstream out(fresh_path);
  out << kHeader;
  for (const auto& [key, hash] : current) {
    out << FormatLine(key.first, key.second, hash) << "\n";
  }
  ADD_FAILURE() << "fuzz history hashes moved (profile seed new-hash):\n"
                << moved << "If the change is meant to alter behaviour, copy "
                << fresh_path << " over tests/fuzz_hashes.txt and list the "
                << "moved seeds in CHANGES.md.";
}

}  // namespace
}  // namespace threev
