// Seeded mutation fuzz over every text parser at a process boundary: the
// campaign spec, the store record, the client request line, the worker
// lease line and the worker reply line. Seeds are the golden campaigns and
// stores plus one line of each protocol kind; each mutant is stacked byte
// flips, inserts, deletes, truncations, splices from another seed and
// hostile tokens. Every mutant goes to every parser. Bad input must get an
// error (and, under the sanitizer jobs, no UB); what a parser accepts must
// hold its invariants:
//   * a campaign spec round-trips: parse_campaign(format_campaign(s))
//     succeeds with the same spec_hash, and formats to the same text;
//   * a record has one entry per network in every per-network array and a
//     point >= 0, so its CSV export has one row per network.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "exp/result_store.hpp"
#include "exp/spec.hpp"
#include "sim/random.hpp"
#include "svc/protocol.hpp"

namespace nomc::exp {
namespace {

constexpr int kMutantsPerSeedSet = 5000;

std::string read_file(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  EXPECT_NE(file, nullptr) << path;
  if (file == nullptr) return "";
  std::string content;
  char buffer[4096];
  std::size_t got = 0;
  while ((got = std::fread(buffer, 1, sizeof buffer, file)) > 0) content.append(buffer, got);
  std::fclose(file);
  return content;
}

/// `text` cut at every `separator`; the pieces keep empty ones.
std::vector<std::string> split(std::string_view text, char separator) {
  std::vector<std::string> pieces;
  while (true) {
    const std::size_t end = text.find(separator);
    pieces.emplace_back(text.substr(0, end));
    if (end == std::string_view::npos) return pieces;
    text.remove_prefix(end + 1);
  }
}

/// One seed set per parser, each accepted by its parser: the golden
/// campaigns, every golden record, and one request, lease and worker line.
std::vector<std::vector<std::string>> seed_sets() {
  std::vector<std::filesystem::path> files;
  for (const auto& entry : std::filesystem::directory_iterator{NOMC_GOLDEN_DIR}) {
    files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  std::vector<std::string> campaigns;
  std::vector<std::string> records;
  for (const std::filesystem::path& file : files) {
    if (file.extension() == ".campaign") campaigns.push_back(read_file(file.string()));
    if (file.extension() != ".jsonl") continue;
    for (std::string& line : split(read_file(file.string()), '\n')) {
      if (!line.empty()) records.push_back(std::move(line));
    }
  }
  svc::LeaseRequest lease;
  lease.spec = campaigns.front();
  lease.first = 1;
  lease.count = 2;
  lease.jobs = 4;
  const std::string query = R"({"op":"query","spec_hash":"465bbb7b2ce26ba3","point":3})";
  const std::string reply = svc::worker_record_line(0, 12.5, records.front());
  return {campaigns, records, {query}, {svc::lease_line(lease)}, {reply}};
}

/// Hostile tokens, '|'-separated: numbers past double and int range, JSON
/// escapes for NUL and a lone surrogate, structural bytes, spec keywords.
constexpr std::string_view kTokenList =
    "1e308|-1e308|1e-400|nan|inf|-0|2147483648|-2147483649|9223372036854775808|"
    "\\u0000|\\ud800|\"|\\|{|}|[|]|,|:|null|true|sweep | = |\n";

/// Applies 1-4 stacked mutations to `text`; `seeds` supplies splice donors.
std::string mutate(std::string text, const std::vector<std::string>& seeds,
                   const std::vector<std::string>& tokens, sim::RandomStream& rng) {
  const auto pick = [&rng](std::size_t size) {
    return static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(size)));
  };
  const int rounds = static_cast<int>(rng.uniform_int(1, 4));
  for (int round = 0; round < rounds; ++round) {
    const std::size_t at = pick(text.size());
    switch (rng.uniform_int(0, 5)) {
      case 0:  // flip one bit
        if (at < text.size()) {
          text[at] = static_cast<char>(text[at] ^ (1 << rng.uniform_int(0, 7)));
        }
        break;
      case 1:  // insert one arbitrary byte
        text.insert(at, 1, static_cast<char>(rng.uniform_int(0, 255)));
        break;
      case 2:  // delete a short run
        text.erase(at, static_cast<std::size_t>(rng.uniform_int(1, 8)));
        break;
      case 3:  // truncate
        text.resize(at);
        break;
      case 4: {  // splice a slice of any seed in
        const std::string& donor = seeds[pick(seeds.size() - 1)];
        const std::size_t from = pick(donor.size());
        text.insert(at, donor.substr(from, static_cast<std::size_t>(rng.uniform_int(1, 32))));
        break;
      }
      default:  // a hostile token, inserted or over a short run
        if (rng.bernoulli(0.5)) text.erase(at, static_cast<std::size_t>(rng.uniform_int(1, 4)));
        text.insert(at, tokens[pick(tokens.size() - 1)]);
        break;
    }
  }
  return text;
}

/// Feeds `input` to every parser; returns how many accepted it.
int check_every_parser(const std::string& input) {
  int accepted = 0;

  CampaignSpec spec;
  SpecError spec_error;
  if (parse_campaign(input, spec, spec_error)) {
    ++accepted;
    const std::string canonical = format_campaign(spec);
    CampaignSpec again;
    EXPECT_TRUE(parse_campaign(canonical, again, spec_error)) << spec_error.str() << input;
    EXPECT_EQ(spec_hash(again), spec_hash(spec)) << input;
    EXPECT_EQ(format_campaign(again), canonical) << input;
  }

  ResultRecord record;
  std::string error;
  if (parse_record(input, record, error)) {
    ++accepted;
    EXPECT_GE(record.point, 0) << input;
    EXPECT_EQ(record.prr.size(), record.pps.size()) << input;
    EXPECT_EQ(record.backoffs_per_s.size(), record.pps.size()) << input;
    EXPECT_EQ(record.drops_per_s.size(), record.pps.size()) << input;
    std::vector<std::string> keys;
    csv_collect_sweep_keys(record, keys);
    EXPECT_EQ(csv_record_rows(record, keys).size(), record.pps.size()) << input;
  }

  svc::Request request;
  accepted += svc::parse_request(input, request, error) ? 1 : 0;
  svc::LeaseRequest lease;
  accepted += svc::parse_lease(input, lease, error) ? 1 : 0;
  svc::WorkerReply reply;
  accepted += svc::parse_worker_reply(input, reply, error) ? 1 : 0;
  return accepted;
}

TEST(ParserFuzz, MutantsGetAnErrorOrKeepTheInvariants) {
  const std::vector<std::vector<std::string>> sets = seed_sets();
  const std::vector<std::string> tokens = split(kTokenList, '|');
  ASSERT_EQ(tokens.size(), 24u);
  std::vector<std::string> all_seeds;
  for (const auto& set : sets) {
    for (const std::string& seed : set) {
      ASSERT_FALSE(seed.empty());
      // Unmutated, each seed is accepted by (at least) its own parser.
      EXPECT_GE(check_every_parser(seed), 1) << seed;
      all_seeds.push_back(seed);
    }
  }

  sim::RandomStream rng{1, 0};
  for (std::size_t s = 0; s < sets.size(); ++s) {
    SCOPED_TRACE("seed set " + std::to_string(s));
    int accepted = 0;
    for (int i = 0; i < kMutantsPerSeedSet; ++i) {
      const std::string& seed = sets[s][static_cast<std::size_t>(i) % sets[s].size()];
      accepted += check_every_parser(mutate(seed, all_seeds, tokens, rng));
      if (::testing::Test::HasFailure()) return;
    }
    // Some mutants must survive (a token landing in a comment, a flipped
    // digit), or the invariants above were never exercised.
    EXPECT_GT(accepted, 0);
  }
}

}  // namespace
}  // namespace nomc::exp
