// Seed-format (v1) compatibility: indexes written before adaptive cube
// compression — v1 page-file header, one dense page per cube, 4-field
// catalog lines — must open, read, and query correctly, and keep
// accepting new (v2, encoded) appends side by side with the old pages.
//
// The fixture hand-writes the seed files byte for byte rather than going
// through any current writer, so this test keeps failing loudly if the
// current code ever stops understanding the old format.

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "cube/cube_codec.h"
#include "index/temporal_index.h"
#include "io/crc32c.h"
#include "io/env.h"
#include "io/page_file.h"
#include "util/str_util.h"

namespace rased {
namespace {

CubeSchema TinySchema() { return CubeSchema{3, 8, 4, 4}; }  // 3072-byte cubes

DataCube DayCube(const CubeSchema& schema, int day_ordinal) {
  DataCube cube(schema);
  cube.Add(0, 0, 0, 0, static_cast<uint64_t>(day_ordinal));
  cube.Add(1, static_cast<uint32_t>(day_ordinal % schema.num_countries), 2, 1,
           7);
  return cube;
}

void AppendBytes(std::string* out, const void* data, size_t n) {
  out->append(reinterpret_cast<const char*>(data), n);
}

/// Writes a seed-format index: v1 page file with page_size =
/// cube_bytes + 4 (one dense cube per page, as the pre-compression writer
/// laid them out) and a catalog of 4-field cube lines.
void WriteSeedIndex(const std::string& dir, const CubeSchema& schema,
                    Date first, int days) {
  ASSERT_TRUE(env::CreateDirs(dir).ok());
  const size_t page_size = schema.cube_bytes() + PageFile::kChecksumBytes;

  std::string file;
  // Page 0: the 32-byte v1 header, zero-padded to page_size.
  unsigned char header[32] = {0};
  const uint32_t magic = PageFile::kMagic;
  const uint32_t version = 1;  // seed format
  const uint64_t page_size64 = page_size;
  const uint64_t num_pages = static_cast<uint64_t>(days);
  std::memcpy(header + 0, &magic, 4);
  std::memcpy(header + 4, &version, 4);
  std::memcpy(header + 8, &page_size64, 8);
  std::memcpy(header + 16, &num_pages, 8);
  const uint32_t header_crc = Crc32c(header, 24);
  std::memcpy(header + 24, &header_crc, 4);
  AppendBytes(&file, header, sizeof(header));
  file.append(page_size - sizeof(header), '\0');

  // Pages 1..days: raw dense images, checksummed like any page.
  std::string catalog = "rased-catalog v1\n";
  catalog += StrFormat("schema %u %u %u %u\n", schema.num_element_types,
                       schema.num_countries, schema.num_road_types,
                       schema.num_update_types);
  catalog += "levels 4\n";
  catalog += StrFormat("first_day %d\n", first.days_since_epoch());
  catalog += StrFormat("last_day %d\n",
                       first.AddDays(days - 1).days_since_epoch());
  Date d = first;
  for (int i = 0; i < days; ++i, d = d.next()) {
    std::vector<unsigned char> page(page_size, 0);
    DayCube(schema, i + 1).SerializeTo(page.data());
    const uint32_t crc = Crc32c(page.data(), page_size - 4);
    std::memcpy(page.data() + page_size - 4, &crc, 4);
    AppendBytes(&file, page.data(), page.size());
    catalog += StrFormat("cube 0 %d %d\n", d.days_since_epoch(), i + 1);
  }

  ASSERT_TRUE(
      env::WriteFile(env::JoinPath(dir, "cubes.pages"), file).ok());
  ASSERT_TRUE(env::WriteFile(env::JoinPath(dir, "catalog"), catalog).ok());
}

class LegacyFormatTest : public ::testing::Test {
 protected:
  std::unique_ptr<TemporalIndex> OpenSeed(const std::string& name, int days) {
    const std::string dir = env::JoinPath(dir_.path(), name);
    WriteSeedIndex(dir, TinySchema(), Date::FromYmd(2021, 1, 1), days);
    TemporalIndexOptions options;
    options.schema = TinySchema();
    options.num_levels = 4;
    options.dir = dir;
    options.device = DeviceModel::None();
    auto index = TemporalIndex::Open(options);
    EXPECT_TRUE(index.ok()) << index.status().ToString();
    return index.ok() ? std::move(index).value() : nullptr;
  }

  TempDir dir_{"legacy-format-test"};
};

TEST_F(LegacyFormatTest, SeedIndexOpensAndReadsCorrectly) {
  auto index = OpenSeed("seed", 5);
  ASSERT_NE(index, nullptr);
  CatalogSnapshot snapshot = index->Snapshot();
  EXPECT_EQ(snapshot.coverage().num_days(), 5);

  for (int i = 0; i < 5; ++i) {
    const Date d = Date::FromYmd(2021, 1, 1).AddDays(i);
    auto cube = index->ReadCube(snapshot, CubeKey::Daily(d));
    ASSERT_TRUE(cube.ok()) << cube.status().ToString();
    EXPECT_EQ(cube.value(), DayCube(TinySchema(), i + 1));
  }

  // Legacy entries carry dense-image accounting in the catalog.
  auto loc = snapshot.LocOf(CubeKey::Daily(Date::FromYmd(2021, 1, 3)));
  ASSERT_TRUE(loc.has_value());
  EXPECT_TRUE(loc->legacy);
  EXPECT_EQ(loc->encoding, CubeEncoding::kDenseRaw);
  EXPECT_EQ(loc->blob_bytes, TinySchema().cube_bytes());
  EXPECT_EQ(loc->num_pages, 1u);
}

TEST_F(LegacyFormatTest, BatchedReadSpansLegacyCubes) {
  auto index = OpenSeed("batched", 4);
  ASSERT_NE(index, nullptr);
  std::vector<CubeKey> keys;
  for (int i = 0; i < 4; ++i) {
    keys.push_back(CubeKey::Daily(Date::FromYmd(2021, 1, 1).AddDays(i)));
  }
  auto batch = index->ReadCubes(keys);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(batch.value().encoding(static_cast<size_t>(i)),
              CubeEncoding::kDenseRaw);
    auto cube = batch.value().Extract(static_cast<size_t>(i)).Decode();
    ASSERT_TRUE(cube.ok()) << cube.status().ToString();
    EXPECT_EQ(cube.value(), DayCube(TinySchema(), i + 1));
  }
}

TEST_F(LegacyFormatTest, AppendsEncodedCubesNextToSeedPages) {
  auto index = OpenSeed("append", 3);
  ASSERT_NE(index, nullptr);

  // New appends write v2 encoded blobs into the legacy page geometry.
  Date d = Date::FromYmd(2021, 1, 4);
  for (int i = 3; i < 6; ++i, d = d.next()) {
    ASSERT_TRUE(index->AppendDay(d, DayCube(TinySchema(), i + 1)).ok());
  }
  CatalogSnapshot snapshot = index->Snapshot();
  auto new_loc = snapshot.LocOf(CubeKey::Daily(Date::FromYmd(2021, 1, 5)));
  ASSERT_TRUE(new_loc.has_value());
  EXPECT_FALSE(new_loc->legacy);
  EXPECT_LT(new_loc->blob_bytes, TinySchema().cube_bytes());

  // Reopen: seed entries round-trip in 4-field form, new ones in 7-field
  // form, and every cube still reads back exactly.
  const std::string dir = index->options().dir;
  TemporalIndexOptions options = index->options();
  ASSERT_TRUE(index->Sync().ok());
  index.reset();
  auto reopened = TemporalIndex::Open(options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  CatalogSnapshot snap2 = reopened.value()->Snapshot();
  for (int i = 0; i < 6; ++i) {
    const Date day = Date::FromYmd(2021, 1, 1).AddDays(i);
    auto cube = reopened.value()->ReadCube(snap2, CubeKey::Daily(day));
    ASSERT_TRUE(cube.ok()) << cube.status().ToString();
    EXPECT_EQ(cube.value(), DayCube(TinySchema(), i + 1));
    auto loc = snap2.LocOf(CubeKey::Daily(day));
    ASSERT_TRUE(loc.has_value());
    EXPECT_EQ(loc->legacy, i < 3);
  }

  // The weekly rollup built from mixed legacy + encoded children agrees
  // with the sum of its days.
  auto weekly =
      reopened.value()->ReadCube(snap2, CubeKey::Weekly(Date::FromYmd(2021, 1, 4)));
  if (weekly.ok()) {
    uint64_t want = 0;
    for (int i = 3; i < 6; ++i) want += DayCube(TinySchema(), i + 1).Total();
    EXPECT_EQ(weekly.value().Total(), want);
  }
}

TEST_F(LegacyFormatTest, StorageStatsChargeLegacyDenseBytes) {
  auto index = OpenSeed("stats", 4);
  ASSERT_NE(index, nullptr);
  IndexStorageStats stats = index->StorageStats();
  EXPECT_EQ(stats.total_cubes, 4u);
  EXPECT_EQ(stats.encoded_bytes, 4 * TinySchema().cube_bytes());
}

}  // namespace
}  // namespace rased
