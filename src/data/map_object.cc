#include "data/map_object.h"

#include <cmath>
#include <cstdio>
#include <memory>
#include <string>

#include "util/check.h"
#include "util/string_util.h"

namespace psj {
namespace {

constexpr uint64_t kStoreMagic = 0x50534a4f424a5331ULL;  // "PSJOBJS1"

struct FileCloser {
  void operator()(std::FILE* f) const {
    if (f != nullptr) std::fclose(f);
  }
};
using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

template <typename T>
bool WriteValue(std::FILE* f, const T& value) {
  return std::fwrite(&value, sizeof(T), 1, f) == 1;
}

template <typename T>
bool ReadValue(std::FILE* f, T* value) {
  return std::fread(value, sizeof(T), 1, f) == 1;
}

}  // namespace

ObjectStore::ObjectStore(std::vector<MapObject> objects)
    : objects_(std::move(objects)) {
  for (size_t i = 0; i < objects_.size(); ++i) {
    PSJ_CHECK_EQ(objects_[i].id, static_cast<uint64_t>(i))
        << "object ids must be dense and ordered";
  }
}

const MapObject& ObjectStore::Get(uint64_t id) const {
  PSJ_CHECK_LT(id, objects_.size());
  return objects_[id];
}

Status ObjectStore::SaveToFile(const std::string& path) const {
  FilePtr f(std::fopen(path.c_str(), "wb"));
  if (f == nullptr) {
    return Status::Internal("cannot open for writing: " + path);
  }
  if (!WriteValue(f.get(), kStoreMagic) ||
      !WriteValue(f.get(), static_cast<uint64_t>(objects_.size()))) {
    return Status::Internal("write failure: " + path);
  }
  for (const MapObject& obj : objects_) {
    const auto& points = obj.geometry.points();
    if (!WriteValue(f.get(), obj.id) ||
        !WriteValue(f.get(), static_cast<uint64_t>(points.size()))) {
      return Status::Internal("write failure: " + path);
    }
    for (const Point& p : points) {
      if (!WriteValue(f.get(), p.x) || !WriteValue(f.get(), p.y)) {
        return Status::Internal("write failure: " + path);
      }
    }
  }
  return Status::OK();
}

StatusOr<ObjectStore> ObjectStore::LoadFromFile(const std::string& path) {
  FilePtr f(std::fopen(path.c_str(), "rb"));
  if (f == nullptr) {
    return Status::NotFound("cannot open for reading: " + path);
  }
  uint64_t magic = 0;
  uint64_t count = 0;
  if (!ReadValue(f.get(), &magic) || magic != kStoreMagic) {
    return Status::Corruption("bad object store magic: " + path);
  }
  if (!ReadValue(f.get(), &count)) {
    return Status::Corruption("truncated object store: " + path);
  }
  // The lengths below come from the file, so they are checked against the
  // bytes left in it before they size any allocation.
  const long header_end = std::ftell(f.get());
  if (header_end < 0 || std::fseek(f.get(), 0, SEEK_END) != 0) {
    return Status::Internal("cannot seek: " + path);
  }
  const long file_end = std::ftell(f.get());
  if (file_end < header_end ||
      std::fseek(f.get(), header_end, SEEK_SET) != 0) {
    return Status::Internal("cannot seek: " + path);
  }
  uint64_t remaining = static_cast<uint64_t>(file_end - header_end);
  constexpr uint64_t kObjectHeaderBytes = 2 * sizeof(uint64_t);
  constexpr uint64_t kPointBytes = sizeof(Point);
  if (count > remaining / kObjectHeaderBytes) {
    return Status::Corruption("object count exceeds the file: " + path);
  }
  std::vector<MapObject> objects;
  objects.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    uint64_t id = 0;
    uint64_t num_points = 0;
    if (!ReadValue(f.get(), &id) || !ReadValue(f.get(), &num_points)) {
      return Status::Corruption("truncated object store: " + path);
    }
    if (id != i) {
      return Status::Corruption("non-dense object ids: " + path);
    }
    remaining -= kObjectHeaderBytes;
    if (num_points > remaining / kPointBytes) {
      return Status::Corruption("point count exceeds the file: " + path);
    }
    remaining -= num_points * kPointBytes;
    std::vector<Point> points;
    points.reserve(num_points);
    for (uint64_t k = 0; k < num_points; ++k) {
      Point p;
      if (!ReadValue(f.get(), &p.x) || !ReadValue(f.get(), &p.y)) {
        return Status::Corruption("truncated object store: " + path);
      }
      // A NaN would make the MBR's min/max folds depend on operand order.
      if (!std::isfinite(p.x) || !std::isfinite(p.y)) {
        return Status::Corruption("non-finite coordinate in object " +
                                  std::to_string(i) + ": " + path);
      }
      points.push_back(p);
    }
    objects.push_back(MapObject{id, Polyline(std::move(points))});
  }
  return ObjectStore(std::move(objects));
}

}  // namespace psj
