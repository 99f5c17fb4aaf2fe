#include "layout/catalog.h"

#include <algorithm>
#include <string>

namespace ftms {

Catalog::Catalog(const Layout* layout, int64_t tracks_per_disk)
    : layout_(layout), tracks_per_disk_(tracks_per_disk) {}

int64_t Catalog::GroupsOf(const MediaObject& object) const {
  const int64_t per_group = layout_->DataBlocksPerGroup();
  return (object.num_tracks + per_group - 1) / per_group;
}

int64_t Catalog::data_track_capacity() const {
  const int64_t total =
      static_cast<int64_t>(layout_->num_disks()) * tracks_per_disk_;
  // A fraction (C-1)/C of all storage holds data in every scheme (eq. (1)
  // and Tables 2/3: storage overhead = 1/C).
  return total * layout_->DataBlocksPerGroup() / layout_->parity_group_size();
}

Status Catalog::Add(const MediaObject& object) {
  if (object.num_tracks <= 0) {
    return Status::InvalidArgument("object must have at least one track");
  }
  FTMS_RETURN_IF_ERROR(Layout::CheckObject(object));
  if (Contains(object.id)) {
    return Status::AlreadyExists("object " + std::to_string(object.id) +
                                 " already resident");
  }
  const int64_t groups = GroupsOf(object);
  const int64_t data_tracks = groups * layout_->DataBlocksPerGroup();
  if (used_data_tracks_ + data_tracks > data_track_capacity()) {
    return Status::ResourceExhausted(
        "disk working set full: need " + std::to_string(data_tracks) +
        " tracks, free " +
        std::to_string(data_track_capacity() - used_data_tracks_));
  }
  objects_.push_back(object);
  used_data_tracks_ += data_tracks;
  used_parity_tracks_ += groups;
  return Status::Ok();
}

Status Catalog::Remove(int object_id) {
  auto it = std::find_if(objects_.begin(), objects_.end(),
                         [&](const MediaObject& o) { return o.id == object_id; });
  if (it == objects_.end()) {
    return Status::NotFound("object " + std::to_string(object_id) +
                            " not resident");
  }
  const int64_t groups = GroupsOf(*it);
  used_data_tracks_ -= groups * layout_->DataBlocksPerGroup();
  used_parity_tracks_ -= groups;
  objects_.erase(it);
  return Status::Ok();
}

StatusOr<MediaObject> Catalog::Get(int object_id) const {
  auto it = std::find_if(objects_.begin(), objects_.end(),
                         [&](const MediaObject& o) { return o.id == object_id; });
  if (it == objects_.end()) {
    return Status::NotFound("object " + std::to_string(object_id) +
                            " not resident");
  }
  return *it;
}

bool Catalog::Contains(int object_id) const {
  return std::any_of(objects_.begin(), objects_.end(),
                     [&](const MediaObject& o) { return o.id == object_id; });
}

}  // namespace ftms
