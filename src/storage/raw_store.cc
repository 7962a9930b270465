#include "storage/raw_store.h"

namespace ciao {

void RawStore::Append(std::string_view record) {
  offsets_.push_back(data_.size());
  lengths_.push_back(static_cast<uint32_t>(record.size()));
  data_.append(record);
}

}  // namespace ciao
