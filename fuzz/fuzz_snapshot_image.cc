#include "fuzz/harness.h"

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  hygraph::fuzz::FuzzSnapshotImage(data, size);
  return 0;
}
