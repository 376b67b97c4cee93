#include "src/sync/tag.hpp"

namespace fsup::sync {
namespace {

uint32_t g_next_tag = 1;
uint16_t g_generation = 0;

}  // namespace

uint32_t NextSyncTag() { return g_next_tag++; }

uint16_t SyncTagGeneration() { return g_generation; }

void ResetSyncTags() {
  g_next_tag = 1;
  ++g_generation;
}

}  // namespace fsup::sync
