// Attribute helpers: ergonomic builders for thread and mutex attributes.

#include "src/core/attr.hpp"

namespace fsup {

ThreadAttr MakeThreadAttr(int priority, const char* name) {
  ThreadAttr a;
  a.priority = priority;
  a.name = name;
  return a;
}

ThreadAttr MakeLazyAttr(int priority, const char* name) {
  ThreadAttr a = MakeThreadAttr(priority, name);
  a.lazy = true;
  return a;
}

MutexAttr MakeInheritMutexAttr() {
  MutexAttr a;
  a.protocol = MutexProtocol::kInherit;
  return a;
}

MutexAttr MakeCeilingMutexAttr(int ceiling) {
  MutexAttr a;
  a.protocol = MutexProtocol::kProtect;
  a.ceiling = ceiling;
  return a;
}

MutexAttr MakeErrorCheckMutexAttr() {
  MutexAttr a;
  a.type = MutexType::kErrorCheck;
  return a;
}

MutexAttr MakeRecursiveMutexAttr() {
  MutexAttr a;
  a.type = MutexType::kRecursive;
  return a;
}

}  // namespace fsup
