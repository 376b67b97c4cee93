// Ergonomic builders for the attribute structs of the public API.

#ifndef FSUP_SRC_CORE_ATTR_HPP_
#define FSUP_SRC_CORE_ATTR_HPP_

#include "src/core/pthread.hpp"

namespace fsup {

// A ThreadAttr with the given priority (-1 = inherit) and optional name.
ThreadAttr MakeThreadAttr(int priority, const char* name = nullptr);

// Lazy (deferred-activation) creation attributes — the paper's future-work feature.
ThreadAttr MakeLazyAttr(int priority, const char* name = nullptr);

// Mutex attributes for the priority-inheritance protocol.
MutexAttr MakeInheritMutexAttr();

// Mutex attributes for the priority-ceiling (SRP) protocol with the given ceiling.
MutexAttr MakeCeilingMutexAttr(int ceiling);

// Mutex attributes for the error-check / recursive types (always take the kernel path).
MutexAttr MakeErrorCheckMutexAttr();
MutexAttr MakeRecursiveMutexAttr();

}  // namespace fsup

#endif  // FSUP_SRC_CORE_ATTR_HPP_
