// Thread-specific data: keys with optional destructors, one value slot per key per thread.
//
// Each TCB also keeps a 64-bit mask of the keys it has set to non-NULL (Tcb::tsd_set), so a
// thread's exit runs the destructors of the keys it set without scanning all 64 slots. Key
// delete forgets the key's value in every thread, so a key created later on the same slot
// reads NULL everywhere, as POSIX requires, and never hands its destructor an old value.

#ifndef FSUP_SRC_TSD_TSD_HPP_
#define FSUP_SRC_TSD_TSD_HPP_

#include "src/kernel/tcb.hpp"

namespace fsup::tsd {

using Key = int;
using Destructor = void (*)(void*);

int KeyCreate(Key* key, Destructor dtor);
int KeyDelete(Key key);
int SetSpecific(Key key, void* value);
void* GetSpecific(Key key);

// Runs destructors for every non-null value of the exiting thread in ascending key order,
// repeating (bounded) while destructors install new values, and clears the slots it ran. Visits
// only the keys in the thread's mask. Outside the kernel (user code).
void RunDestructors(Tcb* t);

void ResetForTesting();

}  // namespace fsup::tsd

#endif  // FSUP_SRC_TSD_TSD_HPP_
