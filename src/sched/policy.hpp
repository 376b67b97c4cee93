// Priority management: one rule. A thread's current priority is derived, never saved (paper
// Table 4: the linear search of locked mutexes "would determine the correct priority for the
// ceiling protocol as well"):
//
//   prio = max(base_prio, highest ceiling among the ceiling mutexes the thread holds,
//              highest waiter among the inheritance mutexes the thread holds)
//
// Recompute() is the only writer of a live thread's prio, called wherever an input changes: a
// protocol mutex changes owner; a waiter joins, leaves or changes priority on a held
// inheritance mutex; pt_setprio; pt_mutex_setceiling on a held mutex.

#ifndef FSUP_SRC_SCHED_POLICY_HPP_
#define FSUP_SRC_SCHED_POLICY_HPP_

#include "src/kernel/tcb.hpp"

namespace fsup::sched {

// Re-derives t's priority and applies it, fixing up whatever queue t sits on. to_head controls
// where a READY thread lands on its new level: protocol changes use head (the paper argues a
// thread must not be penalized for a priority it did not choose); pt_setprio uses tail. A
// changed t blocked on an inheritance mutex changes its holder's input: the chain is followed
// up to 64 hops (a cycle is a deadlock, the detector's business). Flags a dispatch when the
// change affects who should run. In kernel.
void Recompute(Tcb* t, bool to_head);

}  // namespace fsup::sched

#endif  // FSUP_SRC_SCHED_POLICY_HPP_
