(** The in-order verify/commit unit.

    The oldest checkpoint's task, once finished, is verified: its
    recorded live-ins must equal architected state. A consistent task
    commits its live-outs into architected state (and reports the
    stores to the block caches); anything else is a squash. Verification
    also trains the live-in predictor, and under a fault plan the unit
    suffers transient errors (retried after a backoff) and, for mutation
    tests only, chaos commits.

    Every function is a state transition on the machine state; none
    schedules an event. {!Mssp_machine} schedules what {!examine}
    answers: the unit's busy time, a retry, or the squash. *)

open Machine_state

val examine : t -> int
(** Examine the window head. [>= 0]: the head committed, and the unit
    is busy for that many cycles before it looks at the next head.
    Otherwise one of the codes below. *)

val idle : int
(** Nothing to examine: the unit is busy, the window empty, or the head
    unfinished or deferred. *)

val halted : int
(** The head committed the program's halt; the machine has stopped. *)

val retry : int
(** A transient error deferred the head (still at the window head) for
    {!backoff} cycles; until {!resume}, {!examine} answers {!idle}. *)

val squash : int
(** The head (still at the window head) failed verification: squash it
    with {!failure}. *)

val orphaned : int
(** The window is empty and the master dead: squash with
    [Master_dead]. *)

val backoff : t -> checkpoint -> int
(** Cycles before a deferred head is retried: [verify_backoff]
    doubling with each retry of the task, at least 1. *)

val resume : checkpoint -> unit
(** The retry fired: the head may be examined again. *)

val failure : checkpoint -> squash_reason
(** Why a head that failed verification is squashed: [Live_in_mismatch]
    for a completed task, else [Task_failed]. *)

val cost : Mssp_config.timing -> live_ins:int -> live_outs:int -> int
(** The verify/commit time of one task: [verify_base +
    verify_per_live_in * ⌈live_ins / verify_parallelism⌉ + commit_base +
    commit_per_live_out * ⌈live_outs / commit_parallelism⌉], a
    parallelism below 1 counting as 1. *)
