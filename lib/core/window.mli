(** The checkpoint window: fork, spawn and dispatch.

    The master's forks become checkpoints here — through the spawn-path
    faults, the live-in predictor's refinement and live-in corruption —
    and join the in-order window of at most [max_in_flight] tasks-to-be.
    A checkpoint whose end boundary is known takes the lowest-numbered
    free slave that is not quarantined, and its task body runs at once.

    Every function is a state transition on the machine state; none
    schedules an event. {!Mssp_machine} turns the answers into events
    (the completion, the stall watchdog, the next master run). *)

open Machine_state

(** {1 Fork and spawn} *)

type offer =
  | Spawned  (** a checkpoint joined the window: dispatch, then run on *)
  | Parked
      (** the window is full: the fork waits in [master_pending] until
          a commit frees a slot ({!unpark}), and the master with it *)
  | Lost
      (** a [Checkpoint_drop] outlasted the spawn retries: the
          checkpoint never arrived, squash with [Checkpoint_lost] *)

val offer : t -> int -> Mssp_state.Live_in.t -> offer
(** [offer st e li]: a fork at original PC [e] predicting [li] asks for
    a window slot — parked when the window is full, else spawned. *)

val unpark : t -> offer
(** Offer the parked fork again (after a commit); [Parked] when none is
    parked. *)

val settle : t -> int option -> int -> bool
(** [settle st end_pc occurrence]: the newest checkpoint learns where
    its task ends — at the [occurrence]-th arrival at [end_pc] (the
    next fork's entry), or at the program's halt ([None], the master
    died). [true] when that end was not known before, so a task may
    have become startable. A fork settles its predecessor even when it
    cannot spawn for lack of a slot, or a window of one would
    deadlock. *)

(** {1 Dispatch} *)

val free_slave : t -> int
(** The lowest-numbered free slave not quarantined, or [-1]. *)

val startable : t -> checkpoint
(** The oldest checkpoint whose end is known and whose task has not
    started, or {!Machine_state.no_checkpoint}. *)

val stalled : int
(** {!start}'s answer when a [Slave_stall] fault swallowed the task's
    completion. *)

val start : t -> checkpoint -> int -> int
(** [start st cp s]: make [cp]'s task, run its body on slave [s]'s
    executor, and return the cycles until its completion arrives, or
    {!stalled}. *)

val finish : t -> checkpoint -> int -> unit
(** The completion of [cp]'s task arrived from slave [s]: the slave is
    free again and the task can be verified. *)

val overdue : t -> checkpoint -> int -> int -> bool
(** [overdue st cp s w]: the per-task watchdog fired [w] cycles after
    dispatch; [true] (counted and traced) when the task has not finished,
    so it is squashed as [Stalled]. *)

(** {1 Quarantine} *)

val blame : t -> int -> unit
(** A task of slave [s] was squashed ([-1]: none): under an active fault
    plan with [quarantine_after > 0], a slave squashed that many times
    in a row with no commit between is benched for the rest of the run
    — never the last healthy one. *)
