(** Squash and recovery.

    A squash discards all speculative work — the window, the slaves'
    tasks, the L1s, every in-flight event (the epoch bump) — and runs a
    non-speculative recovery segment on architected state: at least one
    instruction, up to the next task entry, on the block engine or the
    reference executor. In dual mode a run of fruitless squashes
    stretches the segment into a sequential burst. The master is then
    reseeded at the distilled entry the segment stopped at.

    Every function is a state transition on the machine state; none
    schedules an event. {!Mssp_machine} schedules what the outcome asks
    for, {!delay} cycles later. *)

open Machine_state

type outcome =
  | Stopped
      (** the machine has stopped: the squash limit, or a segment that
          ran out of [recovery_fuel] *)
  | Ended  (** the program halted (or faulted) during the segment *)
  | Again  (** the segment stopped at an entry with no distilled code *)
  | Restart  (** the master was reseeded: run it *)

val squash : t -> task:int -> squash_reason -> outcome
(** Count and trace a squash of task [task] ([-1]: no task), then
    {!recover} — unless it is one squash more than [max_squashes]. *)

val recover : t -> outcome
(** Discard all speculative work and run one recovery segment. *)

val delay : t -> outcome -> int
(** Cycles until the outcome takes effect: the last segment's
    instructions at [slave_base + recovery_per_instr] each, plus
    [restart_latency] for [Restart]. *)

val burst : t -> int
(** The minimum length of the next recovery segment: [0], or in dual
    mode after [dual_trigger] fruitless squashes a sequential burst of
    [dual_burst] instructions — doubled for each burst since the last
    commit under [adaptive_backoff], up to 64 times. *)
