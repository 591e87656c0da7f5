(** The SEQ reference machine (paper §4.1).

    Runs a program on a {!Mssp_state.Full.t} with no speculation — the
    model against which MSSP's correctness is measured, and the functional
    core of the sequential baseline.

    Whole-run entry points ({!run}, {!run_until}) execute through the
    pre-decoded superblock engine ({!Sblock}). {!run_reference} and
    {!run_until_reference} are the same drivers over the single-step
    {!Exec.step} loop — the test oracle the engine is held to: results
    and the instruction/load/store counters are bit-identical either
    way. {!step}, {!next}, {!seq} and {!seq_in_place} always
    single-step — per-instruction observers (the profiler, the
    verification shadow) see the plain {!Exec.step} loop. *)

type stop = Halted | Faulted of Exec.fault | Out_of_fuel

type t = {
  state : Mssp_state.Full.t;
  mutable stopped : stop option;
  mutable instructions : int;  (** dynamic instructions executed *)
  mutable loads : int;
      (** memory reads, instruction fetches included (trace counter) *)
  mutable stores : int;  (** memory writes (trace counter) *)
  read : Mssp_state.Cell.t -> int option;
      (** executor read callback over [state], built once at creation so
          the step loop allocates no closures *)
  write : Mssp_state.Cell.t -> int -> unit;  (** executor write callback *)
  mutable engine : Sblock.t option;
      (** the block cache, created lazily at the first {!run}/{!run_until}
          (never by {!step}); pass one in to persist it across machines
          over the same state *)
  images : Mssp_isa.Program.t list;
      (** programs pre-decoded into a lazily created engine *)
}

val of_program : Mssp_isa.Program.t -> t
(** Fresh machine with the program loaded and PC at its entry. The
    program becomes the engine's pre-decoded image. *)

val of_state :
  ?images:Mssp_isa.Program.t list ->
  ?engine:Sblock.t ->
  Mssp_state.Full.t ->
  t
(** Machine over an existing state (not copied). [images] (default
    none) seed a lazily
    created engine's pre-decode; [engine] shares an existing engine —
    the caller then owns its consistency and must report external stores
    to the state via {!Sblock.note_store}. *)

val step : t -> bool
(** Execute one instruction (always single-step). [false] once the
    machine has halted or faulted (no state change then). *)

val run : ?fuel:int -> t -> stop
(** Run until [Halt], a fault, or [fuel] instructions (default 100M).
    Fuel counts instructions of this call, checked before each one. *)

val run_until :
  t ->
  fuel:int ->
  min_steps:int ->
  at:(int -> bool) ->
  [ `At_entry | `Fuel | `Stopped ]
(** Run until the PC {e after} a retired instruction satisfies [at]
    (checked only once at least [min_steps] instructions have retired
    in this call), fuel runs out, or the machine halts/faults
    ([`Stopped], with [stopped] set). [at] is checked after each
    instruction and wins over fuel when both hold at the same boundary;
    fuel is checked before each instruction. This is the recovery
    driver: sequential re-execution to the next checkpoint entry. *)

val run_reference : ?fuel:int -> t -> stop
(** {!run} on the single-step reference loop: no engine is created. *)

val run_until_reference :
  t ->
  fuel:int ->
  min_steps:int ->
  at:(int -> bool) ->
  [ `At_entry | `Fuel | `Stopped ]
(** {!run_until} on the single-step reference loop. *)

val next : Mssp_state.Full.t -> Mssp_state.Full.t
(** The paper's [next(S)]: a fresh state one instruction ahead of [S].
    Total: halted/faulted states map to themselves. [S] is not modified. *)

val seq : Mssp_state.Full.t -> int -> Mssp_state.Full.t
(** The paper's [seq(S, n)]: [n] instructions ahead of [S] (fewer if the
    machine halts; [next] is a fixed point there). [S] is not modified. *)

val seq_in_place : Mssp_state.Full.t -> int -> stop option
(** Advance a state [n] instructions in place; [None] if all [n] executed
    without stopping. The verification shadow uses this to avoid copies. *)

val output : Mssp_state.Full.t -> int list
(** The architected output stream: values emitted by [Out], oldest
    first. *)

val run_program : ?fuel:int -> Mssp_isa.Program.t -> t
(** Convenience: load, run to completion, return the machine. *)
