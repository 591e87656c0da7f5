(** The fault-plan DSL: a deterministic, seeded schedule of typed fault
    actions against the speculative domain.

    A {e plan} is a list of {!action}s plus a recovery {!policy}. Each
    action targets exactly one {!surface} with a per-opportunity
    probability [p], an optional absolute-cycle window, and its own
    PRNG stream (derived from [seed] and the surface), so adding or
    removing one action never perturbs another's decisions — the
    property that makes plans shrinkable.

    The machine consults the plan at fixed {e opportunities} (one per
    spawn, per dispatch, per verify attempt, …); every consultation
    steps the action's PRNG whether or not the window admits the
    cycle, so a window only masks outcomes — it never reshapes the
    random stream.

    {b The absorbability rule} (HACKING.md "Fault surfaces and the
    absorbability rule"): every surface except {!surface.Commit_corrupt}
    injects into the {e speculative} domain only, so by the task-safety
    theorem the machine must absorb any such plan — final architected
    state identical to SEQ, only stats/cycles move. [Commit_corrupt]
    breaks the (non-speculative) verify/commit unit itself and exists
    solely so mutation smoke tests can prove the differential oracle
    catches a non-absorbable plan. A {!surface.Slave_stall} action
    additionally needs the per-task watchdog
    ({!policy.watchdog_cycles}) to be absorbable in bounded time;
    without it the stalled task hangs the run (cycle limit, or a
    structured [Livelock] stop when the machine-level liveness window
    is armed). {!absorbable} encodes exactly this predicate. *)

type surface =
  | Live_in_corrupt
      (** corrupt one predicted live-in binding of a fresh checkpoint
          (whole-word xor) *)
  | Mem_bit_flip
      (** flip one bit of one predicted {e memory} live-in binding: a
          soft error in the speculative domain's storage *)
  | Checkpoint_drop
      (** the checkpoint message from master to the window is lost; the
          master retries with exponential backoff
          ({!policy.spawn_retries} / {!policy.spawn_backoff}) and, when
          retries are exhausted, gives up and recovers (squash with
          reason [Checkpoint_lost]) *)
  | Checkpoint_delay
      (** the checkpoint message is late: [magnitude] extra cycles on
          the spawn path before the slave can start *)
  | Slave_stall
      (** the task body stops making progress — its completion never
          arrives. Absorbed by the per-task watchdog
          ({!policy.watchdog_cycles}), which squashes and re-dispatches
          via recovery *)
  | Verify_transient
      (** transient verification-unit error: the verify of the window
          head is retried after an exponential backoff
          ({!policy.verify_retries} / {!policy.verify_backoff}) before
          the real outcome is reported *)
  | Commit_corrupt
      (** NOT absorbable: corrupt one committed memory live-out after a
          verified commit: a deliberately broken commit unit. Only for
          mutation smoke tests. *)

val all_surfaces : surface list
(** Every surface, [Commit_corrupt] included, in declaration order. *)

val absorbable_surfaces : surface list
(** The surfaces a correct machine must absorb. *)

val surface_name : surface -> string
(** Stable snake_case name (used in trace events and reports). *)

type action = private {
  surface : surface;
  seed : int;  (** this action's own PRNG stream *)
  p : float;  (** per-opportunity firing probability, clamped to [0,1] *)
  window : (int * int) option;
      (** absolute-cycle window [lo, hi): outside it the action never
          fires (its PRNG still steps — see the module preamble) *)
  magnitude : int;
      (** surface-specific intensity: extra cycles for
          [Checkpoint_delay], bit index (mod 62) for [Mem_bit_flip];
          ignored elsewhere. 0 picks a surface default. *)
  quiet : bool;
      (** suppress the [Fault] trace event when this action fires —
          only for {!quiet} plans, whose event streams predate the
          fault subsystem and are pinned by golden traces *)
}

val action :
  ?window:int * int -> ?magnitude:int -> surface -> seed:int -> p:float -> action
(** Smart constructor; clamps [p] into [0,1], never sets [quiet]. *)

type policy = {
  spawn_retries : int;
      (** checkpoint-drop retries before the master gives up *)
  spawn_backoff : int;
      (** base backoff cycles; retry [k] waits [spawn_backoff * 2^k] *)
  verify_retries : int;  (** transient-verify retries per task *)
  verify_backoff : int;
      (** base backoff cycles; retry [k] waits [verify_backoff * 2^k] *)
  watchdog_cycles : int option;
      (** per-task watchdog: a dispatched task not finished after this
          many cycles is squashed and re-dispatched via recovery. [None]
          disables the watchdog (and its scheduled events). Set it above
          the worst-case honest task latency — the watchdog cannot tell
          a stalled task from a slow one. *)
}

val default_policy : policy
(** 3 spawn retries backing off from 20 cycles, 3 verify retries from 8
    cycles, watchdog off. *)

type t = { actions : action list; policy : policy }

val make : ?policy:policy -> action list -> t

val quiet : surface -> seed:int -> p:float -> t
(** A one-action plan under {!default_policy} whose action is [quiet]:
    it fires exactly like [action surface ~seed ~p] but emits no [Fault]
    event. The fuzz grid's live-in corruption points and the
    chaos-commit mutation tests use it; their event streams predate the
    fault subsystem and are pinned by golden traces. *)

val absorbable : t -> bool
(** No [Commit_corrupt] action, and any [Slave_stall] action implies
    [policy.watchdog_cycles <> None]. *)

val pp : Format.formatter -> t -> unit

val to_string : t -> string
(** One-line rendering for logs and repro comments. *)
