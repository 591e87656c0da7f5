(** Live-in value prediction.

    Three composable predictors — last-value, stride, finite-context —
    trained online from the actual cell values the verification unit
    observes, optionally warmed from the profiler's per-cell observation
    streams. A deterministic tournament selects per cell by saturating
    confidence counters with seeded tie-breaking, so a run's predictions
    are bit-identical on every host.

    Predictions are consulted at checkpoint construction ({!refine}):
    a confident prediction overrides the master's live-in value for that
    cell. Correctness never depends on the override — a wrong value is a
    live-in mismatch the machine squashes and absorbs.

    State is dense. Each cell owns a slot: [Pc] and the registers fixed
    ones ({!reg_slot}), each memory address one of its own, handed out
    in first-use order by an open-addressed address index (addresses
    may be negative or huge; nothing is sized by address span). A
    slot's training state is a run of ints in one flat array. The
    finite-context tables of all cells are one open-addressed table
    keyed exactly by (slot, history hash), so two cells never share an
    entry and two histories of one cell share one exactly when their
    hashes collide. The demoted cells {!refine} visits are an array of
    slots. The verification unit trains through the slot entry points
    ({!mem_slot}, {!observe_slot}, {!observe_master_slot}), which box
    no cell and allocate nothing once a cell has its slot; the
    [Cell]-keyed functions below are the same predictor behind a slot
    lookup. *)

type mode =
  | Off
  | Last_value
  | Stride
  | Context
  | Tournament
  | Broken
      (** TEST ONLY: returns the first value ever observed per cell, with
          inflated (unconditional) confidence — mutation-testing material
          for the absorbability oracle. Never in {!modes}. *)

val modes : mode list
(** The honest modes, differential-suite order: off, last-value, stride,
    context, tournament. *)

val mode_to_string : mode -> string
val mode_of_string : string -> mode option
val pp_mode : Format.formatter -> mode -> unit

type t

val create : ?seed:int -> mode -> t
(** A fresh predictor. [seed] only feeds the tournament tie-break hash. *)

val mode : t -> mode

val observe : t -> Mssp_state.Cell.t -> int -> unit
(** [observe t cell actual] scores every component's standing prediction
    against [actual] (hit +1 / miss -2, saturating), then trains all of
    them on it. Call only from the machine's event loop, in a
    deterministic order. *)

val observe_master : t -> Mssp_state.Cell.t -> supplied:int -> actual:int -> unit
(** Score the MASTER's checkpoint value for a cell against the verified
    actual — the incumbent entry of the tournament. Master confidence
    starts saturated (the distilled master is trusted by default) and
    follows the same +1/-2 rule; {!refine} only overrides a cell once a
    component's confidence strictly exceeds it. *)

val reg_slot : int -> int
(** [reg_slot i]: the fixed slot of register index [i] (as
    {!Mssp_isa.Reg.to_int}). Register slots exist from {!create} on. *)

val mem_slot : t -> int -> int
(** [mem_slot t a]: the slot of memory address [a], created on first
    use. Allocation-free once the slot exists. *)

val observe_slot : t -> int -> int -> unit
(** {!observe} on a slot from {!reg_slot} or {!mem_slot}. *)

val observe_master_slot : t -> int -> supplied:int -> actual:int -> unit
(** {!observe_master} on a slot from {!reg_slot} or {!mem_slot}. *)

val master_trusted : t -> int -> bool
(** Whether a slot's master confidence is saturated. {!observe_master}
    with [supplied = actual] leaves such a slot exactly as it is. *)

val master_confidence : t -> Mssp_state.Cell.t -> int
(** Current master confidence for a cell ([conf_max] when untracked). *)

val predict : t -> Mssp_state.Cell.t -> int option
(** The mode's prediction for a cell, [None] below the confidence
    threshold (or with no training). [Off] never predicts. *)

val refine : t -> Mssp_state.Live_in.t -> Mssp_state.Live_in.t
(** Override bindings in a checkpoint's live-in where a component is
    both confident and STRICTLY more confident than the master for that
    cell. The cell set is preserved; [Pc] is never touched. Does not
    train. Reads the live-in in place and builds on it: an overridden
    register copies its register array once per override, an overridden
    memory cell is added to its memory fragment, and the input's arrays
    are never written. With none overridden the input itself is
    returned (physically equal). *)

val conf_threshold : int
(** Minimum confidence at which a component may override a live-in. *)

val history_window : int
(** Context-predictor history length. *)

val components : t -> Mssp_state.Cell.t -> (string * int option * int) list
(** Per component: name, current prediction, confidence — introspection
    for tests and tooling. *)

val chosen : t -> Mssp_state.Cell.t -> string option
(** The tournament's current pick for a cell, if any component clears the
    threshold. *)

val confidence : t -> Mssp_state.Cell.t -> string -> int
(** Confidence of a named component for a cell (0 if untrained). *)

val warmup_of_profile : Mssp_profile.Profile.t -> (int * int list) list
(** The profiler's per-address observation streams in ascending address
    order — the deterministic warm-up a config can carry. *)

val warm : t -> (int * int list) list -> unit
(** Replay observation streams into the predictor ([Mem] cells). *)
