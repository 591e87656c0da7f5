(** A checkpoint's live-in prediction, flat.

    What the master ships to a slave at a task boundary: the start PC,
    a fixed [Reg.count]-word register file, and the memory cells it
    predicts. The register part is a bound-register mask over one int
    array; the memory part is a {!Fragment.t} holding memory cells only,
    which a checkpoint shares by reference with the master's cumulative
    dirty set (and so with every checkpoint since the master's last
    seed). The lowest and highest bound memory addresses are computed
    once, at construction.

    A live-in is immutable: no function here mutates its register array
    or its fragment, so a task, the predictor, the verify unit and the
    trace can all read one in place, with no per-consumer copy. {!add}
    returns a new live-in and copies the register array only when it
    binds a register.

    As a partial state it is the fragment {!to_fragment} gives: every
    query here ({!find}, {!fold}, {!cardinal}, {!nth}, {!equal}) answers
    what the same query on that fragment answers, in the same ascending
    cell order — [Pc], the registers by index, then memory by address. *)

type t

val empty : t
(** Nothing bound. *)

val pc_only : int -> t
(** [Pc] alone: the control-only master's checkpoint. *)

val of_state : pc:int -> Full.t -> Fragment.t -> t
(** [of_state ~pc s mem]: [Pc ↦ pc], every register (zero excluded) as
    [s] holds it, and the memory cells of [mem], kept by reference —
    [mem] must bind memory cells only. [O(registers + log |mem|)]: one
    array copy and the two bound descents. *)

val of_fragment : Fragment.t -> t
(** The same partial state, flattened. [O(registers + log n)]: the
    memory part is split off the fragment ({!Fragment.split_mem}), not
    rebuilt binding by binding. *)

val to_fragment : t -> Fragment.t
(** The same partial state as a fragment (allocates; for tests, tools
    and the formal layer). *)

val add : Cell.t -> int -> t -> t
(** [add c v li] binds [c] to [v]. A register binding copies the register
    array; a memory binding adds to the fragment (so the result no
    longer shares the master's dirty set). *)

(** {1 Reading in place} *)

val has_pc : t -> bool

val pc : t -> int
(** Unchecked; meaningful only when [has_pc li]. *)

val has_reg : t -> int -> bool
(** [has_reg li i]: register index [i] (as {!Mssp_isa.Reg.to_int})
    bound? Index 0, the hardwired zero, is never a cell, so only a
    fragment that bound it by hand makes it so. *)

val reg : t -> int -> int
(** Unchecked read of a bound register. *)

val mem : t -> Fragment.t
(** The memory bindings (memory cells only), by reference. *)

val mem_lo : t -> int
val mem_hi : t -> int
(** Lowest and highest bound memory address; [mem_lo li > mem_hi li]
    when no memory is bound. *)

val find_mem : t -> int -> int option
(** The memory live-in at an address: the fragment is probed (and a
    cell boxed) only inside [mem_lo .. mem_hi]. *)

val find : t -> Cell.t -> int option
val is_empty : t -> bool

val cardinal : t -> int
(** Bindings, memory counted by a walk: [O(registers + |mem|)]. *)

val fold : (Cell.t -> int -> 'a -> 'a) -> t -> 'a -> 'a
(** In ascending cell order, like {!Fragment.fold}. *)

val nth : t -> int -> Cell.t * int
(** [nth li k]: the [k]-th binding (from 0) in ascending cell order,
    without building a list: [O(registers + k)].
    @raise Invalid_argument unless [0 <= k < cardinal li]. *)

val equal : t -> t -> bool
(** Same bindings (the fragments compared by content). *)
