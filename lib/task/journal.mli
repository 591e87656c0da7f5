(** Flat mutable cell→value buffers for the task fast path.

    A journal is the hot-loop counterpart of {!Mssp_state.Fragment.t}: a
    slave instruction resolves registers and the PC by direct array/flag
    access and memory by one open-addressed probe, instead of paying a
    balanced-tree lookup per cell. Memory bindings sit in a flat
    insertion-order log (address, current value) with an index of log
    positions over it, so probing, binding and rebinding allocate nothing
    once the log has grown to the task's footprint. Tasks keep the PC and
    register part of their live-in prediction, their recorded reads and
    their buffered writes in journals while running, and convert to
    fragments only for tests and diagnostics.

    {b Iteration order is a contract.} {!iter}/{!for_all} walk [Pc],
    then the registers in index order, then memory in first-binding
    order — the log's order. For a reads journal that log {e is} the
    staged first-read stream: verification, squash attribution and
    predictor training replay the task's first-reads in serial
    first-read order, no matter whether the per-instruction interpreter
    or the block engine staged them, and no matter the log's capacity —
    which is what makes [mem_size] pre-sizing invisible. *)

type t

val create : ?mem_size:int -> unit -> t
(** Empty journal whose memory log takes [mem_size] (default 8)
    bindings without growing; any value is accepted (the index is
    rounded up to a power of two). Capacity only: the log doubles on
    demand, and the iteration order above never depends on it. *)

(* fine-grained accessors — the executor's per-cell fast path *)

val has_pc : t -> bool
val pc : t -> int option

val pc_value : t -> int
(** Unchecked PC read; meaningful only when [has_pc j]. *)

val set_pc : t -> int -> unit

val has_reg : t -> int -> bool
(** [has_reg j i]: register index [i] (as {!Mssp_isa.Reg.to_int}) bound? *)

val reg : t -> int -> int
(** Unchecked read of a bound register; meaningful only when
    [has_reg j i]. *)

val set_reg : t -> int -> int -> unit

val mem_pos : t -> int -> int
(** [mem_pos j a] is the log position of address [a], or [-1] when [a]
    is unbound. Allocation-free; read the value with {!mem_value}. *)

val mem_value : t -> int -> int
(** [mem_value j p]: current value at log position [p] (from
    {!mem_pos}, valid until the next binding). *)

val mem_addr : t -> int -> int
(** [mem_addr j p]: the address at log position [p]. Positions
    [0 .. mem_count j - 1] walk the memory bindings in first-binding
    order, the order of {!iter_mem}. *)

val find_mem : t -> int -> int option

val set_mem : t -> int -> int -> unit
(** Bind or rebind a memory cell; a fresh address is appended to the
    insertion-order log, a rebind keeps its log position. *)

(* the batched read-set interface — the block engine's staging path *)

val record_mem : t -> int -> int -> unit
(** [record_mem j a v] stages a first-read: binds [a] to [v] unless [a]
    is already bound, in which case the earlier binding — the first
    read — stands and nothing changes. One probe; the caller needs no
    [find_mem] beforehand. *)

val mem_avoids : t -> lo:int -> hi:int -> bool
(** [mem_avoids j ~lo ~hi] is [true] when no memory binding lies in
    [\[lo, hi\]] (inclusive). [O(1)] and conservative — computed from
    the journal's running address bounds, so [false] only means "maybe
    bound inside". The block executor uses it to decide whether a code
    span could be shadowed by a task's write buffer. *)

val clear : t -> unit
(** Unbind everything, keeping the capacity the log has grown to: a
    cleared journal behaves exactly like a fresh one. [O(bindings)] —
    only the index slots the log used are reset — and allocation-free,
    so one journal can be reused across tasks or checkpoints. *)

(* generic cell interface *)

val set : t -> Mssp_state.Cell.t -> int -> unit
val find : t -> Mssp_state.Cell.t -> int option
val mem : t -> Mssp_state.Cell.t -> bool
val cardinal : t -> int

val mem_count : t -> int
(** Number of memory bindings (the log's length). *)

val iter : (Mssp_state.Cell.t -> int -> unit) -> t -> unit
(** [Pc] first, registers in index order, then memory in first-binding
    order — the serial first-read replay order for a reads journal. *)

val iter_mem : (int -> int -> unit) -> t -> unit
(** [iter_mem f j] calls [f a v] for every memory binding in
    first-binding order — the memory part of {!iter}, with no cell
    boxed. *)

val for_all : (Mssp_state.Cell.t -> int -> bool) -> t -> bool
(** Same order as {!iter}. *)

val for_all_mem : (int -> int -> bool) -> t -> bool
(** [for_all_mem p j]: [p a v] holds for every memory binding, walked in
    first-binding order and stopping at the first failure — the memory
    part of {!for_all}, with no cell boxed. *)

val to_fragment : t -> Mssp_state.Fragment.t
