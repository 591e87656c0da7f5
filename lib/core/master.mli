(** The MSSP master core: functional execution of the distilled program,
    its timing, and the speculative state it hands to slaves.

    The master steps on its own fast path rather than through
    {!Mssp_seq.Exec}: it fetches each word from its [Full.t] state,
    decodes it through word-validated pre-decoded images of the
    distilled and original programs ({!Mssp_isa.Program.image_decoder},
    falling back to [Instr.decode_cached] for any word that differs from
    the image, such as self-modified code), and executes it directly on
    that state. A step allocates nothing. [Exec] stays the reference:
    [test/test_master.ml] runs this step against an [Exec.step_with]
    master instruction by instruction.

    Memory the master stores goes into a store buffer — a
    {!Mssp_task.Journal.t}, the same address log slaves journal into:
    last value per address, O(1) per store — and is folded into the
    cumulative dirty fragment only when a checkpoint is built, the
    fragment every checkpoint shares by reference (HACKING.md invariant
    3). A checkpoint is a flat {!Mssp_state.Live_in.t}: the PC, a copy
    of the register file, and that fragment. *)

type t

val create :
  config:Mssp_config.t ->
  cache:Mssp_cache.Cache.Hierarchy.t ->
  decode:(pc:int -> word:int -> Mssp_isa.Instr.t option) ->
  Mssp_distill.Distill.t ->
  Mssp_state.Full.t ->
  t
(** A master seeded from a copy of the given architected state, at the
    distilled program's entry, with a fork due at its first marker.
    [decode] must agree with [Instr.decode] (pass the
    {!Mssp_isa.Program.image_decoder} over the distilled and original
    images). Memory accesses are charged to [cache]. The PC map is
    flattened here, once per run. *)

val reseed : t -> Mssp_state.Full.t -> pc:int -> unit
(** Restart from a copy of architected state at distilled PC [pc]: the
    dirty fragment and the store buffer are dropped, marker passes
    forgotten, and the next marker forks. *)

val state : t -> Mssp_state.Full.t
(** The master's speculative state (replaced by {!reseed}). *)

val retired : t -> int
(** Master instructions executed since {!create} ([Fork] markers and
    the final [Halt] or fault excluded). *)

val dirty : t -> Mssp_state.Fragment.t
(** Memory stored since the last seed, as of the last checkpoint built
    (stores since then sit in the store buffer). *)

val buffered : t -> int
(** Distinct addresses in the store buffer: stored since the last
    checkpoint and not yet in {!dirty}. Always 0 when checkpoints carry
    no dirty set ([control_only_master], [isolated_slaves]). *)

(** {1 One instruction} *)

val dead : int
(** {!step}'s code for death: [Halt] or an undecodable word. *)

val fork : int
(** {!step}'s code for a [Fork] marker; {!fork_entry} names its entry. *)

val step : t -> int
(** Execute one instruction and return its cycle cost ([>= 0]), or
    {!fork} or {!dead} (both negative, PC left on the instruction).
    A PC inside original code that the PC map knows is first redirected
    into distilled code. The cost is [master_base] plus the hierarchy
    latency of each access, charged in single-step order: the fetch,
    then a [Ld]/[St] address, and for [Out] the count read, the slot
    write and the count write. *)

val fork_entry : t -> int
(** The entry of the marker the last {!step} returned {!fork} for. *)

val checkpoint : t -> int -> Mssp_state.Live_in.t
(** [checkpoint m e]: the live-in prediction of a task starting at
    original PC [e]. Folds the store buffer into {!dirty} first; the
    result is the PC, one copy of the register file and {!dirty} by
    reference ({!Mssp_state.Live_in.of_state}): [O(registers)] however
    large the dirty set, plus [O(log n)] per store since the last
    checkpoint. [control_only_master]: the PC alone; [isolated_slaves]:
    a full snapshot of the master's state. *)

(** {1 Running until a fork} *)

type stop =
  | Forked of { entry : int; occurrence : int; live_in : Mssp_state.Live_in.t; cost : int }
      (** a checkpoint for a task at [entry], ending the previous task
          at its [occurrence]-th arrival there; [cost] cycles elapsed *)
  | Stopped of int
      (** the master died ([Halt], undecodable word) or ran
          [master_chunk] instructions without a checkpoint, after that
          many cycles *)

val run : t -> stop
(** Step until a checkpoint is due or the master stops. Markers reached
    before [task_size] instructions since the last checkpoint are
    skipped at no cost; their passes are counted, so the slave knows
    which arrival at its end PC is the boundary. *)
