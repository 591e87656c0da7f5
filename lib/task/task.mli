(** Speculative tasks — the unit of work MSSP distributes to slaves.

    A task executes the {e original} program from [start_pc] until it
    reaches [end_pc] (the next task's start), the program halts, or its
    instruction budget runs out. It never touches architected state:
    reads are satisfied from its own write buffer, then the master's
    live-in prediction, then (in fallback mode) a read-only view of
    architected state. Every value obtained from outside its own writes
    is {e recorded}; the verification unit later replays those recordings
    against architected state — the memoization check that makes
    commits safe (paper Definition 6 via Theorem 2: recorded live-ins
    consistent with architected state ⊑, plus the executability of every
    step, imply task safety).

    The instrumented executor also realizes the paper's task-evolution
    rule (Definition 5): each step advances the live-out fragment by
    [next].

    While running, the prediction, the recordings and the write buffer
    live in flat {!Journal.t} buffers (register arrays + one memory
    hashtable), so an instruction pays no balanced-tree lookups; use
    {!reads_fragment}/{!writes_fragment} to convert at the commit
    boundary or in tests. *)

type fail_reason =
  | Budget_exhausted  (** never reached [end_pc]: master mispredicted
                          the boundary, or the task diverged *)
  | Fault of Mssp_seq.Exec.fault
  | Missing_cell of Mssp_state.Cell.t
      (** isolated mode only: the master's live-in set was incomplete *)
  | Io_speculative of Mssp_state.Cell.t
      (** the task tried to touch the non-idempotent memory-mapped I/O
          region (paper §7): speculation is forbidden there, so the task
          fails and the access re-executes non-speculatively during
          recovery, in program order *)

type completion =
  | Reached_boundary  (** arrived at [end_pc] *)
  | Program_halted  (** executed [Halt]: this is the program's last task *)

type status = Running | Complete of completion | Failed of fail_reason

val pp_status : Format.formatter -> status -> unit

type t = {
  id : int;
  start_pc : int;
  end_pc : int option;  (** [None]: run until [Halt] only *)
  end_occurrence : int;
      (** the task completes at the [end_occurrence]-th arrival at
          [end_pc] — loop-header boundaries are passed many times within
          one multi-iteration task, and the master tells the slave which
          pass is the boundary (it counted its own marker passes) *)
  mutable end_seen : int;  (** arrivals at [end_pc] so far *)
  budget : int;
  live_in : Mssp_state.Fragment.t;
      (** master's prediction; binds [Pc]. Shared with the checkpoint
          (its memory part is the master's cumulative dirty set) and
          probed in place — never copied per task *)
  li : Journal.t;
      (** the [Pc] and register bindings of [live_in], flattened for the
          execution fast path; no memory *)
  live_in_lo : int;
  live_in_hi : int;
      (** lowest and highest memory address bound in [live_in]
          ([live_in_lo > live_in_hi] when none): memory reads outside
          them skip the fragment probe, and the block executor's
          shadowing test reads them instead of scanning [live_in] *)
  reads : Journal.t;
      (** recorded live-ins: first-read value of every cell obtained from
          outside the write buffer *)
  writes : Journal.t;  (** live-outs (write buffer) *)
  mutable executed : int;  (** the paper's [k] — instructions so far *)
  mutable status : status;
  decode : pc:int -> word:int -> Mssp_isa.Instr.t option;
      (** decoder for fetched words (default {!Exec.default_decode});
          a pre-decoded image decoder here short-circuits per-word
          decode without changing the access sequence *)
}

val make :
  id:int ->
  start_pc:int ->
  end_pc:int option ->
  end_occurrence:int ->
  budget:int ->
  live_in:Mssp_state.Fragment.t ->
  t
(** A fresh task ([⟨S_in, n, S_in, 0⟩] in the paper's tuple form). The
    [Pc ↦ start_pc] binding is added to [live_in] if absent — the task's
    start position is itself a live-in and is verified like any other.
    [O(registers + log |live_in|)]: only the [Pc] and register bindings
    are copied, and [live_in] itself is kept by reference. *)

val find_live_in : t -> Mssp_state.Cell.t -> int option
(** The live-in prediction for a cell as the executors resolve it: [Pc]
    and registers from [li], memory from [live_in] probed in place and
    only inside [live_in_lo..live_in_hi]. Always answers what
    [Fragment.find_opt c t.live_in] answers. *)

val with_decode : (pc:int -> word:int -> Mssp_isa.Instr.t option) -> t -> t
(** A copy of a fresh task using the given decoder. [decode] must agree
    with [Instr.decode]; the master passes an
    {!Mssp_isa.Program.image_decoder} over the original and distilled
    images. {!run} pre-decodes its blocks through it: task bodies
    execute from a {!Mssp_seq.Sblock.Spec} cache of pre-decoded
    straight-line regions (shared across one slave's task runs via
    [?engine]), and their first-reads are staged into the reads
    journal's insertion-order log — so verification still replays them
    in serial first-read order, identical in content and order to the
    single-step interpreter's stream. *)

(** How reads outside the write buffer and live-in set are satisfied. *)
type view =
  | Isolated
      (** absent memory cells read as 0 (memory is total); the abstract
          model of the companion paper, where slaves see only master
          data *)
  | Fallback of (Mssp_state.Cell.t -> int)
      (** read through to architected state (the MICRO'02 machine); the
          obtained value is recorded and verified at commit *)

val step : ?on_access:(int -> unit) -> t -> view -> status
(** Execute one instruction. No-op unless [Running]. [on_access] is
    invoked with the address of every memory word touched (fetch, loads,
    stores) — the hook the timing model's caches observe.
    Single-stepping rebuilds the executor callbacks each call; {!run}
    hoists them out of the loop. *)

val run :
  ?on_access:(int -> unit) ->
  ?engine:Mssp_seq.Sblock.Spec.t ->
  t ->
  view ->
  status
(** Step until the task leaves [Running], block-journaled: the body
    runs from cached superblocks instead of the per-instruction
    interpreter. Blocks are pre-decoded through [t.decode] from
    architected words, bound cells resolve off the journal fast arrays,
    unbound cells are staged as first-reads, and the PC and retirement
    count flush once per block exit. Everything observable — status,
    [executed], the write buffer, the [on_access] sequence, and the
    first-read stream in content {e and} order — is bit-identical to
    {!run_reference}. The interpreter remains the fallback rung, entered
    per instruction exactly where the master engine falls back
    (undecodable entry words, I/O-region entry) plus the speculative-I/O
    latch, and for any code span the task's own write buffer or live-in
    set could shadow (self-modified or live-in-bound code never executes
    from a cached block); a store that invalidates a cached block forces
    block exit after the store. [Isolated] tasks always use the
    interpreter (their reads can be [Missing]).

    [engine] (default: a fresh private cache) is the block cache to
    dispatch from. MSSP tasks are around a hundred instructions — too
    short to amortize block building per run — so the machine passes a
    per-slave engine that persists across that slave's task runs,
    building each block of the static code once. The caller owns
    coherence between runs: report every architected store to
    {!Mssp_seq.Sblock.Spec.note_store} (or
    {!Mssp_seq.Sblock.Spec.clear} the cache), and never share one
    engine between concurrently-running tasks. *)

val run_reference : ?on_access:(int -> unit) -> t -> view -> status
(** {!run} on the per-instruction interpreter alone — the test oracle
    the block-journaled path is held to. The executor callbacks are
    constructed once for the whole run. *)

val live_in_size : t -> int
(** Number of recorded live-in bindings (drives verification cost). *)

val live_out_size : t -> int
(** Number of buffered live-out bindings (drives commit cost). *)

val reads_fragment : t -> Mssp_state.Fragment.t
(** The recorded live-ins as a fragment (allocates; for tests/tools). *)

val writes_fragment : t -> Mssp_state.Fragment.t
(** The write buffer as a fragment (allocates; for tests/tools). *)

val live_ins_consistent : t -> Mssp_state.Full.t -> bool
(** [live_ins_consistent t arch] is the verification unit's memoization
    check [reads(t) ⊑ arch], straight off the journal. *)

val first_inconsistent :
  t -> Mssp_state.Full.t -> (Mssp_state.Cell.t * int * int) option
(** The mismatch witness for squash attribution:
    [Some (cell, predicted, actual)] for the first recorded live-in that
    disagrees with architected state, [None] iff
    {!live_ins_consistent}. Journal order, so deterministic for a given
    run. *)

val commit_into : t -> Mssp_state.Full.t -> unit
(** [commit_into t arch] superimposes the write buffer onto [arch] — the
    commit operation [S ← live_out(t)]. A caller keeping a superblock
    engine over [arch] must report the committed memory cells to it
    ({!Mssp_seq.Sblock.note_store}); {!iter_writes} enumerates them
    without allocating a fragment. *)

val iter_writes : (Mssp_state.Cell.t -> int -> unit) -> t -> unit
(** Iterate the write buffer in journal order (allocation-free). *)

val iter_reads : (Mssp_state.Cell.t -> int -> unit) -> t -> unit
(** Iterate the first-read journal (the recorded live-in uses and the
    values the task consumed for them) in journal order — the
    verification unit's view, reused by the value predictors for
    hit/miss attribution and online training. *)

val pp : Format.formatter -> t -> unit
