(* The MSSP machine's state: one record that the three seams ([Window],
   [Verify_commit], [Recovery]) transition and [Mssp_machine] drives
   through the event kernel, plus the result types the machine reports
   ([Mssp_machine] re-exports them). *)

module Cell = Mssp_state.Cell
module Fragment = Mssp_state.Fragment
module Full = Mssp_state.Full
module Live_in = Mssp_state.Live_in
module Seq_machine = Mssp_seq.Machine
module Exec = Mssp_seq.Exec
module Sblock = Mssp_seq.Sblock
module Program = Mssp_isa.Program
module Instr = Mssp_isa.Instr
module Task = Mssp_task.Task
module Journal = Mssp_task.Journal
module Distill = Mssp_distill.Distill
module Sim = Mssp_sim_engine.Sim
module Hierarchy = Mssp_cache.Cache.Hierarchy
module Trace = Mssp_trace.Trace
module Fplan = Mssp_faults.Plan
module Inject = Mssp_faults.Injector
module Predict = Mssp_predict.Predict

type squash_reason =
  | Live_in_mismatch
  | Task_failed of Task.fail_reason
  | Master_dead
  | Checkpoint_lost
  | Stalled

type stats = {
  mutable cycles : int;
  mutable master_instructions : int;
  mutable tasks_spawned : int;
  mutable tasks_committed : int;
  mutable instructions_committed : int;
  mutable tasks_discarded : int;
  mutable squashes : int;
  mutable squash_mismatch : int;
  mutable squash_task_failed : int;
  mutable squash_master_dead : int;
  mutable recovery_segments : int;
  mutable recovery_instructions : int;
  mutable sequential_bursts : int;
  mutable sequential_instructions : int;
  mutable faults_injected : int;
  mutable spawn_retries : int;
  mutable verify_retries : int;
  mutable watchdog_squashes : int;
  mutable slaves_quarantined : int;
  mutable live_ins_checked : int;
  mutable live_outs_committed : int;
  mutable predict_hits : int;
  mutable predict_misses : int;
  mutable slave_busy_cycles : int;
  mutable task_sizes : int list;
  mutable live_in_counts : int list;
}

let fresh_stats () =
  {
    cycles = 0;
    master_instructions = 0;
    tasks_spawned = 0;
    tasks_committed = 0;
    instructions_committed = 0;
    tasks_discarded = 0;
    squashes = 0;
    squash_mismatch = 0;
    squash_task_failed = 0;
    squash_master_dead = 0;
    recovery_segments = 0;
    recovery_instructions = 0;
    sequential_bursts = 0;
    sequential_instructions = 0;
    faults_injected = 0;
    spawn_retries = 0;
    verify_retries = 0;
    watchdog_squashes = 0;
    slaves_quarantined = 0;
    live_ins_checked = 0;
    live_outs_committed = 0;
    predict_hits = 0;
    predict_misses = 0;
    slave_busy_cycles = 0;
    task_sizes = [];
    live_in_counts = [];
  }

(* Refine the machine's coarse squash taxonomy into the trace layer's
   six-way one. [Trace.coarse] collapses it back; the round trip is what
   lets the attribution fold reproduce the three stats counters. *)
let trace_reason = function
  | Live_in_mismatch -> Trace.Bad_prediction
  | Task_failed Task.Budget_exhausted -> Trace.Fuel_exhausted
  | Task_failed (Task.Fault f) ->
    Trace.Task_fault (Format.asprintf "%a" Exec.pp_fault f)
  | Task_failed (Task.Missing_cell c) -> Trace.Missing_cell (Cell.show c)
  | Task_failed (Task.Io_speculative c) ->
    Trace.Speculative_io (Cell.show c)
  | Master_dead -> Trace.Master_dead
  | Checkpoint_lost -> Trace.Checkpoint_lost
  | Stalled -> Trace.Watchdog_stall

type livelock_snapshot = {
  ll_cycle : int;
  ll_window : int;
  ll_busy_slaves : int;
  ll_quarantined : int;
  ll_master : string;
  ll_head_task : int option;
}

type stop_reason =
  | Halted
  | Cycle_limit
  | Squash_limit
  | Recovery_fuel
  | Livelock of livelock_snapshot
  | Interrupted of string
  | Wedged

type result = {
  arch : Full.t;
  stop : stop_reason;
  stats : stats;
  refinement_violations : int;
}

(* A checkpoint: one task-to-be in the in-flight window. Its end boundary
   becomes known when the master produces the *next* checkpoint (or
   dies); the task executes once the end is known and a slave is free. *)
type checkpoint = {
  cp_id : int;
  cp_entry : int;
  cp_live_in : Live_in.t;
  cp_master_li : Live_in.t;
      (** the master's own live-in prediction, before predictor
          refinement and fault injection — what the master-confidence
          attribution scores at verify time. The same live-in as
          [cp_live_in] (shared reference, no cost) when no predictor
          override or fault touched it *)
  mutable cp_end : int option;
  mutable cp_end_occurrence : int;
      (** which arrival at [cp_end] is the boundary: the master's count
          of its own passes over that marker within this task *)
  mutable cp_end_known : bool;
  mutable cp_task : Task.t option;
      (** its journals return to the machine's free list, and the field
          to [None], when the checkpoint leaves the window ({!leave}) *)
  mutable cp_finished : bool;
  cp_extra : int;
      (** extra spawn-path latency from fault-plan delivery faults
          (checkpoint delay, drop retries with backoff) *)
  mutable cp_slave : int;  (** slave it was dispatched to, [-1] before *)
  mutable cp_verify_attempts : int;
      (** transient verify errors already retried for this task *)
  mutable cp_deferred : bool;
      (** a verify retry is scheduled; the commit unit must not
          re-examine the head until it fires *)
}

let checkpoint ~id ~entry ~live_in ~master_li ~extra =
  {
    cp_id = id;
    cp_entry = entry;
    cp_live_in = live_in;
    cp_master_li = master_li;
    cp_end = None;
    cp_end_occurrence = 1;
    cp_end_known = false;
    cp_task = None;
    cp_finished = false;
    cp_extra = extra;
    cp_slave = -1;
    cp_verify_attempts = 0;
    cp_deferred = false;
  }

(* "no checkpoint": what a seam answers instead of an option, so that
   answering allocates nothing *)
let no_checkpoint =
  checkpoint ~id:(-1) ~entry:0 ~live_in:Live_in.empty
    ~master_li:Live_in.empty ~extra:0

(* The executors slave bodies and recovery segments run on, chosen once
   per run. [Engines]: task bodies execute from per-slave superblock
   caches that persist across a slave's task runs (tasks are far too
   short to amortize block building per run), with first-reads staged
   in serial first-read order; recovery segments run through a block
   engine over architected state, created at the first segment (until
   then no blocks exist and no store notifications are needed).
   [Reference]: both run on the single-step executor, bit-identically
   (the sjournal differential suite, the SBLKG/SJRNLG bench guards). *)
type executors =
  | Reference
  | Engines of {
      specs : Sblock.Spec.t array;
      recovery : Sblock.t Lazy.t;
      note_store : int -> int -> unit;
          (** report a store into [arch] made outside the engines (task
              commits, chaos) to every block cache, or a block over
              self-modified code could go stale *)
    }

type t = {
  cfg : Mssp_config.t;
  d : Distill.t;
  sim : Sim.t;
  stats : stats;
  arch : Full.t;
      (* architected state holds BOTH images: the original program (PC
         at its entry) and the distilled program (the master's code is
         ordinary memory, as on the real machine) *)
  shadow : Full.t option;  (* the refinement checker's SEQ machine *)
  mutable violations : int;
  master : Master.t;
  master_cache : Hierarchy.t;  (* owns the shared L2 *)
  mutable master_dead : bool;
  mutable master_pending : (int * Live_in.t) option;
      (* the fork the master is parked on while the window is full:
         entry and live-in *)
  slave_caches : Hierarchy.t array;  (* private L1s over the shared L2 *)
  slave_free : bool array;
  quarantined : bool array;  (* a benched slave is never assigned again *)
  slave_streak : int array;
      (* consecutive head squashes of a slave's tasks, no commit between *)
  mutable healthy_slaves : int;
  window : checkpoint Queue.t;
  mutable spare : Journal.t array;
  mutable spare_n : int;
      (* the free list of cleared task journals: [spare.(0 .. spare_n -
         1)]. A started task takes its reads and writes journals here,
         and they come back only when its checkpoint leaves the window
         ({!leave}); at most two per window slot are ever out, and each
         keeps the arrays it grew *)
  mutable last_cp : checkpoint option;
  mutable next_cp_id : int;
  predictor : Predict.t option;
      (* consulted at checkpoint construction (before fault injection)
         and trained at verification from the head task's first-reads.
         [None] for [Off]: zero cost, bit-identical everything *)
  at_entry : int -> bool;  (* task entries: where recovery segments stop *)
  decode : pc:int -> word:int -> Instr.t option;
      (* pre-decoded images of both programs, for master and slaves *)
  exec : executors;
  task_view : Task.view;
  tracing : bool;
  temit : Trace.event -> unit;
      (* every emission site is guarded by [if st.tracing], so a disabled
         run pays one predictable branch per would-be event and never
         allocates one *)
  inj : Inject.t option;
      (* the fault plan compiled into one injector whose per-surface PRNG
         streams drive every fault site; [None] makes every site one
         predictable branch (FAULTG in perf-smoke) *)
  policy : Fplan.policy;
  quarantine_on : bool;
  watchdog : int option;  (* per-task watchdog cycles, under a plan only *)
  mutable fruitless_squashes : int;  (* dual mode: squashes, no commit *)
  mutable burst_streak : int;
      (* consecutive sequential bursts with no commit in between *)
  mutable segment_steps : int;  (* the last recovery segment's length *)
  mutable commit_busy : bool;
  mutable running : bool;
  mutable stop_reason : stop_reason;
  mutable interrupt_countdown : int;
}

(* events between two polls of the cancellation hook *)
let interrupt_stride = 1024

let create ~reference (cfg : Mssp_config.t) (d : Distill.t) =
  let t = cfg.timing in
  let arch = Full.create () in
  Full.load arch d.original;
  Full.load ~set_entry:false arch d.distilled;
  let master_cache = Hierarchy.make ~l1:t.l1 ~lat:t.lat () in
  let decode =
    Program.image_decoder
      [ Program.decode_all d.distilled; Program.decode_all d.original ]
  in
  let exec =
    if reference then Reference
    else
      let specs =
        Array.init cfg.slaves (fun _ -> Sblock.Spec.create ~decode ())
      in
      let recovery =
        lazy (Sblock.create ~images:[ d.original; d.distilled ] ())
      in
      let note_store a _v =
        if Lazy.is_val recovery then Sblock.note_store (Lazy.force recovery) a;
        Array.iter (fun e -> ignore (Sblock.Spec.note_store e a : bool)) specs
      in
      Engines { specs; recovery; note_store }
  in
  let predictor =
    match cfg.predict with
    | Predict.Off -> None
    | m ->
      let p = Predict.create ~seed:cfg.predict_seed m in
      Predict.warm p cfg.predict_warmup;
      Some p
  in
  let entries = Hashtbl.create 16 in
  List.iter (fun e -> Hashtbl.replace entries e ()) d.task_entries;
  let at_entry pc = Hashtbl.mem entries pc in
  let tracing, temit =
    match cfg.tracer with
    | None -> (false, fun (_ : Trace.event) -> ())
    | Some tr -> (true, Trace.emit tr)
  in
  let inj = Option.map Inject.make cfg.faults in
  let policy =
    match inj with Some i -> Inject.policy i | None -> Fplan.default_policy
  in
  {
    cfg;
    d;
    sim = Sim.create ();
    stats = fresh_stats ();
    arch;
    shadow = (if cfg.verify_refinement then Some (Full.copy arch) else None);
    violations = 0;
    master = Master.create ~config:cfg ~cache:master_cache ~decode d arch;
    master_cache;
    master_dead = false;
    master_pending = None;
    slave_caches =
      Array.init cfg.slaves (fun _ ->
          Hierarchy.make_shared ~l1:t.l1 ~lat:t.lat ~l2:master_cache ());
    slave_free = Array.make cfg.slaves true;
    quarantined = Array.make cfg.slaves false;
    slave_streak = Array.make cfg.slaves 0;
    healthy_slaves = cfg.slaves;
    window = Queue.create ();
    spare = [||];
    spare_n = 0;
    last_cp = None;
    next_cp_id = 0;
    predictor;
    at_entry;
    decode;
    exec;
    task_view = (if cfg.isolated_slaves then Task.Isolated else Task.Fallback arch);
    tracing;
    temit;
    inj;
    policy;
    quarantine_on = cfg.quarantine_after > 0 && inj <> None;
    watchdog = (if inj = None then None else policy.Fplan.watchdog_cycles);
    fruitless_squashes = 0;
    burst_streak = 0;
    segment_steps = 0;
    commit_busy = false;
    running = true;
    stop_reason = Halted;
    interrupt_countdown = interrupt_stride;
  }

let halt st reason =
  st.running <- false;
  st.stop_reason <- reason;
  (* later-scheduled events are dead; the machine's time is now *)
  st.stats.cycles <- Sim.now st.sim

let fault_event st a surface task =
  st.stats.faults_injected <- st.stats.faults_injected + 1;
  if st.tracing && not a.Fplan.quiet then
    st.temit (Trace.Fault { cycle = Sim.now st.sim; surface; task })

(* a fault site: [true] (and the fault counted and traced) when the
   plan fires [surface] now *)
let fires st surface name task =
  match st.inj with
  | None -> false
  | Some i -> (
    match Inject.fire i surface ~cycle:(Sim.now st.sim) with
    | Some a ->
      fault_event st a name task;
      true
    | None -> false)

(* The memory binding a fault lands on: the [k mod n]-th of a fragment's
   [n] memory bindings, counted from the highest address. *)
let pick_mem f k =
  let _, mem = Fragment.split_mem f in
  let n = Fragment.cardinal mem in
  if n = 0 then None
  else
    match Fragment.nth mem (n - 1 - (k mod n)) with
    | Cell.Mem a, v -> Some (a, v)
    | (Cell.Pc | Cell.Reg _), _ -> assert false (* split off above *)

(* a cleared journal for a task to record into: recycled when one is
   spare, else fresh *)
let take_journal st =
  if st.spare_n = 0 then Journal.create ()
  else begin
    st.spare_n <- st.spare_n - 1;
    st.spare.(st.spare_n)
  end

let give_journal st j =
  Journal.clear j;
  if st.spare_n = Array.length st.spare then begin
    let a = Array.make (max 4 (2 * st.spare_n)) j in
    Array.blit st.spare 0 a 0 st.spare_n;
    st.spare <- a
  end;
  st.spare.(st.spare_n) <- j;
  st.spare_n <- st.spare_n + 1

(* A checkpoint leaves the window (committed, or discarded by a
   squash): the one place its task's journals go back to the free list.
   Nothing reads them afterwards — a commit has applied and counted its
   writes first — and [cp_task] is cleared so nothing can. *)
let leave st cp =
  match cp.cp_task with
  | None -> ()
  | Some task ->
    cp.cp_task <- None;
    give_journal st task.Task.reads;
    give_journal st task.Task.writes

let completed (task : Task.t) =
  match task.status with
  | Task.Complete _ -> true
  | Task.Running | Task.Failed _ -> false

(* the refinement checker: advance the shadow SEQ machine by [k]
   instructions and compare it with architected state *)
let advance_shadow st k =
  match st.shadow with
  | None -> ()
  | Some sh ->
    ignore (Seq_machine.seq_in_place sh k : Seq_machine.stop option);
    if not (Full.equal_observable sh st.arch) then
      st.violations <- st.violations + 1
