open Machine_state
module Reg = Mssp_isa.Reg

let idle = -1
let halted = -2
let retry = -3
let squash = -4
let orphaned = -5
let ceil_div a b = (a + max 1 b - 1) / max 1 b

let cost (t : Mssp_config.timing) ~live_ins ~live_outs =
  t.verify_base
  + (t.verify_per_live_in * ceil_div live_ins t.verify_parallelism)
  + t.commit_base
  + (t.commit_per_live_out * ceil_div live_outs t.commit_parallelism)

(* Transient verification-unit error: the check is retried after an
   exponential backoff, up to [verify_retries] times per task; the head
   is held ([cp_deferred]) so no same-instant kick re-rolls. *)
let transient st cp =
  cp.cp_verify_attempts < st.policy.Fplan.verify_retries
  && fires st Fplan.Verify_transient "verify_transient" (Some cp.cp_id)
  && begin
       st.stats.verify_retries <- st.stats.verify_retries + 1;
       cp.cp_verify_attempts <- cp.cp_verify_attempts + 1;
       cp.cp_deferred <- true;
       true
     end

let backoff st cp =
  max 1 (st.policy.Fplan.verify_backoff * (1 lsl (cp.cp_verify_attempts - 1)))

let resume cp = cp.cp_deferred <- false

let trace_verify st cp (task : Task.t) ~live_ins ~consistent =
  let outcome =
    if consistent then Trace.Pass
    else
      match task.status with
      | Task.Complete _ -> (
        match Task.first_inconsistent task st.arch with
        | Some (c, predicted, actual) ->
          Trace.Mismatch { cell = Cell.show c; predicted; actual }
        | None -> assert false (* inconsistent => a witness exists *))
      | Task.Failed r -> Trace.Incomplete (trace_reason (Task_failed r))
      | Task.Running -> assert false
  in
  st.temit
    (Trace.Verify { cycle = Sim.now st.sim; task = cp.cp_id; live_ins; outcome })

(* Value-prediction attribution and online training: every recorded
   first-read is one per-cell prediction; its actual value is what
   architected state holds right now (the task's true start point,
   whether or not this task commits). The walk follows the reads
   journal's layout (registers in index order, then memory in first-read
   order) and trains through predictor slots, boxing no cell. A
   consistent task's recorded values are architected state's, as the
   check established, so only an inconsistent one reads [arch] again.

   Each cell first scores the incumbent: the master's own pre-refinement
   value, read in place from [cp_master_li] — its registers off the flat
   array, its memory probed only inside its bounds. When no override or
   fault touched the checkpoint, the task ran on that very live-in, and
   a memory first-read of a cell the master bound recorded the master's
   value. Such a read that matched architected state on a cell the
   master is still trusted on needs no probe: the score would be a hit
   on a saturated counter. *)
let train st p cp (task : Task.t) ~consistent =
  let reads = task.reads and mli = cp.cp_master_li in
  let shared = task.live_in == mli in
  let mlo = Live_in.mem_lo mli and mhi = Live_in.mem_hi mli in
  let hits = ref 0 and misses = ref 0 in
  for i = 0 to Reg.count - 1 do
    if Journal.has_reg reads i then begin
      let v = Journal.reg reads i in
      let actual = if consistent then v else Full.get_reg st.arch (Reg.of_int i) in
      let s = Predict.reg_slot i in
      if Live_in.has_reg mli i then
        Predict.observe_master_slot p s ~supplied:(Live_in.reg mli i) ~actual;
      Predict.observe_slot p s actual;
      if v = actual then incr hits else incr misses
    end
  done;
  for k = 0 to Journal.mem_count reads - 1 do
    let a = Journal.mem_addr reads k and v = Journal.mem_value reads k in
    let actual = if consistent then v else Full.get_mem st.arch a in
    let s = Predict.mem_slot p a in
    (if a >= mlo && a <= mhi
        && not (shared && v = actual && Predict.master_trusted p s)
     then
       match Live_in.find_mem mli a with
       | Some supplied -> Predict.observe_master_slot p s ~supplied ~actual
       | None -> ());
    Predict.observe_slot p s actual;
    if v = actual then incr hits else incr misses
  done;
  st.stats.predict_hits <- st.stats.predict_hits + !hits;
  st.stats.predict_misses <- st.stats.predict_misses + !misses;
  if st.tracing then
    st.temit
      (Trace.Predict_outcome
         { cycle = Sim.now st.sim; task = cp.cp_id; hits = !hits; misses = !misses })

(* chaos_commit / [Commit_corrupt]: the DELIBERATELY broken verify/commit
   unit. After a verified commit, corrupt one committed memory live-out
   in architected state — the machine bug the differential fuzzer's
   mutation smoke test must catch (and shrink). The one non-absorbable
   surface. *)
let chaos st id task =
  match st.inj with
  | None -> ()
  | Some i -> (
    match Inject.fire i Fplan.Commit_corrupt ~cycle:(Sim.now st.sim) with
    | None -> ()
    | Some a -> (
      match pick_mem (Task.writes_fragment task) id with
      | None -> ()
      | Some (addr, v) -> (
        fault_event st a "commit_corrupt" (Some id);
        Full.set_mem st.arch addr (v lxor 0x2A);
        match st.exec with
        | Engines e -> e.note_store addr 0
        | Reference -> ())))

(* the memoization hit: superimpose the live-outs *)
let commit st cp (task : Task.t) ~live_ins =
  ignore (Queue.pop st.window : checkpoint);
  Task.commit_into task st.arch;
  (match st.exec with
  | Engines e -> Task.iter_mem_writes e.note_store task
  | Reference -> ());
  chaos st cp.cp_id task;
  let live_outs = Task.live_out_size task in
  leave st cp;
  (* a commit ends the squash streaks of dual mode, burst backoff and
     the committing slave's quarantine count *)
  st.fruitless_squashes <- 0;
  st.burst_streak <- 0;
  if st.quarantine_on && cp.cp_slave >= 0 then st.slave_streak.(cp.cp_slave) <- 0;
  if st.tracing then
    st.temit
      (Trace.Commit
         {
           cycle = Sim.now st.sim;
           task = cp.cp_id;
           instructions = task.executed;
           live_outs;
         });
  let stats = st.stats in
  stats.tasks_committed <- stats.tasks_committed + 1;
  stats.instructions_committed <- stats.instructions_committed + task.executed;
  stats.live_outs_committed <- stats.live_outs_committed + live_outs;
  stats.task_sizes <- task.executed :: stats.task_sizes;
  stats.live_in_counts <- live_ins :: stats.live_in_counts;
  advance_shadow st task.executed;
  match task.status with
  | Task.Complete Task.Program_halted ->
    halt st Halted;
    halted
  | Task.Complete Task.Reached_boundary | Task.Running | Task.Failed _ ->
    st.commit_busy <- true;
    cost st.cfg.timing ~live_ins ~live_outs

let examine st =
  if st.commit_busy then idle
  else if Queue.is_empty st.window then
    if st.master_dead then orphaned else idle
  else
    let cp = Queue.peek st.window in
    if (not cp.cp_finished) || cp.cp_deferred then idle
    else if transient st cp then retry
    else begin
      let task = Option.get cp.cp_task in
      let live_ins = Task.live_in_size task in
      st.stats.live_ins_checked <- st.stats.live_ins_checked + live_ins;
      let consistent = completed task && Task.live_ins_consistent task st.arch in
      if st.tracing then trace_verify st cp task ~live_ins ~consistent;
      (match st.predictor with
      | None -> ()
      | Some p -> train st p cp task ~consistent);
      if consistent then commit st cp task ~live_ins else squash
    end

let failure cp =
  match (Option.get cp.cp_task).Task.status with
  | Task.Complete _ -> Live_in_mismatch
  | Task.Failed r -> Task_failed r
  | Task.Running -> assert false
