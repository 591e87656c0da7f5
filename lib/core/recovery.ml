open Machine_state

type outcome = Stopped | Ended | Again | Restart

let burst st =
  let cfg = st.cfg in
  if cfg.dual_mode && st.fruitless_squashes >= cfg.dual_trigger then begin
    st.stats.sequential_bursts <- st.stats.sequential_bursts + 1;
    let b =
      if cfg.adaptive_backoff then cfg.dual_burst * (1 lsl min 6 st.burst_streak)
      else cfg.dual_burst
    in
    st.burst_streak <- st.burst_streak + 1;
    b
  end
  else 0

(* Non-speculative execution on architected state: at least one
   instruction, then up to the next task entry (or the program's halt).
   Every squash therefore makes forward progress. In dual mode, a run of
   fruitless squashes extends the segment into a long sequential burst —
   the machine's "revert to normal execution" escape hatch. *)
let segment st ~min_steps =
  let fuel = st.cfg.recovery_fuel and at = st.at_entry in
  match st.exec with
  | Reference ->
    let m = Seq_machine.of_state st.arch in
    (m, Seq_machine.run_until_reference m ~fuel ~min_steps ~at)
  | Engines e ->
    (* the persistent block cache over [arch] survives across segments
       (commits and chaos report their stores into it), so later
       segments re-dispatch warm blocks *)
    let m = Seq_machine.of_state ~engine:(Lazy.force e.recovery) st.arch in
    let outcome = Seq_machine.run_until m ~fuel ~min_steps ~at in
    (* the segment stored straight into [arch] with no per-store report:
       drop the slave block caches whole rather than track its writes *)
    Array.iter Sblock.Spec.clear e.specs;
    (m, outcome)

let recover st =
  let stats = st.stats in
  (* discard all speculative work *)
  stats.tasks_discarded <- stats.tasks_discarded + Queue.length st.window;
  Sim.bump_epoch st.sim;
  Queue.iter (leave st) st.window;
  Queue.clear st.window;
  st.last_cp <- None;
  Array.fill st.slave_free 0 st.cfg.slaves true;
  Hierarchy.invalidate_l1 st.master_cache;
  Array.iter Hierarchy.invalidate_l1 st.slave_caches;
  st.master_dead <- false;
  st.master_pending <- None;
  st.commit_busy <- false;
  st.fruitless_squashes <- st.fruitless_squashes + 1;
  let min_steps = burst st in
  let from_pc = Full.pc st.arch in
  let m, outcome = segment st ~min_steps in
  let steps = m.Seq_machine.instructions in
  stats.recovery_segments <- stats.recovery_segments + 1;
  stats.recovery_instructions <- stats.recovery_instructions + steps;
  stats.sequential_instructions <-
    stats.sequential_instructions + min steps min_steps;
  if st.tracing then
    st.temit
      (Trace.Recovery
         {
           cycle = Sim.now st.sim;
           instructions = steps;
           from_pc;
           to_pc = Full.pc st.arch;
           loads = m.Seq_machine.loads;
           stores = m.Seq_machine.stores;
           burst = min_steps > 0;
         });
  advance_shadow st steps;
  st.segment_steps <- steps;
  match outcome with
  | `Stopped -> Ended (* the program halted (or faulted) during recovery *)
  | `Fuel ->
    halt st Recovery_fuel;
    Stopped
  | `At_entry -> (
    match Distill.distilled_entry_for st.d (Full.pc st.arch) with
    | None ->
      (* no distilled entry here (shouldn't happen: entries are filtered
         to mapped ones) — keep recovering *)
      Again
    | Some dpc ->
      Master.reseed st.master st.arch ~pc:dpc;
      if st.tracing then st.temit (Trace.Restart { cycle = Sim.now st.sim; pc = dpc });
      Restart)

let squash st ~task reason =
  let stats = st.stats in
  stats.squashes <- stats.squashes + 1;
  (match reason with
  | Live_in_mismatch -> stats.squash_mismatch <- stats.squash_mismatch + 1
  | Task_failed _ | Checkpoint_lost | Stalled ->
    stats.squash_task_failed <- stats.squash_task_failed + 1
  | Master_dead -> stats.squash_master_dead <- stats.squash_master_dead + 1);
  (* the Squash event rides with the stats bump, not with the recovery:
     even a squash that trips [max_squashes] (and therefore never
     recovers) is attributed in the stream *)
  if st.tracing then
    st.temit
      (Trace.Squash
         {
           cycle = Sim.now st.sim;
           task = (if task < 0 then None else Some task);
           reason = trace_reason reason;
           discarded = Queue.length st.window;
         });
  if stats.squashes > st.cfg.max_squashes then begin
    halt st Squash_limit;
    Stopped
  end
  else recover st

let delay st outcome =
  let t = st.cfg.timing in
  let cycles = st.segment_steps * (t.slave_base + t.recovery_per_instr) in
  match outcome with
  | Restart -> cycles + t.restart_latency
  | Stopped | Ended | Again -> cycles
