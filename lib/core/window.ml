open Machine_state

type offer = Spawned | Parked | Lost

let lost = -1

(* Spawn-path delivery faults: [Checkpoint_delay] adds latency to the
   checkpoint transfer; [Checkpoint_drop] models message loss — the
   master re-sends with exponential backoff up to [spawn_retries]
   attempts, then gives up ([lost]) and falls back to recovery. Returns
   the extra spawn latency. *)
let spawn_path_faults st =
  match st.inj with
  | None -> 0
  | Some i ->
    let delay =
      match Inject.fire i Fplan.Checkpoint_delay ~cycle:(Sim.now st.sim) with
      | Some a ->
        fault_event st a "checkpoint_delay" (Some st.next_cp_id);
        if a.Fplan.magnitude > 0 then a.Fplan.magnitude
        else 4 * st.cfg.timing.spawn_latency
      | None -> 0
    in
    if not (Inject.has i Fplan.Checkpoint_drop) then delay
    else
      let rec attempt k acc =
        match Inject.fire i Fplan.Checkpoint_drop ~cycle:(Sim.now st.sim) with
        | None -> delay + acc
        | Some a ->
          fault_event st a "checkpoint_drop" (Some st.next_cp_id);
          if k >= st.policy.Fplan.spawn_retries then lost
          else begin
            st.stats.spawn_retries <- st.stats.spawn_retries + 1;
            attempt (k + 1) (acc + (st.policy.Fplan.spawn_backoff * (1 lsl k)))
          end
      in
      attempt 0 0

(* Checkpoint live-in faults, applied at spawn: [Live_in_corrupt] xors
   one binding (the legacy soft-error model, stream preserved),
   [Mem_bit_flip] flips one bit of one memory binding. Both land in the
   speculative domain only — verification must absorb them. *)
let corrupt st id li =
  match st.inj with
  | None -> li
  | Some i -> (
    let li =
      match Inject.fire i Fplan.Live_in_corrupt ~cycle:(Sim.now st.sim) with
      | Some a when not (Live_in.is_empty li) ->
        let c, v = Live_in.nth li (id mod Live_in.cardinal li) in
        fault_event st a "live_in_corrupt" (Some id);
        Live_in.add c (v lxor 0x5A5A5A5A) li
      | Some _ | None -> li
    in
    match Inject.fire i Fplan.Mem_bit_flip ~cycle:(Sim.now st.sim) with
    | None -> li
    | Some a -> (
      match pick_mem (Live_in.mem li) id with
      | None -> li
      | Some (addr, v) ->
        let bit =
          (if a.Fplan.magnitude > 0 then a.Fplan.magnitude else id) mod 62
        in
        fault_event st a "mem_bit_flip" (Some id);
        Live_in.add (Cell.Mem addr) (v lxor (1 lsl bit)) li))

let spawn st e li =
  let extra = spawn_path_faults st in
  if extra = lost then Lost
  else begin
    let id = st.next_cp_id in
    let master_li = li in
    let li = match st.predictor with None -> li | Some p -> Predict.refine p li in
    let li = corrupt st id li in
    let cp = checkpoint ~id ~entry:e ~live_in:li ~master_li ~extra in
    st.next_cp_id <- id + 1;
    st.stats.tasks_spawned <- st.stats.tasks_spawned + 1;
    if st.tracing then begin
      st.temit (Trace.Fork { cycle = Sim.now st.sim; task = id; entry = e });
      (* the prediction as the slave will see it: post fault injection.
         The live-in is immutable and shared with the checkpoint, so
         this emission is O(1) — no per-binding rendering here *)
      st.temit (Trace.Predict { cycle = Sim.now st.sim; task = id; live_in = li })
    end;
    Queue.add cp st.window;
    st.last_cp <- Some cp;
    Spawned
  end

let offer st e li =
  if Queue.length st.window >= st.cfg.max_in_flight then begin
    st.master_pending <- Some (e, li);
    Parked
  end
  else spawn st e li

let unpark st =
  match st.master_pending with
  | None -> Parked
  | Some (e, li) ->
    st.master_pending <- None;
    offer st e li

let settle st end_pc occurrence =
  match st.last_cp with
  | Some cp when not cp.cp_end_known ->
    cp.cp_end <- end_pc;
    cp.cp_end_occurrence <- occurrence;
    cp.cp_end_known <- true;
    true
  | Some _ | None -> false

let free_slave st =
  let rec go i =
    if i = st.cfg.slaves then -1
    else if st.slave_free.(i) && not st.quarantined.(i) then i
    else go (i + 1)
  in
  go 0

let startable st =
  Queue.fold
    (fun found cp ->
      if found == no_checkpoint && cp.cp_task = None && cp.cp_end_known then cp
      else found)
    no_checkpoint st.window

let stalled = -1

(* Make the task and run its body inline on slave [s], charging each of
   its memory accesses to that slave's cache (bodies emit no events and
   never fire the injector); then announce it and price its run. *)
let start st cp s =
  st.slave_free.(s) <- false;
  cp.cp_slave <- s;
  let task =
    Task.make ~reads:(take_journal st) ~writes:(take_journal st) ~id:cp.cp_id
      ~start_pc:cp.cp_entry ~end_pc:cp.cp_end
      ~end_occurrence:cp.cp_end_occurrence ~budget:st.cfg.task_budget
      ~live_in:cp.cp_live_in ()
  in
  let cost = ref 0 in
  let cache = st.slave_caches.(s) in
  let on_access a = cost := !cost + Hierarchy.access cache a in
  let task =
    match st.exec with
    | Reference ->
      ignore (Task.run_reference ~on_access task st.task_view : Task.status);
      task
    | Engines e ->
      let task = Task.with_decode st.decode task in
      ignore
        (Task.run ~on_access ~engine:e.specs.(s) task st.task_view
          : Task.status);
      task
  in
  cp.cp_task <- Some task;
  if st.tracing then
    st.temit
      (Trace.Slave_start { cycle = Sim.now st.sim; task = cp.cp_id; slave = s });
  let t = st.cfg.timing in
  let total =
    t.spawn_latency + cp.cp_extra + (t.slave_base * task.executed) + !cost
  in
  st.stats.slave_busy_cycles <- st.stats.slave_busy_cycles + total;
  if fires st Fplan.Slave_stall "slave_stall" (Some cp.cp_id) then stalled
  else total

let finish st cp s =
  cp.cp_finished <- true;
  (if st.tracing then
     let task = Option.get cp.cp_task in
     st.temit
       (Trace.Slave_finish
          {
            cycle = Sim.now st.sim;
            task = cp.cp_id;
            slave = s;
            executed = task.executed;
            ok = completed task;
          }));
  st.slave_free.(s) <- true

let overdue st cp s w =
  (not cp.cp_finished)
  && begin
       st.stats.watchdog_squashes <- st.stats.watchdog_squashes + 1;
       if st.tracing then
         st.temit
           (Trace.Watchdog
              { cycle = Sim.now st.sim; task = cp.cp_id; slave = s; waited = w });
       true
     end

let blame st s =
  if st.quarantine_on && s >= 0 then begin
    let streak = st.slave_streak.(s) + 1 in
    st.slave_streak.(s) <- streak;
    if
      streak >= st.cfg.quarantine_after
      && (not st.quarantined.(s))
      && st.healthy_slaves > 1
    then begin
      st.quarantined.(s) <- true;
      st.healthy_slaves <- st.healthy_slaves - 1;
      st.stats.slaves_quarantined <- st.stats.slaves_quarantined + 1;
      if st.tracing then
        st.temit
          (Trace.Quarantine { cycle = Sim.now st.sim; slave = s; squashes = streak })
    end
  end
