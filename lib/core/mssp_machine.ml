(* The driver: the state and the seams live in [Machine_state],
   [Window], [Verify_commit] and [Recovery]; only [drive] turns their
   answers into events (the seam map is in the interface). *)

include Machine_state

let stop_string = function
  | Halted -> "halted"
  | Cycle_limit -> "cycle_limit"
  | Squash_limit -> "squash_limit"
  | Recovery_fuel -> "recovery_fuel"
  | Livelock _ -> "livelock"
  | Interrupted _ -> "interrupted"
  | Wedged -> "wedged"

let pp_livelock fmt s =
  Format.fprintf fmt
    "livelock at cycle %d: window %d, %d busy slave(s), %d quarantined, \
     master %s%s"
    s.ll_cycle s.ll_window s.ll_busy_slaves s.ll_quarantined s.ll_master
    (match s.ll_head_task with
    | Some id -> Printf.sprintf ", head task %d" id
    | None -> "")

(* Event guard: drop events once the machine stopped, stop on the cycle
   limit, and poll the cooperative cancellation hook. With [interrupt =
   None] the poll is one predictable branch per event, like the tracer;
   when armed, the hook (an unknown closure — typically an [Atomic.get])
   is only invoked every [interrupt_stride]th event, so the armed hot
   path pays a decrement and a branch, not an indirect call. At
   simulator speeds 1024 events is far under a millisecond, well inside
   the service watchdog's own 10 ms tick. *)
let guarded st thunk () =
  if st.running then
    if Sim.now st.sim > st.cfg.max_cycles then halt st Cycle_limit
    else
      match st.cfg.interrupt with
      | None -> thunk ()
      | Some poll ->
        st.interrupt_countdown <- st.interrupt_countdown - 1;
        if st.interrupt_countdown > 0 then thunk ()
        else begin
          st.interrupt_countdown <- interrupt_stride;
          match poll () with
          | Some why -> halt st (Interrupted why)
          | None -> thunk ()
        end

(* ... and drop stale (squashed) events *)
let epoch_guarded st thunk =
  let ep = Sim.epoch st.sim in
  guarded st (fun () -> if not (Sim.cancelled st.sim ep) then thunk ())

(* Wire the master and the seams into events; returns the master's first
   run, the machine's kick-off. *)
let drive st =
  let sim = st.sim and t = st.cfg.timing in
  let rec master_run () =
    if not (st.master_dead || st.master_pending <> None) then begin
      let stop = Master.run st.master in
      st.stats.master_instructions <- Master.retired st.master;
      match stop with
      | Master.Forked { entry; occurrence; live_in; cost } ->
        (* the master stepped past the fork and snapshot the prediction
           now; the spawn takes effect once the accumulated cycles
           elapse *)
        Sim.schedule sim ~delay:(cost + t.master_base)
          (epoch_guarded st (fun () -> forked entry live_in occurrence))
      | Master.Stopped cost ->
        st.master_dead <- true;
        if st.tracing then
          st.temit
            (Trace.Master_stop
               { cycle = Sim.now sim; pc = Full.pc (Master.state st.master) });
        Sim.schedule sim ~delay:cost (epoch_guarded st master_died)
    end
  and forked e li occurrence =
    if Window.settle st (Some e) occurrence then dispatch ();
    offered (Window.offer st e li)
  and offered = function
    | Window.Spawned ->
      dispatch ();
      master_run ()
    | Window.Parked -> ()
    | Window.Lost -> squash (-1) (-1) Checkpoint_lost
  and master_died () =
    ignore (Window.settle st None 1 : bool);
    dispatch ();
    commit_kick ()
  (* In window order, each startable checkpoint takes the lowest-numbered
     free slave and its body runs at once; its completion and, under a
     fault plan, its watchdog are scheduled. *)
  and dispatch () =
    let s = Window.free_slave st in
    if s >= 0 then begin
      let cp = Window.startable st in
      if cp != no_checkpoint then begin
        let due = Window.start st cp s in
        if due = Window.stalled then
          (* the completion message never arrives: park a no-op past the
             horizon so the run hangs (to the cycle limit) unless a
             watchdog or the liveness layer intervenes *)
          Sim.schedule sim ~delay:(st.cfg.max_cycles + 1) (epoch_guarded st ignore)
        else
          Sim.schedule sim ~delay:due
            (epoch_guarded st (fun () ->
                 Window.finish st cp s;
                 dispatch ();
                 commit_kick ()));
        (* the per-task watchdog: honest completions land first and
           mark the task finished *)
        (match st.watchdog with
        | Some w ->
          Sim.schedule sim ~delay:w
            (epoch_guarded st (fun () ->
                 if Window.overdue st cp s w then squash cp.cp_id s Stalled))
        | None -> ());
        dispatch ()
      end
    end
  (* The commit unit re-examines the window head. Multiple kicks at the
     same instant are harmless: the head is popped before the next event
     runs. *)
  and commit_kick () = Sim.schedule sim ~delay:0 (epoch_guarded st commit_head)
  and commit_head () =
    let v = Verify_commit.examine st in
    if v >= 0 then Sim.schedule sim ~delay:v (epoch_guarded st committed)
    else if v = Verify_commit.retry then begin
      let cp = Queue.peek st.window in
      Sim.schedule sim ~delay:(Verify_commit.backoff st cp)
        (epoch_guarded st (fun () ->
             Verify_commit.resume cp;
             commit_head ()))
    end
    else if v = Verify_commit.squash then begin
      let cp = Queue.peek st.window in
      squash cp.cp_id cp.cp_slave (Verify_commit.failure cp)
    end
    else if v = Verify_commit.orphaned then squash (-1) (-1) Master_dead
  and committed () =
    st.commit_busy <- false;
    offered (Window.unpark st);
    commit_head ()
  and squash task slave reason =
    Window.blame st slave;
    recovered (Recovery.squash st ~task reason)
  and recover () = recovered (Recovery.recover st)
  and recovered outcome =
    let delay = Recovery.delay st outcome in
    match outcome with
    | Recovery.Stopped -> ()
    | Recovery.Ended -> Sim.schedule sim ~delay (guarded st (fun () -> halt st Halted))
    | Recovery.Again -> Sim.schedule sim ~delay (epoch_guarded st recover)
    | Recovery.Restart ->
      Sim.schedule sim ~delay (epoch_guarded st master_run)
  in
  master_run

(* Machine-level liveness layer: every [n] cycles, check that the run
   made progress (a commit, squash or recovery segment) since the
   previous check; if not, stop with a structured [Livelock] carrying a
   diagnostic snapshot — never a silent hang. *)
let liveness st n =
  let n = max 1 n in
  let last = ref (-1, -1, -1) in
  let rec tick () =
    let stats = st.stats in
    let cur = (stats.tasks_committed, stats.squashes, stats.recovery_segments) in
    if cur = !last then begin
      let count p a = Array.fold_left (fun acc x -> if p x then acc + 1 else acc) 0 a in
      let snap =
        {
          ll_cycle = Sim.now st.sim;
          ll_window = Queue.length st.window;
          ll_busy_slaves = count not st.slave_free;
          ll_quarantined = count Fun.id st.quarantined;
          ll_master =
            (if st.master_dead then "dead"
             else if st.master_pending <> None then "waiting"
             else "running");
          ll_head_task = Option.map (fun cp -> cp.cp_id) (Queue.peek_opt st.window);
        }
      in
      if st.tracing then
        st.temit
          (Trace.Livelock
             {
               cycle = snap.ll_cycle;
               window = snap.ll_window;
               busy_slaves = snap.ll_busy_slaves;
               quarantined = snap.ll_quarantined;
               master = snap.ll_master;
               head_task = snap.ll_head_task;
             });
      halt st (Livelock snap)
    end
    else begin
      last := cur;
      Sim.schedule st.sim ~delay:n (guarded st tick)
    end
  in
  Sim.schedule st.sim ~delay:n (guarded st tick)

(* end-of-run counter samples, then exactly one Halt — every traced run,
   whatever the stop reason, closes its stream the same way *)
let close_trace st =
  let cycle = st.stats.cycles in
  let slave_l1 =
    Array.fold_left
      (fun (a, m) h ->
        let s = Hierarchy.l1_stats h in
        (a + s.Mssp_cache.Cache.accesses, m + s.Mssp_cache.Cache.misses))
      (0, 0) st.slave_caches
  in
  let master_l1 = Hierarchy.l1_stats st.master_cache in
  let l2 = Hierarchy.l2_stats st.master_cache in
  List.iter
    (fun (name, value) -> st.temit (Trace.Counter { cycle; name; value }))
    [
      ("cache.master_l1_accesses", master_l1.Mssp_cache.Cache.accesses);
      ("cache.master_l1_misses", master_l1.Mssp_cache.Cache.misses);
      ("cache.slaves_l1_accesses", fst slave_l1);
      ("cache.slaves_l1_misses", snd slave_l1);
      ("cache.shared_l2_accesses", l2.Mssp_cache.Cache.accesses);
      ("cache.shared_l2_misses", l2.Mssp_cache.Cache.misses);
      ("mem.arch_live_pages", Full.live_pages st.arch);
      ("mem.arch_overflow_words", Full.overflow_words st.arch);
      ("sim.events_scheduled", Sim.scheduled st.sim);
      ("sim.events_executed", Sim.executed st.sim);
      ("sim.epochs", Sim.epoch st.sim);
    ];
  st.temit (Trace.Halt { cycle; stop = stop_string st.stop_reason })

let run ?(reference = false) ?(config = Mssp_config.default) (d : Distill.t) =
  let st = create ~reference config d in
  (* [None] schedules no liveness check at all: event counts stay
     bit-identical *)
  Option.iter (liveness st) config.liveness_window;
  Sim.schedule st.sim ~delay:0 (guarded st (drive st));
  let drained = Sim.run ~limit:config.max_cycles st.sim = Sim.Drained in
  (* a run that never halted hit the cycle limit, or drained its queue:
     the machine wedged — reported, not masqueraded as a clean halt *)
  if st.running then halt st (if drained then Wedged else Cycle_limit);
  if st.tracing then close_trace st;
  {
    arch = st.arch;
    stop = st.stop_reason;
    stats = st.stats;
    refinement_violations = st.violations;
  }

let total_committed (r : result) =
  r.stats.instructions_committed + r.stats.recovery_instructions

let mean_of = function
  | [] -> 0.0
  | l ->
    float_of_int (List.fold_left ( + ) 0 l) /. float_of_int (List.length l)

let mean_task_size (r : result) = mean_of r.stats.task_sizes
let mean_live_ins (r : result) = mean_of r.stats.live_in_counts

let squash_rate (r : result) =
  if r.stats.tasks_committed = 0 then float_of_int r.stats.squashes
  else float_of_int r.stats.squashes /. float_of_int r.stats.tasks_committed

let slave_occupancy (r : result) ~config =
  let total = r.stats.cycles * config.Mssp_config.slaves in
  if total = 0 then 0.0
  else float_of_int r.stats.slave_busy_cycles /. float_of_int total

let pp_stats fmt (s : stats) =
  Format.fprintf fmt
    "@[<v>cycles: %d@,\
     master instructions: %d@,\
     tasks: %d spawned, %d committed, %d discarded@,\
     instructions committed via tasks: %d (+%d recovery)@,\
     squashes: %d (mismatch %d, failed %d, master-dead %d)@,\
     sequential bursts: %d (%d instructions), faults injected: %d@,\
     fault handling: %d spawn retries, %d verify retries, %d watchdog \
     squashes, %d slaves quarantined@,\
     live-ins checked: %d, live-outs committed: %d@,\
     value prediction: %d hits, %d misses@,\
     slave busy cycles: %d@]"
    s.cycles s.master_instructions s.tasks_spawned s.tasks_committed
    s.tasks_discarded s.instructions_committed s.recovery_instructions
    s.squashes s.squash_mismatch s.squash_task_failed s.squash_master_dead
    s.sequential_bursts s.sequential_instructions s.faults_injected
    s.spawn_retries s.verify_retries s.watchdog_squashes
    s.slaves_quarantined s.live_ins_checked s.live_outs_committed
    s.predict_hits s.predict_misses s.slave_busy_cycles
