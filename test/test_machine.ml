(* Tests for the MSSP machine: end-to-end correctness against SEQ,
   refinement shadow, squash/recovery, window limits, I/O handling,
   isolated mode, stats coherence, safety limits. *)

module Full = Mssp_state.Full
module Layout = Mssp_isa.Layout
module Machine = Mssp_seq.Machine
module Profile = Mssp_profile.Profile
module Distill = Mssp_distill.Distill
module M = Mssp_core.Mssp_machine
module Config = Mssp_core.Mssp_config
module Plan = Mssp_faults.Plan
module W = Mssp_workload.Workload
module Adversary = Mssp_workload.Adversary
module Dsl = Mssp_asm.Dsl
module Instr = Mssp_isa.Instr
open Mssp_asm.Regs

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let distill_of p =
  let profile = Profile.collect p in
  Distill.distill p profile

(* the SEQ reference, with the distilled image loaded like the machine
   does, so final states are directly comparable *)
let seq_reference (d : Distill.t) =
  let s = Full.create () in
  Full.load s d.Distill.original;
  Full.load ~set_entry:false s d.Distill.distilled;
  let m = Machine.of_state s in
  ignore (Machine.run m : Machine.stop);
  m

let checking_config =
  { Config.default with Config.verify_refinement = true }

let run_and_compare ?(config = checking_config) d =
  let seq = seq_reference d in
  let r = M.run ~config d in
  check "halted" true (r.M.stop = M.Halted);
  check "states equal" true (Full.equal_observable seq.Machine.state r.M.arch);
  check_int "no refinement violations" 0 r.M.refinement_violations;
  (seq, r)

let small_program =
  let b = Dsl.create () in
  Dsl.li b t0 200;
  Dsl.li b t1 0;
  Dsl.label b "loop";
  Dsl.alu b Instr.Add t1 t1 t0;
  Dsl.alui b Instr.Sub t0 t0 1;
  Dsl.br b Instr.Gt t0 zero "loop";
  Dsl.out b t1;
  Dsl.halt b;
  Dsl.build b ()

let test_simple_equivalence () =
  let seq, r = run_and_compare (distill_of small_program) in
  check "output preserved" true
    (Machine.output seq.Machine.state = Machine.output r.M.arch);
  check "work went through tasks" true (r.M.stats.M.tasks_committed > 1)

let test_stats_coherence () =
  let d = distill_of small_program in
  let seq = seq_reference d in
  let r = M.run ~config:checking_config d in
  (* every sequential instruction is accounted for exactly once: either
     committed via a task or executed during recovery *)
  check_int "instruction accounting" seq.Machine.instructions (M.total_committed r);
  check "task sizes recorded" true
    (List.length r.M.stats.M.task_sizes = r.M.stats.M.tasks_committed);
  check "mean task size positive" true (M.mean_task_size r > 0.0);
  check "occupancy sane" true
    (let o = M.slave_occupancy r ~config:checking_config in
     o >= 0.0 && o <= 1.0)

let test_window_limit () =
  let cfg = { checking_config with Config.max_in_flight = 2; Config.slaves = 2 } in
  let d = distill_of small_program in
  let r = M.run ~config:cfg d in
  check "halted" true (r.M.stop = M.Halted);
  let seq = seq_reference d in
  check "still equal" true (Full.equal_observable seq.Machine.state r.M.arch)

let test_single_slave () =
  let cfg = { checking_config with Config.slaves = 1; Config.max_in_flight = 2 } in
  let _ = run_and_compare ~config:cfg (distill_of small_program) in
  ()

let test_window_of_one () =
  (* regression: a window of 1 used to deadlock (the lone task could
     never learn its end boundary) and then misreport a clean halt *)
  let cfg = { checking_config with Config.max_in_flight = 1 } in
  let _, r = run_and_compare ~config:cfg (distill_of small_program) in
  check "still parallelized through tasks" true (r.M.stats.M.tasks_committed > 1)

let test_isolated_mode () =
  let cfg = { checking_config with Config.isolated_slaves = true } in
  let seq, r = run_and_compare ~config:cfg (distill_of small_program) in
  ignore seq;
  check "committed something" true (r.M.stats.M.tasks_committed > 0)

let test_adversaries_cannot_break_correctness () =
  List.iter
    (fun (name, d) ->
      let seq = seq_reference d in
      let cfg =
        { checking_config with Config.master_chunk = 50_000 }
      in
      let r = M.run ~config:cfg d in
      check (name ^ " halted") true (r.M.stop = M.Halted);
      check (name ^ " state equal") true
        (Full.equal_observable seq.Machine.state r.M.arch);
      check_int (name ^ " refinement") 0 r.M.refinement_violations)
    (Adversary.all small_program)

let test_liar_squashes () =
  (* the liar master forks correct boundaries with corrupted values:
     beyond the first task, commits must be preceded by squashes *)
  let d = Adversary.liar small_program in
  let r = M.run ~config:checking_config d in
  check "halted" true (r.M.stop = M.Halted);
  (* the liar's first task runs to halt with pristine values: committed *)
  check "made progress" true (M.total_committed r > 0)

let test_io_forces_recovery () =
  let b = W.io_bench in
  let p = b.W.program ~size:400 in
  let d = distill_of p in
  let seq, r = run_and_compare d in
  (* I/O writes land in the right order and values *)
  check "io region equal" true
    (List.for_all
       (fun i ->
         Full.get_mem seq.Machine.state (Layout.io_base + i)
         = Full.get_mem r.M.arch (Layout.io_base + i))
       (List.init 16 (fun i -> i)));
  (* I/O refusal shows up as task-failure squashes with recovery *)
  check "io caused squashes" true (r.M.stats.M.squash_task_failed > 0);
  check "recovery executed the io" true (r.M.stats.M.recovery_instructions > 0)

let test_cycle_limit_stops () =
  let d = distill_of small_program in
  let r = M.run ~config:{ checking_config with Config.max_cycles = 50 } d in
  check "stopped by limit" true (r.M.stop = M.Cycle_limit)

let test_recovery_fuel_exhaustion () =
  (* recovery lands in an infinite loop with no task entry in it (the
     dead master forks nothing, so there are no entries at all): the
     segment must burn exactly [recovery_fuel] instructions and stop the
     machine cleanly with the structured [Recovery_fuel] reason instead
     of replaying forever (or masquerading as a cycle-limit stop) *)
  let spin =
    let b = Dsl.create () in
    Dsl.li b t0 1;
    Dsl.label b "spin";
    Dsl.alui b Instr.Add t0 t0 1;
    Dsl.jmp b "spin";
    Dsl.build b ()
  in
  let fuel = 5_000 in
  let cfg = { checking_config with Config.recovery_fuel = fuel } in
  let r = M.run ~config:cfg (Adversary.dead_master spin) in
  check "stopped cleanly, not hung" true (r.M.stop = M.Recovery_fuel);
  check_int "segment burned exactly its fuel" fuel
    r.M.stats.M.recovery_instructions;
  check_int "a single recovery segment" 1 r.M.stats.M.recovery_segments;
  check_int "nothing committed speculatively" 0 r.M.stats.M.tasks_committed;
  check_int "one master-dead squash" 1 r.M.stats.M.squash_master_dead

let test_workload_suite_small () =
  (* every benchmark at train size: equivalence + refinement *)
  List.iter
    (fun (b : W.benchmark) ->
      let p = b.W.program ~size:b.W.train_size in
      let d = distill_of p in
      let seq = seq_reference d in
      let r = M.run ~config:checking_config d in
      check (b.W.name ^ " halted") true (r.M.stop = M.Halted);
      check (b.W.name ^ " equal") true
        (Full.equal_observable seq.Machine.state r.M.arch);
      check_int (b.W.name ^ " refinement") 0 r.M.refinement_violations)
    W.all

let test_determinism () =
  let d = distill_of small_program in
  let r1 = M.run d and r2 = M.run d in
  check "same cycles" true (r1.M.stats.M.cycles = r2.M.stats.M.cycles);
  check "same commits" true
    (r1.M.stats.M.tasks_committed = r2.M.stats.M.tasks_committed);
  check "same squashes" true (r1.M.stats.M.squashes = r2.M.stats.M.squashes)

let test_live_in_faults_harmless () =
  (* soft errors in checkpoints: correctness must be untouched at any
     rate; only squashes may grow *)
  let d = distill_of small_program in
  let seq = seq_reference d in
  List.iter
    (fun p ->
      let cfg =
        {
          checking_config with
          Config.faults = Some (Plan.quiet Plan.Live_in_corrupt ~seed:42 ~p);
        }
      in
      let r = M.run ~config:cfg d in
      check (Printf.sprintf "p=%.1f halted" p) true (r.M.stop = M.Halted);
      check
        (Printf.sprintf "p=%.1f equal" p)
        true
        (Full.equal_observable seq.Machine.state r.M.arch);
      check_int (Printf.sprintf "p=%.1f refinement" p) 0 r.M.refinement_violations;
      if p = 1.0 then
        check "faults were actually injected" true (r.M.stats.M.faults_injected > 0))
    [ 0.1; 0.5; 1.0 ]

let test_live_in_faults_monotone_squashes () =
  let d = distill_of small_program in
  let run p =
    let cfg =
      {
        Config.default with
        Config.faults = Some (Plan.quiet Plan.Live_in_corrupt ~seed:7 ~p);
      }
    in
    (M.run ~config:cfg d).M.stats.M.squashes
  in
  check "more faults, at least as many squashes" true (run 1.0 >= run 0.0)

let test_dual_mode_restores_floor () =
  (* under a hopeless master that dies at every restart (but with real
     task boundaries, so restarts keep happening), dual mode must not be
     slower than plain MSSP — it amortizes restarts with sequential
     bursts — and stays correct *)
  let d = Adversary.amnesiac (distill_of small_program) in
  let seq = seq_reference d in
  let base_cfg = { checking_config with Config.master_chunk = 50_000 } in
  let off = M.run ~config:base_cfg d in
  let on_cfg = { base_cfg with Config.dual_mode = true; dual_trigger = 2 } in
  let on = M.run ~config:on_cfg d in
  check "correct with dual mode" true
    (Full.equal_observable seq.Machine.state on.M.arch);
  check "bursts happened" true (on.M.stats.M.sequential_bursts > 0);
  check "not slower than without" true
    (on.M.stats.M.cycles <= off.M.stats.M.cycles);
  (* honest masters should essentially never trip the fallback *)
  let honest = M.run ~config:{ on_cfg with Config.master_chunk = 1_000_000 }
      (distill_of small_program)
  in
  check "honest master: no bursts" true
    (honest.M.stats.M.sequential_bursts = 0)

let test_trace_well_formed () =
  let module Trace = Mssp_trace.Trace in
  let d = distill_of small_program in
  let tracer, events = Trace.recording () in
  let cfg = { checking_config with Config.tracer = Some tracer } in
  let r = M.run ~config:cfg d in
  let evs = events () in
  check "trace non-empty" true (evs <> []);
  (* cycles are monotone *)
  let cycles = List.map Trace.event_cycle evs in
  check "monotone cycles" true
    (List.for_all2 ( <= )
       (List.filteri (fun i _ -> i < List.length cycles - 1) cycles)
       (List.tl cycles));
  (* event counts agree with the stats *)
  let count p = List.length (List.filter p evs) in
  check_int "spawns" r.M.stats.M.tasks_spawned
    (count (function Trace.Fork _ -> true | _ -> false));
  check_int "commits" r.M.stats.M.tasks_committed
    (count (function Trace.Commit _ -> true | _ -> false));
  check_int "squashes" r.M.stats.M.squashes
    (count (function Trace.Squash _ -> true | _ -> false));
  check_int "one halt" 1
    (count (function Trace.Halt _ -> true | _ -> false));
  (* every committed task was forked first *)
  let forked = Hashtbl.create 64 in
  List.iter
    (fun ev ->
      match ev with
      | Trace.Fork { task; _ } -> Hashtbl.replace forked task ()
      | Trace.Commit { task; _ } ->
        check "commit after fork" true (Hashtbl.mem forked task)
      | _ -> ())
    evs;
  (* with the tracer off the machine behaves identically *)
  let r' = M.run ~config:checking_config d in
  check "same stop without tracer" true (r'.M.stop = r.M.stop);
  check_int "same cycles without tracer" r.M.stats.M.cycles r'.M.stats.M.cycles;
  check "same arch without tracer" true
    (Full.equal_observable r.M.arch r'.M.arch)

let test_control_only_mode_correct () =
  (* TLS mode (no value predictions): massively squashy but still exact *)
  let d = distill_of small_program in
  let seq = seq_reference d in
  let cfg = { checking_config with Config.control_only_master = true } in
  let r = M.run ~config:cfg d in
  check "halted" true (r.M.stop = M.Halted);
  check "equal" true (Full.equal_observable seq.Machine.state r.M.arch);
  check "squashes dominate" true (r.M.stats.M.squashes > r.M.stats.M.tasks_committed / 2)

let test_task_size_knob () =
  let d = distill_of small_program in
  let run ts =
    let cfg = { Config.default with Config.task_size = ts } in
    M.run ~config:cfg d
  in
  let small = run 10 and large = run 100 in
  check "larger knob, larger tasks" true
    (M.mean_task_size large > M.mean_task_size small);
  check "larger knob, fewer tasks" true
    (large.M.stats.M.tasks_committed < small.M.stats.M.tasks_committed)

(* --- the seams, one transition at a time, on a machine state built
   for a small package and driven by hand (no event is run) --- *)

module S = Mssp_core.Machine_state
module Window = Mssp_core.Window
module Verify_commit = Mssp_core.Verify_commit
module Recovery = Mssp_core.Recovery
module Live_in = Mssp_state.Live_in

let seam_state config =
  S.create ~reference:false config (distill_of small_program)

let no_faults = Some (Plan.make [])

let test_window_parks_and_reoffers () =
  let st = seam_state { Config.default with Config.max_in_flight = 1 } in
  let li = Live_in.pc_only 0 in
  check "first fork spawns" true (Window.offer st 0x10 li = Window.Spawned);
  check "full window parks" true (Window.offer st 0x20 li = Window.Parked);
  check "the fork is held" true (st.S.master_pending <> None);
  check_int "one checkpoint" 1 (Queue.length st.S.window);
  check "still full: parked again" true (Window.unpark st = Window.Parked);
  ignore (Queue.pop st.S.window : S.checkpoint) (* the head commits *);
  check "a commit re-offers it" true (Window.unpark st = Window.Spawned);
  check_int "its checkpoint joined" 0x20 (Queue.peek st.S.window).S.cp_entry;
  check "nothing held" true (st.S.master_pending = None);
  check "nothing left to re-offer" true (Window.unpark st = Window.Parked)

let test_quarantine_spares_last_slave () =
  let st =
    seam_state
      { (Config.with_slaves 2 Config.default) with
        Config.quarantine_after = 1;
        faults = no_faults;
      }
  in
  Window.blame st (-1);
  check "no slave, no blame" false (st.S.quarantined.(0) || st.S.quarantined.(1));
  Window.blame st 0;
  check "slave 0 benched" true st.S.quarantined.(0);
  check_int "dispatch skips it" 1 (Window.free_slave st);
  Window.blame st 1;
  Window.blame st 1;
  check "the last healthy slave stays" false st.S.quarantined.(1);
  check_int "one quarantined" 1 st.S.stats.S.slaves_quarantined;
  check_int "one healthy" 1 st.S.healthy_slaves

let test_burst_backoff_caps () =
  let config =
    {
      Config.default with
      Config.dual_mode = true;
      dual_trigger = 2;
      dual_burst = 10;
      adaptive_backoff = true;
    }
  in
  let st = seam_state config in
  st.S.fruitless_squashes <- 1;
  check_int "below the trigger: no burst" 0 (Recovery.burst st);
  st.S.fruitless_squashes <- 2;
  Alcotest.(check (list int))
    "doubling, capped at 64x"
    [ 10; 20; 40; 80; 160; 320; 640; 640; 640 ]
    (List.init 9 (fun _ -> Recovery.burst st));
  st.S.burst_streak <- 0 (* a commit *);
  check_int "a commit starts over" 10 (Recovery.burst st);
  let flat = seam_state { config with Config.adaptive_backoff = false } in
  flat.S.fruitless_squashes <- 2;
  Alcotest.(check (list int))
    "without backoff, flat" [ 10; 10; 10 ]
    (List.init 3 (fun _ -> Recovery.burst flat))

let test_commit_cost () =
  let t =
    {
      Config.default_timing with
      Config.verify_base = 5;
      verify_per_live_in = 3;
      verify_parallelism = 8;
      commit_base = 7;
      commit_per_live_out = 2;
      commit_parallelism = 4;
    }
  in
  let cost = Verify_commit.cost t in
  check_int "nothing to check" 12 (cost ~live_ins:0 ~live_outs:0);
  check_int "one of each" (12 + 3 + 2) (cost ~live_ins:1 ~live_outs:1);
  check_int "exact multiples" (12 + 3 + 2) (cost ~live_ins:8 ~live_outs:4);
  check_int "rounded up" (12 + 6 + 4) (cost ~live_ins:9 ~live_outs:5);
  check_int "parallelism 0 counts as 1" (12 + 9 + 2)
    (Verify_commit.cost { t with Config.verify_parallelism = 0 } ~live_ins:3
       ~live_outs:1)

let test_transient_retry_defers () =
  let plan =
    Plan.make [ Plan.action Plan.Verify_transient ~seed:1 ~p:1.0 ]
  in
  let st = seam_state { Config.default with Config.faults = Some plan } in
  let backoff = st.S.policy.Plan.verify_backoff in
  let cp =
    S.checkpoint ~id:0 ~entry:0 ~live_in:Live_in.empty
      ~master_li:Live_in.empty ~extra:0
  in
  cp.S.cp_finished <- true;
  Queue.add cp st.S.window;
  check_int "a transient error defers the head" Verify_commit.retry
    (Verify_commit.examine st);
  check_int "backoff" backoff (Verify_commit.backoff st cp);
  check_int "a same-instant kick is idle" Verify_commit.idle
    (Verify_commit.examine st);
  check_int "and did not re-roll" 1 st.S.stats.S.faults_injected;
  Verify_commit.resume cp;
  check_int "the retry rolls again" Verify_commit.retry
    (Verify_commit.examine st);
  check_int "backoff doubles" (2 * backoff) (Verify_commit.backoff st cp);
  check_int "two retries" 2 st.S.stats.S.verify_retries

(* Training reads the master's pre-refinement live-in in place: when an
   override gave the task a live-in of its own, verifying it allocates
   no more than when the task ran on the master's — no journal is
   flattened from the master's live-in per verify. *)
let test_train_reads_master_live_in_in_place () =
  let words ~override =
    let st =
      seam_state { Config.default with Config.predict = Mssp_predict.Predict.Tournament }
    in
    let entry = Full.pc st.S.arch in
    let master_li =
      Live_in.of_state ~pc:entry st.S.arch Mssp_state.Fragment.empty
    in
    let live_in =
      if override then
        Live_in.add (Mssp_state.Cell.Reg t5) (Full.get_reg st.S.arch t5) master_li
      else master_li
    in
    let cp = S.checkpoint ~id:0 ~entry ~live_in ~master_li ~extra:0 in
    Queue.add cp st.S.window;
    ignore (Window.start st cp 0 : int);
    Window.finish st cp 0;
    let before = Gc.minor_words () in
    let v = Verify_commit.examine st in
    let w = Gc.minor_words () -. before in
    check_int "the head commits the program's halt" Verify_commit.halted v;
    w
  in
  let shared = words ~override:false and overridden = words ~override:true in
  if overridden > shared then
    Alcotest.failf
      "verify with an overridden register: %.0f minor words, %.0f on the \
       master's own live-in"
      overridden shared

let () =
  Alcotest.run "machine"
    [
      ( "correctness",
        [
          Alcotest.test_case "simple equivalence" `Quick test_simple_equivalence;
          Alcotest.test_case "stats coherence" `Quick test_stats_coherence;
          Alcotest.test_case "window limit" `Quick test_window_limit;
          Alcotest.test_case "single slave" `Quick test_single_slave;
          Alcotest.test_case "window of one" `Quick test_window_of_one;
          Alcotest.test_case "isolated mode" `Quick test_isolated_mode;
          Alcotest.test_case "adversaries" `Quick
            test_adversaries_cannot_break_correctness;
          Alcotest.test_case "liar progress" `Quick test_liar_squashes;
          Alcotest.test_case "workload suite" `Slow test_workload_suite_small;
        ] );
      ( "mechanics",
        [
          Alcotest.test_case "io recovery" `Quick test_io_forces_recovery;
          Alcotest.test_case "cycle limit" `Quick test_cycle_limit_stops;
          Alcotest.test_case "recovery fuel exhaustion" `Quick
            test_recovery_fuel_exhaustion;
          Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "task-size knob" `Quick test_task_size_knob;
          Alcotest.test_case "fault injection harmless" `Quick
            test_live_in_faults_harmless;
          Alcotest.test_case "fault injection squashes" `Quick
            test_live_in_faults_monotone_squashes;
          Alcotest.test_case "dual mode floor" `Quick test_dual_mode_restores_floor;
          Alcotest.test_case "trace well-formed" `Quick test_trace_well_formed;
          Alcotest.test_case "control-only mode" `Quick test_control_only_mode_correct;
        ] );
      ( "seams",
        [
          Alcotest.test_case "window: a full window parks, a commit re-offers"
            `Quick test_window_parks_and_reoffers;
          Alcotest.test_case "window: quarantine spares the last slave" `Quick
            test_quarantine_spares_last_slave;
          Alcotest.test_case "recovery: burst backoff doubles to 64x" `Quick
            test_burst_backoff_caps;
          Alcotest.test_case "verify/commit: cost rounds up per lane" `Quick
            test_commit_cost;
          Alcotest.test_case "verify/commit: a transient retry defers the head"
            `Quick test_transient_retry_defers;
          Alcotest.test_case "verify/commit: training reads the master's live-in"
            `Quick test_train_reads_master_live_in_in_place;
        ] );
    ]
