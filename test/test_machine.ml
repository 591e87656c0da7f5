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
    ]
