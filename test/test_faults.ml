(* The fault-plan subsystem, end to end:
   - plan DSL: absorbability predicate;
   - a quiet one-action plan fires exactly like its loud twin, minus
     the Fault events;
   - every absorbable surface at full intensity is absorbed: final
     architected state equals SEQ, only stats/cycles move;
   - a stall plan with no watchdog spins to the cycle limit; the same
     plan under the machine-level liveness layer stops early with a
     structured Livelock carrying a diagnostic snapshot;
   - a compiled-in-but-disabled subsystem changes nothing: cycles,
     stats and the full event stream are bit-identical (the semantic
     twin of the FAULTG perf guard);
   - quarantine benches repeat-squashing slaves (never the last one);
     adaptive backoff lengthens dual-mode bursts;
   - QCheck edges for dual mode: fallback engages exactly at
     [dual_trigger] consecutive squashes, bursts retire at least
     [dual_burst] instructions unless the run ends inside one, and
     degraded runs still satisfy the SEQ refinement oracle. *)

module Full = Mssp_state.Full
module Machine = Mssp_seq.Machine
module Profile = Mssp_profile.Profile
module Distill = Mssp_distill.Distill
module M = Mssp_core.Mssp_machine
module Config = Mssp_core.Mssp_config
module Plan = Mssp_faults.Plan
module Trace = Mssp_trace.Trace
module Adversary = Mssp_workload.Adversary
module Gen = Mssp_fuzz.Gen
module Oracle = Mssp_fuzz.Oracle
module Dsl = Mssp_asm.Dsl
module Instr = Mssp_isa.Instr
open Mssp_asm.Regs

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let distill_of p =
  let profile = Profile.collect p in
  Distill.distill p profile

let seq_reference (d : Distill.t) =
  let s = Full.create () in
  Full.load s d.Distill.original;
  Full.load ~set_entry:false s d.Distill.distilled;
  let m = Machine.of_state s in
  ignore (Machine.run m : Machine.stop);
  m

let checking_config = { Config.default with Config.verify_refinement = true }

let small_program =
  let b = Dsl.create () in
  Dsl.li b t0 200;
  Dsl.li b t1 0;
  Dsl.label b "loop";
  Dsl.alu b Instr.Add t1 t1 t0;
  Dsl.st b t1 zero 9000;
  Dsl.alui b Instr.Sub t0 t0 1;
  Dsl.br b Instr.Gt t0 zero "loop";
  Dsl.out b t1;
  Dsl.halt b;
  Dsl.build b ()

(* a loop-carried memory cell, so checkpoints predict a memory live-in
   — the binding [Mem_bit_flip] needs to have something to flip *)
let mem_program =
  let b = Dsl.create () in
  let cell = Dsl.data_words b [ 3 ] in
  Dsl.li b t0 150;
  Dsl.label b "loop";
  Dsl.ld_addr b t1 cell;
  Dsl.alui b Instr.Add t1 t1 5;
  Dsl.st_addr b t1 cell;
  Dsl.alui b Instr.Sub t0 t0 1;
  Dsl.br b Instr.Gt t0 zero "loop";
  Dsl.ld_addr b t1 cell;
  Dsl.out b t1;
  Dsl.halt b;
  Dsl.build b ()

let traced_run ~config d =
  let tracer, events = Trace.recording () in
  let r = M.run ~config:{ config with Config.tracer = Some tracer } d in
  (r, events ())

(* --- plan DSL --------------------------------------------------------- *)

let watchdog_policy w =
  { Plan.default_policy with Plan.watchdog_cycles = Some w }

let test_plan_dsl () =
  let a = Plan.action Plan.Live_in_corrupt ~seed:1 ~p:2.5 in
  check "p clamped" true (a.Plan.p = 1.0);
  check "not quiet" true (not a.Plan.quiet);
  check "absorbable" true
    (Plan.absorbable (Plan.make [ a ]));
  check "commit corrupt is not absorbable" true
    (not
       (Plan.absorbable
          (Plan.make [ Plan.action Plan.Commit_corrupt ~seed:1 ~p:0.1 ])));
  check "bare stall is not absorbable" true
    (not
       (Plan.absorbable
          (Plan.make [ Plan.action Plan.Slave_stall ~seed:1 ~p:0.1 ])));
  check "watchdog makes stall absorbable" true
    (Plan.absorbable
       (Plan.make
          ~policy:(watchdog_policy 1000)
          [ Plan.action Plan.Slave_stall ~seed:1 ~p:0.1 ]));
  check "every absorbable surface is a surface" true
    (List.for_all
       (fun s -> List.mem s Plan.all_surfaces)
       Plan.absorbable_surfaces);
  check "commit corrupt excluded from absorbable" true
    (not (List.mem Plan.Commit_corrupt Plan.absorbable_surfaces))

let same_outcome r1 r2 =
  r1.M.stats.M.cycles = r2.M.stats.M.cycles
  && r1.M.stats.M.squashes = r2.M.stats.M.squashes
  && r1.M.stats.M.faults_injected = r2.M.stats.M.faults_injected
  && r1.M.stats.M.tasks_committed = r2.M.stats.M.tasks_committed
  && Full.equal_observable r1.M.arch r2.M.arch

let test_quiet_plan () =
  let quiet = Plan.quiet Plan.Live_in_corrupt ~seed:42 ~p:0.7 in
  (match quiet with
  | { Plan.actions = [ a ]; policy } ->
    check "quiet surface" true (a.Plan.surface = Plan.Live_in_corrupt);
    check "quiet" true a.Plan.quiet;
    check "default policy" true (policy = Plan.default_policy)
  | _ -> Alcotest.fail "Plan.quiet: expected one action");
  (* the same action, loud: same decisions, same machine — only the
     Fault events differ *)
  let loud = Plan.make [ Plan.action Plan.Live_in_corrupt ~seed:42 ~p:0.7 ] in
  let d = distill_of small_program in
  let run plan =
    traced_run ~config:{ checking_config with Config.faults = Some plan } d
  in
  let rq, evq = run quiet and rl, evl = run loud in
  let faults evs =
    List.length (List.filter (function Trace.Fault _ -> true | _ -> false) evs)
  in
  check "faults actually fired" true (rq.M.stats.M.faults_injected > 0);
  check "quiet == loud outcome" true (same_outcome rq rl);
  check_int "quiet emits no Fault event" 0 (faults evq);
  check_int "loud emits one per firing" rl.M.stats.M.faults_injected
    (faults evl)

(* --- per-surface absorption ------------------------------------------- *)

let surface_plan surface =
  Plan.make
    ~policy:(watchdog_policy 100_000)
    [ Plan.action surface ~seed:11 ~p:1.0 ]

let test_surfaces_absorbed () =
  let d = distill_of mem_program in
  let seq = seq_reference d in
  List.iter
    (fun surface ->
      let name = Plan.surface_name surface in
      let cfg =
        { checking_config with Config.faults = Some (surface_plan surface) }
      in
      let r = M.run ~config:cfg d in
      check (name ^ " halted") true (r.M.stop = M.Halted);
      check (name ^ " state equals SEQ") true
        (Full.equal_observable seq.Machine.state r.M.arch);
      check_int (name ^ " refinement") 0 r.M.refinement_violations;
      check (name ^ " fired") true (r.M.stats.M.faults_injected > 0);
      match surface with
      | Plan.Checkpoint_drop ->
        check "drop: spawn retries counted" true (r.M.stats.M.spawn_retries > 0);
        check "drop: lost checkpoints squash" true
          (r.M.stats.M.squash_task_failed > 0)
      | Plan.Slave_stall ->
        check "stall: watchdog squashed" true
          (r.M.stats.M.watchdog_squashes > 0)
      | Plan.Verify_transient ->
        check "transient: verify retries counted" true
          (r.M.stats.M.verify_retries > 0)
      | Plan.Live_in_corrupt | Plan.Mem_bit_flip ->
        check (name ^ ": caused squashes") true (r.M.stats.M.squashes > 0)
      | Plan.Checkpoint_delay | Plan.Commit_corrupt -> ())
    Plan.absorbable_surfaces

(* --- stall, watchdog, liveness ---------------------------------------- *)

let stall_plan = Plan.make [ Plan.action Plan.Slave_stall ~seed:5 ~p:1.0 ]

let test_stall_without_watchdog_spins () =
  (* no watchdog, no liveness layer: the stalled task hangs the run to
     the cycle limit — the failure mode the liveness layer exists for *)
  let d = distill_of small_program in
  let cfg =
    {
      Config.default with
      Config.faults = Some stall_plan;
      max_cycles = 200_000;
    }
  in
  let r = M.run ~config:cfg d in
  check "spun to the cycle limit" true (r.M.stop = M.Cycle_limit);
  check_int "no task ever committed" 0 r.M.stats.M.tasks_committed

let test_liveness_watchdog_stops_stall () =
  (* same stall plan, liveness armed: a structured Livelock stop, early,
     with a diagnostic snapshot — never a silent spin *)
  let d = distill_of small_program in
  let cfg =
    {
      Config.default with
      Config.faults = Some stall_plan;
      liveness_window = Some 10_000;
      max_cycles = 200_000;
    }
  in
  let r, events = traced_run ~config:cfg d in
  (match r.M.stop with
  | M.Livelock snap ->
    check "detected well before the cycle limit" true
      (snap.M.ll_cycle < 100_000);
    check "a slave is stuck busy" true (snap.M.ll_busy_slaves >= 1);
    check "window is non-empty" true (snap.M.ll_window >= 1);
    check "head task identified" true (snap.M.ll_head_task <> None);
    check "master state named" true
      (List.mem snap.M.ll_master [ "running"; "waiting"; "dead" ])
  | _ -> Alcotest.failf "expected Livelock, got %s" (M.stop_string r.M.stop));
  check "Livelock event emitted" true
    (List.exists (function Trace.Livelock _ -> true | _ -> false) events);
  (match List.rev events with
  | Trace.Halt { stop; _ } :: _ -> check_int "halt names livelock" 0
      (compare stop "livelock")
  | _ -> Alcotest.fail "stream must end with Halt")

let test_watchdog_absorbs_stall () =
  (* per-task watchdog on: the stalled task is squashed and the run
     completes, equal to SEQ *)
  let d = distill_of small_program in
  let seq = seq_reference d in
  let plan =
    Plan.make
      ~policy:(watchdog_policy 50_000)
      [ Plan.action Plan.Slave_stall ~seed:5 ~p:1.0 ]
  in
  let cfg = { checking_config with Config.faults = Some plan } in
  let r, events = traced_run ~config:cfg d in
  check "halted" true (r.M.stop = M.Halted);
  check "equal to SEQ" true (Full.equal_observable seq.Machine.state r.M.arch);
  check "watchdog fired" true (r.M.stats.M.watchdog_squashes > 0);
  check "Watchdog events in stream" true
    (List.exists (function Trace.Watchdog _ -> true | _ -> false) events);
  (* attribution: the trace fold books watchdog squashes as task-failed *)
  let s = Trace.Summary.of_events events in
  check_int "summary sees the stalls" r.M.stats.M.watchdog_squashes
    s.Trace.Summary.watchdog_stall;
  check_int "fold matches machine bucket" r.M.stats.M.squash_task_failed
    (Trace.Summary.squash_task_failed s)

(* --- zero cost when disabled ------------------------------------------ *)

let test_disabled_plan_changes_nothing () =
  (* a compiled-in plan whose actions can never fire (p = 0): cycles,
     stats and the complete event stream must be bit-identical to a run
     with the subsystem off — the semantic half of the FAULTG guard *)
  let d = distill_of small_program in
  let benign =
    Plan.make
      (List.map
         (fun s -> Plan.action s ~seed:1 ~p:0.0)
         Plan.absorbable_surfaces)
  in
  let off, ev_off = traced_run ~config:Config.default d in
  let on, ev_on =
    traced_run ~config:{ Config.default with Config.faults = Some benign } d
  in
  check "cycles identical" true (off.M.stats.M.cycles = on.M.stats.M.cycles);
  check "stats identical" true (same_outcome off on);
  check_int "no faults fired" 0 on.M.stats.M.faults_injected;
  check "event streams identical" true
    (List.length ev_off = List.length ev_on
    && List.for_all2 Trace.event_equal ev_off ev_on)

(* --- adaptive degradation --------------------------------------------- *)

let test_quarantine_benches_slaves () =
  (* every task's live-ins are corrupted: each slave's tasks squash at
     the head over and over; with quarantine_after 1, slaves get benched
     one by one — but never the last healthy one — and the run stays
     correct *)
  let d = distill_of small_program in
  let seq = seq_reference d in
  let plan =
    Plan.make [ Plan.action Plan.Live_in_corrupt ~seed:2 ~p:1.0 ]
  in
  let cfg =
    {
      checking_config with
      Config.faults = Some plan;
      quarantine_after = 1;
      slaves = 4;
      max_in_flight = 8;
    }
  in
  let r, events = traced_run ~config:cfg d in
  check "halted" true (r.M.stop = M.Halted);
  check "equal to SEQ" true (Full.equal_observable seq.Machine.state r.M.arch);
  check "slaves were benched" true (r.M.stats.M.slaves_quarantined >= 1);
  check "never the last one" true (r.M.stats.M.slaves_quarantined <= 3);
  check_int "Quarantine events match" r.M.stats.M.slaves_quarantined
    (let s = Trace.Summary.of_events events in
     s.Trace.Summary.quarantines);
  (* quarantine off: same plan, nobody benched *)
  let r0 = M.run ~config:{ cfg with Config.quarantine_after = 0 } d in
  check_int "off: nobody benched" 0 r0.M.stats.M.slaves_quarantined

let test_adaptive_backoff_lengthens_bursts () =
  (* amnesiac master under dual mode: with adaptive backoff, consecutive
     fruitless bursts double, so at equal burst counts strictly more
     sequential instructions retire per burst on average *)
  let d = Adversary.amnesiac (distill_of small_program) in
  let seq = seq_reference d in
  let base =
    {
      checking_config with
      Config.master_chunk = 50_000;
      dual_mode = true;
      dual_trigger = 2;
      dual_burst = 40;
    }
  in
  let flat = M.run ~config:base d in
  let adaptive =
    M.run ~config:{ base with Config.adaptive_backoff = true } d
  in
  check "adaptive run correct" true
    (Full.equal_observable seq.Machine.state adaptive.M.arch);
  check "bursts happened" true (adaptive.M.stats.M.sequential_bursts > 0);
  let per_burst (r : M.result) =
    float_of_int r.M.stats.M.sequential_instructions
    /. float_of_int (max 1 r.M.stats.M.sequential_bursts)
  in
  check "adaptive bursts are longer on average" true
    (per_burst adaptive >= per_burst flat)

(* --- oracle: program x plan ------------------------------------------- *)

let test_plan_grid_absorbs () =
  (* a handful of generated program x plan pairs through the real
     oracle grid: zero divergences (the nightly fuzz leg at small scale) *)
  let checked = ref 0 in
  for seed = 1 to 8 do
    let p = Gen.generate ~seed ~size:(6 + (seed mod 8)) () in
    let plan = Gen.plan ~seed in
    check (Printf.sprintf "generated plan %d absorbable" seed) true
      (Plan.absorbable plan);
    match Oracle.check ~grid:(Oracle.plan_grid ~plan ()) p with
    | Oracle.Passed _ -> incr checked
    | Oracle.Skipped _ -> ()
    | Oracle.Failed fs ->
      Alcotest.failf "seed %d: plan not absorbed: %s" seed
        (String.concat "; "
           (List.map
              (fun (f : Oracle.failure) -> f.Oracle.point ^ ": " ^ f.Oracle.reason)
              fs))
  done;
  check "most pairs judged" true (!checked >= 5)

let test_oracle_catches_non_absorbable_plan () =
  (* fault-plan mutation smoke: a Commit_corrupt action is a machine
     bug by construction; the plan grid must flag it *)
  let plan =
    Plan.make
      [
        Plan.action Plan.Live_in_corrupt ~seed:9 ~p:0.3;
        Plan.action Plan.Commit_corrupt ~seed:3 ~p:1.0;
      ]
  in
  check "plan is not absorbable" true (not (Plan.absorbable plan));
  let rec find seed =
    if seed > 20 then Alcotest.fail "commit corruption was never caught"
    else
      let p = Gen.generate ~seed ~size:12 () in
      match Oracle.check ~grid:(Oracle.plan_grid ~plan ()) p with
      | Oracle.Failed fs ->
        check "attributed to a plan point" true
          (List.for_all
             (fun (f : Oracle.failure) ->
               f.Oracle.point = "honest-plan" || f.Oracle.point = "plan-degraded")
             fs)
      | Oracle.Passed _ | Oracle.Skipped _ -> find (seed + 1)
  in
  find 1

(* --- dual-mode edges (QCheck) ----------------------------------------- *)

let dual_trigger = 3
let dual_burst = 120

let degraded_config =
  {
    checking_config with
    Config.dual_mode = true;
    dual_trigger;
    dual_burst;
    master_chunk = 100_000;
    max_cycles = 100_000_000;
  }

let program_arb =
  let gen st =
    let seed = Random.State.int st 0x3FFFFFFF in
    let size = 4 + Random.State.int st 12 in
    Gen.generate ~seed ~size ()
  in
  QCheck.make ~print:Mssp_asm.Emit.program_to_source gen

(* squash pressure so the fallback actually trips: corrupted live-ins
   on every spawn *)
let pressure_plan = Plan.make [ Plan.action Plan.Live_in_corrupt ~seed:13 ~p:0.8 ]

let degraded_run p =
  let probe = Machine.run_program ~fuel:2_000_000 p in
  match probe.Machine.stopped with
  | Some Machine.Halted ->
    let d = distill_of p in
    let cfg = { degraded_config with Config.faults = Some pressure_plan } in
    let r, events = traced_run ~config:cfg d in
    if r.M.stop = M.Halted then Some (d, r, events) else None
  | _ -> None

let prop_burst_engages_exactly_at_trigger =
  QCheck.Test.make ~name:"dual mode: burst iff trigger consecutive squashes"
    ~count:25 program_arb (fun p ->
      match degraded_run p with
      | None -> true
      | Some (_, _, events) ->
        (* replay the fruitless-squash counter over the stream: reset on
           Commit, bump on Squash; every Recovery's burst flag must be
           exactly (counter >= trigger) *)
        let c = ref 0 in
        List.for_all
          (function
            | Trace.Commit _ ->
              c := 0;
              true
            | Trace.Squash _ ->
              incr c;
              true
            | Trace.Recovery { burst; _ } -> burst = (!c >= dual_trigger)
            | _ -> true)
          events)

let prop_burst_runs_full_length =
  QCheck.Test.make ~name:"dual mode: bursts retire >= dual_burst instructions"
    ~count:25 program_arb (fun p ->
      match degraded_run p with
      | None -> true
      | Some (_, _, events) ->
        (* a burst may fall short only by halting the program inside it,
           in which case it is the last recovery of the stream *)
        let rec go = function
          | [] -> true
          | Trace.Recovery { burst = true; instructions; _ } :: rest ->
            if instructions >= dual_burst then go rest
            else
              List.for_all
                (function
                  | Trace.Recovery _ | Trace.Commit _ -> false | _ -> true)
                rest
          | _ :: rest -> go rest
        in
        go events)

let prop_degraded_runs_refine_seq =
  QCheck.Test.make ~name:"dual mode: degraded runs satisfy the SEQ oracle"
    ~count:25 program_arb (fun p ->
      match degraded_run p with
      | None -> true
      | Some (d, r, _) ->
        let seq = seq_reference d in
        Full.equal_observable seq.Machine.state r.M.arch
        && r.M.refinement_violations = 0
        && M.total_committed r = seq.Machine.instructions)

let () =
  Alcotest.run "faults"
    [
      ( "plan",
        [
          Alcotest.test_case "DSL and absorbability" `Quick test_plan_dsl;
          Alcotest.test_case "quiet plan = loud plan, no events" `Quick
            test_quiet_plan;
          Alcotest.test_case "disabled plan changes nothing" `Quick
            test_disabled_plan_changes_nothing;
        ] );
      ( "surfaces",
        [
          Alcotest.test_case "every absorbable surface absorbed" `Quick
            test_surfaces_absorbed;
          Alcotest.test_case "stall w/o watchdog spins" `Quick
            test_stall_without_watchdog_spins;
          Alcotest.test_case "liveness stops the stall" `Quick
            test_liveness_watchdog_stops_stall;
          Alcotest.test_case "watchdog absorbs the stall" `Quick
            test_watchdog_absorbs_stall;
        ] );
      ( "degradation",
        [
          Alcotest.test_case "quarantine benches slaves" `Quick
            test_quarantine_benches_slaves;
          Alcotest.test_case "adaptive backoff lengthens bursts" `Quick
            test_adaptive_backoff_lengthens_bursts;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "plan grid absorbs generated plans" `Slow
            test_plan_grid_absorbs;
          Alcotest.test_case "non-absorbable plan caught" `Quick
            test_oracle_catches_non_absorbable_plan;
        ] );
      ( "dual-mode edges",
        [
          Mssp_testkit.to_alcotest prop_burst_engages_exactly_at_trigger;
          Mssp_testkit.to_alcotest prop_burst_runs_full_length;
          Mssp_testkit.to_alcotest prop_degraded_runs_refine_seq;
        ] );
    ]
