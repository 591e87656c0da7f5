(* The superblock engine's bit-identity contract, tested differentially:
   whole-run and run-until execution on the engine must match the
   single-step reference ([Machine.run_reference] /
   [Machine.run_until_reference]) exactly — final state, stop reason, and the
   instruction/load/store counters — on hand-written programs, on fuzz
   programs (SMC shapes boosted), at every fuel boundary, entering
   blocks mid-region, and across self-modifying stores both internal
   (executed by the engine) and external (reported via [note_store]).
   Plus the two fine-grained contracts the engine leans on: the
   [observed_step] read-order and [Task.with_decode] neutrality. *)

module Full = Mssp_state.Full
module Cell = Mssp_state.Cell
module Instr = Mssp_isa.Instr
module Program = Mssp_isa.Program
module Machine = Mssp_seq.Machine
module Sblock = Mssp_seq.Sblock
module Exec = Mssp_seq.Exec
module Task = Mssp_task.Task
module Fragment = Mssp_state.Fragment
module Gen = Mssp_fuzz.Gen
module Dsl = Mssp_asm.Dsl
open Mssp_asm.Regs

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* the engine, or the single-step reference drivers *)
let run ~reference ?fuel m =
  if reference then Machine.run_reference ?fuel m else Machine.run ?fuel m

let run_until ~reference m ~fuel ~min_steps ~at =
  if reference then Machine.run_until_reference m ~fuel ~min_steps ~at
  else Machine.run_until m ~fuel ~min_steps ~at

(* run a program both ways; compare everything a caller can observe *)
let same_run ?(fuel = 2_000_000) p =
  let on = Machine.of_program p in
  let off = Machine.of_program p in
  let s_on = Machine.run ~fuel on in
  let s_off = Machine.run_reference ~fuel off in
  s_on = s_off
  && on.Machine.instructions = off.Machine.instructions
  && on.Machine.loads = off.Machine.loads
  && on.Machine.stores = off.Machine.stores
  && Full.equal_observable on.Machine.state off.Machine.state
  && Machine.output on.Machine.state = Machine.output off.Machine.state

let assert_same_run ?fuel p = check "on = off" true (same_run ?fuel p)

(* --- hand-written shapes ---------------------------------------------- *)

let straightline =
  let b = Dsl.create () in
  Dsl.li b t0 50;
  Dsl.li b t1 0;
  Dsl.label b "head";
  for _ = 1 to 16 do
    Dsl.alui b Instr.Add t1 t1 3
  done;
  Dsl.alui b Instr.Sub t0 t0 1;
  Dsl.br b Instr.Gt t0 zero "head";
  Dsl.out b t1;
  Dsl.halt b;
  Dsl.build b ()

let test_straightline () = assert_same_run straightline

let test_memory_traffic () =
  let b = Dsl.create () in
  let buf = Dsl.alloc b 32 in
  Dsl.li b t0 31;
  Dsl.label b "fill";
  Dsl.alu b Instr.Add t1 t0 t0;
  Dsl.st b t1 t0 buf;
  Dsl.ld b t2 t0 buf;
  Dsl.out b t2;
  Dsl.alui b Instr.Sub t0 t0 1;
  Dsl.br b Instr.Ge t0 zero "fill";
  Dsl.halt b;
  assert_same_run (Dsl.build b ())

let test_calls_and_indirect () =
  let b = Dsl.create () in
  Dsl.label b "main";
  Dsl.jmp b "start";
  Dsl.label b "leaf";
  Dsl.alui b Instr.Mul t0 t0 7;
  Dsl.ret b;
  Dsl.label b "start";
  Dsl.li b t0 3;
  Dsl.call b "leaf";
  Dsl.call b "leaf";
  Dsl.la b t3 "leaf";
  Dsl.jalr b ra t3;
  Dsl.out b t0;
  Dsl.halt b;
  assert_same_run (Dsl.build ~entry:"main" b ())

(* a fault mid-program: the engine must stop with the same fault, at the
   same PC, with identical counters *)
let test_fault_parity () =
  let b = Dsl.create () in
  Dsl.li b t0 5;
  Dsl.alui b Instr.Add t0 t0 1;
  Dsl.raw b (Instr.Alui (Instr.Add, t1, t1, 1));
  Dsl.halt b;
  let p = Dsl.build b () in
  (* corrupt the third instruction word into garbage after load *)
  let on = Machine.of_program p in
  let off = Machine.of_program p in
  let garbage = -0x7EADBEEF in
  let patch m = Full.set_mem m.Machine.state (p.Program.entry + 2) garbage in
  patch on;
  patch off;
  let s_on = Machine.run on in
  let s_off = Machine.run_reference off in
  check "same stop" true (s_on = s_off);
  (match s_on with
  | Machine.Faulted (Exec.Undecodable { pc; _ }) ->
    check_int "fault pc" (p.Program.entry + 2) pc
  | _ -> Alcotest.fail "expected Undecodable fault");
  check "same state" true
    (Full.equal_observable on.Machine.state off.Machine.state);
  check_int "same instructions" off.Machine.instructions on.Machine.instructions;
  check_int "same loads" off.Machine.loads on.Machine.loads

(* --- fuel boundaries and run_until ------------------------------------ *)

(* every fuel value from 0 to past completion: stop reason, counters,
   full state must agree at each boundary *)
let test_fuel_sweep () =
  let b = Dsl.create () in
  let buf = Dsl.alloc b 8 in
  Dsl.li b t0 6;
  Dsl.label b "l";
  Dsl.alui b Instr.Add t1 t1 5;
  Dsl.st b t1 zero buf;
  Dsl.ld b t2 zero buf;
  Dsl.alui b Instr.Sub t0 t0 1;
  Dsl.br b Instr.Gt t0 zero "l";
  Dsl.halt b;
  let p = Dsl.build b () in
  for fuel = 0 to 40 do
    let on = Machine.of_program p in
    let off = Machine.of_program p in
    let s_on = Machine.run ~fuel on in
    let s_off = Machine.run_reference ~fuel off in
    check (Printf.sprintf "fuel %d stop" fuel) true (s_on = s_off);
    check_int
      (Printf.sprintf "fuel %d instructions" fuel)
      off.Machine.instructions on.Machine.instructions;
    check_int (Printf.sprintf "fuel %d loads" fuel) off.Machine.loads
      on.Machine.loads;
    check_int (Printf.sprintf "fuel %d stores" fuel) off.Machine.stores
      on.Machine.stores;
    check
      (Printf.sprintf "fuel %d state" fuel)
      true
      (Full.equal_observable on.Machine.state off.Machine.state)
  done

(* run_until with an [at] landing in the middle of a straight-line
   region: the engine must stop there (mid-block), state and counters
   identical to single-step; resuming re-enters the block mid-region *)
let test_run_until_mid_block () =
  let p = straightline in
  (* the PC of the 9th Alui in the unrolled body: entry + 2 (two li) + 8 *)
  let mid = p.Program.entry + 10 in
  let drive reference =
    let m = Machine.of_program p in
    let hits = ref 0 in
    let rec go acc =
      match
        run_until ~reference m ~fuel:1_000_000 ~min_steps:1 ~at:(fun pc ->
            pc = mid)
      with
      | `At_entry ->
        incr hits;
        go (acc + 1)
      | `Fuel -> Alcotest.fail "unexpected fuel stop"
      | `Stopped -> (m, !hits, acc)
    in
    go 0
  in
  let m_on, hits_on, _ = drive false in
  let m_off, hits_off, _ = drive true in
  check_int "same mid-block hits" hits_off hits_on;
  check "hits happened" true (hits_on > 0);
  check "same stop" true (m_on.Machine.stopped = m_off.Machine.stopped);
  check_int "same instructions" m_off.Machine.instructions
    m_on.Machine.instructions;
  check_int "same loads" m_off.Machine.loads m_on.Machine.loads;
  check "same state" true
    (Full.equal_observable m_on.Machine.state m_off.Machine.state)

(* min_steps: an [at] true at the current PC must not fire before
   min_steps instructions retire — identical gating both ways *)
let test_run_until_min_steps () =
  let p = straightline in
  let entry = p.Program.entry in
  let drive reference =
    let m = Machine.of_program p in
    let r =
      run_until ~reference m ~fuel:1_000_000 ~min_steps:5 ~at:(fun _ -> true)
    in
    (r, m.Machine.instructions, Full.pc m.Machine.state)
  in
  let r_on, n_on, pc_on = drive false in
  let r_off, n_off, pc_off = drive true in
  check "both at entry" true (r_on = `At_entry && r_off = `At_entry);
  check_int "min_steps honored" 5 n_on;
  check_int "same instructions" n_off n_on;
  check_int "same pc" pc_off pc_on;
  check "advanced past entry" true (pc_on <> entry)

(* --- self-modifying code ---------------------------------------------- *)

(* a loop that patches its own body: trip 1 executes the original word,
   trip 2 the patched one; the engine must invalidate and replay
   identically, and must actually have invalidated something *)
let smc_program patched =
  let b = Dsl.create () in
  Dsl.li b s5 2;
  Dsl.li b t2 0;
  Dsl.label b "smc";
  Dsl.label b "patch";
  Dsl.nop b;
  Dsl.la b s6 "patch";
  Dsl.li b s7 (Instr.encode patched);
  Dsl.st b s7 s6 0;
  Dsl.alui b Instr.Sub s5 s5 1;
  Dsl.br b Instr.Gt s5 zero "smc";
  Dsl.out b t2;
  Dsl.halt b;
  Dsl.build b ()

let test_smc_invalidates () =
  let p = smc_program (Instr.Alui (Instr.Add, t2, t2, 7)) in
  let on = Machine.of_program p in
  let off = Machine.of_program p in
  let s_on = Machine.run on in
  let s_off = Machine.run_reference off in
  check "same stop" true (s_on = s_off);
  check "same state" true
    (Full.equal_observable on.Machine.state off.Machine.state);
  check_int "same instructions" off.Machine.instructions on.Machine.instructions;
  check_int "same loads" off.Machine.loads on.Machine.loads;
  check_int "same stores" off.Machine.stores on.Machine.stores;
  (* the patched trip must observe the new instruction: t2 = 7 out *)
  (match Machine.output on.Machine.state with
  | [ v ] -> check_int "patched trip executed" 7 v
  | _ -> Alcotest.fail "expected one output");
  match on.Machine.engine with
  | Some eng -> check "engine invalidated" true (Sblock.invalidations eng > 0)
  | None -> Alcotest.fail "engine was never created"

(* a store from OUTSIDE the engine (direct Full.set_mem between two
   run_until calls) — stale unless the owner reports it via note_store *)
let test_external_store_note () =
  let b = Dsl.create () in
  Dsl.label b "head";
  Dsl.alui b Instr.Add t0 t0 1;
  Dsl.alui b Instr.Add t0 t0 1;
  Dsl.jmp b "head";
  let p = Dsl.build b () in
  let head = p.Program.entry in
  let drive reference =
    let m = Machine.of_program p in
    (* run a few laps so the block over "head" is hot *)
    (match
       run_until ~reference m ~fuel:1_000_000 ~min_steps:6 ~at:(fun pc ->
           pc = head)
     with
    | `At_entry -> ()
    | _ -> Alcotest.fail "expected to stop at head");
    (* external patch: second Add becomes Halt *)
    Full.set_mem m.Machine.state (head + 1) (Instr.encode Instr.Halt);
    (match m.Machine.engine with
    | Some eng -> Sblock.note_store eng (head + 1)
    | None -> ());
    ignore (run ~reference ~fuel:100 m : Machine.stop);
    (m.Machine.stopped, m.Machine.instructions, Full.get_reg m.Machine.state t0)
  in
  let on = drive false in
  let off = drive true in
  check "on = off" true (on = off);
  let stopped, _, _ = on in
  check "halted on the patched word" true (stopped = Some Machine.Halted)

(* --- property tests: fuzz programs, SMC boosted ------------------------ *)

let program_arb ?(weights = Gen.default_weights) ~min_size ~max_size () =
  let gen st =
    let seed = Random.State.int st 0x3FFFFFFF in
    let size = min_size + Random.State.int st (max_size - min_size + 1) in
    Gen.generate ~weights ~seed ~size ()
  in
  QCheck.make ~print:Mssp_asm.Emit.program_to_source gen

let prop_fuzz_differential =
  QCheck.Test.make ~name:"fuzz program: superblock on = off" ~count:60
    (program_arb ~min_size:4 ~max_size:20 ())
    same_run

let smc_heavy = Gen.smc_heavy

let prop_smc_differential =
  QCheck.Test.make ~name:"SMC-heavy program: superblock on = off" ~count:40
    (program_arb ~weights:smc_heavy ~min_size:4 ~max_size:16 ())
    same_run

(* --- the fine-grained contracts --------------------------------------- *)

(* observed_step's documented read order: Pc, then Mem pc, then operands
   in semantics order — the order live-in journals key on, and the order
   block execution must preserve *)
let test_observed_read_order () =
  let pc0 = 0x1000 in
  let observe instr setup =
    let s = Full.create () in
    Full.set_pc s pc0;
    Full.set_mem s pc0 (Instr.encode instr);
    setup s;
    let reads, _, outcome =
      Exec.observed_step
        ~read:(fun c -> Some (Full.get s c))
        ~write:(fun c v -> Full.set s c v)
    in
    check "stepped" true (outcome = Exec.Stepped);
    List.map fst reads
  in
  (* Ld rd, rs1, off: Pc, fetch, base register, loaded address *)
  let order =
    observe
      (Instr.Ld (t0, t1, 4))
      (fun s -> Full.set_reg s t1 0x2000)
  in
  check "Ld order" true
    (order = [ Cell.Pc; Cell.Mem pc0; Cell.Reg t1; Cell.Mem 0x2004 ]);
  (* St rs2, rs1, off: Pc, fetch, base, stored register *)
  let order =
    observe
      (Instr.St (t2, t1, 1))
      (fun s ->
        Full.set_reg s t1 0x3000;
        Full.set_reg s t2 99)
  in
  check "St order" true
    (order = [ Cell.Pc; Cell.Mem pc0; Cell.Reg t1; Cell.Reg t2 ])

(* Task.with_decode must be invisible: identical status, executed count,
   recorded live-ins and live-outs — only the decode work changes *)
let test_task_with_decode_neutral () =
  let b = Dsl.create () in
  let buf = Dsl.alloc b 4 in
  Dsl.li b t0 4;
  Dsl.label b "l";
  Dsl.alu b Instr.Add t1 t1 t0;
  Dsl.st b t1 zero buf;
  Dsl.alui b Instr.Sub t0 t0 1;
  Dsl.br b Instr.Gt t0 zero "l";
  Dsl.halt b;
  let p = Dsl.build b () in
  let s = Full.create () in
  Full.load s p;
  let fresh () =
    Task.make ~id:0 ~start_pc:p.Program.entry ~end_pc:None ~end_occurrence:1
      ~budget:1000 ~live_in:Fragment.empty
  in
  let view = Task.Fallback (fun c -> Full.get s c) in
  let plain = fresh () in
  let decoded =
    Task.with_decode
      (Program.image_decoder [ Program.decode_all p ])
      (fresh ())
  in
  let st_plain = Task.run plain view in
  let st_decoded = Task.run decoded view in
  check "same status" true (st_plain = st_decoded);
  check_int "same executed" plain.Task.executed decoded.Task.executed;
  check "same live-ins" true
    (Fragment.equal (Task.reads_fragment plain) (Task.reads_fragment decoded));
  check "same live-outs" true
    (Fragment.equal (Task.writes_fragment plain) (Task.writes_fragment decoded))

(* shared engine across machines over the same state: of_state ~engine *)
let test_shared_engine () =
  let p = straightline in
  let s = Full.create () in
  Full.load s p;
  let eng = Sblock.create ~images:[ p ] () in
  let m1 = Machine.of_state ~engine:eng s in
  let r1 =
    Machine.run_until m1 ~fuel:200 ~min_steps:1 ~at:(fun pc ->
        pc = p.Program.entry + 2)
  in
  check "first leg at entry" true (r1 = `At_entry);
  let built = Sblock.blocks_built eng in
  check "blocks built" true (built > 0);
  let m2 = Machine.of_state ~engine:eng s in
  ignore (Machine.run m2 : Machine.stop);
  check "finished" true (m2.Machine.stopped = Some Machine.Halted);
  (* reference: same program single-stepped from scratch *)
  let off = Machine.of_program p in
  ignore (Machine.run_reference off : Machine.stop);
  check_int "combined instructions" off.Machine.instructions
    (m1.Machine.instructions + m2.Machine.instructions);
  check "same state" true
    (Full.equal_observable off.Machine.state m2.Machine.state)

let () =
  Alcotest.run "sblock"
    [
      ( "differential",
        [
          Alcotest.test_case "straight-line" `Quick test_straightline;
          Alcotest.test_case "memory traffic" `Quick test_memory_traffic;
          Alcotest.test_case "calls and indirect jumps" `Quick
            test_calls_and_indirect;
          Alcotest.test_case "fault parity" `Quick test_fault_parity;
          Alcotest.test_case "fuel sweep" `Quick test_fuel_sweep;
        ] );
      ( "run_until",
        [
          Alcotest.test_case "mid-block entry" `Quick test_run_until_mid_block;
          Alcotest.test_case "min_steps gating" `Quick test_run_until_min_steps;
        ] );
      ( "smc",
        [
          Alcotest.test_case "self-patching loop invalidates" `Quick
            test_smc_invalidates;
          Alcotest.test_case "external store via note_store" `Quick
            test_external_store_note;
        ] );
      ( "properties",
        [
          Mssp_testkit.to_alcotest prop_fuzz_differential;
          Mssp_testkit.to_alcotest prop_smc_differential;
        ] );
      ( "contracts",
        [
          Alcotest.test_case "observed_step read order" `Quick
            test_observed_read_order;
          Alcotest.test_case "Task.with_decode is neutral" `Quick
            test_task_with_decode_neutral;
          Alcotest.test_case "shared engine across machines" `Quick
            test_shared_engine;
        ] );
    ]
