(* Tests for speculative tasks: view resolution order, live-in recording,
   boundary/occurrence completion, budgets, failures, I/O refusal. *)

module Cell = Mssp_state.Cell
module Fragment = Mssp_state.Fragment
module Full = Mssp_state.Full
module Live_in = Mssp_state.Live_in
module Layout = Mssp_isa.Layout
module Instr = Mssp_isa.Instr
module Task = Mssp_task.Task
module Journal = Mssp_task.Journal
module Dsl = Mssp_asm.Dsl
open Mssp_asm.Regs

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let build f =
  let b = Dsl.create () in
  f b;
  Dsl.build b ()

(* load a program into a full state to serve as architected state *)
let arch_of p =
  let s = Full.create () in
  Full.load s p;
  s

let fallback arch = Task.Fallback arch

let simple_loop =
  build (fun b ->
      Dsl.label b "head";
      Dsl.alui b Instr.Add t1 t1 1;
      Dsl.alui b Instr.Sub t0 t0 1;
      Dsl.br b Instr.Gt t0 zero "head";
      Dsl.halt b)

let head = simple_loop.Mssp_isa.Program.entry

let make_task ?(occurrence = 1) ?(budget = 1000) ~live_in ~end_pc () =
  Task.make ~id:0 ~start_pc:head ~end_pc ~end_occurrence:occurrence ~budget
    ~live_in:(Live_in.of_fragment live_in) ()

let t0_cell = Cell.Reg t0
let t1_cell = Cell.Reg t1

let test_runs_to_halt () =
  let arch = arch_of simple_loop in
  let live_in = Fragment.of_list [ (t0_cell, 3); (t1_cell, 0) ] in
  let task = make_task ~live_in ~end_pc:None () in
  check "halts" true (Task.run task (fallback arch) = Task.Complete Task.Program_halted);
  check_int "executed 3 iterations" 9 task.Task.executed;
  check "t1 live-out" true (Journal.find task.Task.writes t1_cell = Some 3);
  (* final pc points at halt *)
  check "final pc" true (Journal.pc task.Task.writes = Some (head + 3))

let test_boundary_first_occurrence () =
  let arch = arch_of simple_loop in
  let live_in = Fragment.of_list [ (t0_cell, 5); (t1_cell, 0) ] in
  let task = make_task ~live_in ~end_pc:(Some head) () in
  check "boundary" true
    (Task.run task (fallback arch) = Task.Complete Task.Reached_boundary);
  check_int "one iteration" 3 task.Task.executed;
  check "t1 = 1" true (Journal.find task.Task.writes t1_cell = Some 1)

let test_boundary_kth_occurrence () =
  let arch = arch_of simple_loop in
  let live_in = Fragment.of_list [ (t0_cell, 5); (t1_cell, 0) ] in
  let task = make_task ~occurrence:3 ~live_in ~end_pc:(Some head) () in
  check "boundary" true
    (Task.run task (fallback arch) = Task.Complete Task.Reached_boundary);
  check_int "three iterations" 9 task.Task.executed;
  check "t1 = 3" true (Journal.find task.Task.writes t1_cell = Some 3)

let test_budget_exhaustion () =
  let arch = arch_of simple_loop in
  (* boundary occurrence never reached before the loop ends: the task
     overruns into the halt... set end occurrence beyond iteration count
     and a small budget *)
  let live_in = Fragment.of_list [ (t0_cell, 1000); (t1_cell, 0) ] in
  let task = make_task ~budget:10 ~occurrence:100 ~live_in ~end_pc:(Some head) () in
  check "budget" true (Task.run task (fallback arch) = Task.Failed Task.Budget_exhausted);
  check_int "stopped at budget" 10 task.Task.executed

let test_read_resolution_order () =
  let arch = arch_of simple_loop in
  Full.set_reg arch t0 77 (* architected value, should be shadowed *);
  let live_in = Fragment.of_list [ (t0_cell, 2); (t1_cell, 0) ] in
  let task = make_task ~live_in ~end_pc:None () in
  ignore (Task.run task (fallback arch) : Task.status);
  (* live-in shadows architected: 2 iterations, not 77 *)
  check "live-in wins" true (Journal.find task.Task.writes t1_cell = Some 2);
  (* own writes shadow live-in: recorded read of t0 is the live-in value,
     once, not subsequent own values *)
  check "recorded t0 is live-in" true
    (Journal.find task.Task.reads t0_cell = Some 2)

let test_records_fallback_reads () =
  let arch = arch_of simple_loop in
  Full.set_reg arch t1 5;
  (* t1 missing from live-in: read through to architected state *)
  let live_in = Fragment.of_list [ (t0_cell, 1) ] in
  let task = make_task ~live_in ~end_pc:None () in
  ignore (Task.run task (fallback arch) : Task.status);
  check "fallback read recorded" true
    (Journal.find task.Task.reads t1_cell = Some 5);
  check "result uses fallback value" true
    (Journal.find task.Task.writes t1_cell = Some 6);
  (* pc is recorded as a live-in too *)
  check "pc recorded" true (Journal.find task.Task.reads Cell.Pc = Some head)

let test_isolated_missing_memory_reads_zero () =
  (* isolated mode: unwritten memory reads as 0 and the 0 is recorded *)
  let p =
    build (fun b ->
        Dsl.ld b t1 zero 12345;
        Dsl.halt b)
  in
  let full = Full.create () in
  Full.load full p;
  let live_in = Fragment.add Cell.Pc p.Mssp_isa.Program.entry (Full.snapshot full) in
  let task =
    Task.make ~id:1 ~start_pc:p.Mssp_isa.Program.entry ~end_pc:None
      ~end_occurrence:1 ~budget:10 ~live_in:(Live_in.of_fragment live_in) ()
  in
  check "halts" true (Task.run task Task.Isolated = Task.Complete Task.Program_halted);
  check "zero read recorded" true
    (Journal.find task.Task.reads (Cell.mem 12345) = Some 0);
  check "t1 = 0" true (Journal.find task.Task.writes (Cell.Reg t1) = Some 0)

let test_io_refusal () =
  let p =
    build (fun b ->
        Dsl.li b t0 9;
        Dsl.li b t1 Layout.io_base;
        Dsl.st b t0 t1 0;
        Dsl.halt b)
  in
  let arch = arch_of p in
  let live_in = Fragment.singleton Cell.Pc p.Mssp_isa.Program.entry in
  let task =
    Task.make ~id:2 ~start_pc:p.Mssp_isa.Program.entry ~end_pc:None
      ~end_occurrence:1 ~budget:10 ~live_in:(Live_in.of_fragment live_in) ()
  in
  (match Task.run task (fallback arch) with
  | Task.Failed (Task.Io_speculative c) ->
    check "right cell" true (Cell.equal c (Cell.mem Layout.io_base))
  | other -> Alcotest.failf "expected I/O refusal, got %s"
      (Format.asprintf "%a" Task.pp_status other));
  (* the two Li instructions executed; the store did not count *)
  check_int "stopped at the store" 2 task.Task.executed

let test_fault_reported () =
  let arch = Full.create () in
  (* nothing loaded: fetching address 0 yields word 0, undecodable *)
  let live_in = Fragment.singleton Cell.Pc 0 in
  let task =
    Task.make ~id:3 ~start_pc:0 ~end_pc:None ~end_occurrence:1 ~budget:10
      ~live_in:(Live_in.of_fragment live_in) ()
  in
  match Task.run task (fallback arch) with
  | Task.Failed (Task.Fault _) -> ()
  | other ->
    Alcotest.failf "expected fault, got %s"
      (Format.asprintf "%a" Task.pp_status other)

let test_on_access_hook () =
  let arch = arch_of simple_loop in
  let live_in = Fragment.of_list [ (t0_cell, 1); (t1_cell, 0) ] in
  let task = make_task ~live_in ~end_pc:None () in
  let touched = ref [] in
  let on_access a = touched := a :: !touched in
  ignore (Task.run ~on_access task (fallback arch) : Task.status);
  (* every instruction fetch is a memory access *)
  check "fetches observed" true (List.mem head !touched)

let test_live_in_size_counts_reads_only () =
  let arch = arch_of simple_loop in
  let live_in =
    Fragment.of_list
      [ (t0_cell, 1); (t1_cell, 0); (Cell.Reg t5, 99) (* never read *) ]
  in
  let task = make_task ~live_in ~end_pc:None () in
  ignore (Task.run task (fallback arch) : Task.status);
  check "unread live-in not recorded" false (Journal.mem task.Task.reads (Cell.Reg t5));
  check "live_in_size = recorded" true
    (Task.live_in_size task = Journal.cardinal task.Task.reads)

(* --- the live-in read in place: PC and registers off the checkpoint's
   flat array, memory probed in its shared fragment --- *)

(* a checkpoint built like the master's: PC, every register, and [n]
   dirty memory words *)
let checkpoint_with_mem n =
  let s = Full.create () in
  List.iter (fun r -> Full.set_reg s r (Mssp_isa.Reg.to_int r)) Mssp_isa.Reg.all;
  let mem = ref Fragment.empty in
  for a = 0 to n - 1 do
    mem := Fragment.add (Cell.mem (0x10000 + (3 * a))) a !mem
  done;
  Live_in.of_state ~pc:head s !mem

let minor_words_of_make ?reads ?writes live_in =
  let reps = 20 in
  let before = Gc.minor_words () in
  for _ = 1 to reps do
    ignore
      (Sys.opaque_identity
         (Task.make ?reads ?writes ~id:0 ~start_pc:head ~end_pc:None
            ~end_occurrence:1 ~budget:1000 ~live_in ()))
  done;
  (Gc.minor_words () -. before) /. float_of_int reps

let test_make_cost_independent_of_live_in_memory () =
  let small = checkpoint_with_mem 16 and big = checkpoint_with_mem 4096 in
  let w_small = minor_words_of_make small and w_big = minor_words_of_make big in
  if w_big > w_small +. 64. then
    Alcotest.failf
      "Task.make: %.0f minor words at 4096 memory cells, %.0f at 16" w_big
      w_small;
  check "the checkpoint is kept by reference" true
    ((Task.make ~id:0 ~start_pc:head ~end_pc:None ~end_occurrence:1
        ~budget:1000 ~live_in:big ())
       .Task.live_in == big)

(* On recycled journals (the machine's free list), making a task is the
   task record and nothing else, however large the checkpoint: the
   journals keep the arrays an earlier task grew, so none is
   reallocated. *)
let test_make_on_recycled_journals () =
  let arch = arch_of simple_loop in
  let reads = Journal.create () and writes = Journal.create () in
  let warm =
    Task.make ~reads ~writes ~id:0 ~start_pc:head ~end_pc:None
      ~end_occurrence:1 ~budget:1000
      ~live_in:(Live_in.of_fragment (Fragment.of_list [ (t0_cell, 40) ]))
      ()
  in
  ignore (Task.run warm (fallback arch) : Task.status);
  Journal.clear reads;
  Journal.clear writes;
  List.iter
    (fun n ->
      let w = minor_words_of_make ~reads ~writes (checkpoint_with_mem n) in
      if w > 24. then
        Alcotest.failf
          "Task.make on recycled journals: %.1f minor words at %d memory cells"
          w n)
    [ 16; 4096 ]

(* A warm block-journaled run allocates no more than one minor word per
   retired instruction, journal construction aside: the block rung
   builds no closures and boxes no cells, and probes, first-read staging
   and buffered stores go straight into flat journal arrays. The body
   loops over loads, ALU work and a store, on a persistent engine whose
   blocks an earlier run built; the measured task records into that
   run's journals, cleared, as the machine recycles them. *)
let looping_body =
  build (fun b ->
      let buf = Dsl.alloc b 48 in
      Dsl.li b t0 40;
      Dsl.label b "loop";
      for k = 0 to 7 do
        Dsl.ld b t1 t0 (buf + k);
        Dsl.alui b Instr.Add t1 t1 3;
        Dsl.alu b Instr.Add t2 t2 t1
      done;
      Dsl.st b t2 t0 buf;
      Dsl.alui b Instr.Sub t0 t0 1;
      Dsl.br b Instr.Gt t0 zero "loop";
      Dsl.halt b)

let test_warm_run_allocation () =
  let arch = arch_of looping_body in
  let view = fallback arch in
  let engine =
    Mssp_seq.Sblock.Spec.create ~decode:Mssp_seq.Exec.default_decode ()
  in
  let accesses = ref 0 in
  let on_access _ = incr accesses in
  let fresh ?reads ?writes () =
    Task.make ?reads ?writes ~id:0
      ~start_pc:looping_body.Mssp_isa.Program.entry ~end_pc:None
      ~end_occurrence:1 ~budget:100_000 ~live_in:Live_in.empty ()
  in
  let warm = fresh () in
  ignore (Task.run ~on_access ~engine warm view : Task.status);
  Journal.clear warm.Task.reads;
  Journal.clear warm.Task.writes;
  let task = fresh ~reads:warm.Task.reads ~writes:warm.Task.writes () in
  let before = Gc.minor_words () in
  let status = Task.run ~on_access ~engine task view in
  let words = Gc.minor_words () -. before in
  check "halts" true (status = Task.Complete Task.Program_halted);
  check "retires at least 1000 instructions" true (task.Task.executed >= 1000);
  let per_instr = words /. float_of_int task.Task.executed in
  if per_instr > 1.0 then
    Alcotest.failf
      "warm Task.run: %.0f minor words over %d instructions (%.2f/instr)"
      words task.Task.executed per_instr

let arbitrary_checkpoint_and_probes =
  let open QCheck.Gen in
  let reg = map (fun i -> Cell.Reg (Mssp_isa.Reg.of_int (1 + (i mod 31)))) nat in
  let addr = map (fun a -> 100 + (a mod 40)) nat in
  let cell =
    frequency
      [ (1, return Cell.Pc); (3, reg); (6, map Cell.mem addr) ]
  in
  (* probes reach below, inside and above the bound memory span *)
  let probe =
    frequency
      [
        (1, return Cell.Pc);
        (3, reg);
        (6, map (fun a -> Cell.mem (a mod 160)) nat);
        (1, map Cell.mem int);
      ]
  in
  QCheck.make
    ~print:(fun (bs, ps) ->
      Printf.sprintf "live-in {%s} probes [%s]"
        (String.concat "; "
           (List.map (fun (c, v) -> Format.asprintf "%a=%d" Cell.pp c v) bs))
        (String.concat "; " (List.map Cell.show ps)))
    (pair
       (list_size (int_bound 24) (pair cell (int_bound 9)))
       (list_size (int_bound 40) probe))

let prop_live_in_view_matches_fragment =
  QCheck.Test.make ~name:"layered live-in view = Fragment.find_opt" ~count:500
    arbitrary_checkpoint_and_probes (fun (bindings, probes) ->
      let live_in = Fragment.of_list bindings in
      let task = make_task ~live_in ~end_pc:None () in
      let checkpoint =
        if Fragment.mem Cell.Pc live_in then live_in
        else Fragment.add Cell.Pc head live_in
      in
      let agrees c = Live_in.find task.Task.live_in c = Fragment.find_opt c checkpoint in
      List.for_all agrees probes
      && List.for_all (fun (c, _) -> agrees c) (Fragment.to_list checkpoint))

(* --- journal <-> fragment agreement: the flat buffers are a faithful
   representation of the fragments they replace --- *)

let arbitrary_bindings : (Cell.t * int) list QCheck.arbitrary =
  let open QCheck.Gen in
  let cell =
    frequency
      [
        (1, return Cell.Pc);
        (3, map (fun i -> Cell.Reg (Mssp_isa.Reg.of_int (1 + (i mod 31)))) nat);
        (6, map (fun a -> Cell.mem (a mod 16)) nat);
      ]
  in
  QCheck.make
    ~print:(fun bs ->
      String.concat "; "
        (List.map
           (fun (c, v) -> Format.asprintf "%a=%d" Cell.pp c v)
           bs))
    (list_size (int_bound 12) (pair cell (int_bound 9)))

let prop_journal_fragment_round_trip =
  QCheck.Test.make ~name:"journal round-trips fragments" ~count:500
    arbitrary_bindings
    (fun bindings ->
      let f = Fragment.of_list bindings in
      let j = Journal.create () in
      Fragment.iter (Journal.set j) f;
      Fragment.equal (Journal.to_fragment j) f)

let prop_journal_set_find_matches_fragment =
  QCheck.Test.make
    ~name:"journal set/find = fragment add/find over random writes" ~count:500
    arbitrary_bindings
    (fun bindings ->
      let j = Journal.create () in
      let f =
        List.fold_left
          (fun f (c, v) ->
            Journal.set j c v;
            Fragment.add c v f)
          Fragment.empty bindings
      in
      Journal.cardinal j = Fragment.cardinal f
      && List.for_all
           (fun (c, v) -> Journal.find j c = Some v)
           (Fragment.to_list f)
      && Journal.for_all (fun c v -> Fragment.find_opt c f = Some v) j
      && Journal.for_all_mem
           (fun a v -> Fragment.find_opt (Cell.mem a) f = Some v)
           j)

(* --- the open-addressed memory index against a Fragment model: random
   bind / stage / probe sequences long enough to grow the log past four
   doublings, over addresses that are negative, beyond the 16M-word
   paged span, and rebound, from capacity hints that are mostly not
   powers of two; now and then the journal is cleared and reused, and
   must then behave like a fresh one --- *)

type journal_op =
  | Set_mem of int * int
  | Record_mem of int * int
  | Find of int
  | Clear

let arbitrary_journal_run =
  let open QCheck.Gen in
  (* a pool of ~500 distinct addresses: dense small ones (rebinding),
     negatives, and addresses past the paged span up to [max_int] *)
  let addr =
    frequency
      [
        (4, int_bound 255);
        (2, map (fun a -> -1 - a) (int_bound 99));
        (2, map (fun a -> (1 lsl 24) + (a * 4099)) (int_bound 99));
        (1, oneofl [ max_int; min_int; 1 lsl 24; (1 lsl 24) - 1; -(1 lsl 24) ]);
      ]
  in
  let op =
    frequency
      [
        (120, map2 (fun a v -> Set_mem (a, v)) addr small_int);
        (120, map2 (fun a v -> Record_mem (a, v)) addr small_int);
        (80, map (fun a -> Find a) addr);
        (1, return Clear);
      ]
  in
  let show = function
    | Set_mem (a, v) -> Printf.sprintf "set %d %d" a v
    | Record_mem (a, v) -> Printf.sprintf "record %d %d" a v
    | Find a -> Printf.sprintf "find %d" a
    | Clear -> "clear"
  in
  QCheck.make
    ~print:(fun (hint, ops) ->
      Printf.sprintf "mem_size %s: %s"
        (match hint with Some n -> string_of_int n | None -> "default")
        (String.concat "; " (List.map show ops)))
    (pair (opt (int_bound 300)) (list_size (int_range 0 1200) op))

let prop_journal_memory_matches_model =
  QCheck.Test.make
    ~name:"journal memory = fragment model (growth, rebinding, order)"
    ~count:200 arbitrary_journal_run (fun (mem_size, ops) ->
      let j = Journal.create ?mem_size () in
      (* the model: values in a fragment, first-binding order in a list;
         and a fresh journal given the operations since the last clear *)
      let model = ref Fragment.empty and order = ref [] in
      let fresh = ref (Journal.create ?mem_size ()) in
      let bind a v ~first_wins =
        let c = Cell.mem a in
        if not (Fragment.mem c !model) then begin
          order := a :: !order;
          model := Fragment.add c v !model
        end
        else if not first_wins then model := Fragment.add c v !model
      in
      let probe_ok a =
        let expected = Fragment.find_opt (Cell.mem a) !model in
        Journal.find_mem j a = expected
        &&
        let p = Journal.mem_pos j a in
        match expected with
        | None -> p = -1
        | Some v -> p >= 0 && Journal.mem_value j p = v
      in
      let steps_ok =
        List.for_all
          (function
            | Set_mem (a, v) ->
              Journal.set_mem j a v;
              Journal.set_mem !fresh a v;
              bind a v ~first_wins:false;
              probe_ok a
            | Record_mem (a, v) ->
              Journal.record_mem j a v;
              Journal.record_mem !fresh a v;
              bind a v ~first_wins:true;
              probe_ok a
            | Find a -> probe_ok a
            | Clear ->
              Journal.clear j;
              fresh := Journal.create ?mem_size ();
              model := Fragment.empty;
              order := [];
              Journal.mem_count j = 0 && Journal.cardinal j = 0)
          ops
      in
      let expected =
        List.rev_map
          (fun a -> (a, Option.get (Fragment.find_opt (Cell.mem a) !model)))
          !order
      in
      let walk j =
        let walked = ref [] in
        Journal.iter_mem (fun a v -> walked := (a, v) :: !walked) j;
        List.rev !walked
      in
      let lo = List.fold_left (fun m (a, _) -> min m a) max_int expected
      and hi = List.fold_left (fun m (a, _) -> max m a) min_int expected in
      steps_ok
      && walk j = expected
      && walk !fresh = expected
      && Journal.mem_count j = List.length expected
      && Journal.cardinal j = List.length expected
      && Journal.for_all_mem
           (fun a v -> Fragment.find_opt (Cell.mem a) !model = Some v)
           j
      && List.for_all (fun (a, _) -> probe_ok a) expected
      && (expected = [] || not (Journal.mem_avoids j ~lo ~hi))
      && (hi = max_int || Journal.mem_avoids j ~lo:(hi + 1) ~hi:max_int))

(* the verification check walks the reads journal's own layout; it must
   answer exactly what a cell-by-cell walk answers, and agree with the
   mismatch witness, whichever recorded live-in architected state
   contradicts *)
let prop_live_ins_consistent_matches_cell_walk =
  QCheck.Test.make ~name:"live_ins_consistent = cell walk = no witness"
    ~count:200
    QCheck.(triple small_nat (int_range 1 200) small_nat)
    (fun (seed, budget, pick) ->
      let p = Mssp_fuzz.Gen.generate ~seed ~size:6 () in
      let arch = arch_of p in
      let task =
        Task.make ~id:0 ~start_pc:p.Mssp_isa.Program.entry ~end_pc:None
          ~end_occurrence:1 ~budget ~live_in:Live_in.empty ()
      in
      ignore (Task.run task (fallback arch) : Task.status);
      let agrees () =
        let walk = Journal.for_all (fun c v -> Full.get arch c = v) task.Task.reads in
        Task.live_ins_consistent task arch = walk
        && (Task.first_inconsistent task arch = None) = walk
      in
      let reads = Fragment.to_list (Task.reads_fragment task) in
      agrees ()
      && (reads = []
         ||
         let c, v = List.nth reads (pick mod List.length reads) in
         Full.set arch c (v + 1);
         agrees () && not (Task.live_ins_consistent task arch)))

(* --- cross-validation: the simulator task against the formal task
   tuples — both must compute seq on the live-ins --- *)

let prop_task_matches_abstract_evolution =
  QCheck.Test.make
    ~name:"simulator task = abstract task evolution (isolated, full live-in)"
    ~count:25
    QCheck.(pair small_nat (int_range 1 25))
    (fun (seed, n) ->
      let module Abstract_task = Mssp_formal.Abstract_task in
      let module Seq_model = Mssp_formal.Seq_model in
      let p = Mssp_workload.Synthetic.generate ~seed ~size:5 in
      let live_in = Seq_model.complete_of_program p in
      (* run the simulator task for exactly n instructions *)
      let task =
        Task.make ~id:0
          ~start_pc:(Option.get (Fragment.pc live_in))
          ~end_pc:None ~end_occurrence:1 ~budget:n
          ~live_in:(Live_in.of_fragment live_in) ()
      in
      let status = Task.run task Task.Isolated in
      let sim_result = Fragment.superimpose live_in (Task.writes_fragment task) in
      (* the abstract task evolves the same live-in by the same count *)
      let abstract =
        Abstract_task.evolve_fully (Abstract_task.make live_in task.Task.executed)
      in
      (match status with
      | Task.Failed Task.Budget_exhausted | Task.Complete Task.Program_halted ->
        true
      | _ -> false)
      && Fragment.equal sim_result abstract.Abstract_task.live_out)

let () =
  Alcotest.run "task"
    [
      ( "completion",
        [
          Alcotest.test_case "runs to halt" `Quick test_runs_to_halt;
          Alcotest.test_case "first occurrence" `Quick test_boundary_first_occurrence;
          Alcotest.test_case "k-th occurrence" `Quick test_boundary_kth_occurrence;
          Alcotest.test_case "budget" `Quick test_budget_exhaustion;
        ] );
      ( "views",
        [
          Alcotest.test_case "resolution order" `Quick test_read_resolution_order;
          Alcotest.test_case "fallback recording" `Quick test_records_fallback_reads;
          Alcotest.test_case "isolated zero reads" `Quick
            test_isolated_missing_memory_reads_zero;
          Alcotest.test_case "I/O refusal" `Quick test_io_refusal;
          Alcotest.test_case "fault" `Quick test_fault_reported;
          Alcotest.test_case "on_access hook" `Quick test_on_access_hook;
          Alcotest.test_case "live-in accounting" `Quick
            test_live_in_size_counts_reads_only;
          Mssp_testkit.to_alcotest prop_task_matches_abstract_evolution;
        ] );
      ( "live-in",
        [
          Alcotest.test_case "make cost independent of live-in memory" `Quick
            test_make_cost_independent_of_live_in_memory;
          Mssp_testkit.to_alcotest prop_live_in_view_matches_fragment;
          Alcotest.test_case "warm run allocation per instruction" `Quick
            test_warm_run_allocation;
          Alcotest.test_case "make on recycled journals allocates the record"
            `Quick test_make_on_recycled_journals;
        ] );
      ( "journal",
        [
          Mssp_testkit.to_alcotest prop_journal_fragment_round_trip;
          Mssp_testkit.to_alcotest prop_journal_set_find_matches_fragment;
          Mssp_testkit.to_alcotest prop_live_ins_consistent_matches_cell_walk;
          Mssp_testkit.to_alcotest prop_journal_memory_matches_model;
        ] );
    ]
