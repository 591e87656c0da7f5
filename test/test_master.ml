(* Differential tests for the master's fast path ([Mssp_core.Master])
   against a reference master built from the one executor, plus an
   allocation bound on its step.

   The reference is the master as it stepped before it had a fast path:
   [Exec.step_with] with read/write closures that charge a fresh cache
   hierarchy on every memory access and add every store to a persistent
   dirty fragment. Both masters start from the same architected state
   and step in lock step. At every step they must agree on the whole
   observable state, the cycle cost and the outcome (cost, fork entry or
   death); at every fork their dirty sets and checkpoints must be equal. *)

module Cell = Mssp_state.Cell
module Fragment = Mssp_state.Fragment
module Full = Mssp_state.Full
module Instr = Mssp_isa.Instr
module Layout = Mssp_isa.Layout
module Program = Mssp_isa.Program
module Reg = Mssp_isa.Reg
module Exec = Mssp_seq.Exec
module Hierarchy = Mssp_cache.Cache.Hierarchy
module Profile = Mssp_profile.Profile
module Distill = Mssp_distill.Distill
module Config = Mssp_core.Mssp_config
module Master = Mssp_core.Master
module W = Mssp_workload.Workload
module Adversary = Mssp_workload.Adversary
module Dsl = Mssp_asm.Dsl
module Gen = Mssp_fuzz.Gen
open Mssp_asm.Regs

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let timing = Config.default.Config.timing
let fresh_cache () = Hierarchy.make ~l1:timing.Config.l1 ~lat:timing.Config.lat ()

let arch_of (d : Distill.t) =
  let s = Full.create () in
  Full.load s d.Distill.original;
  Full.load ~set_entry:false s d.Distill.distilled;
  s

let images (d : Distill.t) =
  Program.image_decoder
    [ Program.decode_all d.Distill.distilled; Program.decode_all d.Distill.original ]

(* --- the reference master ---------------------------------------------- *)

type reference = {
  r_state : Full.t;
  mutable r_dirty : Fragment.t;
  r_cache : Hierarchy.t;
  r_map : (int, int) Hashtbl.t;
}

let reference (d : Distill.t) arch =
  let r_state = Full.copy arch in
  Full.set_pc r_state d.Distill.distilled.Program.entry;
  { r_state; r_dirty = Fragment.empty; r_cache = fresh_cache (); r_map = d.Distill.pc_map }

type outcome = Cost of int | Fork of int | Dead

let pp_outcome = function
  | Cost c -> Printf.sprintf "cost %d" c
  | Fork e -> Printf.sprintf "fork %#x" e
  | Dead -> "dead"

let reference_step r =
  let s = r.r_state in
  let pc =
    match Hashtbl.find_opt r.r_map (Full.pc s) with
    | Some dpc ->
      Full.set_pc s dpc;
      dpc
    | None -> Full.pc s
  in
  match Instr.decode (Full.get_mem s pc) with
  | None | Some Instr.Halt -> Dead
  | Some (Instr.Fork e) -> Fork e
  | Some _ -> (
    let cost = ref timing.Config.master_base in
    let charge = function
      | Cell.Mem a -> cost := !cost + Hierarchy.access r.r_cache a
      | Cell.Pc | Cell.Reg _ -> ()
    in
    let read c =
      charge c;
      Some (Full.get s c)
    in
    let write c v =
      charge c;
      if Cell.is_mem c then r.r_dirty <- Fragment.add c v r.r_dirty;
      Full.set s c v
    in
    match Exec.step_with ~decode:Exec.default_decode ~read ~write with
    | Exec.Stepped -> Cost !cost
    | Exec.Halted | Exec.Fault _ -> Dead
    | Exec.Missing _ -> assert false)

let reference_checkpoint (config : Config.t) r e =
  if config.Config.control_only_master then Fragment.singleton Cell.Pc e
  else if config.Config.isolated_slaves then
    Fragment.add Cell.Pc e (Full.snapshot r.r_state)
  else begin
    let f = ref (Fragment.add Cell.Pc e r.r_dirty) in
    List.iter
      (fun reg ->
        match Cell.reg reg with
        | Some c -> f := Fragment.add c (Full.get r.r_state c) !f
        | None -> ())
      Reg.all;
    !f
  end

let fast_outcome m =
  let c = Master.step m in
  if c >= 0 then Cost c
  else if c = Master.fork then Fork (Master.fork_entry m)
  else if c = Master.dead then Dead
  else Alcotest.failf "step returned the unknown code %d" c

(* Step both masters in lock step for up to [steps] instructions; [Error]
   names the first divergence. *)
let lock_step ?(config = Config.default) ?(steps = 4_000) (d : Distill.t) =
  let arch = arch_of d in
  let m = Master.create ~config ~cache:(fresh_cache ()) ~decode:(images d) d arch in
  let r = reference d arch in
  let carries_dirty =
    not (config.Config.control_only_master || config.Config.isolated_slaves)
  in
  let rec go k forks =
    if k = steps then Ok forks
    else
      let expected = reference_step r and got = fast_outcome m in
      if expected <> got then
        Error
          (Printf.sprintf "step %d: reference %s, fast %s" k
             (pp_outcome expected) (pp_outcome got))
      else if not (Full.equal_observable r.r_state (Master.state m)) then
        Error (Printf.sprintf "step %d: states differ" k)
      else
        match got with
        | Dead -> Ok forks
        | Cost _ -> go (k + 1) forks
        | Fork e ->
          let live_in = Master.checkpoint m e in
          if carries_dirty && not (Fragment.equal r.r_dirty (Master.dirty m)) then
            Error (Printf.sprintf "fork %d (step %d): dirty sets differ" forks k)
          else if
            not
              (Fragment.equal (reference_checkpoint config r e)
                 (Mssp_state.Live_in.to_fragment live_in))
          then
            Error (Printf.sprintf "fork %d (step %d): checkpoints differ" forks k)
          else begin
            Full.set_pc r.r_state (Full.pc r.r_state + 1);
            Full.set_pc (Master.state m) (Full.pc (Master.state m) + 1);
            go (k + 1) (forks + 1)
          end
  in
  go 0 0

let expect_agree ?config ?steps name d =
  match lock_step ?config ?steps d with
  | Ok _ -> ()
  | Error why -> Alcotest.failf "%s: %s" name why

let distill_of p = Distill.distill p (Profile.collect p)

(* --- programs ------------------------------------------------------------ *)

let kernel name =
  let b = W.find name in
  distill_of (b.W.program ~size:b.W.train_size)

(* a hand-built package: [original] with the given distilled code and PC
   map, like the adversarial packages *)
let package ?(pc_map = []) original distilled =
  let d = Adversary.package original distilled in
  List.iter (fun (k, v) -> Hashtbl.replace d.Distill.pc_map k v) pc_map;
  d

let tiny_original =
  let b = Dsl.create () in
  Dsl.li b t0 3;
  Dsl.label b "back";
  Dsl.alui b Instr.Sub t0 t0 1;
  Dsl.halt b;
  Dsl.build b ()

(* the master patches an instruction of its own code, then executes the
   patched word: the image's word check must send it to the fallback
   decoder *)
let self_modifying =
  let b = Dsl.create ~base:Layout.distilled_base () in
  Dsl.raw b (Instr.Fork tiny_original.Program.entry);
  Dsl.li b t1 (Instr.encode (Instr.Li (t2, 77)));
  Dsl.la b t3 "patch";
  Dsl.st b t1 t3 0;
  Dsl.label b "patch";
  Dsl.nop b;
  Dsl.out b t2;
  Dsl.raw b (Instr.Fork tiny_original.Program.entry);
  Dsl.alui b Instr.Add t2 t2 1;
  Dsl.st b t2 gp 0;
  Dsl.st b t2 gp 0;
  Dsl.st b t2 gp 1;
  Dsl.raw b (Instr.Fork tiny_original.Program.entry);
  Dsl.halt b;
  package tiny_original (Dsl.build b ())

(* a return into original code: [jr] lands on an original address the PC
   map sends back into distilled code; a second key lies outside the
   original image and must still resolve *)
let redirecting =
  let back = Program.symbol tiny_original "back" in
  let outside = Layout.heap_base + 5 in
  let b = Dsl.create ~base:Layout.distilled_base () in
  Dsl.raw b (Instr.Fork tiny_original.Program.entry);
  Dsl.li b t4 back;
  Dsl.jr b t4;
  Dsl.halt b;
  Dsl.label b "resume";
  Dsl.out b t4;
  Dsl.li b t4 outside;
  Dsl.jr b t4;
  Dsl.halt b;
  Dsl.label b "far";
  Dsl.out b t4;
  Dsl.raw b (Instr.Fork back);
  Dsl.halt b;
  let distilled = Dsl.build b () in
  package tiny_original distilled
    ~pc_map:
      [
        (back, Program.symbol distilled "resume");
        (outside, Program.symbol distilled "far");
      ]

(* store-free, fork-free, endless: loads, ALU and branches only *)
let store_free =
  let b = Dsl.create ~base:Layout.distilled_base () in
  Dsl.li b t0 0;
  Dsl.label b "loop";
  Dsl.ld b t1 gp 3;
  Dsl.alu b Instr.Add t2 t2 t1;
  Dsl.alui b Instr.Add t0 t0 1;
  Dsl.alui b Instr.And t3 t0 7;
  Dsl.br b Instr.Ne t3 zero "loop";
  Dsl.jmp b "loop";
  package tiny_original (Dsl.build b ())

(* [n] stores to distinct words, then a fork marker forever *)
let storing n =
  let b = Dsl.create ~base:Layout.distilled_base () in
  Dsl.li b t0 n;
  Dsl.label b "store";
  Dsl.alu b Instr.Add t1 gp t0;
  Dsl.st b t0 t1 0;
  Dsl.alui b Instr.Sub t0 t0 1;
  Dsl.br b Instr.Gt t0 zero "store";
  Dsl.label b "fork";
  Dsl.raw b (Instr.Fork tiny_original.Program.entry);
  Dsl.jmp b "fork";
  package tiny_original (Dsl.build b ())

(* --- tests --------------------------------------------------------------- *)

let prop_fuzz =
  QCheck.Test.make ~name:"master = Exec reference on fuzz programs" ~count:40
    QCheck.(pair small_nat bool)
    (fun (seed, smc) ->
      let weights = if smc then Gen.smc_heavy else Gen.default_weights in
      let p = Gen.generate ~weights ~seed ~size:12 () in
      match lock_step (distill_of p) with
      | Ok _ -> true
      | Error why -> QCheck.Test.fail_report why)

let test_kernels () =
  List.iter
    (fun name ->
      match lock_step ~steps:20_000 (kernel name) with
      | Ok forks -> check (name ^ " forks") true (forks > 0)
      | Error why -> Alcotest.failf "%s: %s" name why)
    [ "qsort"; "treesum" ]

let test_self_modifying () =
  match lock_step self_modifying with
  | Ok forks -> check_int "forks" 3 forks
  | Error why -> Alcotest.fail why

let test_redirect () =
  (match lock_step redirecting with
  | Ok forks -> check_int "forks" 2 forks
  | Error why -> Alcotest.fail why);
  (* and the redirect really happened: the master reached "far" *)
  let d = redirecting in
  let m =
    Master.create ~config:Config.default ~cache:(fresh_cache ()) ~decode:(images d)
      d (arch_of d)
  in
  let rec skip_forks () =
    let c = Master.step m in
    if c = Master.fork then begin
      Full.set_pc (Master.state m) (Full.pc (Master.state m) + 1);
      skip_forks ()
    end
    else if c <> Master.dead then skip_forks ()
  in
  skip_forks ();
  check_int "two outputs" 2
    (Full.get_mem (Master.state m) Layout.out_count_addr)

let test_adversaries () =
  let p = (W.find "vecsum").W.program ~size:40 in
  let honest = distill_of p in
  List.iter
    (fun (name, d) -> expect_agree name d)
    (("amnesiac", Adversary.amnesiac honest) :: Adversary.all p)

let test_modes () =
  (* the other checkpoint shapes agree too, and buffer nothing *)
  let d = kernel "qsort" in
  List.iter
    (fun (name, config) ->
      expect_agree ~config ~steps:3_000 name d;
      let m =
        Master.create ~config ~cache:(fresh_cache ()) ~decode:(images d) d (arch_of d)
      in
      for _ = 1 to 3_000 do
        if Master.step m = Master.fork then
          Full.set_pc (Master.state m) (Full.pc (Master.state m) + 1)
      done;
      check_int (name ^ ": nothing buffered") 0 (Master.buffered m))
    [
      ("control-only", { Config.default with Config.control_only_master = true });
      ("isolated", { Config.default with Config.isolated_slaves = true });
    ]

let test_buffer_folds () =
  let d = self_modifying in
  let m =
    Master.create ~config:Config.default ~cache:(fresh_cache ()) ~decode:(images d)
      d (arch_of d)
  in
  let rec to_fork () = if Master.step m <> Master.fork then to_fork () in
  let advance () = Full.set_pc (Master.state m) (Full.pc (Master.state m) + 1) in
  to_fork ();
  advance ();
  to_fork ();
  (* the patch store, then the two output words: three addresses *)
  check_int "buffered before the checkpoint" 3 (Master.buffered m);
  check "dirty untouched between forks" true (Fragment.is_empty (Master.dirty m));
  ignore (Master.checkpoint m (Master.fork_entry m) : Mssp_state.Live_in.t);
  check_int "folded at the checkpoint" 0 (Master.buffered m);
  check_int "dirty holds them" 3 (Fragment.cardinal (Master.dirty m));
  Master.reseed m (arch_of d) ~pc:d.Distill.distilled.Program.entry;
  check "reseed drops the dirty set" true (Fragment.is_empty (Master.dirty m))

let test_allocation () =
  let d = store_free in
  let m =
    Master.create ~config:Config.default ~cache:(fresh_cache ()) ~decode:(images d)
      d (arch_of d)
  in
  (* warm: the first steps may populate lazily built tables *)
  for _ = 1 to 100 do
    ignore (Master.step m : int)
  done;
  let before = Gc.minor_words () in
  for _ = 1 to 10_000 do
    ignore (Master.step m : int)
  done;
  let words = Gc.minor_words () -. before in
  if words > 64. then
    Alcotest.failf "10,000 store-free master steps allocated %.0f minor words"
      words

(* A checkpoint is the PC, one copy of the register file and the dirty
   set by reference: once the stores are folded, building one costs the
   same handful of words over 16 dirty cells as over 4,096. *)
let checkpoint_words n =
  let d = storing n in
  let m =
    Master.create ~config:Config.default ~cache:(fresh_cache ()) ~decode:(images d)
      d (arch_of d)
  in
  let rec to_fork () = if Master.step m <> Master.fork then to_fork () in
  to_fork ();
  let e = Master.fork_entry m in
  ignore (Master.checkpoint m e : Mssp_state.Live_in.t);
  check_int "stores folded into the dirty set" n (Fragment.cardinal (Master.dirty m));
  let reps = 20 in
  let before = Gc.minor_words () in
  for _ = 1 to reps do
    ignore (Sys.opaque_identity (Master.checkpoint m e))
  done;
  (Gc.minor_words () -. before) /. float_of_int reps

let test_checkpoint_allocation () =
  let small = checkpoint_words 16 and big = checkpoint_words 4096 in
  if small <> big || big > 64. then
    Alcotest.failf
      "Master.checkpoint: %.1f minor words over 16 dirty cells, %.1f over 4096"
      small big

let () =
  Alcotest.run "master"
    [
      ( "differential",
        [
          Mssp_testkit.to_alcotest prop_fuzz;
          Alcotest.test_case "E1 kernels" `Quick test_kernels;
          Alcotest.test_case "self-modifying master" `Quick test_self_modifying;
          Alcotest.test_case "PC-map redirect" `Quick test_redirect;
          Alcotest.test_case "adversarial packages" `Quick test_adversaries;
          Alcotest.test_case "control-only and isolated" `Quick test_modes;
        ] );
      ( "store buffer",
        [ Alcotest.test_case "folds at checkpoints" `Quick test_buffer_folds ] );
      ( "allocation",
        [
          Alcotest.test_case "store-free steps allocate nothing" `Quick test_allocation;
          Alcotest.test_case "checkpoints cost the same at any dirty size" `Quick
            test_checkpoint_allocation;
        ] );
    ]
