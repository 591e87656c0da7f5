(* Live-in value prediction: unit laws for the three predictor
   components and the tournament (stride locks onto affine streams in
   <= 3 observations; the finite-context table round-trips its history
   window; the tournament never picks a lower-confidence component; the
   master is the incumbent — refine cannot override a cell the master
   keeps predicting correctly), QCheck properties replayable under
   QCHECK_SEED, the differential suite (every workload kernel x every
   predictor mode must land bit-identical on the SEQ state — prediction
   only moves squash rates), and the mutation smoke test: a deliberately
   Broken predictor (stale values, inflated confidence) is absorbed, not
   a divergence — the detection signal is the squash-rate inflation the
   absorbability oracle reports. *)

module Full = Mssp_state.Full
module Fragment = Mssp_state.Fragment
module Cell = Mssp_state.Cell
module Profile = Mssp_profile.Profile
module Distill = Mssp_distill.Distill
module M = Mssp_core.Mssp_machine
module Config = Mssp_core.Mssp_config
module B = Mssp_baseline.Baseline
module W = Mssp_workload.Workload
module Predict = Mssp_predict.Predict
module Live_in = Mssp_state.Live_in

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let cell = Cell.Mem 0x4242

let observe_all t c values = List.iter (Predict.observe t c) values

(* [Predict.refine] on a fragment's flat form, read back as a fragment *)
let refine_fragment t frag =
  Live_in.to_fragment (Predict.refine t (Live_in.of_fragment frag))

let component_prediction t c name =
  let rec find = function
    | [] -> None
    | (n, p, _) :: tl -> if String.equal n name then p else find tl
  in
  find (Predict.components t c)

(* --- component laws --------------------------------------------------- *)

let test_stride_locks_in_three () =
  let t = Predict.create Predict.Stride in
  observe_all t cell [ 10; 13; 16 ];
  Alcotest.(check (option int))
    "affine stream locked after 3 observations" (Some 19)
    (component_prediction t cell "stride");
  (* confidence follows: after enough confirmed hits the mode-level
     prediction clears the override threshold too *)
  observe_all t cell [ 19; 22; 25 ];
  Alcotest.(check (option int)) "confident prediction" (Some 28)
    (Predict.predict t cell);
  check "threshold cleared" true
    (Predict.confidence t cell "stride" >= Predict.conf_threshold)

let test_context_round_trips_window () =
  let t = Predict.create Predict.Context in
  let w = Predict.history_window in
  check_int "window is 4 (test data assumes it)" 4 w;
  (* learn [1;2;3;4] -> 9, then roll the history back to [1;2;3;4] *)
  observe_all t cell [ 1; 2; 3; 4; 9; 1; 2; 3 ];
  observe_all t cell [ 4 ];
  Alcotest.(check (option int))
    "the recorded follower of the current window" (Some 9)
    (component_prediction t cell "context")

let test_last_value () =
  let t = Predict.create Predict.Last_value in
  observe_all t cell [ 7 ];
  Alcotest.(check (option int)) "predicts the last observation" (Some 7)
    (component_prediction t cell "last-value");
  observe_all t cell [ 7; 7; 7; 7 ];
  Alcotest.(check (option int)) "confident after repeats" (Some 7)
    (Predict.predict t cell)

(* --- tournament laws -------------------------------------------------- *)

(* a constant stream trains every component to the same answer at the
   same confidence: whoever the seeded tie-break picks, the pick's
   confidence must be maximal among threshold-clearing components *)
let chosen_confidence_is_maximal t c =
  match Predict.chosen t c with
  | None -> true
  | Some name ->
    let conf = Predict.confidence t c name in
    List.for_all
      (fun (_, p, cf) ->
        match p with
        | None -> true
        | Some _ -> cf < Predict.conf_threshold || cf <= conf)
      (Predict.components t c)

let test_tournament_never_picks_lower_confidence () =
  let t = Predict.create Predict.Tournament in
  (* stride-friendly: stride should out-rank last-value *)
  observe_all t cell [ 10; 13; 16; 19; 22; 25; 28; 31 ];
  check "a pick exists" true (Predict.chosen t cell <> None);
  check "pick confidence maximal" true (chosen_confidence_is_maximal t cell);
  Alcotest.(check (option string)) "stride wins an affine stream"
    (Some "stride") (Predict.chosen t cell)

let prop_tournament_maximal =
  QCheck.Test.make ~name:"tournament never picks lower confidence" ~count:200
    QCheck.(list_of_size (Gen.int_range 0 40) (int_range (-8) 8))
    (fun values ->
      let t = Predict.create Predict.Tournament in
      observe_all t cell values;
      chosen_confidence_is_maximal t cell)

let prop_deterministic =
  QCheck.Test.make
    ~name:"same seed + same observations => identical predictions"
    ~count:100
    QCheck.(pair small_nat (list_of_size (Gen.int_range 0 30) small_int))
    (fun (seed, values) ->
      let mk () =
        let t = Predict.create ~seed Predict.Tournament in
        observe_all t cell values;
        t
      in
      let a = mk () and b = mk () in
      Predict.predict a cell = Predict.predict b cell
      && Predict.chosen a cell = Predict.chosen b cell
      && Predict.components a cell = Predict.components b cell)

(* --- the master incumbent --------------------------------------------- *)

let test_master_incumbent () =
  let t = Predict.create Predict.Stride in
  (* train a saturated stride predictor on the cell *)
  observe_all t cell [ 10; 13; 16; 19; 22; 25; 28; 31; 34; 37 ];
  check "component saturated" true
    (Predict.confidence t cell "stride" >= Predict.conf_threshold);
  let frag = Fragment.add cell 0 Fragment.empty in
  (* the master starts fully trusted: even a saturated component is not
     STRICTLY more confident, so refine must leave the value alone *)
  check_int "untracked master is fully trusted" 7
    (Predict.master_confidence t cell);
  check "refine is identity while the master never missed" true
    (Fragment.equal (refine_fragment t frag) frag);
  (* two recorded master misses collapse the incumbent below the
     component and the takeover happens *)
  Predict.observe_master t cell ~supplied:0 ~actual:40;
  Predict.observe_master t cell ~supplied:0 ~actual:43;
  check "master confidence collapsed" true
    (Predict.master_confidence t cell < Predict.confidence t cell "stride");
  (match Fragment.find_opt cell (refine_fragment t frag) with
  | Some v -> check_int "stride takes the cell over" 40 v
  | None -> Alcotest.fail "cell lost by refine");
  (* pc is never touched, and the cell set is preserved *)
  let frag2 = Fragment.add Cell.Pc 0 frag in
  (match Fragment.find_opt Cell.Pc (refine_fragment t frag2) with
  | Some v -> check_int "pc untouched" 0 v
  | None -> Alcotest.fail "pc lost by refine");
  (* a recovering master re-earns trust *)
  for _ = 1 to 4 do
    Predict.observe_master t cell ~supplied:40 ~actual:40
  done;
  check "master re-earns the cell" true
    (Fragment.equal (refine_fragment t frag) frag)

let test_off_never_predicts () =
  let t = Predict.create Predict.Off in
  observe_all t cell [ 5; 5; 5; 5; 5; 5 ];
  Alcotest.(check (option int)) "off never predicts" None
    (Predict.predict t cell);
  let frag = Fragment.add cell 1 Fragment.empty in
  check "off refine is identity" true
    (Fragment.equal (refine_fragment t frag) frag)

(* --- refine on the shared checkpoint ----------------------------------- *)

(* the checkpoint-rebuilding refinement, restated over the public API:
   every cell re-added to a fresh fragment, overridden where the mode's
   pick is STRICTLY more confident than the master *)
let rebuild_refine t frag =
  let pick c =
    let with_conf name =
      Option.map (fun v -> (Predict.confidence t c name, v)) (Predict.predict t c)
    in
    match Predict.mode t with
    | Predict.Off -> None
    | Predict.Broken -> Option.map (fun v -> (max_int, v)) (Predict.predict t c)
    | Predict.Last_value -> with_conf "last-value"
    | Predict.Stride -> with_conf "stride"
    | Predict.Context -> with_conf "context"
    | Predict.Tournament -> (
      match Predict.chosen t c with None -> None | Some name -> with_conf name)
  in
  if Predict.mode t = Predict.Off then frag
  else
    Fragment.fold
      (fun c v acc ->
        match (c, pick c) with
        | Cell.Pc, _ -> Fragment.add c v acc
        | _, Some (conf, p) when p <> v && conf > Predict.master_confidence t c
          ->
          Fragment.add c p acc
        | _, (Some _ | None) -> Fragment.add c v acc)
      frag Fragment.empty

type training =
  | Observe of int * int
  | Master of int * int * int  (** cell, supplied, actual *)

let refine_cells =
  [| Cell.Pc; Cell.Reg Mssp_asm.Regs.t0; Cell.Reg Mssp_asm.Regs.s1;
     Cell.Mem 7; Cell.Mem 8; Cell.Mem 300 |]

let arbitrary_refine_case =
  let open QCheck.Gen in
  let cell = int_bound (Array.length refine_cells - 1) in
  (* mostly one value, so components earn confidence and a missing
     master loses it: overrides fire in a good share of cases *)
  let v = frequency [ (5, return 1); (1, int_bound 3) ] in
  let step =
    frequency
      [
        (3, map2 (fun c x -> Observe (c, x)) cell v);
        (2, map3 (fun c s a -> Master (c, s, a)) cell v v);
      ]
  in
  let mode =
    oneofl
      Predict.[ Off; Last_value; Stride; Context; Tournament; Broken ]
  in
  QCheck.make
    ~print:(fun (m, steps, binds) ->
      Printf.sprintf "%s: %d training steps, live-in {%s}"
        (Predict.mode_to_string m) (List.length steps)
        (String.concat "; "
           (List.map
              (fun (c, x) -> Printf.sprintf "%s=%d" (Cell.show refine_cells.(c)) x)
              binds)))
    (triple mode (list_size (int_bound 120) step)
       (list_size (int_bound 8) (pair cell v)))

let prop_refine_matches_rebuild =
  QCheck.Test.make
    ~name:"refine = the rebuilding refinement, and == its input when idle"
    ~count:500 arbitrary_refine_case (fun (mode, steps, binds) ->
      let t = Predict.create mode in
      List.iter
        (function
          | Observe (c, x) -> Predict.observe t refine_cells.(c) x
          | Master (c, supplied, actual) ->
            Predict.observe_master t refine_cells.(c) ~supplied ~actual)
        steps;
      let frag =
        Fragment.of_list (List.map (fun (c, x) -> (refine_cells.(c), x)) binds)
      in
      let li = Live_in.of_fragment frag in
      let refined = Predict.refine t li in
      Fragment.equal (Live_in.to_fragment refined) (rebuild_refine t frag)
      && ((not (Live_in.equal refined li)) || refined == li))

(* --- differential: dense slots against the Cell-keyed model ----------

   [Predict_model] is the Cell-keyed implementation the dense predictor
   replaced, kept verbatim. Both are driven with the same random steps,
   and after every step every query of the public API must agree on the
   cells the step touched and on a fixed probe set. The cell universe
   covers [Pc], registers, negative addresses and addresses beyond 16M;
   [Collide] trains two cells on 4-histories whose [ctx_hash]es are
   equal (the table is keyed by (cell, hash): a hash collision within a
   cell shares an entry, across cells it must not); values mostly come
   from a small set, so confidences tie and the seeded tie-break
   decides; [Sweep] trains up to 96 fresh addresses at once, growing
   the address index and the context table through several doublings. *)

module Model = Predict_model

let diff_cells =
  [|
    Cell.Pc;
    Cell.Reg Mssp_asm.Regs.t0;
    Cell.Reg Mssp_asm.Regs.s1;
    Cell.Reg Mssp_isa.Reg.sp;
    Cell.Mem 0;
    Cell.Mem 7;
    Cell.Mem 8;
    Cell.Mem (-1);
    Cell.Mem (-4096);
    Cell.Mem min_int;
    Cell.Mem 0x1000001;
    Cell.Mem (1 lsl 40);
    Cell.Mem max_int;
  |]

type diff_step =
  | D_observe of int * int  (** cell, actual *)
  | D_master of int * int * int  (** cell, supplied, actual *)
  | D_collide of int * int * int list * int * int
      (** cells x and y, a base history, collision shift k, follower:
          x learns base -> follower, y learns base -> follower + 1, x
          then sees the shifted history (same hash) *)
  | D_sweep of int * int * int  (** base address, count, value seed *)
  | D_warm of (int * int list) list
  | D_refine of (int * int) list  (** live-in bindings: cell, value *)

let diff_value =
  QCheck.Gen.(
    frequency
      [
        (8, int_bound 3);
        (1, int_range (-5) 5);
        (1, oneofl [ min_int; max_int; 1 lsl 35; -(1 lsl 35) ]);
      ])

let diff_step_gen =
  let open QCheck.Gen in
  let cell = int_bound (Array.length diff_cells - 1) in
  frequency
    [
      (8, map2 (fun c v -> D_observe (c, v)) cell diff_value);
      (4, map3 (fun c s a -> D_master (c, s, a)) cell diff_value diff_value);
      ( 1,
        map3
          (fun (x, y) (base, k) f -> D_collide (x, y, base, k, f))
          (pair cell cell)
          (pair (list_repeat 4 (int_bound 50)) (int_range 1 3))
          diff_value );
      ( 1,
        map3
          (fun base n seed -> D_sweep (base, n, seed))
          (oneofl [ -(1 lsl 40); -64; 0x1000; 0x1000000; 1 lsl 50 ])
          (int_range 1 96) (int_bound 7) );
      ( 1,
        map
          (fun l -> D_warm l)
          (list_size (int_bound 3)
             (pair
                (oneofl [ 7; -1; 0x1000001; 1 lsl 40; 0x2000 ])
                (list_size (int_bound 8) diff_value))) );
      (3, map (fun l -> D_refine l) (list_size (int_bound 8) (pair cell diff_value)));
    ]

let show_diff_step = function
  | D_observe (c, v) -> Printf.sprintf "observe %s %d" (Cell.show diff_cells.(c)) v
  | D_master (c, s, a) ->
    Printf.sprintf "master %s %d/%d" (Cell.show diff_cells.(c)) s a
  | D_collide (x, y, base, k, f) ->
    Printf.sprintf "collide %s %s [%s] +%d -> %d" (Cell.show diff_cells.(x))
      (Cell.show diff_cells.(y))
      (String.concat ";" (List.map string_of_int base))
      k f
  | D_sweep (b, n, seed) -> Printf.sprintf "sweep %#x x%d seed %d" b n seed
  | D_warm l -> Printf.sprintf "warm %d streams" (List.length l)
  | D_refine l -> Printf.sprintf "refine %d bindings" (List.length l)

let arbitrary_diff_case =
  let open QCheck.Gen in
  QCheck.make
    ~print:(fun (m, seed, steps) ->
      Printf.sprintf "%s seed %d:\n  %s" (Predict.mode_to_string m) seed
        (String.concat "\n  " (List.map show_diff_step steps)))
    (triple
       (oneofl Predict.[ Off; Last_value; Stride; Context; Tournament; Broken ])
       (oneof [ return 0x5bd1e995; int ])
       (list_size (int_bound 60) diff_step_gen))

let sweep_addr base i = base + (i * 3)

(* observations a sweep feeds address [i]: six values, so every swept
   cell fills its history and records two contexts *)
let sweep_values seed i = List.init 6 (fun j -> ((i * seed) + (j * (i mod 3))) mod 5)

let diff_agree t m c =
  let names = [ "last-value"; "stride"; "context"; "no-such-component" ] in
  Predict.predict t c = Model.predict m c
  && Predict.components t c = Model.components m c
  && Predict.chosen t c = Model.chosen m c
  && Predict.master_confidence t c = Model.master_confidence m c
  && List.for_all
       (fun n -> Predict.confidence t c n = Model.confidence m c n)
       names

let prop_dense_matches_model =
  QCheck.Test.make ~name:"dense predictor = the Cell-keyed model, every step"
    ~count:300 arbitrary_diff_case (fun (mode, seed, steps) ->
      let t = Predict.create ~seed mode in
      let m =
        Model.create ~seed
          (Option.get (Model.mode_of_string (Predict.mode_to_string mode)))
      in
      let both c v =
        Predict.observe t c v;
        Model.observe m c v
      in
      let fail fmt = QCheck.Test.fail_reportf fmt in
      let check_cells step cells =
        List.iter
          (fun c ->
            if not (diff_agree t m c) then
              fail "after %s: %s disagrees" (show_diff_step step) (Cell.show c))
          (cells @ Array.to_list diff_cells)
      in
      List.iter
        (fun step ->
          match step with
          | D_observe (c, v) ->
            both diff_cells.(c) v;
            check_cells step []
          | D_master (c, supplied, actual) ->
            Predict.observe_master t diff_cells.(c) ~supplied ~actual;
            Model.observe_master m diff_cells.(c) ~supplied ~actual;
            check_cells step []
          | D_collide (x, y, base, k, f) ->
            let x = diff_cells.(x) and y = diff_cells.(y) in
            let shifted =
              List.mapi
                (fun i v -> if i = 2 then v + k else if i = 3 then v - (31 * k) else v)
                base
            in
            List.iter (both x) (base @ [ f ]);
            List.iter (both y) (base @ [ f + 1 ]);
            List.iter (both x) shifted;
            check_cells step []
          | D_sweep (base, n, seed) ->
            let cells = List.init n (fun i -> Cell.Mem (sweep_addr base i)) in
            List.iteri
              (fun i c -> List.iter (both c) (sweep_values seed i))
              cells;
            check_cells step cells
          | D_warm bindings ->
            Predict.warm t bindings;
            Model.warm m bindings;
            check_cells step (List.map (fun (a, _) -> Cell.Mem a) bindings)
          | D_refine binds ->
            let frag =
              Fragment.of_list (List.map (fun (c, v) -> (diff_cells.(c), v)) binds)
            in
            let li = Live_in.of_fragment frag in
            let r = Predict.refine t li and r' = Model.refine m frag in
            if not (Fragment.equal (Live_in.to_fragment r) r') then
              fail "after %s: refine %s, model %s" (show_diff_step step)
                (Fragment.show (Live_in.to_fragment r))
                (Fragment.show r');
            if (r == li) <> (r' == frag) then
              fail "after %s: physical identity differs" (show_diff_step step);
            check_cells step [])
        steps;
      true)

(* --- refine on a checkpoint-shaped live-in ------------------------------

   The master's checkpoint binds the PC and every register in one flat
   array, which the task, the trace and any sibling live-in built on it
   share. After random training, refining such a live-in must answer
   what the Cell-keyed model answers on its fragment, in every mode —
   [Broken] overrides registers too — return its input physically when
   the model overrides nothing, and leave the input and a sibling
   sharing its register array untouched. *)

let arbitrary_flat_refine_case =
  let open QCheck.Gen in
  let cell = int_bound (Array.length diff_cells - 1) in
  let v = frequency [ (5, return 1); (1, diff_value) ] in
  let step =
    frequency
      [
        (3, map2 (fun c x -> Observe (c, x)) cell v);
        (2, map3 (fun c s a -> Master (c, s, a)) cell v v);
      ]
  in
  QCheck.make
    ~print:(fun (m, steps, values) ->
      Printf.sprintf "%s: %d training steps, checkpoint [%s]"
        (Predict.mode_to_string m) (List.length steps)
        (String.concat "; " (List.map string_of_int values)))
    (triple
       (oneofl Predict.[ Off; Last_value; Stride; Context; Tournament; Broken ])
       (list_size (int_bound 120) step)
       (list_repeat (Array.length diff_cells) v))

(* PC, every register (the diff cells' from [values], the rest 0) and
   the diff cells' memory, built the way the master builds it *)
let flat_checkpoint values =
  let s = Full.create () in
  let pc = ref 0 and mem = ref Fragment.empty in
  List.iteri
    (fun i v ->
      match diff_cells.(i) with
      | Cell.Pc -> pc := v
      | Cell.Reg r -> Full.set_reg s r v
      | Cell.Mem _ as c -> mem := Fragment.add c v !mem)
    values;
  Live_in.of_state ~pc:!pc s !mem

let prop_flat_refine_matches_model =
  QCheck.Test.make
    ~name:"refine on a flat checkpoint = the model, input never written"
    ~count:300 arbitrary_flat_refine_case (fun (mode, steps, values) ->
      let t = Predict.create mode in
      let m =
        Model.create (Option.get (Model.mode_of_string (Predict.mode_to_string mode)))
      in
      List.iter
        (function
          | Observe (c, x) ->
            Predict.observe t diff_cells.(c) x;
            Model.observe m diff_cells.(c) x
          | Master (c, supplied, actual) ->
            Predict.observe_master t diff_cells.(c) ~supplied ~actual;
            Model.observe_master m diff_cells.(c) ~supplied ~actual)
        steps;
      let li = flat_checkpoint values in
      let sibling = Live_in.add (Cell.Mem 0x777) 5 li in
      let frag = Live_in.to_fragment li and sib = Live_in.to_fragment sibling in
      let r = Predict.refine t li and r' = Model.refine m frag in
      Fragment.equal (Live_in.to_fragment r) r'
      && (r == li) = (r' == frag)
      && Fragment.equal (Live_in.to_fragment li) frag
      && Fragment.equal (Live_in.to_fragment sibling) sib)

(* --- warm-up from the profiler's streams ------------------------------ *)

let test_warmup_of_profile () =
  let b = W.find "vecsum" in
  let profile = Profile.collect (b.W.program ~size:50) in
  let warm = Predict.warmup_of_profile profile in
  check "non-empty" true (warm <> []);
  let addrs = List.map fst warm in
  check "ascending addresses" true (List.sort Int.compare addrs = addrs);
  List.iter
    (fun (addr, values) ->
      Alcotest.(check (list int))
        (Printf.sprintf "stream %#x is the profiler's" addr)
        (Profile.cell_observations profile addr)
        values)
    warm

(* Training a cell that already has a slot allocates nothing: the
   observation periods below repeat every history, so every context
   entry exists too after the first thousand steps, and the measured ten
   thousand steps touch no new state. *)
let test_observe_allocates_nothing () =
  let t = Predict.create Predict.Tournament in
  let cells =
    [| Cell.Reg Mssp_asm.Regs.s1; Cell.Mem 0x40; Cell.Mem (-8); Cell.Mem (1 lsl 30) |]
  in
  let step i =
    let c = cells.(i land 3) in
    Predict.observe t c (i mod 5);
    Predict.observe_master t c ~supplied:(i mod 3) ~actual:(i mod 5)
  in
  for i = 0 to 999 do
    step i
  done;
  let calls = 10_000 in
  let before = Gc.minor_words () in
  for i = 1000 to 1000 + calls - 1 do
    step i
  done;
  let words = Gc.minor_words () -. before in
  (* the two Gc.minor_words readings box a float or two *)
  if words > 8. then
    Alcotest.failf "observe + observe_master: %.0f minor words over %d steps"
      words calls

(* --- machine-level suites ---------------------------------------------

   Small inputs: the differential grid below is 13 kernels x 5 modes of
   full MSSP runs and must stay cheap under dune runtest. *)

let prepared name size =
  let b = W.find name in
  let program = b.W.program ~size in
  let profile = Profile.collect (b.W.program ~size) in
  let d = Distill.distill program profile in
  let baseline = B.sequential ~also_load:[ d.Distill.distilled ] program in
  (d, profile, baseline)

let run_mode ?(slaves = 4) (d, profile, _) mode =
  let config =
    {
      (Config.with_slaves slaves Config.default) with
      Config.predict = mode;
      predict_warmup =
        (if mode = Predict.Off then [] else Predict.warmup_of_profile profile);
    }
  in
  M.run ~config d

let test_differential_suite () =
  List.iter
    (fun (b : W.benchmark) ->
      let ((_, _, baseline) as prep) = prepared b.W.name b.W.train_size in
      List.iter
        (fun mode ->
          let label = b.W.name ^ "/" ^ Predict.mode_to_string mode in
          let r = run_mode prep mode in
          check (label ^ " halted") true (r.M.stop = M.Halted);
          check (label ^ " state equals SEQ") true
            (Full.equal_observable baseline.B.state r.M.arch);
          if mode = Predict.Off then
            check_int (label ^ " records no outcomes") 0
              (r.M.stats.M.predict_hits + r.M.stats.M.predict_misses))
        Predict.modes)
    W.all

let test_broken_predictor_absorbed () =
  (* the mutation smoke test: Broken returns each cell's FIRST observed
     value forever with unconditional confidence, so it overrides
     healthy master values with stale ones. The machine must absorb
     every one of those wrong checkpoints — the final state stays SEQ
     (the absorbability oracle finds no divergence) and the damage shows
     up exclusively as squash-rate inflation, which is what the fuzz
     oracle and the adaptation loop key on. *)
  let ((_, _, baseline) as prep) = prepared "vecsum" 400 in
  let off = run_mode prep Predict.Off in
  let broken = run_mode prep Predict.Broken in
  check "broken run halted" true (broken.M.stop = M.Halted);
  check "broken run absorbed (state equals SEQ)" true
    (Full.equal_observable baseline.B.state broken.M.arch);
  check "stale overrides actually fired" true
    (broken.M.stats.M.predict_misses > 0);
  check "detection signal: squash rate inflated" true
    (broken.M.stats.M.squashes > off.M.stats.M.squashes)

let () =
  Alcotest.run "predict"
    [
      ( "components",
        [
          Alcotest.test_case "stride locks in 3" `Quick
            test_stride_locks_in_three;
          Alcotest.test_case "context round-trips window" `Quick
            test_context_round_trips_window;
          Alcotest.test_case "last-value" `Quick test_last_value;
          Alcotest.test_case "off never predicts" `Quick test_off_never_predicts;
          Alcotest.test_case "warmup = profiler streams" `Quick
            test_warmup_of_profile;
        ] );
      ( "tournament",
        [
          Alcotest.test_case "never picks lower confidence" `Quick
            test_tournament_never_picks_lower_confidence;
          Alcotest.test_case "master incumbent" `Quick test_master_incumbent;
          Mssp_testkit.to_alcotest prop_refine_matches_rebuild;
          Mssp_testkit.to_alcotest prop_tournament_maximal;
          Mssp_testkit.to_alcotest prop_deterministic;
          Mssp_testkit.to_alcotest prop_dense_matches_model;
          Alcotest.test_case "trained slots allocate nothing" `Quick
            test_observe_allocates_nothing;
          Mssp_testkit.to_alcotest prop_flat_refine_matches_model;
        ] );
      ( "machine",
        [
          Alcotest.test_case "differential: kernels x modes == SEQ" `Slow
            test_differential_suite;
          Alcotest.test_case "broken predictor absorbed" `Quick
            test_broken_predictor_absorbed;
        ] );
    ]
