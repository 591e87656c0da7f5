(* The guard kernel's three decisions, on scripted clocks: each timed
   side is a closure that returns fixed seconds from a script, so the
   min-of-k arithmetic, the enforcement rule and the row schema are
   checked without ever reading the host's clock. *)

let last_row () = List.hd (List.rev (Guard.rows ()))

(* a side that returns the scripted seconds, one per call *)
let scripted secs =
  let left = ref secs in
  fun () ->
    match !left with
    | t :: rest ->
      left := rest;
      t
    | [] -> Alcotest.fail "side called more often than scripted"

let overhead =
  Guard.rule ~guard:"T" ~metric:"overhead" ~unit:"ratio" ~better:Lower
    ~min_cores:2 ~noise_gate:0.02 0.02

let floor = Guard.rule ~guard:"T" ~metric:"speedup" ~unit:"x" ~better:Higher 1.25

let raises f =
  match f () with
  | () -> false
  | exception Failure _ -> true

let test_pair () =
  (* calls: base warm-up, cand warm-up, then base/cand/base per rep; the
     warm-ups are the fastest calls and must not count *)
  let base = scripted [ 0.001; 4.0; 5.0; 2.0; 2.5 ] in
  let cand = scripted [ 0.001; 3.0; 1.5 ] in
  let b, c, noise = Guard.pair ~reps:2 ~base ~cand in
  Alcotest.(check (float 0.)) "min base over both series" 2.0 b;
  Alcotest.(check (float 0.)) "min cand" 1.5 c;
  (* b1 = min 4 2 = 2, b2 = min 5 2.5 = 2.5: |2 - 2.5| / 2 *)
  Alcotest.(check (float 1e-12)) "noise" 0.25 noise

let test_violation_raises () =
  Alcotest.(check bool) "raises" true
    (raises (fun () -> Guard.check ~cores:2 ~noise:0.01 overhead 0.03));
  Alcotest.(check bool) "enforced" true (last_row ()).Guard.enforced;
  Alcotest.(check bool) "higher-is-better floor raises" true
    (raises (fun () -> Guard.check ~cores:1 floor 1.0));
  Alcotest.(check bool) "NaN violates" true
    (raises (fun () -> Guard.check ~cores:1 floor Float.nan))

let test_met_exactly () =
  Guard.check ~cores:2 ~noise:0.02 overhead 0.02;
  Alcotest.(check bool) "lower bound met exactly, enforced" true
    (last_row ()).Guard.enforced;
  Guard.check ~cores:1 floor 1.25;
  Alcotest.(check bool) "higher bound met exactly, enforced" true
    (last_row ()).Guard.enforced

let test_noisy () =
  Guard.check ~cores:8 ~noise:0.021 overhead 10.0;
  let r = last_row () in
  Alcotest.(check bool) "not enforced" false r.Guard.enforced;
  Alcotest.(check (option (float 0.))) "noise recorded" (Some 0.021) r.Guard.noise

let test_few_cores () =
  Guard.check ~cores:1 ~noise:0.0 overhead 10.0;
  let r = last_row () in
  Alcotest.(check bool) "not enforced" false r.Guard.enforced;
  Alcotest.(check int) "host cores recorded" 1 r.Guard.host_cores

let test_missing_noise () =
  Alcotest.check_raises "a noise-gated rule needs a noise"
    (Invalid_argument "Guard.check: T overhead needs a noise") (fun () ->
      Guard.check ~cores:2 overhead 0.0)

let test_report_only () =
  Guard.report ~guard:"T" ~metric:"wall_s" ~unit:"s" ~better:Lower
    Float.infinity;
  Guard.report ~guard:"T" ~metric:"rate" ~unit:"Minstr/s" ~better:Higher
    Float.nan;
  let r = last_row () in
  Alcotest.(check bool) "not enforced" false r.Guard.enforced;
  Alcotest.(check bool) "no bound" true (r.Guard.bound = None)

let test_json_keys () =
  Guard.report ~guard:"T" ~metric:"wall_s" ~unit:"s" ~better:Lower 1.0;
  let keys =
    [
      "guard"; "metric"; "value"; "unit"; "better"; "bound"; "noise";
      "enforced"; "host_cores";
    ]
  in
  List.iter
    (fun row ->
      match Guard.to_json row with
      | Json_out.Obj fields ->
        Alcotest.(check (list string)) "the nine keys" keys (List.map fst fields)
      | _ -> Alcotest.fail "a row is not a JSON object")
    (Guard.rows ())

let () =
  Alcotest.run "guard"
    [
      ( "guard",
        [
          Alcotest.test_case "pair: min of each side, noise" `Quick test_pair;
          Alcotest.test_case "enforced violation raises" `Quick
            test_violation_raises;
          Alcotest.test_case "bound met exactly passes" `Quick test_met_exactly;
          Alcotest.test_case "noise above the gate" `Quick test_noisy;
          Alcotest.test_case "cores below the minimum" `Quick test_few_cores;
          Alcotest.test_case "gated rule without noise" `Quick test_missing_noise;
          Alcotest.test_case "report-only never raises" `Quick test_report_only;
          Alcotest.test_case "json rows have nine keys" `Quick test_json_keys;
        ] );
    ]
