(* Tests for the set-associative cache model and the two-level
   hierarchy. *)

open Mssp_cache

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let test_config_validation () =
  Alcotest.check_raises "bad sets"
    (Invalid_argument "Cache.config: sets and line_words must be powers of two")
    (fun () -> ignore (Cache.config ~sets:3 () : Cache.config))

let test_cold_miss_then_hit () =
  let c = Cache.make (Cache.config ~sets:4 ~ways:2 ~line_words:4 ()) in
  check "cold miss" false (Cache.access c 100);
  check "hit" true (Cache.access c 100);
  check "same line" true (Cache.access c 101);
  check "different line" false (Cache.access c 104)

let test_lru_eviction () =
  (* 1 set, 2 ways: three distinct lines mapping to the same set *)
  let c = Cache.make (Cache.config ~sets:1 ~ways:2 ~line_words:1 ()) in
  check "miss a" false (Cache.access c 0);
  check "miss b" false (Cache.access c 1);
  check "hit a" true (Cache.access c 0);
  (* b is now LRU; c evicts it *)
  check "miss c" false (Cache.access c 2);
  check "a survives" true (Cache.access c 0);
  check "b evicted" false (Cache.access c 1)

let test_associativity_conflicts () =
  (* direct-mapped: two lines in the same set thrash *)
  let c = Cache.make (Cache.config ~sets:2 ~ways:1 ~line_words:1 ()) in
  check "miss 0" false (Cache.access c 0);
  check "miss 2 (same set)" false (Cache.access c 2);
  check "0 evicted" false (Cache.access c 0);
  (* 2-way stops the thrash *)
  let c = Cache.make (Cache.config ~sets:2 ~ways:2 ~line_words:1 ()) in
  check "miss 0" false (Cache.access c 0);
  check "miss 2" false (Cache.access c 2);
  check "both resident" true (Cache.access c 0 && Cache.access c 2)

let test_stats_and_invalidate () =
  let c = Cache.make (Cache.config ()) in
  ignore (Cache.access c 0 : bool);
  ignore (Cache.access c 0 : bool);
  check_int "accesses" 2 (Cache.stats c).Cache.accesses;
  check_int "misses" 1 (Cache.stats c).Cache.misses;
  check "miss rate" true (abs_float (Cache.miss_rate c -. 0.5) < 1e-9);
  Cache.invalidate_all c;
  check "invalidated" false (Cache.access c 0);
  Cache.reset_stats c;
  check_int "reset" 0 (Cache.stats c).Cache.accesses

let test_hierarchy_latencies () =
  let lat = Cache.Hierarchy.latencies ~l1_hit:1 ~l2_hit:10 ~memory:100 () in
  let h = Cache.Hierarchy.make ~lat () in
  check_int "cold: memory" 100 (Cache.Hierarchy.access h 0);
  check_int "warm: l1" 1 (Cache.Hierarchy.access h 0);
  Cache.Hierarchy.invalidate_l1 h;
  check_int "after l1 invalidate: l2" 10 (Cache.Hierarchy.access h 0)

let test_shared_l2 () =
  let lat = Cache.Hierarchy.latencies ~l1_hit:1 ~l2_hit:10 ~memory:100 () in
  let owner = Cache.Hierarchy.make ~lat () in
  let sharer = Cache.Hierarchy.make_shared ~lat ~l2:owner () in
  ignore (Cache.Hierarchy.access owner 0 : int);
  (* the sharer's L1 is cold but the shared L2 already has the line *)
  check_int "sharer sees l2" 10 (Cache.Hierarchy.access sharer 0)

(* property: hit rate of a repeated scan over a working set that fits is
   eventually 100% *)
let prop_fitting_working_set =
  QCheck.Test.make ~name:"fitting working set has no steady-state misses"
    ~count:50
    QCheck.(int_range 1 256)
    (fun size ->
      let c = Cache.make (Cache.config ~sets:64 ~ways:4 ~line_words:1 ()) in
      (* first pass warms, second pass must hit entirely *)
      for a = 0 to size - 1 do
        ignore (Cache.access c a : bool)
      done;
      let ok = ref true in
      for a = 0 to size - 1 do
        if not (Cache.access c a) then ok := false
      done;
      !ok)

(* a plain reference LRU: each set is a list of [ways] (tag, last use)
   pairs, an invalid way holding tag -1 and last use 0. An access hits
   the first way whose tag matches; a miss replaces the first way with
   the smallest last use. Lines and tags use [/], so negative addresses
   truncate toward zero. *)
let reference_lru (cfg : Cache.config) addrs =
  let sets = Array.make cfg.Cache.sets (List.init cfg.Cache.ways (fun _ -> (-1, 0))) in
  let tick = ref 0 in
  List.map
    (fun a ->
      incr tick;
      let line = a / cfg.Cache.line_words in
      let set = line land (cfg.Cache.sets - 1) and tag = line / cfg.Cache.sets in
      let ways = sets.(set) in
      let rec find i = function
        | [] -> None
        | (t, _) :: rest -> if t = tag then Some i else find (i + 1) rest
      in
      let touch i = List.mapi (fun j (t, u) -> if j = i then (tag, !tick) else (t, u)) in
      match find 0 ways with
      | Some i ->
        sets.(set) <- touch i ways;
        true
      | None ->
        let _, victim, _ =
          List.fold_left
            (fun (j, best, best_u) (_, u) ->
              if u < best_u then (j + 1, j, u) else (j + 1, best, best_u))
            (0, 0, max_int) ways
        in
        sets.(set) <- touch victim ways;
        false)
    addrs

let prop_matches_reference_lru =
  let pow2 = QCheck.Gen.(map (fun k -> 1 lsl k) (int_bound 3)) in
  let gen =
    QCheck.Gen.(
      quad pow2 (int_range 1 4) pow2
        (list_size (int_range 1 300)
           (frequency
              [
                (4, int_range (-40) 40);
                (2, int_range (-2000) 2000);
                (1, int);
              ])))
  in
  QCheck.Test.make ~name:"access = reference LRU, negative addresses included"
    ~count:300
    (QCheck.make
       ~print:(fun (s, w, l, a) ->
         Printf.sprintf "sets %d ways %d line %d: %s" s w l
           (String.concat " " (List.map string_of_int a)))
       gen)
    (fun (sets, ways, line_words, addrs) ->
      let cfg = Cache.config ~sets ~ways ~line_words () in
      let c = Cache.make cfg in
      let hits = List.map (Cache.access c) addrs in
      let expected = reference_lru cfg addrs in
      let st = Cache.stats c in
      hits = expected
      && st.Cache.accesses = List.length addrs
      && st.Cache.misses = List.length (List.filter not expected))

let () =
  Alcotest.run "cache"
    [
      ( "cache",
        [
          Alcotest.test_case "config validation" `Quick test_config_validation;
          Alcotest.test_case "cold miss then hit" `Quick test_cold_miss_then_hit;
          Alcotest.test_case "LRU eviction" `Quick test_lru_eviction;
          Alcotest.test_case "associativity" `Quick test_associativity_conflicts;
          Alcotest.test_case "stats/invalidate" `Quick test_stats_and_invalidate;
          Mssp_testkit.to_alcotest prop_fitting_working_set;
          Mssp_testkit.to_alcotest prop_matches_reference_lru;
        ] );
      ( "hierarchy",
        [
          Alcotest.test_case "latencies" `Quick test_hierarchy_latencies;
          Alcotest.test_case "shared L2" `Quick test_shared_l2;
        ] );
    ]
