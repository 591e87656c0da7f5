(* The domain pool's inter-run contracts, pinned by test:
   - the library itself: submission order, exception transparency,
     map_runs order preservation, and helping-await (nested map_runs on
     one shared pool must not deadlock);
   - the fuzz driver's shard seeding: a --jobs 2 campaign equals the
     merge of its two --jobs 1 shard replays. *)

module Driver = Mssp_fuzz.Driver
module Pool = Mssp_exec.Pool

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- the pool library itself ----------------------------------------- *)

let test_submit_await () =
  let p = Pool.global ~size:2 () in
  let futs = List.init 100 (fun i -> Pool.submit p (fun () -> i * i)) in
  List.iteri (fun i f -> check_int "square" (i * i) (Pool.await f)) futs

let test_exceptions_propagate () =
  let p = Pool.global ~size:2 () in
  let f = Pool.submit p (fun () -> failwith "boom") in
  match Pool.await f with
  | exception Failure m -> check "exception payload survives" true (m = "boom")
  | _ -> Alcotest.fail "expected the worker's exception to re-raise"

let test_map_runs_order () =
  let xs = List.init 37 Fun.id in
  check "order preserved" true
    (Pool.map_runs ~jobs:4 (fun x -> (3 * x) + 1) xs
    = List.map (fun x -> (3 * x) + 1) xs)

(* helping-await: a worker blocked awaiting an inner map_runs steals
   queued jobs instead of sleeping, so nesting on the one global pool
   cannot deadlock even when every worker is itself inside an await *)
let test_nested_map_runs () =
  let inner x = Pool.map_runs ~jobs:2 (fun y -> x + y) [ 1; 2; 3 ] in
  check "nested map_runs" true
    (Pool.map_runs ~jobs:2 inner [ 10; 20; 30; 40 ]
    = List.map inner [ 10; 20; 30; 40 ])

(* --- fuzz sharding: a parallel campaign is its shard replays ---------- *)

let test_fuzz_shards_replayable () =
  let parallel = Driver.campaign ~jobs:2 ~seed:7 ~count:6 () in
  let shard0 = Driver.campaign ~seed:7 ~count:3 () in
  let shard1 = Driver.campaign ~seed:8 ~count:3 () in
  check_int "programs" (shard0.Driver.programs + shard1.Driver.programs)
    parallel.Driver.programs;
  check_int "skipped" (shard0.Driver.skipped + shard1.Driver.skipped)
    parallel.Driver.skipped;
  check_int "runs" (shard0.Driver.runs + shard1.Driver.runs)
    parallel.Driver.runs;
  check_int "findings"
    (List.length shard0.Driver.findings + List.length shard1.Driver.findings)
    (List.length parallel.Driver.findings)

let () =
  Alcotest.run "pool"
    [
      ( "library",
        [
          Alcotest.test_case "submit/await" `Quick test_submit_await;
          Alcotest.test_case "exceptions propagate" `Quick
            test_exceptions_propagate;
          Alcotest.test_case "map_runs preserves order" `Quick
            test_map_runs_order;
          Alcotest.test_case "nested map_runs (helping await)" `Quick
            test_nested_map_runs;
        ] );
      ( "fuzz sharding",
        [
          Alcotest.test_case "jobs 2 == its two jobs-1 shard replays" `Quick
            test_fuzz_shards_replayable;
        ] );
    ]
