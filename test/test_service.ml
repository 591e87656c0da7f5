(* The service layer's robustness contract, pinned by test:
   - the wire codec round-trips structurally in both directions over
     every request/reply constructor (QCheck), so a client can never
     desynchronize the NDJSON stream;
   - budget admission is pure limits math: defaults fill, in-range asks
     pass through, every over-limit ask names its limit;
   - the distillation cache computes each key exactly once under
     concurrent first requests, and a failed compute never poisons the
     slot;
   - the admission queue is per-client FIFO, round-robin across
     clients (a flooder cannot starve a trickler), and Queue_full at
     capacity — never a hang;
   - and the daemon itself, exercised in-process over a real socket:
     results are bit-identical to the serial oracle, a request carrying
     the retired [pool] key is served as if it were absent, duplicates
     hit the distillation cache, rejected jobs never execute, a
     deadline hit yields a structured cancellation with no partial
     events, a crashing job is isolated (the daemon keeps serving) and
     carries a repro line, transient chaos is retried into success, and
     both drain policies resolve every accepted job with exactly one
     terminal reply. *)

module P = Mssp_service.Protocol
module Budget = Mssp_service.Budget
module Dcache = Mssp_service.Dcache
module Admission = Mssp_service.Admission
module Daemon = Mssp_service.Daemon
module Client = Mssp_service.Client
module Loadtest = Mssp_service.Loadtest
module Trace = Mssp_trace.Trace
module J = Mssp_trace.Tjson

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

(* --- harness: one daemon per test on a fresh socket ------------------ *)

let fresh_socket =
  let n = ref 0 in
  fun () ->
    incr n;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "mssp_t%d_%d.sock" (Unix.getpid ()) !n)

let daemon_cfg ?(queue_cap = 64) ?(workers = 2) ?(retries = 3)
    ?(backoff_ms = 1.) ?(drain_policy = `Wait) ?chaos_transient ?chaos_fatal
    () =
  {
    Daemon.default_config with
    Daemon.socket = fresh_socket ();
    queue_cap;
    workers;
    retries;
    backoff_ms;
    drain_policy;
    chaos_transient;
    chaos_fatal;
  }

(* [stop] is part of several tests' assertions, so [f] receives the
   daemon and may stop it itself; the finalizer is idempotent. *)
let with_daemon cfg f =
  let d = Daemon.start cfg in
  Fun.protect ~finally:(fun () -> Daemon.stop d) (fun () -> f d)

let with_client socket f =
  let c = Client.connect ~socket in
  Fun.protect ~finally:(fun () -> Client.close c) (fun () -> f c)

(* a deterministic fuzz program: the spec form both the daemon and the
   in-process oracle resolve identically *)
let gen_spec ?(client = "t") ?(seed = 1) ?(size = 60) ?fuel ?deadline_ms
    ?(stream = false) () =
  {
    P.default_spec with
    P.client;
    program = P.Gen { seed; size };
    fuel;
    deadline_ms;
    stream_events = stream;
  }

(* --- protocol codec round trip (QCheck) ------------------------------ *)

let gen_program_spec =
  QCheck.Gen.(
    oneof
      [
        map2
          (fun name size -> P.Bench { name; size })
          (oneofl [ "vecsum"; "matmul"; "listwalk" ])
          (option (int_range 1 500));
        map (fun s -> P.Asm s) (string_size ~gen:printable (int_range 0 40));
        map2 (fun seed size -> P.Gen { seed; size }) nat (int_range 1 1000);
      ])

let gen_job_spec =
  QCheck.Gen.(
    let* client = string_size ~gen:(char_range 'a' 'z') (int_range 1 8) in
    let* program = gen_program_spec in
    let* slaves = int_range 1 16 in
    let* task_size = int_range 1 200 in
    let* predict = option (oneofl [ "off"; "last"; "stride" ]) in
    let* fuel = option (int_range 1 1_000_000) in
    let* deadline_ms = option (int_range 1 10_000) in
    let* plan =
      option
        (let* pl_seed = nat in
         let* pl_p = float_bound_inclusive 1. in
         let* pl_surfaces =
           list_size (int_range 0 3) (oneofl [ "spawn"; "verify" ])
         in
         return { P.pl_seed; pl_p; pl_surfaces })
    in
    let* stream_events = bool in
    return
      {
        P.client;
        program;
        slaves;
        task_size;
        predict;
        fuel;
        deadline_ms;
        plan;
        stream_events;
      })

let gen_request =
  QCheck.Gen.(
    oneof
      [
        map (fun s -> P.Submit s) gen_job_spec;
        return P.Status;
        return P.Drain;
        return P.Ping;
      ])

let gen_reject =
  QCheck.Gen.(
    oneof
      [
        return P.Queue_full;
        return P.Over_budget;
        return P.Shutting_down;
        map
          (fun s -> P.Bad_request s)
          (string_size ~gen:printable (int_range 0 30));
      ])

let gen_service_event =
  QCheck.Gen.(
    let* cycle = nat in
    let* job = nat in
    oneofl
      [
        Trace.Admit { cycle; job; client = "c" };
        Trace.Reject { cycle; client = "c"; reason = "queue_full" };
        Trace.Deadline { cycle; job };
        Trace.Drain { cycle; pending = job; running = 1 };
      ])

let gen_reply =
  QCheck.Gen.(
    let* job = nat in
    oneof
      [
        return (P.Accepted { job });
        map (fun reason -> P.Rejected { reason }) gen_reject;
        map (fun event -> P.Event { job; event }) gen_service_event;
        (let* cycles = nat in
         let* output = list_size (int_range 0 5) nat in
         let* cache_hit = bool in
         return
           (P.Result
              {
                job;
                r =
                  {
                    P.cycles;
                    instructions = cycles * 2;
                    tasks_committed = 3;
                    squashes = 1;
                    output;
                    stop = "halted";
                    state_digest = "d41d8cd98f00b204e9800998ecf8427e";
                    cache_hit;
                    attempts = 1;
                    wall_ms = 1.5;
                  };
              }));
        return (P.Failed { job; exn = "Failure(\"boom\")"; repro = "{}" });
        return (P.Cancelled { job; reason = "deadline_exceeded" });
        return (P.Stats [ ("submitted", 3); ("completed", 2) ]);
        return P.Pong;
      ])

let prop_request_roundtrip =
  QCheck.Test.make ~name:"service: request codec round-trips" ~count:300
    (QCheck.make gen_request) (fun req ->
      match
        P.parse_request (Mssp_trace.Tjson.to_string (P.request_to_json req))
      with
      | Ok req' -> req = req'
      | Error e -> QCheck.Test.fail_reportf "no parse: %s" e)

let prop_reply_roundtrip =
  QCheck.Test.make ~name:"service: reply codec round-trips" ~count:300
    (QCheck.make gen_reply) (fun reply ->
      match
        P.parse_reply (Mssp_trace.Tjson.to_string (P.reply_to_json reply))
      with
      | Ok reply' -> reply = reply'
      | Error e -> QCheck.Test.fail_reportf "no parse: %s" e)

let test_garbage_is_bad_request () =
  check "not json" true (Result.is_error (P.parse_request "not json"));
  check "wrong shape" true (Result.is_error (P.parse_request "{\"op\":42}"));
  check "empty object" true (Result.is_error (P.parse_request "{}"))

(* --- budget admission ------------------------------------------------- *)

let limits = Budget.default_limits

let test_budget_defaults_fill () =
  match Budget.admit limits P.default_spec with
  | Error e -> Alcotest.fail e
  | Ok g ->
    check_int "default fuel" limits.Budget.default_fuel g.Budget.g_fuel;
    check_int "default deadline" limits.Budget.default_deadline_ms
      g.Budget.g_deadline_ms

let prop_budget_in_range_passes_through =
  QCheck.Test.make ~name:"service: in-range budget asks pass through"
    ~count:200
    QCheck.(pair (1 -- limits.Budget.max_fuel) (1 -- limits.Budget.max_deadline_ms))
    (fun (fuel, deadline_ms) ->
      match
        Budget.admit limits
          { P.default_spec with P.fuel = Some fuel; deadline_ms = Some deadline_ms }
      with
      | Ok g -> g.Budget.g_fuel = fuel && g.Budget.g_deadline_ms = deadline_ms
      | Error _ -> false)

let test_budget_over_limit_rejects () =
  let over fuel deadline_ms slaves =
    Budget.admit limits
      { P.default_spec with P.fuel; deadline_ms; slaves }
  in
  check "fuel over max" true
    (Result.is_error (over (Some (limits.Budget.max_fuel + 1)) None 4));
  check "deadline over max" true
    (Result.is_error (over None (Some (limits.Budget.max_deadline_ms + 1)) 4));
  check "zero fuel" true (Result.is_error (over (Some 0) None 4));
  check "zero slaves" true (Result.is_error (over None None 0));
  check "slaves over max" true
    (Result.is_error (over None None (limits.Budget.max_slaves + 1)));
  (match over (Some (limits.Budget.max_fuel + 1)) None 4 with
  | Error e ->
    check "error names the limit" true
      (String.length e > 0
      && String.exists (fun c -> c = 'f') e (* "fuel" appears *))
  | Ok _ -> Alcotest.fail "expected rejection")

(* --- distillation cache ---------------------------------------------- *)

let test_dcache_once_per_key_concurrent () =
  let cache : int Dcache.t = Dcache.create () in
  let computes = Atomic.make 0 in
  let compute () =
    Atomic.incr computes;
    Thread.delay 0.02;
    41 + 1
  in
  let results = Array.make 8 (0, false) in
  let threads =
    List.init 8 (fun i ->
        Thread.create
          (fun i -> results.(i) <- Dcache.get cache ~key:"k" ~compute)
          i)
  in
  List.iter Thread.join threads;
  check_int "compute ran exactly once" 1 (Atomic.get computes);
  Array.iter (fun (v, _) -> check_int "all see the one value" 42 v) results;
  check_int "one miss" 1 (Dcache.misses cache);
  check_int "seven hits" 7 (Dcache.hits cache);
  (* distinct key: a fresh compute *)
  let v, hit = Dcache.get cache ~key:"k2" ~compute:(fun () -> 7) in
  check_int "second key computes" 7 v;
  check "second key is a miss" false hit

let test_dcache_failure_clears_slot () =
  let cache : int Dcache.t = Dcache.create () in
  (match Dcache.get cache ~key:"k" ~compute:(fun () -> failwith "boom") with
  | exception Failure m -> check_string "compute's exception" "boom" m
  | _ -> Alcotest.fail "expected the compute failure to re-raise");
  (* the poisoned slot was cleared: a retry computes and caches *)
  let v, hit = Dcache.get cache ~key:"k" ~compute:(fun () -> 5) in
  check_int "retry computes" 5 v;
  check "retry is a miss" false hit;
  let v2, hit2 = Dcache.get cache ~key:"k" ~compute:(fun () -> 99) in
  check_int "then cached" 5 v2;
  check "then a hit" true hit2

let test_dcache_program_key_structural () =
  let p seed = Mssp_fuzz.Gen.generate ~seed ~size:40 () in
  check "equal programs collide" true
    (Dcache.key_of_program (p 3) = Dcache.key_of_program (p 3));
  check "different programs do not" true
    (Dcache.key_of_program (p 3) <> Dcache.key_of_program (p 4))

(* --- admission queue -------------------------------------------------- *)

let test_admission_queue_full_at_cap () =
  let q : int Admission.t = Admission.create ~cap:3 in
  check "1" true (Admission.push q ~client:"a" 1 = Ok ());
  check "2" true (Admission.push q ~client:"b" 2 = Ok ());
  check "3" true (Admission.push q ~client:"a" 3 = Ok ());
  check "at cap" true
    (Admission.push q ~client:"c" 4 = Error Admission.Queue_full);
  check_int "length is cap" 3 (Admission.length q);
  (* popping frees capacity again *)
  ignore (Admission.pop q : int option);
  check "freed" true (Admission.push q ~client:"c" 4 = Ok ())

let test_admission_closed_rejects () =
  let q : int Admission.t = Admission.create ~cap:8 in
  check "before close" true (Admission.push q ~client:"a" 1 = Ok ());
  Admission.close q;
  check "after close" true
    (Admission.push q ~client:"a" 2 = Error Admission.Closed);
  check "queued items still drain" true (Admission.pop q = Some 1);
  check "then the exit signal" true (Admission.pop q = None)

let test_admission_flush_returns_all () =
  let q : int Admission.t = Admission.create ~cap:8 in
  List.iter (fun i -> ignore (Admission.push q ~client:"a" i)) [ 1; 2 ];
  List.iter (fun i -> ignore (Admission.push q ~client:"b" i)) [ 3 ];
  let flushed = Admission.flush q in
  check_int "everything came back" 3 (List.length flushed);
  check "sorted contents match" true (List.sort compare flushed = [ 1; 2; 3 ]);
  check "closed after flush" true (Admission.is_closed q);
  check "empty after flush" true (Admission.pop q = None)

(* a flooding client cannot starve a trickler: with A holding [n] items
   and B holding two, B's second item is served by the fourth pop *)
let test_admission_round_robin_fairness () =
  let q : (string * int) Admission.t = Admission.create ~cap:64 in
  List.iter
    (fun i -> ignore (Admission.push q ~client:"flood" ("flood", i)))
    (List.init 20 Fun.id);
  ignore (Admission.push q ~client:"trickle" ("trickle", 0));
  ignore (Admission.push q ~client:"trickle" ("trickle", 1));
  Admission.close q;
  let rec pops acc = function
    | 0 -> List.rev acc
    | n -> (
      match Admission.pop q with
      | Some x -> pops (x :: acc) (n - 1)
      | None -> List.rev acc)
  in
  let first4 = pops [] 4 in
  let trickles =
    List.filter (fun (c, _) -> c = "trickle") first4 |> List.length
  in
  check_int "both trickle items inside the first four pops" 2 trickles

(* per-client FIFO under random interleaving: whatever the global pop
   order, each client's items come out in push order *)
let prop_admission_per_client_fifo =
  QCheck.Test.make ~name:"service: admission is FIFO per client" ~count:100
    QCheck.(list_of_size Gen.(int_range 0 40) (pair (0 -- 3) small_nat))
    (fun pushes ->
      let q : (int * int) Admission.t = Admission.create ~cap:1000 in
      let seq = Hashtbl.create 4 in
      List.iter
        (fun (c, _) ->
          let n = Option.value ~default:0 (Hashtbl.find_opt seq c) in
          Hashtbl.replace seq c (n + 1);
          ignore
            (Admission.push q ~client:(string_of_int c) (c, n)
              : (unit, Admission.reject) result))
        pushes;
      Admission.close q;
      let rec drain acc =
        match Admission.pop q with
        | Some x -> drain (x :: acc)
        | None -> List.rev acc
      in
      let popped = drain [] in
      List.length popped = List.length pushes
      && Hashtbl.fold
           (fun c n ok ->
             ok
             && List.filter (fun (c', _) -> c' = c) popped
                = List.init n (fun i -> (c, i)))
           seq true)

(* --- the daemon over a real socket ----------------------------------- *)

let lookup stats k =
  match List.assoc_opt k stats with
  | Some v -> v
  | None -> Alcotest.fail (Printf.sprintf "no %s counter" k)

let same_result (o : P.job_result) (r : P.job_result) =
  check_int "cycles" o.P.cycles r.P.cycles;
  check_int "instructions" o.P.instructions r.P.instructions;
  check_int "tasks committed" o.P.tasks_committed r.P.tasks_committed;
  check_int "squashes" o.P.squashes r.P.squashes;
  check "output" true (o.P.output = r.P.output);
  check_string "stop" o.P.stop r.P.stop;
  check_string "state digest" o.P.state_digest r.P.state_digest

let submit_result c spec =
  match Client.submit c spec with
  | Error r -> Alcotest.fail (P.reject_string r)
  | Ok job -> (
    match Client.await c job with
    | Client.Result r, _ -> r
    | _ -> Alcotest.fail "expected a Result terminal")

let test_daemon_result_matches_oracle () =
  with_daemon (daemon_cfg ()) @@ fun d ->
  with_client (Daemon.socket d) @@ fun c ->
  let spec = gen_spec ~seed:11 ~size:80 () in
  let r = submit_result c spec in
  match Daemon.run_inproc spec with
  | Error e -> Alcotest.fail e
  | Ok o -> same_result o r

(* wire compatibility: a Submit line from an older client still carries
   the retired [pool] key. The decoder ignores it — even a malformed
   value — and the job's Result equals the same job without the key. *)
let test_daemon_ignores_retired_pool_key () =
  let spec = gen_spec ~seed:13 ~size:60 () in
  let line_with pool =
    match P.request_to_json (P.Submit spec) with
    | J.Obj [ op; ("spec", J.Obj fields) ] ->
      let spec = J.Obj (fields @ [ ("pool", pool) ]) in
      J.to_string (J.Obj [ op; ("spec", spec) ])
    | _ -> Alcotest.fail "unexpected Submit encoding"
  in
  check "malformed pool decodes" true
    (P.parse_request (line_with (J.Str "x")) = Ok (P.Submit spec));
  with_daemon (daemon_cfg ()) @@ fun d ->
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
  Unix.connect fd (Unix.ADDR_UNIX (Daemon.socket d));
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  output_string oc (line_with (J.Int 4) ^ "\n");
  flush oc;
  let rec terminal () =
    match P.parse_reply (input_line ic) with
    | Ok (P.Accepted _ | P.Event _) -> terminal ()
    | Ok (P.Result { r; _ }) -> r
    | Ok reply -> Alcotest.fail (J.to_string (P.reply_to_json reply))
    | Error e -> Alcotest.fail e
  in
  let legacy = terminal () in
  with_client (Daemon.socket d) @@ fun c ->
  same_result (submit_result c spec) legacy

let test_daemon_duplicate_hits_cache () =
  with_daemon (daemon_cfg ()) @@ fun d ->
  with_client (Daemon.socket d) @@ fun c ->
  let spec = gen_spec ~seed:5 ~size:60 () in
  let run () =
    match Client.submit c spec with
    | Error r -> Alcotest.fail (P.reject_string r)
    | Ok job -> (
      match Client.await c job with
      | Client.Result r, _ -> r
      | _ -> Alcotest.fail "expected a Result terminal")
  in
  let r1 = run () in
  let r2 = run () in
  check "first submission misses" false r1.P.cache_hit;
  check "duplicate hits" true r2.P.cache_hit;
  check "identical results" true
    (r1.P.cycles = r2.P.cycles && r1.P.state_digest = r2.P.state_digest);
  let stats = Daemon.stats d in
  check "cache hit counted" true (lookup stats "cache_hits" >= 1)

(* oversubmission at a tiny queue: every excess submission is answered
   with a structured Queue_full, nothing hangs, and a rejected job
   never executes — the books balance exactly *)
let test_daemon_rejected_never_execute () =
  with_daemon (daemon_cfg ~queue_cap:2 ~workers:1 ()) @@ fun d ->
  with_client (Daemon.socket d) @@ fun c ->
  let n = 24 in
  let accepted = ref [] in
  let rejected = ref 0 in
  for seed = 1 to n do
    match Client.submit c (gen_spec ~seed ~size:200 ()) with
    | Ok job -> accepted := job :: !accepted
    | Error P.Queue_full -> incr rejected
    | Error r -> Alcotest.fail (P.reject_string r)
  done;
  check "the tiny queue rejected some of the flood" true (!rejected > 0);
  (* every accepted job reaches exactly one terminal, all Results *)
  List.iter
    (fun job ->
      match Client.await c job with
      | Client.Result _, _ -> ()
      | _ -> Alcotest.fail "accepted job did not complete")
    !accepted;
  let stats = Daemon.stats d in
  check_int "submissions" n (lookup stats "submitted");
  check_int "books balance: admitted = submitted - rejected"
    (n - !rejected) (lookup stats "admitted");
  check_int "rejections structural" !rejected
    (lookup stats "rejected_queue_full");
  check_int "every admitted job executed" (n - !rejected)
    (lookup stats "completed");
  check_int "no stragglers" 0 (lookup stats "running")

let test_daemon_deadline_cancels_structurally () =
  with_daemon (daemon_cfg ()) @@ fun d ->
  with_client (Daemon.socket d) @@ fun c ->
  (* a job that cannot finish inside 1 ms, streaming requested: the
     cancellation must arrive with zero events released. A hand-written
     countdown loop keeps setup (profile + distill of 4 instructions)
     instant while the run itself spans hundreds of milliseconds —
     squarely across the watchdog's 10 ms tick. *)
  let slow_loop =
    ".base 4096\nli s0, 200000\nsubi s0, s0, 1\nbgt s0, zero, -1\nhalt\n"
  in
  let spec =
    {
      (gen_spec ~size:60 ~deadline_ms:1 ~stream:true ()) with
      P.program = P.Asm slow_loop;
      slaves = 4;
    }
  in
  match Client.submit c spec with
  | Error r -> Alcotest.fail (P.reject_string r)
  | Ok job -> (
    match Client.await c job with
    | Client.Cancelled reason, events ->
      check_string "structured reason" "deadline_exceeded" reason;
      check_int "no partial state reached the sink" 0 (List.length events);
      let stats = Daemon.stats d in
      check_int "deadline counted" 1 (lookup stats "deadlines_exceeded");
      check "daemon still serving" true (Client.ping c)
    | Client.Result _, _ ->
      Alcotest.fail "a 1 ms deadline should not allow completion"
    | Client.Failed { exn; _ }, _ -> Alcotest.fail exn)

let test_daemon_crash_isolated_with_repro () =
  with_daemon (daemon_cfg ~chaos_fatal:(7, 1.0) ~retries:0 ()) @@ fun d ->
  with_client (Daemon.socket d) @@ fun c ->
  let spec = gen_spec ~seed:2 ~size:40 () in
  match Client.submit c spec with
  | Error r -> Alcotest.fail (P.reject_string r)
  | Ok job -> (
    match Client.await c job with
    | Client.Failed { exn; repro }, _ ->
      check "the exception is reported" true (String.length exn > 0);
      (* the repro line is the job's own submit request *)
      (match P.parse_request repro with
      | Ok (P.Submit spec') -> check "repro resubmits the spec" true (spec' = spec)
      | Ok _ -> Alcotest.fail "repro is not a submit"
      | Error e -> Alcotest.fail ("repro does not parse: " ^ e));
      (* crash isolation: the daemon keeps serving after the crash *)
      check "ping after crash" true (Client.ping c);
      (match Client.submit c (gen_spec ~seed:3 ~size:40 ()) with
      | Ok job2 -> (
        match Client.await c job2 with
        | Client.Failed _, _ -> () (* chaos fatal hits every job *)
        | _ -> Alcotest.fail "expected the second chaos crash")
      | Error r -> Alcotest.fail (P.reject_string r));
      check_int "failures counted" 2 (lookup (Daemon.stats d) "failed")
    | _ -> Alcotest.fail "expected a Failed terminal")

let test_daemon_transient_retry_succeeds () =
  (* p = 0.4 with 8 retries: each job survives its flaky attempts
     deterministically (the chaos rolls hash (seed, job, attempt)) *)
  with_daemon (daemon_cfg ~chaos_transient:(13, 0.4) ~retries:8 ())
  @@ fun d ->
  with_client (Daemon.socket d) @@ fun c ->
  let jobs =
    List.init 6 (fun i ->
        match Client.submit c (gen_spec ~seed:(20 + i) ~size:40 ()) with
        | Ok job -> job
        | Error r -> Alcotest.fail (P.reject_string r))
  in
  let attempts =
    List.map
      (fun job ->
        match Client.await c job with
        | Client.Result r, _ -> r.P.attempts
        | Client.Failed { exn; _ }, _ -> Alcotest.fail exn
        | Client.Cancelled reason, _ -> Alcotest.fail reason)
      jobs
  in
  check "some attempt was retried" true (List.exists (fun a -> a > 1) attempts);
  let stats = Daemon.stats d in
  check "retries counted" true (lookup stats "transient_retries" > 0);
  check_int "all six completed" 6 (lookup stats "completed");
  check_int "none failed" 0 (lookup stats "failed")

let test_daemon_drain_wait_completes_queued () =
  let cfg = daemon_cfg ~workers:1 ~drain_policy:`Wait () in
  with_daemon cfg @@ fun d ->
  with_client (Daemon.socket d) @@ fun c ->
  let jobs =
    List.init 4 (fun i ->
        match Client.submit c (gen_spec ~seed:(40 + i) ~size:150 ()) with
        | Ok job -> job
        | Error r -> Alcotest.fail (P.reject_string r))
  in
  Client.drain c;
  (* `Wait: everything already accepted still runs to a Result *)
  List.iter
    (fun job ->
      match Client.await c job with
      | Client.Result _, _ -> ()
      | _ -> Alcotest.fail "drain `Wait must complete accepted jobs")
    jobs;
  (* the daemon observed its own stop; late submissions are refused *)
  let rec settled n =
    if Daemon.stopped d then ()
    else if n = 0 then Alcotest.fail "drain never completed"
    else (
      Thread.delay 0.05;
      settled (n - 1))
  in
  settled 100;
  check_int "all four completed" 4 (lookup (Daemon.stats d) "completed");
  check "socket is gone" true (not (Sys.file_exists cfg.Daemon.socket))

let test_daemon_drain_cancel_answers_queued () =
  with_daemon (daemon_cfg ~workers:1 ~drain_policy:`Cancel ()) @@ fun d ->
  with_client (Daemon.socket d) @@ fun c ->
  (* the single worker first takes a job that runs for seconds, so it
     is still running (or queued) when the drain arrives, and the five
     jobs behind it are necessarily still queued then, however fast the
     host: the drain must cancel, never outrace, the backlog *)
  let blocker =
    match
      Client.submit c
        {
          (gen_spec ~fuel:1_000_000_000 ()) with
          P.program =
            P.Asm
              ".base 4096\nli s0, 2000000\nsubi s0, s0, 1\nbgt s0, zero, -1\nhalt\n";
          slaves = 4;
        }
    with
    | Ok job -> job
    | Error r -> Alcotest.fail (P.reject_string r)
  in
  let jobs =
    List.init 5 (fun i ->
        match
          Client.submit c
            {
              (gen_spec ~seed:(50 + i) ()) with
              P.program = P.Bench { name = "matmul"; size = None };
            }
        with
        | Ok job -> job
        | Error r -> Alcotest.fail (P.reject_string r))
  in
  Client.drain c;
  (match Client.await c blocker with
  | Client.Cancelled reason, _ ->
    check_string "the running job is drained" "drained" reason
  | _ -> Alcotest.fail "the blocking job must be cancelled by the drain");
  let results, cancelled =
    List.fold_left
      (fun (r, k) job ->
        match Client.await c job with
        | Client.Result _, _ -> (r + 1, k)
        | Client.Cancelled reason, _ ->
          check_string "structured drain reason" "drained" reason;
          (r, k + 1)
        | Client.Failed { exn; _ }, _ -> Alcotest.fail exn)
      (0, 0) jobs
  in
  check_int "every accepted job got exactly one terminal" 5
    (results + cancelled);
  check "the backlog was cancelled, not silently dropped" true (cancelled > 0)

let test_daemon_loadtest_bit_identical () =
  with_daemon (daemon_cfg ~workers:4 ()) @@ fun d ->
  let report =
    Loadtest.run ~socket:(Daemon.socket d) ~seed:42 ~jobs:12 ~clients:3
      ~gen_size:50 ()
  in
  check "no oracle mismatches" true (report.Loadtest.mismatches = []);
  check_int "everything completed" report.Loadtest.submitted
    report.Loadtest.completed;
  check_int "nothing rejected" 0 report.Loadtest.rejected;
  check_int "nothing failed" 0 report.Loadtest.failed;
  check "duplicates hit the cache" true (report.Loadtest.cache_hits >= 1)

let () =
  Alcotest.run "service"
    [
      ( "protocol",
        [
          Mssp_testkit.to_alcotest prop_request_roundtrip;
          Mssp_testkit.to_alcotest prop_reply_roundtrip;
          Alcotest.test_case "garbage is Bad_request" `Quick
            test_garbage_is_bad_request;
        ] );
      ( "budget",
        [
          Alcotest.test_case "defaults fill" `Quick test_budget_defaults_fill;
          Mssp_testkit.to_alcotest prop_budget_in_range_passes_through;
          Alcotest.test_case "over-limit rejects" `Quick
            test_budget_over_limit_rejects;
        ] );
      ( "dcache",
        [
          Alcotest.test_case "once per key under concurrency" `Quick
            test_dcache_once_per_key_concurrent;
          Alcotest.test_case "failure clears the slot" `Quick
            test_dcache_failure_clears_slot;
          Alcotest.test_case "program key is structural" `Quick
            test_dcache_program_key_structural;
        ] );
      ( "admission",
        [
          Alcotest.test_case "Queue_full at capacity" `Quick
            test_admission_queue_full_at_cap;
          Alcotest.test_case "closed rejects, queued drains" `Quick
            test_admission_closed_rejects;
          Alcotest.test_case "flush returns everything" `Quick
            test_admission_flush_returns_all;
          Alcotest.test_case "round-robin fairness" `Quick
            test_admission_round_robin_fairness;
          Mssp_testkit.to_alcotest prop_admission_per_client_fifo;
        ] );
      ( "daemon",
        [
          Alcotest.test_case "result matches the serial oracle" `Quick
            test_daemon_result_matches_oracle;
          Alcotest.test_case "retired pool key is ignored" `Quick
            test_daemon_ignores_retired_pool_key;
          Alcotest.test_case "duplicate submission hits the cache" `Quick
            test_daemon_duplicate_hits_cache;
          Alcotest.test_case "rejected jobs never execute" `Quick
            test_daemon_rejected_never_execute;
          Alcotest.test_case "deadline cancels structurally" `Quick
            test_daemon_deadline_cancels_structurally;
          Alcotest.test_case "crash is isolated, with repro" `Quick
            test_daemon_crash_isolated_with_repro;
          Alcotest.test_case "transient chaos retries into success" `Quick
            test_daemon_transient_retry_succeeds;
          Alcotest.test_case "drain `Wait completes the backlog" `Quick
            test_daemon_drain_wait_completes_queued;
          Alcotest.test_case "drain `Cancel answers the backlog" `Quick
            test_daemon_drain_cancel_answers_queued;
          Alcotest.test_case "sustained load is bit-identical" `Quick
            test_daemon_loadtest_bit_identical;
        ] );
    ]
