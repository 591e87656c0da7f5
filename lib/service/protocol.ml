(* Wire protocol: request/reply types and their NDJSON codec. See the
   interface for the framing contract. *)

module J = Mssp_trace.Tjson
module Trace = Mssp_trace.Trace

type program_spec =
  | Bench of { name : string; size : int option }
  | Asm of string
  | Gen of { seed : int; size : int }

type plan_spec = { pl_seed : int; pl_p : float; pl_surfaces : string list }

type job_spec = {
  client : string;
  program : program_spec;
  slaves : int;
  task_size : int;
  predict : string option;
  fuel : int option;
  deadline_ms : int option;
  plan : plan_spec option;
  stream_events : bool;
}

let default_spec =
  {
    client = "anon";
    program = Bench { name = "vecsum"; size = None };
    slaves = 4;
    task_size = 50;
    predict = None;
    fuel = None;
    deadline_ms = None;
    plan = None;
    stream_events = false;
  }

type request = Submit of job_spec | Status | Drain | Ping

type reject_reason =
  | Queue_full
  | Over_budget
  | Shutting_down
  | Bad_request of string

let reject_string = function
  | Queue_full -> "queue_full"
  | Over_budget -> "over_budget"
  | Shutting_down -> "shutting_down"
  | Bad_request _ -> "bad_request"

type job_result = {
  cycles : int;
  instructions : int;
  tasks_committed : int;
  squashes : int;
  output : int list;
  stop : string;
  state_digest : string;
  cache_hit : bool;
  attempts : int;
  wall_ms : float;
}

type reply =
  | Accepted of { job : int }
  | Rejected of { reason : reject_reason }
  | Event of { job : int; event : Trace.event }
  | Result of { job : int; r : job_result }
  | Failed of { job : int; exn : string; repro : string }
  | Cancelled of { job : int; reason : string }
  | Stats of (string * int) list
  | Pong

(* --- encoding -------------------------------------------------------- *)

let opt k f = function None -> [] | Some v -> [ (k, f v) ]

let program_to_json = function
  | Bench { name; size } ->
    J.Obj (("bench", J.Str name) :: opt "size" (fun n -> J.Int n) size)
  | Asm src -> J.Obj [ ("asm", J.Str src) ]
  | Gen { seed; size } ->
    J.Obj [ ("gen_seed", J.Int seed); ("gen_size", J.Int size) ]

let plan_to_json p =
  J.Obj
    [
      ("seed", J.Int p.pl_seed);
      ("p", J.Float p.pl_p);
      ("surfaces", J.List (List.map (fun s -> J.Str s) p.pl_surfaces));
    ]

let spec_to_json s =
  J.Obj
    ([
       ("client", J.Str s.client);
       ("program", program_to_json s.program);
       ("slaves", J.Int s.slaves);
       ("task_size", J.Int s.task_size);
     ]
    @ opt "predict" (fun m -> J.Str m) s.predict
    @ opt "fuel" (fun n -> J.Int n) s.fuel
    @ opt "deadline_ms" (fun n -> J.Int n) s.deadline_ms
    @ opt "plan" plan_to_json s.plan
    @ if s.stream_events then [ ("stream_events", J.Bool true) ] else [])

let request_to_json = function
  | Submit spec -> J.Obj (("op", J.Str "submit") :: [ ("spec", spec_to_json spec) ])
  | Status -> J.Obj [ ("op", J.Str "status") ]
  | Drain -> J.Obj [ ("op", J.Str "drain") ]
  | Ping -> J.Obj [ ("op", J.Str "ping") ]

let result_to_json r =
  J.Obj
    [
      ("cycles", J.Int r.cycles);
      ("instructions", J.Int r.instructions);
      ("tasks_committed", J.Int r.tasks_committed);
      ("squashes", J.Int r.squashes);
      ("output", J.List (List.map (fun v -> J.Int v) r.output));
      ("stop", J.Str r.stop);
      ("state_digest", J.Str r.state_digest);
      ("cache_hit", J.Bool r.cache_hit);
      ("attempts", J.Int r.attempts);
      ("wall_ms", J.Float r.wall_ms);
    ]

let reply_to_json = function
  | Accepted { job } -> J.Obj [ ("ok", J.Str "accepted"); ("job", J.Int job) ]
  | Rejected { reason } ->
    J.Obj
      ([ ("ok", J.Str "rejected"); ("reason", J.Str (reject_string reason)) ]
      @ match reason with Bad_request d -> [ ("detail", J.Str d) ] | _ -> [])
  | Event { job; event } ->
    J.Obj
      [
        ("ok", J.Str "event");
        ("job", J.Int job);
        ("event", Trace.event_to_json event);
      ]
  | Result { job; r } ->
    J.Obj [ ("ok", J.Str "result"); ("job", J.Int job); ("r", result_to_json r) ]
  | Failed { job; exn; repro } ->
    J.Obj
      [
        ("ok", J.Str "failed");
        ("job", J.Int job);
        ("exn", J.Str exn);
        ("repro", J.Str repro);
      ]
  | Cancelled { job; reason } ->
    J.Obj
      [ ("ok", J.Str "cancelled"); ("job", J.Int job); ("reason", J.Str reason) ]
  | Stats counters ->
    J.Obj
      [
        ("ok", J.Str "stats");
        ("counters", J.Obj (List.map (fun (k, v) -> (k, J.Int v)) counters));
      ]
  | Pong -> J.Obj [ ("ok", J.Str "pong") ]

(* --- decoding -------------------------------------------------------- *)

let ( let* ) = Result.bind

let need what = function
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "missing or ill-typed %s" what)

let int_field j k = need k (Option.bind (J.member k j) J.to_int)
let str_field j k = need k (Option.bind (J.member k j) J.to_str)

let float_field j k =
  match J.member k j with
  | Some (J.Float f) -> Ok f
  | Some (J.Int n) -> Ok (float_of_int n)
  | _ -> Error (Printf.sprintf "missing or ill-typed %s" k)

let opt_int j k =
  match J.member k j with
  | None -> Ok None
  | Some v -> (
    match J.to_int v with
    | Some n -> Ok (Some n)
    | None -> Error (Printf.sprintf "ill-typed %s" k))

let opt_str j k =
  match J.member k j with
  | None -> Ok None
  | Some v -> (
    match J.to_str v with
    | Some s -> Ok (Some s)
    | None -> Error (Printf.sprintf "ill-typed %s" k))

let bool_field_default j k =
  match J.member k j with Some (J.Bool b) -> b | _ -> false

let program_of_json j =
  match (J.member "bench" j, J.member "asm" j, J.member "gen_seed" j) with
  | Some (J.Str name), None, None ->
    let* size = opt_int j "size" in
    Ok (Bench { name; size })
  | None, Some (J.Str src), None -> Ok (Asm src)
  | None, None, Some _ ->
    let* seed = int_field j "gen_seed" in
    let* size = int_field j "gen_size" in
    Ok (Gen { seed; size })
  | _ -> Error "program wants exactly one of bench/asm/gen_seed"

let plan_of_json j =
  let* pl_seed = int_field j "seed" in
  let* pl_p = float_field j "p" in
  let* surfaces = need "surfaces" (Option.bind (J.member "surfaces" j) J.to_list) in
  let* pl_surfaces =
    List.fold_right
      (fun s acc ->
        let* acc = acc in
        let* s = need "surface name" (J.to_str s) in
        Ok (s :: acc))
      surfaces (Ok [])
  in
  Ok { pl_seed; pl_p; pl_surfaces }

let spec_of_json j =
  let* client = str_field j "client" in
  let* pj = need "program" (J.member "program" j) in
  let* program = program_of_json pj in
  let* slaves = int_field j "slaves" in
  let* task_size = int_field j "task_size" in
  let* predict = opt_str j "predict" in
  let* fuel = opt_int j "fuel" in
  let* deadline_ms = opt_int j "deadline_ms" in
  let* plan =
    match J.member "plan" j with
    | None -> Ok None
    | Some pj ->
      let* p = plan_of_json pj in
      Ok (Some p)
  in
  let stream_events = bool_field_default j "stream_events" in
  Ok
    {
      client;
      program;
      slaves;
      task_size;
      predict;
      fuel;
      deadline_ms;
      plan;
      stream_events;
    }

let request_of_json j =
  let* op = str_field j "op" in
  match op with
  | "submit" ->
    let* sj = need "spec" (J.member "spec" j) in
    let* spec = spec_of_json sj in
    Ok (Submit spec)
  | "status" -> Ok Status
  | "drain" -> Ok Drain
  | "ping" -> Ok Ping
  | op -> Error (Printf.sprintf "unknown op %S" op)

let result_of_json j =
  let* cycles = int_field j "cycles" in
  let* instructions = int_field j "instructions" in
  let* tasks_committed = int_field j "tasks_committed" in
  let* squashes = int_field j "squashes" in
  let* out = need "output" (Option.bind (J.member "output" j) J.to_list) in
  let* output =
    List.fold_right
      (fun v acc ->
        let* acc = acc in
        let* v = need "output word" (J.to_int v) in
        Ok (v :: acc))
      out (Ok [])
  in
  let* stop = str_field j "stop" in
  let* state_digest = str_field j "state_digest" in
  let cache_hit = bool_field_default j "cache_hit" in
  let* attempts = int_field j "attempts" in
  let* wall_ms = float_field j "wall_ms" in
  Ok
    {
      cycles;
      instructions;
      tasks_committed;
      squashes;
      output;
      stop;
      state_digest;
      cache_hit;
      attempts;
      wall_ms;
    }

let reply_of_json j =
  let* ok = str_field j "ok" in
  match ok with
  | "accepted" ->
    let* job = int_field j "job" in
    Ok (Accepted { job })
  | "rejected" -> (
    let* reason = str_field j "reason" in
    match reason with
    | "queue_full" -> Ok (Rejected { reason = Queue_full })
    | "over_budget" -> Ok (Rejected { reason = Over_budget })
    | "shutting_down" -> Ok (Rejected { reason = Shutting_down })
    | "bad_request" ->
      let detail =
        Option.value ~default:""
          (Option.bind (J.member "detail" j) J.to_str)
      in
      Ok (Rejected { reason = Bad_request detail })
    | r -> Error (Printf.sprintf "unknown reject reason %S" r))
  | "event" ->
    let* job = int_field j "job" in
    let* ej = need "event" (J.member "event" j) in
    let* event = Trace.event_of_json ej in
    Ok (Event { job; event })
  | "result" ->
    let* job = int_field j "job" in
    let* rj = need "r" (J.member "r" j) in
    let* r = result_of_json rj in
    Ok (Result { job; r })
  | "failed" ->
    let* job = int_field j "job" in
    let* exn = str_field j "exn" in
    let* repro = str_field j "repro" in
    Ok (Failed { job; exn; repro })
  | "cancelled" ->
    let* job = int_field j "job" in
    let* reason = str_field j "reason" in
    Ok (Cancelled { job; reason })
  | "stats" -> (
    match J.member "counters" j with
    | Some (J.Obj kvs) ->
      let* counters =
        List.fold_right
          (fun (k, v) acc ->
            let* acc = acc in
            let* v = need ("counter " ^ k) (J.to_int v) in
            Ok ((k, v) :: acc))
          kvs (Ok [])
      in
      Ok (Stats counters)
    | _ -> Error "missing or ill-typed counters")
  | "pong" -> Ok Pong
  | ok -> Error (Printf.sprintf "unknown reply kind %S" ok)

let parse_request line =
  let* j = J.parse line in
  request_of_json j

let parse_reply line =
  let* j = J.parse line in
  reply_of_json j

(* A dead peer surfaces as EPIPE/Bad_file_descriptor mid-write; the
   daemon treats that as "client gone", never as a daemon failure. *)
let write_line m oc j =
  Mutex.lock m;
  let ok =
    try
      output_string oc (J.to_string j);
      output_char oc '\n';
      flush oc;
      true
    with Sys_error _ | Unix.Unix_error _ -> false
  in
  Mutex.unlock m;
  ok
