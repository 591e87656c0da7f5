(* The simulation-job daemon. Thread layout:

     acceptor ─┬─ reader (one per connection): parse, admit, reply
               │     │ push
               │     ▼
               │  Admission queue (bounded, per-client round-robin)
               │     │ pop
               │     ▼
               ├─ worker × N: distill (cached) + simulate + reply
               └─ watchdog: wall-clock deadlines -> cooperative cancel

   Simulations run whole on worker systhreads of the one service domain;
   the cooperative interrupt hook (config.interrupt) is the single cancel
   mechanism shared by deadlines and drain. All daemon state is under
   [d.m] except the admission queue and the per-job cancel cells, which
   have their own synchronization. *)

module J = Mssp_trace.Tjson
module Trace = Mssp_trace.Trace
module P = Protocol
module M = Mssp_core.Mssp_machine
module Config = Mssp_core.Mssp_config
module W = Mssp_workload.Workload
module Plan = Mssp_faults.Plan
module Predict = Mssp_predict.Predict
module Distill = Mssp_distill.Distill
module Profile = Mssp_profile.Profile
module Full = Mssp_state.Full

type drain_policy = [ `Wait | `Cancel ]

type config = {
  socket : string;
  queue_cap : int;
  workers : int;
  limits : Budget.limits;
  retries : int;
  backoff_ms : float;
  drain_policy : drain_policy;
  log : string option;
  chaos_transient : (int * float) option;
  chaos_fatal : (int * float) option;
}

let default_config =
  {
    socket = Filename.concat (Filename.get_temp_dir_name ()) "mssp_simd.sock";
    queue_cap = 64;
    workers = 4;
    limits = Budget.default_limits;
    retries = 3;
    backoff_ms = 5.;
    drain_policy = `Wait;
    log = None;
    chaos_transient = None;
    chaos_fatal = None;
  }

(* --- spec resolution (pure; shared with the in-process oracle) ------- *)

let err fmt = Printf.ksprintf (fun s -> Error s) fmt

let resolve_program (spec : P.job_spec) =
  match spec.P.program with
  | P.Bench { name; size } -> (
    match List.find_opt (fun b -> b.W.name = name) W.all with
    | None -> err "unknown benchmark %S" name
    | Some b ->
      let size = Option.value ~default:b.W.train_size size in
      if size < 1 then err "benchmark size %d < 1" size
      else Ok (b.W.program ~size))
  | P.Asm src -> (
    match Mssp_asm.Parser.parse src with
    | Ok p -> Ok p
    | Error e -> err "%s" (Format.asprintf "%a" Mssp_asm.Parser.pp_error e))
  | P.Gen { seed; size } ->
    if size < 1 || size > 10_000 then err "gen_size %d outside [1, 10000]" size
    else Ok (Mssp_fuzz.Gen.generate ~seed ~size ())

let resolve_plan (ps : P.plan_spec) =
  let surface_of_name n =
    List.find_opt
      (fun s -> Plan.surface_name s = n)
      Plan.absorbable_surfaces
  in
  let rec surfaces acc = function
    | [] -> Ok (List.rev acc)
    | n :: rest -> (
      match surface_of_name n with
      | Some s -> surfaces (s :: acc) rest
      | None -> err "unknown or non-absorbable fault surface %S" n)
  in
  Result.map
    (fun ss ->
      let actions =
        List.mapi
          (fun i s -> Plan.action s ~seed:(ps.P.pl_seed + i) ~p:ps.P.pl_p)
          ss
      in
      (* a stall plan without a watchdog never terminates; arm it *)
      let policy =
        if List.mem Plan.Slave_stall ss then
          { Plan.default_policy with Plan.watchdog_cycles = Some 100_000 }
        else Plan.default_policy
      in
      Plan.make ~policy actions)
    (surfaces [] ps.P.pl_surfaces)

let job_config (spec : P.job_spec) ~fuel =
  let predict =
    match spec.P.predict with
    | None -> Ok Predict.Off
    | Some s -> (
      match Predict.mode_of_string s with
      | Some m -> Ok m
      | None -> err "unknown predictor mode %S" s)
  in
  Result.bind predict (fun predict ->
      Result.bind
        (match spec.P.plan with
        | None -> Ok None
        | Some ps -> Result.map Option.some (resolve_plan ps))
        (fun faults ->
          let base = Config.with_slaves spec.P.slaves Config.default in
          Ok
            {
              base with
              Config.task_size = spec.P.task_size;
              predict;
              faults;
              max_cycles = fuel;
            }))

let distill_program p = Distill.distill p (Profile.collect p)

let state_digest st =
  Digest.to_hex
    (Digest.string (Mssp_state.Fragment.show (Full.snapshot st)))

let result_of_run ~cache_hit ~attempts ~wall_ms (r : M.result) =
  {
    P.cycles = r.M.stats.M.cycles;
    instructions = M.total_committed r;
    tasks_committed = r.M.stats.M.tasks_committed;
    squashes = r.M.stats.M.squashes;
    output = Mssp_seq.Machine.output r.M.arch;
    stop = M.stop_string r.M.stop;
    state_digest = state_digest r.M.arch;
    cache_hit;
    attempts;
    wall_ms;
  }

let run_inproc ?(limits = Budget.default_limits) (spec : P.job_spec) =
  Result.bind (Budget.admit limits spec) (fun grant ->
      Result.bind (resolve_program spec) (fun program ->
          Result.bind (job_config spec ~fuel:grant.Budget.g_fuel)
            (fun config ->
              let r = M.run ~config (distill_program program) in
              Ok (result_of_run ~cache_hit:false ~attempts:1 ~wall_ms:0. r))))

(* --- daemon state ---------------------------------------------------- *)

type conn = {
  fd : Unix.file_descr;
  ic : in_channel;
  oc : out_channel;
  wm : Mutex.t;  (* reply lines never interleave mid-line *)
}

type job = {
  id : int;
  spec : P.job_spec;
  program : Mssp_isa.Program.t;
  key : string;
  grant : Budget.grant;
  base_config : Config.t;  (* validated at admission; tracer/interrupt off *)
  jconn : conn;
  cancel : string option Atomic.t;
}

type counters = {
  mutable submitted : int;
  mutable admitted : int;
  mutable rejected_queue_full : int;
  mutable rejected_over_budget : int;
  mutable rejected_shutting_down : int;
  mutable rejected_bad_request : int;
  mutable completed : int;
  mutable failed : int;
  mutable cancelled : int;
  mutable deadlines : int;
  mutable transient_retries : int;
}

type t = {
  cfg : config;
  t0 : float;
  listen_fd : Unix.file_descr;
  queue : job Admission.t;
  cache : Distill.t Dcache.t;
  tracer : Trace.t;
  trm : Mutex.t;  (* Trace.emit is not thread-safe; serialize emissions *)
  ring : Trace.Ring.buf;
  log_oc : out_channel option;
  m : Mutex.t;
  mutable next_id : int;
  running : (int, float * job) Hashtbl.t;
  mutable conns : conn list;
  c : counters;
  (* lifecycle: stop is idempotent, late callers block on the first *)
  stop_m : Mutex.t;
  stop_c : Condition.t;
  mutable stopping : bool;
  mutable stopped : bool;
  wd_stop : bool Atomic.t;
  mutable workers : Thread.t list;
  mutable watchdog : Thread.t option;
  mutable acceptor : Thread.t option;
}

let socket d = d.cfg.socket

let stopped d =
  Mutex.lock d.stop_m;
  let s = d.stopped in
  Mutex.unlock d.stop_m;
  s

let ms d = int_of_float ((Unix.gettimeofday () -. d.t0) *. 1000.)

let emit d ev =
  Mutex.lock d.trm;
  Trace.emit d.tracer ev;
  Mutex.unlock d.trm

let send (conn : conn) reply =
  ignore (P.write_line conn.wm conn.oc (P.reply_to_json reply) : bool)

let stats d =
  Mutex.lock d.m;
  let c = d.c in
  let snapshot =
    [
      ("submitted", c.submitted);
      ("admitted", c.admitted);
      ("rejected_queue_full", c.rejected_queue_full);
      ("rejected_over_budget", c.rejected_over_budget);
      ("rejected_shutting_down", c.rejected_shutting_down);
      ("rejected_bad_request", c.rejected_bad_request);
      ("completed", c.completed);
      ("failed", c.failed);
      ("cancelled", c.cancelled);
      ("deadlines_exceeded", c.deadlines);
      ("transient_retries", c.transient_retries);
      ("running", Hashtbl.length d.running);
    ]
  in
  Mutex.unlock d.m;
  snapshot
  @ [
      ("queued", Admission.length d.queue);
      ("workers", List.length d.workers);
      ("cache_hits", Dcache.hits d.cache);
      ("cache_misses", Dcache.misses d.cache);
    ]

let events d =
  Mutex.lock d.trm;
  let evs = Trace.Ring.contents d.ring in
  Mutex.unlock d.trm;
  evs

(* --- chaos (test knobs): deterministic rolls ------------------------- *)

exception Chaos_transient

let chaos_roll ~seed ~salt =
  let dg = Digest.string (Printf.sprintf "%d/%d" seed salt) in
  let v = ref 0 in
  for i = 0 to 6 do
    v := (!v lsl 8) lor Char.code dg.[i]
  done;
  float_of_int !v /. float_of_int (1 lsl 56)

let chaos_fires knob ~salt =
  match knob with
  | None -> false
  | Some (seed, p) -> chaos_roll ~seed ~salt < p

(* --- job execution --------------------------------------------------- *)

let run_attempts d job =
  (* a deterministic "bug" in the job's thunk, for crash-isolation tests *)
  if chaos_fires d.cfg.chaos_fatal ~salt:job.id then
    failwith (Printf.sprintf "chaos: injected fatal fault (job %d)" job.id);
  let dist, cache_hit =
    Dcache.get d.cache ~key:job.key ~compute:(fun () ->
        distill_program job.program)
  in
  let rec attempt k =
    (* fresh recording per attempt: a retried run must not replay the
       failed attempt's events into the client stream *)
    let tracer, recorded =
      if job.spec.P.stream_events then
        let tr, get = Trace.recording () in
        (Some tr, get)
      else (None, fun () -> [])
    in
    let config =
      {
        job.base_config with
        Config.tracer;
        interrupt = Some (fun () -> Atomic.get job.cancel);
      }
    in
    match
      if chaos_fires d.cfg.chaos_transient ~salt:((job.id * 1009) + k) then
        raise Chaos_transient
      else M.run ~config dist
    with
    | r -> (r, cache_hit, k + 1, recorded ())
    | exception Chaos_transient when k < d.cfg.retries ->
      Mutex.lock d.m;
      d.c.transient_retries <- d.c.transient_retries + 1;
      Mutex.unlock d.m;
      Thread.delay (d.cfg.backoff_ms *. (2. ** float_of_int k) /. 1000.);
      attempt (k + 1)
  in
  attempt 0

let repro_line (spec : P.job_spec) =
  J.to_string (P.request_to_json (P.Submit spec))

let run_job d job =
  match Atomic.get job.cancel with
  | Some why ->
    (* cancelled while still queued (drain `Cancel races the pop) *)
    Mutex.lock d.m;
    d.c.cancelled <- d.c.cancelled + 1;
    Mutex.unlock d.m;
    send job.jconn (P.Cancelled { job = job.id; reason = why })
  | None -> (
    let t0 = Unix.gettimeofday () in
    Mutex.lock d.m;
    Hashtbl.replace d.running job.id (t0, job);
    Mutex.unlock d.m;
    let outcome =
      try `Ran (run_attempts d job)
      with e -> `Raised (Printexc.to_string e)
    in
    Mutex.lock d.m;
    Hashtbl.remove d.running job.id;
    Mutex.unlock d.m;
    let wall_ms = (Unix.gettimeofday () -. t0) *. 1000. in
    match outcome with
    | `Raised exn ->
      Mutex.lock d.m;
      d.c.failed <- d.c.failed + 1;
      Mutex.unlock d.m;
      send job.jconn
        (P.Failed { job = job.id; exn; repro = repro_line job.spec })
    | `Ran (r, cache_hit, attempts, recorded) -> (
      match r.M.stop with
      | M.Interrupted why ->
        (* no partial state escapes: events and result are dropped *)
        Mutex.lock d.m;
        d.c.cancelled <- d.c.cancelled + 1;
        Mutex.unlock d.m;
        send job.jconn (P.Cancelled { job = job.id; reason = why })
      | _ ->
        Mutex.lock d.m;
        d.c.completed <- d.c.completed + 1;
        Mutex.unlock d.m;
        List.iter
          (fun event -> send job.jconn (P.Event { job = job.id; event }))
          recorded;
        send job.jconn
          (P.Result
             { job = job.id; r = result_of_run ~cache_hit ~attempts ~wall_ms r })))

let rec worker d =
  match Admission.pop d.queue with
  | None -> ()  (* closed and empty: drain complete for this worker *)
  | Some job ->
    run_job d job;
    worker d

(* --- admission ------------------------------------------------------- *)

let reject d conn ~client reason =
  Mutex.lock d.m;
  (match reason with
  | P.Queue_full -> d.c.rejected_queue_full <- d.c.rejected_queue_full + 1
  | P.Over_budget -> d.c.rejected_over_budget <- d.c.rejected_over_budget + 1
  | P.Shutting_down ->
    d.c.rejected_shutting_down <- d.c.rejected_shutting_down + 1
  | P.Bad_request _ ->
    d.c.rejected_bad_request <- d.c.rejected_bad_request + 1);
  Mutex.unlock d.m;
  emit d
    (Trace.Reject { cycle = ms d; client; reason = P.reject_string reason });
  send conn (P.Rejected { reason })

let handle_submit d conn (spec : P.job_spec) =
  Mutex.lock d.m;
  d.c.submitted <- d.c.submitted + 1;
  Mutex.unlock d.m;
  let client = spec.P.client in
  match resolve_program spec with
  | Error e -> reject d conn ~client (P.Bad_request e)
  | Ok program -> (
    match Budget.admit d.cfg.limits spec with
    | Error _overrun -> reject d conn ~client P.Over_budget
    | Ok grant -> (
      match job_config spec ~fuel:grant.Budget.g_fuel with
      | Error e -> reject d conn ~client (P.Bad_request e)
      | Ok base_config -> (
        Mutex.lock d.m;
        let id = d.next_id in
        d.next_id <- id + 1;
        Mutex.unlock d.m;
        let job =
          {
            id;
            spec;
            program;
            key = Dcache.key_of_program program;
            grant;
            base_config;
            jconn = conn;
            cancel = Atomic.make None;
          }
        in
        match Admission.push d.queue ~client job with
        | Error Admission.Queue_full -> reject d conn ~client P.Queue_full
        | Error Admission.Closed -> reject d conn ~client P.Shutting_down
        | Ok () ->
          Mutex.lock d.m;
          d.c.admitted <- d.c.admitted + 1;
          Mutex.unlock d.m;
          emit d (Trace.Admit { cycle = ms d; job = id; client });
          send conn (P.Accepted { job = id }))))

(* --- drain / stop ---------------------------------------------------- *)

let stop ?policy d =
  Mutex.lock d.stop_m;
  if d.stopping then begin
    while not d.stopped do
      Condition.wait d.stop_c d.stop_m
    done;
    Mutex.unlock d.stop_m
  end
  else begin
    d.stopping <- true;
    Mutex.unlock d.stop_m;
    let policy = Option.value ~default:d.cfg.drain_policy policy in
    Mutex.lock d.m;
    let running_now = Hashtbl.length d.running in
    Mutex.unlock d.m;
    emit d
      (Trace.Drain
         {
           cycle = ms d;
           pending = Admission.length d.queue;
           running = running_now;
         });
    (match policy with
    | `Wait -> Admission.close d.queue
    | `Cancel ->
      let dropped = Admission.flush d.queue in
      List.iter
        (fun job ->
          Mutex.lock d.m;
          d.c.cancelled <- d.c.cancelled + 1;
          Mutex.unlock d.m;
          send job.jconn (P.Cancelled { job = job.id; reason = "drained" }))
        dropped;
      Mutex.lock d.m;
      let running = Hashtbl.fold (fun _ (_, j) acc -> j :: acc) d.running [] in
      Mutex.unlock d.m;
      List.iter
        (fun job ->
          ignore
            (Atomic.compare_and_set job.cancel None (Some "drained") : bool))
        running);
    (* workers exit once the (closed) queue runs dry *)
    List.iter Thread.join d.workers;
    Atomic.set d.wd_stop true;
    Option.iter Thread.join d.watchdog;
    (* wake the acceptor out of Unix.accept, then join it; close alone
       does not interrupt a blocked accept on Linux, shutdown does *)
    (try Unix.shutdown d.listen_fd Unix.SHUTDOWN_ALL
     with Unix.Unix_error _ -> ());
    (try Unix.close d.listen_fd with Unix.Unix_error _ -> ());
    (try Unix.unlink d.cfg.socket with Unix.Unix_error _ | Sys_error _ -> ());
    Option.iter Thread.join d.acceptor;
    (* nudge readers out of input_line; they close their own fds *)
    Mutex.lock d.m;
    let conns = d.conns in
    d.conns <- [];
    Mutex.unlock d.m;
    List.iter
      (fun conn ->
        try Unix.shutdown conn.fd Unix.SHUTDOWN_ALL
        with Unix.Unix_error _ -> ())
      conns;
    Option.iter close_out_noerr d.log_oc;
    Mutex.lock d.stop_m;
    d.stopped <- true;
    Condition.broadcast d.stop_c;
    Mutex.unlock d.stop_m
  end

(* --- connection handling --------------------------------------------- *)

let reader d conn =
  let cleanup () =
    Mutex.lock d.m;
    d.conns <- List.filter (fun c -> c != conn) d.conns;
    Mutex.unlock d.m;
    (try Unix.shutdown conn.fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
    try close_in conn.ic with Sys_error _ -> ()
  in
  let rec loop () =
    match input_line conn.ic with
    | exception (End_of_file | Sys_error _) -> cleanup ()
    | line -> (
      match P.parse_request line with
      | Error e ->
        reject d conn ~client:"?" (P.Bad_request e);
        loop ()
      | Ok P.Ping ->
        send conn P.Pong;
        loop ()
      | Ok P.Status ->
        send conn (P.Stats (stats d));
        loop ()
      | Ok P.Drain ->
        send conn P.Pong;
        (* detached: the reader must stay responsive while draining *)
        ignore (Thread.create (fun () -> stop d) () : Thread.t);
        loop ()
      | Ok (P.Submit spec) ->
        (if d.stopping then
           reject d conn ~client:spec.P.client P.Shutting_down
         else handle_submit d conn spec);
        loop ())
  in
  loop ()

let rec accept_loop d =
  match Unix.accept d.listen_fd with
  | exception Unix.Unix_error ((Unix.EBADF | Unix.EINVAL | Unix.ECONNABORTED), _, _)
    ->
    if d.stopping then () else accept_loop d
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> accept_loop d
  | fd, _ ->
    let conn =
      {
        fd;
        ic = Unix.in_channel_of_descr fd;
        oc = Unix.out_channel_of_descr fd;
        wm = Mutex.create ();
      }
    in
    Mutex.lock d.m;
    d.conns <- conn :: d.conns;
    Mutex.unlock d.m;
    ignore (Thread.create (reader d) conn : Thread.t);
    accept_loop d

(* --- deadline watchdog ----------------------------------------------- *)

let rec watchdog_loop d =
  if Atomic.get d.wd_stop then ()
  else begin
    Thread.delay 0.01;
    let now = Unix.gettimeofday () in
    Mutex.lock d.m;
    let expired =
      Hashtbl.fold
        (fun _ (started, job) acc ->
          if
            Atomic.get job.cancel = None
            && (now -. started) *. 1000.
               > float_of_int job.grant.Budget.g_deadline_ms
          then job :: acc
          else acc)
        d.running []
    in
    List.iter
      (fun job ->
        if
          Atomic.compare_and_set job.cancel None (Some "deadline_exceeded")
        then d.c.deadlines <- d.c.deadlines + 1)
      expired;
    Mutex.unlock d.m;
    List.iter (fun job -> emit d (Trace.Deadline { cycle = ms d; job = job.id }))
      expired;
    watchdog_loop d
  end

(* --- startup --------------------------------------------------------- *)

let start cfg =
  (* a dead client must surface as a failed write, not a dead daemon *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  (try Unix.unlink cfg.socket with Unix.Unix_error _ | Sys_error _ -> ());
  let listen_fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind listen_fd (Unix.ADDR_UNIX cfg.socket);
  Unix.listen listen_fd 64;
  let tracer = Trace.create () in
  let ring = Trace.Ring.create 4096 in
  Trace.attach tracer (Trace.Ring.sink ring);
  let log_oc =
    Option.map
      (fun path ->
        let oc = open_out path in
        Trace.attach tracer (Trace.jsonl_sink oc);
        oc)
      cfg.log
  in
  let d =
    {
      cfg;
      t0 = Unix.gettimeofday ();
      listen_fd;
      queue = Admission.create ~cap:cfg.queue_cap;
      cache = Dcache.create ();
      tracer;
      trm = Mutex.create ();
      ring;
      log_oc;
      m = Mutex.create ();
      next_id = 1;
      running = Hashtbl.create 16;
      conns = [];
      c =
        {
          submitted = 0;
          admitted = 0;
          rejected_queue_full = 0;
          rejected_over_budget = 0;
          rejected_shutting_down = 0;
          rejected_bad_request = 0;
          completed = 0;
          failed = 0;
          cancelled = 0;
          deadlines = 0;
          transient_retries = 0;
        };
      stop_m = Mutex.create ();
      stop_c = Condition.create ();
      stopping = false;
      stopped = false;
      wd_stop = Atomic.make false;
      workers = [];
      watchdog = None;
      acceptor = None;
    }
  in
  d.workers <-
    List.init (max 1 cfg.workers) (fun _ -> Thread.create worker d);
  d.watchdog <- Some (Thread.create watchdog_loop d);
  d.acceptor <- Some (Thread.create accept_loop d);
  d
