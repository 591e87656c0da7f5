(** The daemon's wire protocol: newline-delimited JSON over a
    Unix-domain socket.

    Each line is one JSON object — a {!request} from client to daemon or
    a {!reply} back. The codec is total in both directions over the
    constructors below and round-trips structurally (pinned by a QCheck
    property), so a client written against this module can never
    desynchronize the stream: an unparseable line is a {!reject_reason}
    [Bad_request], never a hang. Object keys the decoder does not know
    are ignored, so a request from an older client that still carries a
    retired field (such as [pool]) is served as if the key were absent.

    Replies for different jobs interleave freely on one connection; each
    carries the job id it belongs to. Per job the daemon sends exactly
    one terminal reply — [Result], [Failed] or [Cancelled] — and sends
    [Event] lines (the run's buffered trace stream) only {e before} a
    [Result], never after a failure or cancellation. *)

type program_spec =
  | Bench of { name : string; size : int option }
      (** a registry benchmark ({!Mssp_workload.Workload.all}); [size]
          defaults to the benchmark's train size *)
  | Asm of string  (** assembly text, assembled by {!Mssp_asm.Parser} *)
  | Gen of { seed : int; size : int }
      (** a fuzzer program, {!Mssp_fuzz.Gen.generate} — deterministic in
          [(seed, size)], which is what lets the load tester recompute
          the same program in-process for the serial oracle *)

type plan_spec = {
  pl_seed : int;
  pl_p : float;
  pl_surfaces : string list;
      (** {!Mssp_faults.Plan.surface_name}s; must all be absorbable *)
}

type job_spec = {
  client : string;  (** admission fairness key *)
  program : program_spec;
  slaves : int;
  task_size : int;
  predict : string option;  (** {!Mssp_predict.Predict.mode_of_string} *)
  fuel : int option;
      (** simulated-cycle budget ([max_cycles]); [None] takes the
          daemon's default, values over its maximum are rejected
          [Over_budget] *)
  deadline_ms : int option;  (** wall-clock deadline, from execution start *)
  plan : plan_spec option;
  stream_events : bool;
      (** stream the run's trace events back before the [Result] *)
}

val default_spec : job_spec
(** vecsum at train size, 4 slaves, task size 50, everything else
    deferred to the daemon's defaults. *)

type request =
  | Submit of job_spec
  | Status  (** counters snapshot; answered with [Stats] *)
  | Drain  (** begin graceful shutdown; answered with [Pong] *)
  | Ping

type reject_reason =
  | Queue_full  (** bounded admission queue at capacity — back off *)
  | Over_budget  (** the spec asks for more than the daemon's limits *)
  | Shutting_down  (** draining; no new work is admitted *)
  | Bad_request of string  (** unparseable line or unresolvable spec *)

val reject_string : reject_reason -> string

type job_result = {
  cycles : int;
  instructions : int;  (** {!Mssp_core.Mssp_machine.total_committed} *)
  tasks_committed : int;
  squashes : int;
  output : int list;  (** the architected output stream *)
  stop : string;  (** {!Mssp_core.Mssp_machine.stop_string} *)
  state_digest : string;
      (** digest of the final architected state's observable snapshot —
          the wire form of [Full.equal_observable], strong enough for
          the load tester's bit-identity check *)
  cache_hit : bool;  (** the distillation cache already had this program *)
  attempts : int;  (** 1 + transient retries this job consumed *)
  wall_ms : float;
}

type reply =
  | Accepted of { job : int }
  | Rejected of { reason : reject_reason }
  | Event of { job : int; event : Mssp_trace.Trace.event }
  | Result of { job : int; r : job_result }
  | Failed of { job : int; exn : string; repro : string }
      (** the job's thunk raised; [repro] is the submit line that
          reproduces it. The daemon survives and keeps serving. *)
  | Cancelled of { job : int; reason : string }
      (** deadline, drain, or client-requested; no partial results were
          released to any sink *)
  | Stats of (string * int) list
  | Pong

val request_to_json : request -> Mssp_trace.Tjson.t
val request_of_json : Mssp_trace.Tjson.t -> (request, string) result
val reply_to_json : reply -> Mssp_trace.Tjson.t
val reply_of_json : Mssp_trace.Tjson.t -> (reply, string) result

val parse_request : string -> (request, string) result
(** One NDJSON line to a request. *)

val parse_reply : string -> (reply, string) result

val write_line : Mutex.t -> out_channel -> Mssp_trace.Tjson.t -> bool
(** Serialize, write one line, flush — under the channel's mutex so
    replies from concurrent workers never interleave mid-line. [false]
    (instead of an exception) when the peer is gone. *)
