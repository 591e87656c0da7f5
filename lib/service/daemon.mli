(** The simulation-job daemon: a long-lived server that accepts
    {!Protocol} jobs over a Unix-domain socket, schedules them across
    worker threads (each runs whole simulations, one at a time), and
    streams results back — engineered so that every failure mode has a
    structured answer and none of them takes the daemon down:

    - {b admission control}: a bounded per-client round-robin queue
      ({!Admission}); at capacity a submission is answered
      [Rejected Queue_full] immediately — backpressure, never a hang;
    - {b budgets}: per-job simulated-cycle fuel and wall-clock
      deadlines ({!Budget}), the latter enforced by a watchdog thread
      that cancels the run cooperatively (the machine's
      [config.interrupt] hook) and answers [Cancelled
      "deadline_exceeded"];
    - {b crash isolation}: a job whose thunk raises is answered
      [Failed] with the exception and a one-line repro (its own submit
      request); the daemon keeps serving;
    - {b retry with backoff}: failures classified as transient are
      retried with exponential backoff before being reported, mirroring
      the simulated machine's own spawn/verify retry policy;
    - {b distillation cache}: programs are distilled at most once
      process-wide ({!Dcache}), keyed by program digest;
    - {b graceful drain}: {!stop} refuses new work, then either waits
      for queued jobs ([`Wait]) or cancels them with structured replies
      ([`Cancel]); accepted jobs are never silently dropped.

    The daemon's own lifecycle emits {!Mssp_trace.Trace} service events
    ([Admit]/[Reject]/[Deadline]/[Drain], cycle = milliseconds since
    start) into a ring buffer and, when configured, a JSONL log — the
    same sinks the machine's traces use. *)

type drain_policy = [ `Wait | `Cancel ]

type config = {
  socket : string;  (** Unix-domain socket path; replaced if present *)
  queue_cap : int;  (** bounded admission queue capacity *)
  workers : int;  (** concurrent jobs (worker threads) *)
  limits : Budget.limits;
  retries : int;  (** transient-failure retries per job *)
  backoff_ms : float;  (** base backoff; retry [k] waits [2^k] times it *)
  drain_policy : drain_policy;
  log : string option;  (** JSONL service-event log path *)
  chaos_transient : (int * float) option;
      (** TEST ONLY [(seed, p)]: each execution attempt fails with a
          transient error with probability [p] — deterministic in
          [(seed, job id, attempt)] — to exercise the retry path *)
  chaos_fatal : (int * float) option;
      (** TEST ONLY [(seed, p)]: a job's thunk raises with probability
          [p] — deterministic in [(seed, job id)] — to exercise crash
          isolation *)
}

val default_config : config
(** Socket under the temp dir, queue of 64, 4 workers, default limits,
    3 retries from 5 ms, [`Wait] drain, no log, no chaos. *)

type t

val start : config -> t
(** Bind the socket, spawn acceptor + workers + deadline watchdog, and
    return immediately. Ignores SIGPIPE process-wide (a dead client
    must surface as a dropped reply, not a dead daemon). *)

val stop : ?policy:drain_policy -> t -> unit
(** Graceful shutdown: stop admitting (submissions now get
    [Rejected Shutting_down]), resolve queued work per the policy
    (default: the config's), wait for running jobs, then tear down
    threads, connections and the socket. Idempotent; concurrent callers
    block until the first caller's drain completes. *)

val socket : t -> string

val stopped : t -> bool
(** [true] once a drain (ours or a client's [Drain] request) has fully
    completed — what lets a hosting process exit when a client asked
    for the shutdown. *)

val stats : t -> (string * int) list
(** Counter snapshot — the same assoc list a [Status] request returns:
    submissions, admissions, each rejection class, completions,
    failures, cancellations, deadline hits, transient retries, cache
    hits/misses, queue depth, running jobs, workers. *)

val events : t -> Mssp_trace.Trace.event list
(** The service event ring (oldest retained first) — for tests; the
    JSONL log has the full stream. *)

(** {1 Spec resolution — shared with the in-process oracle}

    The load tester ({!Loadtest}) and the SVCG bench guard run the same
    jobs in-process and compare bit-for-bit, so the daemon's
    spec-to-simulation pipeline is exposed as pure functions. *)

val resolve_program :
  Protocol.job_spec -> (Mssp_isa.Program.t, string) result

val job_config :
  Protocol.job_spec -> fuel:int -> (Mssp_core.Mssp_config.t, string) result
(** The machine config a spec runs under (no tracer/interrupt armed).
    Errors are unresolvable predictor modes or fault surfaces. *)

val distill_program : Mssp_isa.Program.t -> Mssp_distill.Distill.t
(** Self-profiled distillation (the fuzz oracle's convention) — the
    pure function the {!Dcache} memoizes. *)

val state_digest : Mssp_state.Full.t -> string
(** Digest of the observable snapshot — the wire form of final-state
    equality. *)

val run_inproc :
  ?limits:Budget.limits ->
  Protocol.job_spec ->
  (Protocol.job_result, string) result
(** The serial in-process oracle: admit against [limits], resolve,
    distill (uncached), run on the calling thread. [cache_hit] is
    [false], [attempts] 1, [wall_ms] 0 — compare every other field. *)
