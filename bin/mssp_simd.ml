(* mssp_simd — the long-lived simulation-job daemon.

   Serves Mssp_service.Protocol over a Unix-domain socket until
   SIGTERM/SIGINT (or a client's drain request), then shuts down
   gracefully: stops admitting (late submissions get a structured
   shutting_down rejection), resolves queued jobs per the drain policy,
   and waits for running simulations. Runaway jobs are bounded by
   per-job fuel and wall-clock deadlines; a crashing job is reported to
   its client with a repro line and never takes the daemon down.

   Examples:
     mssp_simd --socket /tmp/mssp.sock --workers 4 --queue-cap 64
     mssp_simd --log service.jsonl --drain-policy cancel *)

open Cmdliner
module Daemon = Mssp_service.Daemon
module Budget = Mssp_service.Budget

let socket_arg =
  let doc = "Unix-domain socket path (replaced if present)." in
  Arg.(
    value
    & opt string Daemon.default_config.Daemon.socket
    & info [ "socket" ] ~docv:"PATH" ~doc)

let queue_cap_arg =
  let doc =
    "Bounded admission-queue capacity; at capacity submissions are \
     rejected ($(b,queue_full)) immediately — backpressure, never a hang."
  in
  Arg.(value & opt int 64 & info [ "queue-cap" ] ~docv:"N" ~doc)

let workers_arg =
  let doc = "Concurrent jobs (worker threads)." in
  Arg.(value & opt int 4 & info [ "workers" ] ~docv:"N" ~doc)

let retries_arg =
  let doc = "Transient-failure retries per job (exponential backoff)." in
  Arg.(value & opt int 3 & info [ "retries" ] ~docv:"N" ~doc)

let backoff_arg =
  let doc = "Base retry backoff in milliseconds (retry k waits 2^k times it)." in
  Arg.(value & opt float 5. & info [ "backoff-ms" ] ~docv:"MS" ~doc)

let drain_policy_arg =
  let doc =
    "What drain does to queued-but-unstarted jobs: $(b,wait) runs them, \
     $(b,cancel) answers each with a structured cancellation."
  in
  Arg.(
    value
    & opt (enum [ ("wait", `Wait); ("cancel", `Cancel) ]) `Wait
    & info [ "drain-policy" ] ~docv:"POLICY" ~doc)

let log_arg =
  let doc = "Append service events (admit/reject/deadline/drain) as JSONL." in
  Arg.(value & opt (some string) None & info [ "log" ] ~docv:"FILE" ~doc)

let max_fuel_arg =
  let doc = "Largest simulated-cycle budget a job may request." in
  Arg.(
    value
    & opt int Budget.default_limits.Budget.max_fuel
    & info [ "max-fuel" ] ~docv:"CYCLES" ~doc)

let default_fuel_arg =
  let doc = "Simulated-cycle budget for jobs that do not ask." in
  Arg.(
    value
    & opt int Budget.default_limits.Budget.default_fuel
    & info [ "default-fuel" ] ~docv:"CYCLES" ~doc)

let max_deadline_arg =
  let doc = "Largest wall-clock deadline a job may request (ms)." in
  Arg.(
    value
    & opt int Budget.default_limits.Budget.max_deadline_ms
    & info [ "max-deadline-ms" ] ~docv:"MS" ~doc)

let default_deadline_arg =
  let doc = "Wall-clock deadline for jobs that do not ask (ms)." in
  Arg.(
    value
    & opt int Budget.default_limits.Budget.default_deadline_ms
    & info [ "default-deadline-ms" ] ~docv:"MS" ~doc)

let chaos_conv =
  Arg.conv
    ( (fun s ->
        match String.split_on_char ':' s with
        | [ seed; p ] -> (
          match (int_of_string_opt seed, float_of_string_opt p) with
          | Some seed, Some p -> Ok (seed, p)
          | _ -> Error (`Msg "expected SEED:P"))
        | _ -> Error (`Msg "expected SEED:P")),
      fun ppf (seed, p) -> Format.fprintf ppf "%d:%g" seed p )

let chaos_transient_arg =
  let doc =
    "TEST KNOB: fail each execution attempt transiently with probability \
     $(b,P) (deterministic in SEED, job, attempt) to exercise the retry \
     path."
  in
  Arg.(
    value
    & opt (some chaos_conv) None
    & info [ "chaos-transient" ] ~docv:"SEED:P" ~doc)

let chaos_fatal_arg =
  let doc =
    "TEST KNOB: crash a job's thunk with probability $(b,P) (deterministic \
     in SEED, job) to exercise crash isolation."
  in
  Arg.(
    value
    & opt (some chaos_conv) None
    & info [ "chaos-fatal" ] ~docv:"SEED:P" ~doc)

let main socket queue_cap workers retries backoff_ms drain_policy log max_fuel
    default_fuel max_deadline_ms default_deadline_ms chaos_transient
    chaos_fatal =
  let cfg =
    {
      Daemon.socket;
      queue_cap;
      workers;
      limits =
        {
          Budget.max_fuel;
          default_fuel;
          max_deadline_ms;
          default_deadline_ms;
          max_slaves = Budget.default_limits.Budget.max_slaves;
        };
      retries;
      backoff_ms;
      drain_policy;
      log;
      chaos_transient;
      chaos_fatal;
    }
  in
  let d = Daemon.start cfg in
  Printf.printf "mssp_simd: serving on %s (%d workers, queue %d)\n%!" socket
    workers queue_cap;
  (* signal handlers only set a flag; the drain itself runs on the main
     thread, outside handler context *)
  let stop_requested = Atomic.make false in
  let request _ = Atomic.set stop_requested true in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle request);
  Sys.set_signal Sys.sigint (Sys.Signal_handle request);
  (* exit on a signal or when a client's drain request completed *)
  while not (Atomic.get stop_requested) && not (Daemon.stopped d) do
    Thread.delay 0.1
  done;
  Printf.printf "mssp_simd: draining (%s policy)...\n%!"
    (match drain_policy with `Wait -> "wait" | `Cancel -> "cancel");
  Daemon.stop d;
  List.iter
    (fun (k, v) -> Printf.printf "  %-24s %d\n" k v)
    (Daemon.stats d);
  Printf.printf "mssp_simd: bye\n%!"

let () =
  let doc = "MSSP simulation-job daemon (admission control, budgets, drain)" in
  let info = Cmd.info "mssp_simd" ~version:"1.0" ~doc in
  let term =
    Term.(
      const main $ socket_arg $ queue_cap_arg $ workers_arg $ retries_arg
      $ backoff_arg $ drain_policy_arg $ log_arg $ max_fuel_arg
      $ default_fuel_arg $ max_deadline_arg $ default_deadline_arg
      $ chaos_transient_arg $ chaos_fatal_arg)
  in
  exit (Cmd.eval (Cmd.v info term))
