(* perfbench: the repository benchmark.

   One workload per invocation, one simulation at a time, on a single
   domain (a closed loop: the next run starts when the previous one
   returns; [pool] pinned to [Some 0], no daemon). A workload is a list
   of registry kernels, each profiled on its training input and measured
   on a reference input whose size the seed draws from
   [ref_size, ref_size + max 1 (3% of ref_size)]. The simulator only
   ever sees the generated programs.

   Phases of one invocation:
   1. set-up, repeated [setup_reps] times (median reported): generate
      the programs (MiniC compile included), collect the training
      profile, distill, run the SEQ baseline;
   2. one untimed warm pass, whose simulated stats become the reference
      every later pass must reproduce;
   3. with [--trace 0]: timed passes with tracing off for [--seconds]
      (at least [min_passes]), each timing only the calls into the
      machine ([Mssp_machine.run], or [Mssp_adapt.run] on
      predict-adapt), each call bracketed by the host-speed [probe];
      then one traced pass, for its checks;
   4. with [--trace 1] instead: [traced_passes] traced passes with this
      file's own [Trace] sink attached through [Config.tracer], each
      right after an untraced pass of its own so the tracing overhead
      compares neighbours in time.

   Every simulated run is checked: clean halt, final observable state
   equal to SEQ (loaded with the same distilled image), stats equal to
   the warm pass, and on traced passes the event fold equal to the
   machine's stats. A failed check is printed and counted, never
   dropped.

   Per-layer attribution on traced passes is approximate: the sink
   stamps every event with the monotonic clock and [Gc.minor_words], and
   charges the host time and minor words since the previous event to
   the phase of the event that closes the interval (see [phase_of]).
   Work between events of different layers therefore lands on whichever
   event the machine emits next.

   The last line of standard output is one JSON object:
   {"correct", "attempted", "failed", "metrics"}; [--trace 0] reports
   the end-to-end metrics, [--trace 1] the per-layer ones. *)

module W = Mssp_workload.Workload
module Program = Mssp_isa.Program
module Full = Mssp_state.Full
module Profile = Mssp_profile.Profile
module Distill = Mssp_distill.Distill
module B = Mssp_baseline.Baseline
module M = Mssp_core.Mssp_machine
module Config = Mssp_core.Mssp_config
module Adapt = Mssp_core.Mssp_adapt
module Predict = Mssp_predict.Predict
module Trace = Mssp_trace.Trace

let slaves = 8
let adapt_rounds = 1
let setup_reps = 5
let traced_passes = 3
let min_passes = 4
let size_band = 0.03

(* --- workloads ------------------------------------------------------- *)

type mode = Static | Adaptive

type workload = { name : string; kernels : string list; mode : mode }

let workloads =
  [
    { name = "minic-long"; kernels = [ "mandel"; "nqueens" ]; mode = Static };
    {
      name = "call-heavy";
      kernels = [ "qsort"; "treesum"; "hashbuild" ];
      mode = Static;
    };
    {
      name = "predict-adapt";
      kernels = [ "fir"; "rle"; "treesum"; "dijkstra" ];
      mode = Adaptive;
    };
  ]

(* the seed draws each kernel's reference size; the training size stays
   the registry's, so the profile does not move with the seed *)
let ref_size ~seed (b : W.benchmark) =
  let st = Random.State.make [| seed; Hashtbl.hash b.W.name |] in
  let span = max 1 (int_of_float (float_of_int b.W.ref_size *. size_band)) in
  b.W.ref_size + Random.State.int st (span + 1)

let config ~seed ~mode ~tracer =
  let c = Config.with_slaves slaves Config.default in
  let c = { c with Config.pool = Some 0; predict_seed = seed; tracer } in
  match mode with
  | Static -> c
  | Adaptive -> { c with Config.predict = Predict.Tournament }

(* --- clocks ---------------------------------------------------------- *)

let clock_ns () = Int64.to_int (Monotonic_clock.now ())
let secs ns = float_of_int ns *. 1e-9

let median = function
  | [] -> 0.0
  | l ->
    let a = Array.of_list l in
    Array.sort compare a;
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let ratio a b = if b = 0.0 then 0.0 else a /. b

(* --- host-speed probe -------------------------------------------------- *)

(* A shared host's speed drifts by up to 1.8x over seconds to minutes,
   and a plain integer loop drifts with it. Every end-to-end host time
   is therefore measured in probe units — divided by the duration of
   this fixed loop, run around the timed work — and scaled back to
   seconds on a nominal host where one probe takes [probe_ref_s]. On a
   2-vCPU host this cut the run-to-run spread (quartile distance over
   median) of one seed's throughput from 0.16-0.22 to 0.06.

   The probe makes the simulator's kind of work: pseudo-random reads and
   writes over a 512 KiB table, and short-lived allocation. It must not
   change, or host times stop being comparable across commits. *)
let probe_ref_s = 0.012
let probe_table = Array.make 65536 0

let probe () =
  let t0 = clock_ns () in
  let x = ref 12345 and live = ref [] in
  for i = 1 to 4_000_000 do
    x := ((!x * 1103515245) + 12345) land 0x3fffffff;
    let j = !x land 0xffff in
    probe_table.(j) <- probe_table.(j) + i;
    if i land 7 = 0 then
      live := (j, i) :: (if i land 4095 = 0 then [] else !live)
  done;
  ignore (Sys.opaque_identity !live);
  secs (clock_ns () - t0)

(* --- set-up ---------------------------------------------------------- *)

type kernel = {
  bench : W.benchmark;
  size : int;
  program : Program.t;
  profile : Profile.t;
  distilled : Distill.t;
  seq : B.result;
  baselines : (int, Program.t * B.result) Hashtbl.t;
      (** SEQ per adaptation round, keyed by round index, with the
          distilled image it was loaded with *)
  mutable reference : M.stats list;
      (** the warm pass's stats, one per run; [[]] before it *)
}

type setup_times = {
  gen : float;
  profile_s : float;
  distill_s : float;
  seq_s : float;
}

let prepare ~seed name =
  let bench = W.find name in
  let size = ref_size ~seed bench in
  let t0 = clock_ns () in
  let train = bench.W.program ~size:bench.W.train_size in
  let program = bench.W.program ~size in
  let t1 = clock_ns () in
  let profile = Profile.collect train in
  let t2 = clock_ns () in
  let distilled = Distill.distill program profile in
  let t3 = clock_ns () in
  let seq = B.sequential ~also_load:[ distilled.Distill.distilled ] program in
  let t4 = clock_ns () in
  let baselines = Hashtbl.create 4 in
  Hashtbl.replace baselines 0 (distilled.Distill.distilled, seq);
  ( {
      bench;
      size;
      program;
      profile;
      distilled;
      seq;
      baselines;
      reference = [];
    },
    {
      gen = secs (t1 - t0);
      profile_s = secs (t2 - t1);
      distill_s = secs (t3 - t2);
      seq_s = secs (t4 - t3);
    } )

(* --- running and checking -------------------------------------------- *)

(* one simulated run: an [Mssp_machine.run], or one adaptation round;
   [image] is the distilled program it ran *)
type run = { index : int; image : Program.t; result : M.result }

let execute ~config mode k =
  match mode with
  | Static ->
    let r = M.run ~config k.distilled in
    ( [ { index = 0; image = k.distilled.Distill.distilled; result = r } ],
      r.M.stats.M.cycles )
  | Adaptive ->
    let a = Adapt.run ~rounds:adapt_rounds ~config k.program k.profile in
    ( List.map
        (fun (rd : Adapt.round) ->
          {
            index = rd.Adapt.index;
            image = rd.Adapt.distilled.Distill.distilled;
            result = rd.Adapt.result;
          })
        a.Adapt.rounds,
      Adapt.round_cycles a.Adapt.best )

let attempted = ref 0
let failures : string list ref = ref []

(* SEQ loaded with the run's own distilled image, computed once per
   round and image *)
let baseline k (r : run) =
  match Hashtbl.find_opt k.baselines r.index with
  | Some (p, b) when p = r.image -> b
  | Some _ | None ->
    let b = B.sequential ~also_load:[ r.image ] k.program in
    Hashtbl.replace k.baselines r.index (r.image, b);
    b

(* Check every run of one kernel execution; the first call (the warm
   pass) fixes the reference stats. [extra] adds the traced pass's own
   checks. Every failure is printed and kept. *)
let check ~workload ~pass k runs ~extra =
  if k.reference = [] then
    k.reference <- List.map (fun r -> r.result.M.stats) runs;
  let expected = k.reference in
  List.iteri
    (fun i r ->
      incr attempted;
      let res = r.result in
      let problems =
        List.filter_map Fun.id
          [
            (if res.M.stop <> M.Halted then
               Some ("stopped: " ^ M.stop_string res.M.stop)
             else None);
            (if not (Full.equal_observable (baseline k r).B.state res.M.arch)
             then Some "final state differs from SEQ"
             else None);
            (if res.M.refinement_violations <> 0 then
               Some "refinement violations"
             else None);
            (if List.length expected <> List.length runs
                || List.nth expected i <> res.M.stats
             then
               Some
                 (if extra = None then "stats differ from the warm pass"
                  else "traced stats/cycles differ from the untraced pass")
             else None);
            (match extra with None -> None | Some f -> f i res);
          ]
      in
      if problems <> [] then begin
        let msg =
          Printf.sprintf "FAIL %s/%s (size %d) pass %s round %d: %s" workload
            k.bench.W.name k.size pass r.index
            (String.concat "; " problems)
        in
        prerr_endline msg;
        failures := msg :: !failures
      end)
    runs

(* --- traced-pass attribution ------------------------------------------ *)

type phase =
  | Startup  (** call entry, or a previous round's [Halt], to a run's first event *)
  | Master
  | Task
  | Checkpoint
  | Verify
  | Commit
  | Recovery
  | Other  (** end-of-run counters, [Halt], fault/watchdog events *)

let phases = [ Startup; Master; Task; Checkpoint; Verify; Commit; Recovery; Other ]

let phase_index = function
  | Startup -> 0
  | Master -> 1
  | Task -> 2
  | Checkpoint -> 3
  | Verify -> 4
  | Commit -> 5
  | Recovery -> 6
  | Other -> 7

let phase_of : Trace.event -> phase = function
  | Trace.Slave_finish _ | Trace.Master_stop _ -> Master
  | Trace.Slave_start _ -> Task
  | Trace.Fork _ | Trace.Predict _ -> Checkpoint
  | Trace.Verify _ | Trace.Predict_outcome _ -> Verify
  | Trace.Commit _ -> Commit
  | Trace.Squash _ | Trace.Recovery _ | Trace.Restart _ -> Recovery
  | _ -> Other

type stamps = {
  ns : int array;  (** per phase *)
  words : float array;  (** per phase *)
  mutable last : int;  (** ns at the last stamp *)
  last_words : float array;
      (** [| minor words at the last stamp |]: an array, so updating it
          allocates nothing *)
  mutable fresh : bool;  (** the next event opens a machine run *)
  mutable task_instr : int;  (** summed [Slave_finish.executed] *)
}

let stamps () =
  let n = List.length phases in
  {
    ns = Array.make n 0;
    words = Array.make n 0.0;
    last = 0;
    last_words = [| 0.0 |];
    fresh = true;
    task_instr = 0;
  }

let restart_clock s =
  s.last <- clock_ns ();
  s.last_words.(0) <- Gc.minor_words ();
  s.fresh <- true

let stamp_sink s (ev : Trace.event) =
  let t = clock_ns () in
  let w = Gc.minor_words () in
  let p = phase_index (if s.fresh then Startup else phase_of ev) in
  s.ns.(p) <- s.ns.(p) + (t - s.last);
  s.words.(p) <- s.words.(p) +. (w -. s.last_words.(0));
  s.fresh <- false;
  (match ev with
  | Trace.Slave_finish { executed; _ } ->
    s.task_instr <- s.task_instr + executed
  | Trace.Halt _ -> s.fresh <- true
  | _ -> ());
  s.last <- t;
  s.last_words.(0) <- w

(* split one call's event stream into one list per machine run *)
let per_run events =
  let rec go cur acc = function
    | [] -> List.rev (if cur = [] then acc else List.rev cur :: acc)
    | (Trace.Halt _ as e) :: rest -> go [] (List.rev (e :: cur) :: acc) rest
    | e :: rest -> go (e :: cur) acc rest
  in
  go [] [] events

(* the same agreement [mssp_sim trace --format summary] prints as "fold
   matches machine stats" *)
let fold_matches (s : Trace.Summary.t) (st : M.stats) =
  s.Trace.Summary.commits = st.M.tasks_committed
  && s.Trace.Summary.squashes = st.M.squashes
  && Trace.Summary.squash_mismatch s = st.M.squash_mismatch
  && Trace.Summary.squash_task_failed s = st.M.squash_task_failed
  && Trace.Summary.squash_master_dead s = st.M.squash_master_dead

let counter (s : Trace.Summary.t) name =
  Option.value ~default:0 (List.assoc_opt name s.Trace.Summary.counters)

(* --- one invocation --------------------------------------------------- *)

(* one kernel's timed call *)
type sample = {
  probe_s : float;  (** mean of the host-speed probes around the call *)
  host_s : float;
  words : float;  (** minor words allocated inside the call *)
  instr : int;  (** retired into architected state, over all rounds *)
  best_cycles : int;  (** the run's (best round's) simulated cycles *)
}

(* Every timed call starts from a collected major heap, so it does not
   pay for the previous call's garbage, and is bracketed by probes whose
   mean stands for the host's speed during the call. *)
let timed_pass ~workload ~pass ~config w kernels =
  List.map
    (fun k ->
      Gc.full_major ();
      let before = probe () in
      let w0 = Gc.minor_words () in
      let t0 = clock_ns () in
      let runs, best_cycles = execute ~config w.mode k in
      let t1 = clock_ns () in
      let w1 = Gc.minor_words () in
      let after = probe () in
      check ~workload ~pass k runs ~extra:None;
      {
        probe_s = (before +. after) /. 2.0;
        host_s = secs (t1 - t0);
        words = w1 -. w0;
        instr = List.fold_left (fun a r -> a + M.total_committed r.result) 0 runs;
        best_cycles;
      })
    kernels

type traced = {
  wall_s : float;  (** host seconds inside the traced calls *)
  st : stamps;
  summaries : (Trace.Summary.t * M.stats) list;  (** per run *)
}

let traced_pass ~workload ~pass ~seed w kernels =
  let st = stamps () in
  let wall = ref 0 and summaries = ref [] in
  List.iter
    (fun k ->
      let tracer, events = Trace.recording () in
      Trace.attach tracer (stamp_sink st);
      let config = config ~seed ~mode:w.mode ~tracer:(Some tracer) in
      restart_clock st;
      let t0 = st.last in
      let runs, _ = execute ~config w.mode k in
      let t1 = clock_ns () in
      wall := !wall + (t1 - t0);
      let folds =
        Array.of_list (List.map Trace.Summary.of_events (per_run (events ())))
      in
      let extra i (res : M.result) =
        if Array.length folds <> List.length runs then
          Some "event stream does not split into one Halt per run"
        else begin
          summaries := (folds.(i), res.M.stats) :: !summaries;
          if fold_matches folds.(i) res.M.stats then None
          else Some "trace fold does not match machine stats"
        end
      in
      check ~workload ~pass k runs ~extra:(Some extra))
    kernels;
  { wall_s = secs !wall; st; summaries = List.rev !summaries }

let geomean = function
  | [] -> 0.0
  | l ->
    exp
      (List.fold_left (fun a x -> a +. log x) 0.0 l
      /. float_of_int (List.length l))

let per_layer (t : traced) =
  let sumf f =
    float_of_int (List.fold_left (fun a x -> a + f x) 0 t.summaries)
  in
  let ph p = secs t.st.ns.(phase_index p) in
  let phw p = t.st.words.(phase_index p) in
  let covered = List.fold_left (fun a p -> a +. ph p) 0.0 phases in
  let master_instr = sumf (fun (_, s) -> s.M.master_instructions) in
  let task_instr = float_of_int t.st.task_instr in
  let hits = sumf (fun (_, s) -> s.M.predict_hits) in
  let misses = sumf (fun (_, s) -> s.M.predict_misses) in
  let cnt name = sumf (fun (s, _) -> counter s name) in
  [
    ("core.startup.s", ph Startup, "s");
    ("core.master.s", ph Master, "s");
    ("core.master.alloc_words", phw Master, "words");
    ("core.master.instr", master_instr, "count");
    ("core.master.ns_per_instr", ratio (ph Master *. 1e9) master_instr, "ns");
    ("task.s", ph Task, "s");
    ("task.alloc_words", phw Task, "words");
    ("task.instr", task_instr, "count");
    ("task.mips", ratio task_instr (ph Task *. 1e6), "Minstr/s");
    ("core.checkpoint.s", ph Checkpoint, "s");
    ("core.checkpoint.alloc_words", phw Checkpoint, "words");
    ("core.verify.s", ph Verify, "s");
    ("core.verify.live_ins", sumf (fun (_, s) -> s.M.live_ins_checked), "count");
    ("core.commit.s", ph Commit, "s");
    ("core.commit.live_outs", sumf (fun (_, s) -> s.M.live_outs_committed), "count");
    ("core.recovery.s", ph Recovery, "s");
    ("core.recovery.instr", sumf (fun (_, s) -> s.M.recovery_instructions), "count");
    ("core.other.s", ph Other, "s");
    ("core.squashes", sumf (fun (_, s) -> s.M.squashes), "count");
    ( "core.useful_ratio",
      ratio
        (sumf (fun (_, s) -> s.M.tasks_committed))
        (sumf (fun (_, s) -> s.M.tasks_spawned)),
      "ratio" );
    ( "core.slave_occupancy",
      ratio
        (sumf (fun (_, s) -> s.M.slave_busy_cycles))
        (sumf (fun (_, s) -> s.M.cycles * slaves)),
      "ratio" );
    ("predict.hits", hits, "count");
    ("predict.misses", misses, "count");
    ("predict.hit_ratio", ratio hits (hits +. misses), "ratio");
    ("sim.events_executed", cnt "sim.events_executed", "count");
    ("sim.events_scheduled", cnt "sim.events_scheduled", "count");
    ( "sim.host_ns_per_event",
      ratio (t.wall_s *. 1e9) (cnt "sim.events_executed"),
      "ns" );
    ("cache.master_l1_misses", cnt "cache.master_l1_misses", "count");
    ("cache.slaves_l1_misses", cnt "cache.slaves_l1_misses", "count");
    ("cache.shared_l2_misses", cnt "cache.shared_l2_misses", "count");
    ("trace.unattributed_s", t.wall_s -. covered, "s");
  ]

(* --- output ---------------------------------------------------------- *)

let json_number x =
  if Float.is_finite x then Printf.sprintf "%.17g" x
  else failwith "non-finite metric value"

let print_result ~correct ~failed metrics =
  let fields =
    List.map
      (fun (name, value, unit) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name
          (json_number value) unit)
      metrics
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct !attempted failed (String.concat ", " fields)

let print_table title rows =
  Printf.printf "%s\n" title;
  List.iter
    (fun (name, value, unit) ->
      Printf.printf "  %-28s %16.6f %s\n" name value unit)
    rows

(* --- main ------------------------------------------------------------- *)

let usage () =
  prerr_endline
    "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1\n\
     workloads: minic-long call-heavy predict-adapt";
  exit 2

let parse_args () =
  let workload = ref None and seed = ref 1 and seconds = ref 10.0
  and trace = ref false in
  let rec go = function
    | [] -> ()
    | "--workload" :: v :: rest -> workload := Some v; go rest
    | "--seed" :: v :: rest -> seed := int_of_string v; go rest
    | "--seconds" :: v :: rest -> seconds := float_of_string v; go rest
    | "--trace" :: ("0" | "1" as v) :: rest -> trace := v = "1"; go rest
    | _ -> usage ()
  in
  (try go (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  match !workload with
  | None -> usage ()
  | Some name -> (
    match List.find_opt (fun w -> w.name = name) workloads with
    | None -> usage ()
    | Some w -> (w, !seed, !seconds, !trace))

(* the engine switches default from these; a set one would silently
   measure another configuration than the one recorded *)
let refuse_engine_overrides () =
  List.iter
    (fun var ->
      match Sys.getenv_opt var with
      | Some v when v <> "" ->
        Printf.eprintf "perfbench: refusing to run with %s=%s set\n" var v;
        exit 2
      | Some _ | None -> ())
    [ "MSSP_POOL"; "MSSP_SBLK"; "MSSP_SJRNL" ]

let total_host (pass : sample list) =
  List.fold_left (fun a (s : sample) -> a +. s.host_s) 0.0 pass

(* element-wise median of same-shaped metric rows *)
let median_rows = function
  | [] -> []
  | first :: _ as rows ->
    List.mapi
      (fun i (name, _, unit) ->
        (name, median (List.map (fun r -> let _, v, _ = List.nth r i in v) rows), unit))
      first

let () =
  let w, seed, seconds, trace = parse_args () in
  refuse_engine_overrides ();
  Printf.printf
    "perfbench %s: seed %d, %d slaves, pool 0, %d host cores, kernels %s\n%!"
    w.name seed slaves
    (Domain.recommended_domain_count ())
    (String.concat "," w.kernels);
  (* 1. set-up, repeated, each repetition after a probe; the last
     repetition's kernels are kept *)
  let kernels = ref [] and setups = ref [] in
  for _ = 1 to setup_reps do
    Gc.full_major ();
    let probe_s = probe () in
    let ks = List.map (prepare ~seed) w.kernels in
    kernels := List.map fst ks;
    setups := (probe_s, List.map snd ks) :: !setups
  done;
  let kernels = !kernels in
  let setup_sum f ts = List.fold_left (fun a t -> a +. f t) 0.0 ts in
  let setup_med f = median (List.map (fun (_, ts) -> setup_sum f ts) !setups) in
  let config = config ~seed ~mode:w.mode ~tracer:None in
  (* 2. warm pass: untimed, fixes the reference stats *)
  let warm = timed_pass ~workload:w.name ~pass:"warm" ~config w kernels in
  List.iter2
    (fun k (s : sample) ->
      Printf.printf
        "  %-10s ref size %5d  seq %9d cycles  mssp %9d cycles  %8d instr  \
         %.3f host s\n"
        k.bench.W.name k.size k.seq.B.cycles s.best_cycles s.instr s.host_s)
    kernels warm;
  (* set-up and one full pass: a fixed amount of work, so the peak does
     not depend on how many timed passes the host's speed allows *)
  let peak_heap_mb =
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
    /. 1048576.0
  in
  let instr =
    float_of_int (List.fold_left (fun a (s : sample) -> a + s.instr) 0 warm)
  in
  (* per kernel, the median over passes; the workload sums them *)
  let per_kernel passes f =
    List.fold_left ( +. ) 0.0
      (List.mapi
         (fun i _ -> median (List.map (fun p -> f (List.nth p i)) passes))
         kernels)
  in
  let metrics, title =
    if not trace then begin
      (* 3. timed passes, tracing off *)
      let start = clock_ns () in
      let rec loop n acc =
        if n >= min_passes && secs (clock_ns () - start) >= seconds then acc
        else
          let p =
            timed_pass ~workload:w.name ~pass:(string_of_int n) ~config w
              kernels
          in
          Printf.printf "  pass %d: %.4f host s\n%!" n (total_host p);
          loop (n + 1) (p :: acc)
      in
      let passes = loop 0 [] in
      (* 4. one traced pass, for its checks *)
      ignore (traced_pass ~workload:w.name ~pass:"traced" ~seed w kernels);
      let failed = List.length !failures in
      ( [
          ( "sim_mips",
            instr
            /. (per_kernel passes (fun s -> s.host_s /. s.probe_s) *. probe_ref_s)
            /. 1e6,
            "Minstr/s" );
          ( "setup_s",
            median
              (List.map
                 (fun (probe_s, ts) ->
                   setup_sum
                     (fun t -> t.gen +. t.profile_s +. t.distill_s +. t.seq_s)
                     ts
                   /. probe_s *. probe_ref_s)
                 !setups),
            "s" );
          ( "alloc_words_per_instr",
            per_kernel passes (fun s -> s.words) /. instr,
            "words/instr" );
          ("peak_heap_mb", peak_heap_mb, "MB");
          ( "speedup",
            geomean
              (List.map2
                 (fun k (s : sample) ->
                   float_of_int k.seq.B.cycles
                   /. float_of_int (max 1 s.best_cycles))
                 kernels warm),
            "x" );
          ( "verified_share",
            1.0 -. (float_of_int failed /. float_of_int (max 1 !attempted)),
            "share" );
        ],
        "end-to-end" )
    end
    else begin
      (* 3. traced passes, each right after an untraced pass of its own:
         the overhead compares neighbours in time, and the untraced
         passes give the uncorrected throughput *)
      let pairs =
        List.init traced_passes (fun i ->
            let pass = Printf.sprintf "traced-%d" i in
            let u =
              timed_pass ~workload:w.name ~pass:(pass ^ "-untraced") ~config w
                kernels
            in
            (u, traced_pass ~workload:w.name ~pass ~seed w kernels))
      in
      let untraced = List.map fst pairs in
      let seq_s = setup_med (fun t -> t.seq_s) in
      let seq_instr =
        List.fold_left (fun a k -> a + k.seq.B.instructions) 0 kernels
      in
      ( [
          ( "host.probe_s",
            median (List.concat_map (List.map (fun s -> s.probe_s)) untraced),
            "s" );
          ( "host.sim_mips_raw",
            instr /. per_kernel untraced (fun s -> s.host_s) /. 1e6,
            "Minstr/s" );
          ("workload.gen_s", setup_med (fun t -> t.gen), "s");
          ("profile.s", setup_med (fun t -> t.profile_s), "s");
          ("distill.s", setup_med (fun t -> t.distill_s), "s");
          ("seq.s", seq_s, "s");
          ("seq.mips", ratio (float_of_int seq_instr) (seq_s *. 1e6), "Minstr/s");
          ( "distill.dyn_ratio",
            geomean
              (List.map
                 (fun k -> Distill.dynamic_ratio k.distilled.Distill.stats)
                 kernels),
            "x" );
        ]
        @ median_rows
            (List.map
               (fun (u, t) ->
                 per_layer t
                 @ [
                     ( "trace.overhead",
                       ratio t.wall_s (total_host u) -. 1.0,
                       "ratio" );
                   ])
               pairs),
        "per-layer (traced passes, approximate attribution)" )
    end
  in
  let failed = List.length !failures in
  Printf.printf "  %d runs attempted, failed_runs %d\n" !attempted failed;
  print_table title metrics;
  print_result ~correct:(failed = 0) ~failed metrics
