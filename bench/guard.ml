type better = Higher | Lower

type row = {
  guard : string;
  metric : string;
  value : float;
  unit : string;
  better : better;
  bound : float option;
  noise : float option;
  enforced : bool;
  host_cores : int;
}

type rule = {
  id : string * string;  (** guard, metric *)
  unit_of : string;
  direction : better;
  limit : float;
  min_cores : int;
  noise_gate : float option;
}

let rule ~guard ~metric ~unit ~better ?(min_cores = 1) ?noise_gate bound =
  {
    id = (guard, metric);
    unit_of = unit;
    direction = better;
    limit = bound;
    min_cores;
    noise_gate;
  }

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (Unix.gettimeofday () -. t0, r)

let pair ~reps ~base ~cand =
  ignore (base () : float);
  ignore (cand () : float);
  let timed side =
    Gc.major ();
    side ()
  in
  let b1 = ref infinity and b2 = ref infinity and c = ref infinity in
  for _ = 1 to reps do
    b1 := Float.min !b1 (timed base);
    c := Float.min !c (timed cand);
    b2 := Float.min !b2 (timed base)
  done;
  let b = Float.min !b1 !b2 in
  (b, !c, Float.abs (!b1 -. !b2) /. b)

let recorded = ref []
let rows () = List.rev !recorded
let op = function Lower -> "<=" | Higher -> ">="

let record ?(status = "") r =
  recorded := r :: !recorded;
  let bound =
    match r.bound with
    | None -> ""
    | Some b -> Printf.sprintf "  bound %s %.4g" (op r.better) b
  in
  let noise =
    match r.noise with
    | None -> ""
    | Some n -> Printf.sprintf "  noise %.1f%%" (n *. 100.)
  in
  Printf.printf "  %s\n"
    (String.trim
       (Printf.sprintf "%-6s %-24s %12.4g %-8s%s%s%s" r.guard r.metric r.value
          r.unit bound noise status))

let check ?cores ?noise rule value =
  let guard, metric = rule.id in
  let host_cores =
    match cores with Some n -> n | None -> Domain.recommended_domain_count ()
  in
  let quiet =
    match (rule.noise_gate, noise) with
    | None, _ -> true
    | Some gate, Some n -> n <= gate
    | Some _, None ->
      invalid_arg
        (Printf.sprintf "Guard.check: %s %s needs a noise" guard metric)
  in
  let enforced = host_cores >= rule.min_cores && quiet in
  let status =
    if enforced then "  enforced"
    else if host_cores < rule.min_cores then
      Printf.sprintf "  not enforced (%d cores < %d)" host_cores
        rule.min_cores
    else
      Printf.sprintf "  not enforced (noise above the %g%% gate)"
        (Option.get rule.noise_gate *. 100.)
  in
  record ~status
    {
      guard;
      metric;
      value;
      unit = rule.unit_of;
      better = rule.direction;
      bound = Some rule.limit;
      noise;
      enforced;
      host_cores;
    };
  let met =
    match rule.direction with
    | Lower -> value <= rule.limit
    | Higher -> value >= rule.limit
  in
  if enforced && not met then
    failwith
      (Printf.sprintf "%s: %s %.4g %s violates the bound %s %g" guard metric
         value rule.unit_of (op rule.direction) rule.limit)

let report ~guard ~metric ~unit ~better value =
  record
    {
      guard;
      metric;
      value;
      unit;
      better;
      bound = None;
      noise = None;
      enforced = false;
      host_cores = Domain.recommended_domain_count ();
    }

let to_json r =
  let opt = function None -> Json_out.Null | Some f -> Json_out.Float f in
  Json_out.Obj
    [
      ("guard", String r.guard);
      ("metric", String r.metric);
      ("value", Float r.value);
      ("unit", String r.unit);
      ("better", String (match r.better with Higher -> "higher" | Lower -> "lower"));
      ("bound", opt r.bound);
      ("noise", opt r.noise);
      ("enforced", Bool r.enforced);
      ("host_cores", Int r.host_cores);
    ]
