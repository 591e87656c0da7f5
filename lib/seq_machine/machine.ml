module Full = Mssp_state.Full
module Cell = Mssp_state.Cell
module Layout = Mssp_isa.Layout

type stop = Halted | Faulted of Exec.fault | Out_of_fuel

type t = {
  state : Full.t;
  mutable stopped : stop option;
  mutable instructions : int;
  mutable loads : int;
  mutable stores : int;
  read : Cell.t -> int option;
  write : Cell.t -> int -> unit;
  mutable engine : Sblock.t option;
  images : Mssp_isa.Program.t list;
}

(* the executor callbacks are built once per machine, not per step — the
   sequential interpreter and recovery replay live in this loop. The
   record is recursive only so the hoisted callbacks can bump the memory
   traffic counters. *)
let of_state ?(images = []) ?engine state =
  let rec m =
    {
      state;
      stopped = None;
      instructions = 0;
      loads = 0;
      stores = 0;
      read =
        (fun c ->
          (match c with
          | Cell.Mem _ -> m.loads <- m.loads + 1
          | Cell.Pc | Cell.Reg _ -> ());
          Some (Full.get state c));
      write =
        (fun c v ->
          (match c with
          | Cell.Mem _ -> m.stores <- m.stores + 1
          | Cell.Pc | Cell.Reg _ -> ());
          Full.set state c v);
      engine;
      images;
    }
  in
  m

let of_program p =
  let state = Full.create () in
  Full.load state p;
  of_state ~images:[ p ] state

let step m =
  match m.stopped with
  | Some _ -> false
  | None -> (
    match Exec.step ~read:m.read ~write:m.write with
    | Exec.Stepped ->
      m.instructions <- m.instructions + 1;
      true
    | Exec.Halted ->
      m.stopped <- Some Halted;
      false
    | Exec.Fault f ->
      m.stopped <- Some (Faulted f);
      false
    | Exec.Missing _ -> assert false (* full states are total *))

(* The engine is forced lazily at the first whole-run entry point, never
   by [step]/[next]/[seq*]: single-stepping callers (profiler, shadow)
   keep the plain path and pay nothing. *)
let force_engine m =
  match m.engine with
  | Some e -> e
  | None ->
    let e = Sblock.create ~images:m.images () in
    m.engine <- Some e;
    e

(* Fold one engine run into the machine's lifetime counters and stop
   status. *)
let engine_run m ~fuel ~min_steps ~stop_at =
  let e = force_engine m in
  Sblock.warm e m.state;
  let ctr = Sblock.fresh_counters () in
  let r = Sblock.run e m.state ctr ~fuel ~min_steps ~stop_at in
  m.instructions <- m.instructions + ctr.Sblock.c_instructions;
  m.loads <- m.loads + ctr.Sblock.c_loads;
  m.stores <- m.stores + ctr.Sblock.c_stores;
  (match r with
  | Sblock.Halted -> m.stopped <- Some Halted
  | Sblock.Fault f -> m.stopped <- Some (Faulted f)
  | Sblock.Fuel | Sblock.Stop_at -> ());
  r

let run ?(fuel = 100_000_000) m =
  match m.stopped with
  | Some s -> s
  | None -> (
    match engine_run m ~fuel ~min_steps:0 ~stop_at:None with
    | Sblock.Fuel -> Out_of_fuel
    | Sblock.Halted -> Halted
    | Sblock.Fault f -> Faulted f
    | Sblock.Stop_at -> assert false (* no stop_at passed *))

let run_until m ~fuel ~min_steps ~at =
  match m.stopped with
  | Some _ -> `Stopped
  | None -> (
    match engine_run m ~fuel ~min_steps ~stop_at:(Some at) with
    | Sblock.Fuel -> `Fuel
    | Sblock.Stop_at -> `At_entry
    | Sblock.Halted | Sblock.Fault _ -> `Stopped)

let run_reference ?(fuel = 100_000_000) m =
  let rec go remaining =
    if remaining = 0 then Out_of_fuel
    else if step m then go (remaining - 1)
    else
      match m.stopped with
      | Some s -> s
      | None -> assert false
  in
  go fuel

(* fuel before the step, [at] after it (and only once [min_steps] have
   run), [at] winning over fuel at the boundary — the engine path
   replicates this ordering *)
let run_until_reference m ~fuel ~min_steps ~at =
  let steps = ref 0 in
  let rec go () =
    if !steps >= fuel then `Fuel
    else if step m then begin
      incr steps;
      if !steps >= min_steps && at (Full.pc m.state) then `At_entry
      else go ()
    end
    else `Stopped
  in
  go ()

let next s =
  let s' = Full.copy s in
  let m = of_state s' in
  ignore (step m : bool);
  s'

let seq_in_place s n =
  let m = of_state s in
  let rec go k = if k = 0 then None else if step m then go (k - 1) else m.stopped in
  go n

let seq s n =
  let s' = Full.copy s in
  ignore (seq_in_place s' n : stop option);
  s'

let output s =
  let count = Full.get_mem s Layout.out_count_addr in
  List.init count (fun i -> Full.get_mem s (Layout.out_base + i))

let run_program ?fuel p =
  let m = of_program p in
  ignore (run ?fuel m : stop);
  m
