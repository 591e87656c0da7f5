(* Live-in value predictors. Three composable components — last-value,
   stride and finite-context — are trained online from the values the
   verification unit observes in architected state, plus an optional
   warm-up from the profiler's per-cell observation streams. A
   deterministic tournament selects among them per cell by saturating
   confidence counters, with a seeded hash breaking exact ties so runs
   are bit-identical on every host (see HACKING.md "Live-in prediction
   and the adaptation loop").

   Correctness never depends on a prediction: a wrong refinement is a
   live-in mismatch the machine squashes and absorbs, exactly like a
   stale master value. The predictors only move the hit rate.

   State is dense. Every cell owns a slot: [Pc] and the registers fixed
   ones, memory addresses one each in first-use order through an
   open-addressed address index. A slot's training state is a run of
   ints in one flat array, the finite-context tables of all cells are a
   single open-addressed table keyed by (slot, history hash), and the
   demoted set is an array of slots. Training a cell that already has a
   slot allocates nothing. *)

module Cell = Mssp_state.Cell
module Live_in = Mssp_state.Live_in
module Profile = Mssp_profile.Profile
module Reg = Mssp_isa.Reg

type mode = Off | Last_value | Stride | Context | Tournament | Broken

let mode_to_string = function
  | Off -> "off"
  | Last_value -> "last-value"
  | Stride -> "stride"
  | Context -> "context"
  | Tournament -> "tournament"
  | Broken -> "broken"

let mode_of_string = function
  | "off" -> Some Off
  | "last-value" | "last" -> Some Last_value
  | "stride" -> Some Stride
  | "context" -> Some Context
  | "tournament" -> Some Tournament
  | "broken" -> Some Broken
  | _ -> None

let modes = [ Off; Last_value; Stride; Context; Tournament ]
let pp_mode fmt m = Format.pp_print_string fmt (mode_to_string m)

let history_window = 4
let conf_max = 7

let conf_threshold = 4
(** a component only overrides a live-in once it has proven itself: at
    least two more hits than misses from the saturating counter's floor *)

(* --- per-slot state --------------------------------------------------

   Slot [s] owns [st.(s * stride) ..] with these fields. A fresh slot
   (nothing seen, full master trust) answers every query exactly as an
   untracked cell would, so the fixed [Pc]/register slots exist from the
   start. *)

let f_seen = 0
let f_first = 1 (* first observation ever — the Broken stale value *)
let f_last = 2
let f_delta = 3
let f_hist_len = 4

(* the MASTER's confidence for this cell — the baseline every component
   must beat before it may override. Starts saturated: the distilled
   master is trusted until its supplied values are seen to miss
   (post-elision residual reads are exactly where that happens) *)
let f_mconf = 5
let f_dem_pos = 6 (* position in [dem], or -1 when not demoted *)
let f_conf = 7 (* per component: +0 last-value, +1 stride, +2 context *)
let f_hist = 10 (* history, most recent last; valid prefix is [hist_len] *)
let stride = f_hist + history_window

(* [Pc] is slot 0 and register [i] slot [1 + i]; memory slots follow *)
let reg_slot i = 1 + i
let fixed_slots = 1 + Reg.count

type t = {
  mode : mode;
  seed : int;
  mutable st : int array;
  mutable cells : Cell.t array;  (** slot -> its cell *)
  mutable slots : int;
  mutable idx : int array;  (** address -> slot, open-addressed *)
  mutable imask : int;
  mutable ctx : int array;
      (** the finite-context tables of every cell, open-addressed:
          (slot, history hash) -> predicted next value *)
  mutable cmask : int;
  mutable cn : int;
  (* slots whose [mconf] is below [conf_max]: the only cells a component
     can ever out-bid (see {!refine}), unordered *)
  mutable dem : int array;
  mutable dem_n : int;
}

let init_slot st s =
  let b = s * stride in
  Array.fill st b stride 0;
  st.(b + f_mconf) <- conf_max;
  st.(b + f_dem_pos) <- -1

(* empty tables of [n] entries *)
let empty_index n = Array.init (2 * n) (fun k -> if k land 1 = 1 then -1 else 0)
let empty_ctx n = Array.init (3 * n) (fun k -> if k mod 3 = 0 then -1 else 0)

let create ?(seed = 0x5bd1e995) mode =
  let cap = 2 * fixed_slots in
  let st = Array.make (cap * stride) 0 in
  let cells = Array.make cap Cell.Pc in
  for s = 0 to fixed_slots - 1 do
    init_slot st s;
    if s > 0 then cells.(s) <- Cell.Reg (Reg.of_int (s - 1))
  done;
  {
    mode;
    seed;
    st;
    cells;
    slots = fixed_slots;
    idx = empty_index 16;
    imask = 15;
    ctx = empty_ctx 16;
    cmask = 15;
    cn = 0;
    dem = Array.make 8 0;
    dem_n = 0;
  }

let mode t = t.mode

let[@inline] get t s f = Array.unsafe_get t.st ((s * stride) + f)
let[@inline] set t s f v = Array.unsafe_set t.st ((s * stride) + f) v

(* --- address index ---------------------------------------------------

   Entry [e] is [idx.(2e)] (the address) and [idx.(2e + 1)] (its slot,
   -1 when empty): a probe touches one cache line. *)

let[@inline] addr_hash a mask = ((a * 0x9E3779B1) lsr 15) land mask

(* the entry holding [a], or the empty entry where it would go *)
let rec ientry t a e =
  let k = 2 * e in
  if Array.unsafe_get t.idx (k + 1) < 0 || Array.unsafe_get t.idx k = a then e
  else ientry t a ((e + 1) land t.imask)

let find_mem_slot t a =
  Array.unsafe_get t.idx ((2 * ientry t a (addr_hash a t.imask)) + 1)

(* memory slots fill three quarters of the index at most, so a probe
   always meets an empty entry *)
let grow_index t =
  let old = t.idx in
  let size = 2 * (t.imask + 1) in
  t.idx <- empty_index size;
  t.imask <- size - 1;
  for e = 0 to (Array.length old / 2) - 1 do
    let a = old.(2 * e) and s = old.((2 * e) + 1) in
    if s >= 0 then begin
      let e' = ientry t a (addr_hash a t.imask) in
      t.idx.(2 * e') <- a;
      t.idx.((2 * e') + 1) <- s
    end
  done

let new_slot t cell =
  let s = t.slots in
  if s = Array.length t.cells then begin
    let cells = Array.make (2 * s) Cell.Pc in
    Array.blit t.cells 0 cells 0 s;
    t.cells <- cells;
    let st = Array.make (2 * s * stride) 0 in
    Array.blit t.st 0 st 0 (s * stride);
    t.st <- st
  end;
  init_slot t.st s;
  t.cells.(s) <- cell;
  t.slots <- s + 1;
  s

let mem_slot t a =
  let k = 2 * ientry t a (addr_hash a t.imask) in
  let s = Array.unsafe_get t.idx (k + 1) in
  if s >= 0 then s
  else begin
    let s = new_slot t (Cell.Mem a) in
    t.idx.(k) <- a;
    t.idx.(k + 1) <- s;
    if 4 * (s + 1 - fixed_slots) > 3 * (t.imask + 1) then grow_index t;
    s
  end

let slot_of t = function
  | Cell.Pc -> 0
  | Cell.Reg r -> reg_slot (Reg.to_int r)
  | Cell.Mem a -> mem_slot t a

(* the cell's slot, or -1 for a memory cell never trained *)
let find_slot t = function
  | Cell.Pc -> 0
  | Cell.Reg r -> reg_slot (Reg.to_int r)
  | Cell.Mem a -> find_mem_slot t a

(* --- finite-context table -------------------------------------------- *)

(* the slot's history hash, for the slot whose state starts at [b] *)
let ctx_hash st b =
  let h = ref 0 in
  for i = 0 to Array.unsafe_get st (b + f_hist_len) - 1 do
    h := (!h * 31) + Array.unsafe_get st (b + f_hist + i)
  done;
  !h land max_int

let[@inline] ctx_index s h mask =
  let x = (h lxor (s * 0x9E3779B97F4A7C1)) * 0xBF58476D1CE4E5B in
  (x lxor (x lsr 29)) land mask

(* Entry [e] is [ctx.(3e)] (the slot, -1 when empty), [ctx.(3e + 1)]
   (the history hash) and [ctx.(3e + 2)] (the predicted value). [centry]
   finds the entry holding (s, h), or the empty entry where it would go:
   the key is exact, so two slots never share an entry and two histories
   of one slot share one exactly when their hashes collide. *)
let rec centry t s h e =
  let k = 3 * e in
  let ks = Array.unsafe_get t.ctx k in
  if ks < 0 || (ks = s && Array.unsafe_get t.ctx (k + 1) = h) then e
  else centry t s h ((e + 1) land t.cmask)

let[@inline] ctx_find t s h = centry t s h (ctx_index s h t.cmask)
let[@inline] ctx_bound t e = Array.unsafe_get t.ctx (3 * e) >= 0
let[@inline] ctx_value t e = Array.unsafe_get t.ctx ((3 * e) + 2)

let grow_ctx t =
  let old = t.ctx in
  let size = 2 * (t.cmask + 1) in
  t.ctx <- empty_ctx size;
  t.cmask <- size - 1;
  for e = 0 to (Array.length old / 3) - 1 do
    let s = old.(3 * e) in
    if s >= 0 then Array.blit old (3 * e) t.ctx (3 * ctx_find t s old.((3 * e) + 1)) 3
  done

(* bind (s, h) to [v] at its entry [e] (from [ctx_find]) *)
let ctx_set t e s h v =
  let k = 3 * e in
  if Array.unsafe_get t.ctx k < 0 then begin
    t.ctx.(k) <- s;
    t.ctx.(k + 1) <- h;
    t.cn <- t.cn + 1
  end;
  t.ctx.(k + 2) <- v;
  if 4 * t.cn > 3 * (t.cmask + 1) then grow_ctx t

(* --- training -------------------------------------------------------- *)

let component_names = [| "last-value"; "stride"; "context" |]

(* Component predictions given the current training state. [None] means
   the component has not seen enough to speak. *)
let component_predict t s = function
  | 0 -> if get t s f_seen >= 1 then Some (get t s f_last) else None
  | 1 ->
    if get t s f_seen >= 2 then Some (get t s f_last + get t s f_delta)
    else None
  | 2 ->
    if get t s f_hist_len = history_window then
      let e = ctx_find t s (ctx_hash t.st (s * stride)) in
      if ctx_bound t e then Some (ctx_value t e) else None
    else None
  | _ -> None

(* hit +1, miss -2, saturating in [0, conf_max] (int comparisons: the
   polymorphic [min]/[max] would not be specialized here) *)
let[@inline] scored c hit =
  if hit then if c < conf_max then c + 1 else c else if c > 2 then c - 2 else 0

let[@inline] score st b i p actual =
  let f = b + f_conf + i in
  Array.unsafe_set st f (scored (Array.unsafe_get st f) (p = actual))

let observe_slot t s actual =
  let st = t.st and b = s * stride in
  let seen = Array.unsafe_get st (b + f_seen)
  and last = Array.unsafe_get st (b + f_last)
  and delta = Array.unsafe_get st (b + f_delta)
  and n = Array.unsafe_get st (b + f_hist_len) in
  (* score each component's standing prediction before training on the
     new observation *)
  if seen >= 1 then score st b 0 last actual;
  if seen >= 2 then score st b 1 (last + delta) actual;
  let h = b + f_hist in
  if n = history_window then begin
    let key = ctx_hash st b in
    let e = ctx_find t s key in
    if ctx_bound t e then score st b 2 (ctx_value t e) actual;
    (* finite-context: learn "this history leads to [actual]" *)
    ctx_set t e s key actual;
    for i = 0 to history_window - 2 do
      Array.unsafe_set st (h + i) (Array.unsafe_get st (h + i + 1))
    done;
    Array.unsafe_set st (h + history_window - 1) actual
  end
  else begin
    Array.unsafe_set st (h + n) actual;
    Array.unsafe_set st (b + f_hist_len) (n + 1)
  end;
  (* stride: the last delta seen *)
  if seen >= 1 then Array.unsafe_set st (b + f_delta) (actual - last)
  else Array.unsafe_set st (b + f_first) actual;
  Array.unsafe_set st (b + f_last) actual;
  Array.unsafe_set st (b + f_seen) (seen + 1)

let observe t cell actual = observe_slot t (slot_of t cell) actual

let demote t s =
  if t.dem_n = Array.length t.dem then begin
    let d = Array.make (2 * t.dem_n) 0 in
    Array.blit t.dem 0 d 0 t.dem_n;
    t.dem <- d
  end;
  t.dem.(t.dem_n) <- s;
  set t s f_dem_pos t.dem_n;
  t.dem_n <- t.dem_n + 1

let restore t s =
  let p = get t s f_dem_pos in
  let last = t.dem.(t.dem_n - 1) in
  t.dem.(p) <- last;
  set t last f_dem_pos p;
  set t s f_dem_pos (-1);
  t.dem_n <- t.dem_n - 1

(* Score the MASTER's checkpoint value for a cell against the actual
   architected value at verification — the same +1/-2 saturating rule as
   the components, but starting from full trust. A master that keeps
   computing a cell correctly keeps [mconf] pinned at the ceiling, and
   no component ever overrides it; a master that stopped computing the
   cell (strongly-live elision) misses repeatedly, [mconf] collapses,
   and the tournament takes the cell over. *)
let observe_master_slot t s ~supplied ~actual =
  let m = get t s f_mconf in
  let m' = scored m (supplied = actual) in
  set t s f_mconf m';
  if m' < conf_max && m = conf_max then demote t s
  else if m < conf_max && m' = conf_max then restore t s

let observe_master t cell ~supplied ~actual =
  observe_master_slot t (slot_of t cell) ~supplied ~actual

let master_trusted t s = get t s f_mconf = conf_max

let master_confidence t cell =
  let s = find_slot t cell in
  if s < 0 then conf_max else get t s f_mconf

(* --- consultation ---------------------------------------------------- *)

(* Seeded deterministic tie-break: a small integer hash of (seed, cell,
   component). No Random state anywhere — the same seed gives the same
   winner on every host. *)
let tie_rank t s i =
  let h =
    (t.seed lxor (Cell.hash t.cells.(s) * 0x9e3779b1)) + (i * 0x85ebca6b)
  in
  let h = h lxor (h lsr 13) in
  (h * 0xc2b2ae35) land max_int

(* The tournament pick for a slot: among components that have a
   prediction AND confidence >= threshold, the highest-confidence one
   (seeded tie-break on equal confidence). *)
let tournament_pick t s =
  let best = ref None in
  for i = 0 to 2 do
    match component_predict t s i with
    | None -> ()
    | Some v -> (
      let ci = get t s (f_conf + i) in
      if ci >= conf_threshold then
        match !best with
        | None -> best := Some (i, v)
        | Some (j, _) ->
          let cj = get t s (f_conf + j) in
          if ci > cj || (ci = cj && tie_rank t s i > tie_rank t s j) then
            best := Some (i, v))
  done;
  !best

(* The mode's pick for a slot with the confidence backing it. [Broken]
   claims unbounded confidence for its stale value — the deliberate
   inflated-confidence bug the mutation smoke test needs. *)
let pick_with_conf t s =
  let single i =
    match component_predict t s i with
    | Some v when get t s (f_conf + i) >= conf_threshold ->
      Some (get t s (f_conf + i), v)
    | Some _ | None -> None
  in
  if s < 0 then None
  else
    match t.mode with
    | Off -> None
    | Broken -> if get t s f_seen >= 1 then Some (max_int, get t s f_first) else None
    | Last_value -> single 0
    | Stride -> single 1
    | Context -> single 2
    | Tournament ->
      Option.map
        (fun (i, v) -> (get t s (f_conf + i), v))
        (tournament_pick t s)

let predict t cell = Option.map snd (pick_with_conf t (find_slot t cell))

(* Refinement at checkpoint construction: override live-in bindings the
   predictor is confident about — confident meaning STRICTLY more
   confident than the master itself, whose value the binding carries.
   The master is the incumbent component of the tournament: on cells it
   keeps computing correctly (the overwhelming majority — its squash
   rate without a predictor is near zero) its saturated [mconf] makes
   overrides impossible, so turning the predictor on cannot regress a
   healthy run. Only cells the master demonstrably stopped predicting
   (elided chains' residual reads) are taken over. [Pc] is control,
   never a value to predict. The result keeps the live-in's cell set —
   only values move. It is built on [li] itself, read in place: only
   overridden cells are re-added ([Live_in.add] copies the register
   array for a register, adds to the memory fragment for memory), and
   with none overridden the result is [li], physically.

   Component confidence saturates at [conf_max], so outside [Broken]
   only demoted cells can be overridden, and those are all the walk
   visits: O(|demoted| log n) per spawn, not a walk over the cumulative
   live-in. *)
let refine t li =
  let override s c v acc =
    match pick_with_conf t s with
    | Some (conf, p) when p <> v && conf > get t s f_mconf -> Live_in.add c p acc
    | Some _ | None -> acc
  in
  match t.mode with
  | Off -> li
  | Broken ->
    Live_in.fold
      (fun c v acc ->
        match c with
        | Cell.Pc -> acc
        | Cell.Reg _ | Cell.Mem _ -> override (find_slot t c) c v acc)
      li li
  | Last_value | Stride | Context | Tournament ->
    let acc = ref li in
    for k = 0 to t.dem_n - 1 do
      let s = t.dem.(k) in
      match t.cells.(s) with
      | Cell.Pc -> ()
      | Cell.Reg r as c ->
        let i = Reg.to_int r in
        if Live_in.has_reg li i then acc := override s c (Live_in.reg li i) !acc
      | Cell.Mem a as c -> (
        match Live_in.find_mem li a with
        | Some v -> acc := override s c v !acc
        | None -> ())
    done;
    !acc

(* --- introspection (tests, tooling) ---------------------------------- *)

let components t cell =
  let s = find_slot t cell in
  List.init 3 (fun i ->
      if s < 0 then (component_names.(i), None, 0)
      else (component_names.(i), component_predict t s i, get t s (f_conf + i)))

let chosen t cell =
  let s = find_slot t cell in
  if s < 0 then None
  else Option.map (fun (i, _) -> component_names.(i)) (tournament_pick t s)

let confidence t cell name =
  let s = find_slot t cell in
  let rec index i =
    if i = Array.length component_names then 0
    else if String.equal component_names.(i) name then get t s (f_conf + i)
    else index (i + 1)
  in
  if s < 0 then 0 else index 0

(* --- profile warm-up ------------------------------------------------- *)

(* The per-address observation streams the profiler records replayed in
   ascending address order — deterministic for a given profile,
   regardless of hashtable internals. *)
let warmup_of_profile profile =
  List.map
    (fun addr -> (addr, Profile.cell_observations profile addr))
    (Profile.observed_cells profile)

let warm t bindings =
  List.iter
    (fun (addr, values) ->
      let s = mem_slot t addr in
      List.iter (observe_slot t s) values)
    bindings
