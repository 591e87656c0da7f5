type t = int Cell.Map.t

let empty = Cell.Map.empty
let is_empty = Cell.Map.is_empty
let cardinal = Cell.Map.cardinal
let singleton = Cell.Map.singleton
let add = Cell.Map.add
let remove = Cell.Map.remove
let find_opt = Cell.Map.find_opt
let mem = Cell.Map.mem
let of_list bindings = List.fold_left (fun m (c, v) -> add c v m) empty bindings
let to_list = Cell.Map.bindings
let domain f = Cell.Map.fold (fun c _ acc -> Cell.Set.add c acc) f Cell.Set.empty
let fold = Cell.Map.fold
let iter = Cell.Map.iter
let filter = Cell.Map.filter

let superimpose s0 s1 =
  Cell.Map.union (fun _cell _v0 v1 -> Some v1) s0 s1

let consistent s1 s2 =
  Cell.Map.for_all
    (fun c v -> match find_opt c s2 with Some v' -> v = v' | None -> false)
    s1

let pc f = find_opt Cell.Pc f

(* [Pc] and the registers sort below every memory cell, and [Mem min_int]
   below every other memory cell: one split separates the two parts *)
let split_mem m =
  let low = Cell.Mem min_int in
  let regs, at_low, mem = Cell.Map.split low m in
  (regs, match at_low with None -> mem | Some v -> Cell.Map.add low v mem)

exception Found of Cell.t * int

let nth m k =
  if k < 0 then invalid_arg "Fragment.nth";
  let i = ref k in
  match
    Cell.Map.iter
      (fun c v -> if !i = 0 then raise_notrace (Found (c, v)) else decr i)
      m
  with
  | () -> invalid_arg "Fragment.nth"
  | exception Found (c, v) -> (c, v)

(* [Cell.is_mem] is monotone in cell order, so both ends are one
   descent each *)
let mem_bounds m =
  match (Cell.Map.find_first_opt Cell.is_mem m, Cell.Map.max_binding_opt m) with
  | Some (Cell.Mem lo, _), Some (Cell.Mem hi, _) -> Some (lo, hi)
  | _ -> None

let equal = Cell.Map.equal Int.equal
let compare = Cell.Map.compare Int.compare

let pp fmt f =
  Format.fprintf fmt "@[<hv 1>{";
  let first = ref true in
  iter
    (fun c v ->
      if not !first then Format.fprintf fmt ";@ ";
      first := false;
      Format.fprintf fmt "%a=%d" Cell.pp c v)
    f;
  Format.fprintf fmt "}@]"

let show f = Format.asprintf "%a" pp f
